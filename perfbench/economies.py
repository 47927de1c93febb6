"""Seeded inputs for the benchmark workloads, made with numpy alone.

Nothing here imports okishio_lab: the inputs and their screening stay
independent of the program under test, so a later change to the program
cannot quietly drop an input it would fail on. Screening runs in set-up,
before any timing.

Every generator is a pure function of its seed. Each economy carries a
record of the properties a later comparison may want to split on: the
number of sectors, the measured |lambda_2| / rho(M) of the wage-augmented
matrix M = A + b L, and the size of its economy JSON file.
"""

from __future__ import annotations

import json
import os

import numpy as np

LARGE_TABLE_SECTORS = 400
LARGE_TABLE_POOL = 2

NEAR_DECOMPOSABLE_SECTORS = (8, 24)
NEAR_DECOMPOSABLE_POOL = 48
NEAR_DECOMPOSABLE_RATIO = (0.9, 0.99)
NEAR_DECOMPOSABLE_COUPLING = (1e-4, 1e-3)
# Largest distance between an economy's measured ratio and its bin target.
RATIO_TARGET_TOL = 1e-3

SWEEP_POOL = 2
SWEEP_COUNT = 500

# Relative headroom demanded of the price-value ratio test, far above the
# program's own 1e-12 margin, so no screened economy sits on the edge.
ADMISSIBILITY_HEADROOM = 1e-6
PRODUCTIVITY_CEILING = 0.99
MAX_DRAWS = 10_000


def _spectral_radius(matrix: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(matrix))))


def _eigen_ratio(matrix: np.ndarray) -> float:
    """|lambda_2| / rho of a square matrix."""
    mags = np.sort(np.abs(np.linalg.eigvals(matrix)))[::-1]
    return float(mags[1] / mags[0])


def _admissible(inputs: np.ndarray, labor: np.ndarray, bundle: np.ndarray) -> bool:
    """Independent screen of the conditions the pipeline needs.

    Productive inputs, positive labor values, bundle value in (0, 1), a
    strictly positive left Perron vector of M, and a sector whose
    price-value ratio exceeds one over the bundle value with headroom.
    """
    n = inputs.shape[0]
    if _spectral_radius(inputs) >= PRODUCTIVITY_CEILING:
        return False
    values = np.linalg.solve(np.eye(n) - inputs.T, labor)
    bundle_value = float(values @ bundle)
    if np.any(values <= 0) or not 0.0 < bundle_value < 1.0:
        return False
    augmented = inputs + np.outer(bundle, labor)
    eigvals, vectors = np.linalg.eig(augmented.T)
    top = int(np.argmax(np.abs(eigvals)))
    prices = vectors[:, top].real
    prices = prices * np.sign(prices[np.argmax(np.abs(prices))])
    if abs(eigvals[top].imag) > 0 or np.any(prices <= 0):
        return False
    prices = prices / float(prices @ bundle)
    return bool(np.max(prices / values) > (1.0 + ADMISSIBILITY_HEADROOM) / bundle_value)


def economy_payload(inputs, labor, bundle) -> dict:
    """The economy file format the CLI reads (``--economy``)."""
    return {"A": inputs.tolist(), "L": labor.tolist(), "b": bundle.tolist()}


def payload_text(payload: dict) -> str:
    # Same layout as okishio_lab.save_economy writes.
    return json.dumps(payload, indent=2) + "\n"


def _chain_knobs(rng, n: int) -> dict:
    """Per-economy choices the pipeline needs, drawn as run_suite draws them."""
    return {
        "sector": int(rng.integers(n)),
        "epsilon_frac": float(rng.uniform(0.1, 0.9)),
        "labor_frac": float(rng.uniform(0.1, 0.9)),
        "constant_seed": int(rng.integers(2**63 - 1)),
        "rising_seed": int(rng.integers(2**63 - 1)),
    }


def large_table_economy(rng, n: int = LARGE_TABLE_SECTORS):
    """A dense n-sector table with an admissible bundle on every good."""
    for _ in range(MAX_DRAWS):
        inputs = rng.uniform(0.0, 1.0, (n, n))
        inputs *= rng.uniform(0.3, 0.8) / _spectral_radius(inputs)
        labor = rng.uniform(0.05, 0.5, n)
        values = np.linalg.solve(np.eye(n) - inputs.T, labor)
        direction = rng.uniform(0.1, 1.0, n)
        bundle = direction * (rng.uniform(0.3, 0.8) / float(values @ direction))
        if _admissible(inputs, labor, bundle):
            return inputs, labor, bundle
    raise RuntimeError(f"no admissible {n}-sector table in {MAX_DRAWS} draws")


def _near_decomposable_draw(rng, n: int, target: float):
    """One n-sector two-block economy tuned to |lambda_2| / rho(M) = target, or None.

    Block 1 holds the wage goods. Block-2 sectors use block-1 goods at the
    coupling level on every entry (and through the wage on every entry);
    block-1 sectors use block-2 goods through a single coupling link, which
    keeps the input graph strongly connected. A dense link both ways would
    split the two leading eigenvalues too far apart to reach ratios near
    0.99 at n = 24. The scale of block 2's input matrix is bisected
    below the crossing point, so the wage block keeps the dominant
    eigenvalue and prices stay positive. Draws whose coupling caps the
    ratio below the target are discarded.
    """
    n1 = int(rng.integers(n // 3, n - n // 3 + 1))
    block1 = np.zeros(n, dtype=bool)
    block1[:n1] = True
    inputs = np.zeros((n, n))
    a11 = rng.uniform(0.0, 1.0, (n1, n1))
    inputs[:n1, :n1] = a11 * (rng.uniform(0.3, 0.6) / _spectral_radius(a11))
    inputs[:n1, n1:] = rng.uniform(*NEAR_DECOMPOSABLE_COUPLING, (n1, n - n1))
    inputs[n1 + int(rng.integers(n - n1)), int(rng.integers(n1))] = rng.uniform(
        *NEAR_DECOMPOSABLE_COUPLING
    )
    a22 = rng.uniform(0.0, 1.0, (n - n1, n - n1))
    a22 /= _spectral_radius(a22)
    labor = rng.uniform(0.05, 0.5, n)
    direction = np.where(block1, rng.uniform(0.1, 1.0, n), 0.0)
    bundle_value = rng.uniform(0.3, 0.8)

    def build(scale):
        trial = inputs.copy()
        trial[n1:, n1:] = a22 * scale
        values = np.linalg.solve(np.eye(n) - trial.T, labor)
        bundle = direction * (bundle_value / float(values @ direction))
        return trial, bundle, _eigen_ratio(trial + np.outer(bundle, labor))

    # Block 2's input matrix has unit spectral radius before scaling, so
    # its eigenvalue meets the wage block's near scale = rho(M_11).
    _, bundle, _ = build(0.0)
    crossing = _spectral_radius(inputs[:n1, :n1] + np.outer(bundle[:n1], labor[:n1]))
    lo, hi = 0.0, min(crossing, PRODUCTIVITY_CEILING) * (1.0 - 1e-9)
    if build(hi)[2] < target:
        return None
    for _ in range(30):
        mid = 0.5 * (lo + hi)
        if build(mid)[2] < target:
            lo = mid
        else:
            hi = mid
    trial, bundle, ratio = build(hi)
    if abs(ratio - target) > RATIO_TARGET_TOL:
        return None
    if not NEAR_DECOMPOSABLE_RATIO[0] <= ratio <= NEAR_DECOMPOSABLE_RATIO[1]:
        return None
    if not _admissible(trial, labor, bundle):
        return None
    return trial, labor, bundle, ratio


def near_decomposable_economy(rng, n: int, target: float):
    for _ in range(MAX_DRAWS):
        draw = _near_decomposable_draw(rng, n, target)
        if draw is not None:
            return draw
    raise RuntimeError(f"no {n}-sector near-decomposable economy with ratio {target} in {MAX_DRAWS} draws")


def ratio_targets(count: int = NEAR_DECOMPOSABLE_POOL) -> list:
    """Stratified |lambda_2| / rho targets across the screened range.

    Power-iteration cost grows like 1 / -log(ratio), so drawing the ratio
    freely would let one seed's pool be much slower than another's. Bin
    midpoints keep the mix of convergence rates the same for every seed;
    the seed still chooses every coefficient.
    """
    lo, hi = NEAR_DECOMPOSABLE_RATIO
    return [lo + (hi - lo) * (k + 0.5) / count for k in range(count)]


def sector_counts(count: int = NEAR_DECOMPOSABLE_POOL) -> list:
    """Sector counts paired with ratio_targets(), the same for every seed.

    Each solve costs about n^2 per iteration, and drawing n freely made the
    mean n^2 of a 48-economy pool range from 216 to 317 over seeds 1 to 10,
    which moved the pool's median and tail time between seeds by more
    than the host's noise. Stepping by 7 (coprime with the 17 sizes)
    spreads every size over the whole ratio range.
    """
    lo, hi = NEAR_DECOMPOSABLE_SECTORS
    sizes = hi - lo + 1
    return [lo + (7 * k) % sizes for k in range(count)]


def _record(inputs, labor, bundle) -> dict:
    return {
        "n": int(inputs.shape[0]),
        "ratio": _eigen_ratio(inputs + np.outer(bundle, labor)),
        "json_bytes": len(payload_text(economy_payload(inputs, labor, bundle)).encode()),
    }


def sweep_plan(seed: int) -> dict:
    """Sweep seeds for the CLI; the program's own generator makes the
    economies, with its default n in [2, 8]."""
    rng = np.random.default_rng([seed, 0])
    seeds = [int(x) for x in rng.integers(0, 2**31 - 1, SWEEP_POOL)]
    return {"rng_key": [seed, 0], "seeds": seeds, "count": SWEEP_COUNT}


def large_table_plan(seed: int, workdir: str) -> dict:
    """Write the economy files and return the manifest describing them."""
    rng = np.random.default_rng([seed, 1])
    economies = []
    for k in range(LARGE_TABLE_POOL):
        inputs, labor, bundle = large_table_economy(rng)
        path = os.path.join(workdir, f"economy-{k}.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(payload_text(economy_payload(inputs, labor, bundle)))
        economies.append({"path": path, **_record(inputs, labor, bundle), **_chain_knobs(rng, inputs.shape[0])})
    return {"rng_key": [seed, 1], "economies": economies}


def near_decomposable_plan(seed: int) -> dict:
    """Economies are small, so the manifest carries them inline."""
    rng = np.random.default_rng([seed, 2])
    economies = []
    for n, target in zip(sector_counts(), ratio_targets()):
        inputs, labor, bundle, _ = near_decomposable_economy(rng, n, target)
        economies.append(
            {
                **economy_payload(inputs, labor, bundle),
                **_record(inputs, labor, bundle),
                "target_ratio": target,
                **_chain_knobs(rng, inputs.shape[0]),
            }
        )
    return {"rng_key": [seed, 2], "economies": economies}


def plan(workload: str, seed: int, workdir: str) -> dict:
    if workload == "sweep-small":
        return sweep_plan(seed)
    if workload == "large-table":
        return large_table_plan(seed, workdir)
    if workload == "near-decomposable":
        return near_decomposable_plan(seed)
    raise ValueError(f"unknown workload {workload!r}")
