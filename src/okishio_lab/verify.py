"""End-to-end scenario runner, independent oracles, and the random suite.

A *scenario* is: solve an economy, apply a technical change together
with a replacement wage bundle, solve again, and compare. The verdict
names what happened to the profit rate and the exploitation rate.

The oracles here deliberately avoid the production code paths: the
spectral-radius oracle brackets the dominant eigenvalue by testing
geometric decay of matrix powers (no eigensolver), and the region
membership oracle re-derives the defining inequalities from raw dot
products. They exist so the main pipeline can be cross-checked on many
random economies, not just on fixtures.
"""

from __future__ import annotations

import csv
import enum
import io
from dataclasses import dataclass

import numpy as np

from .errors import EconomyError, OracleLimit
from .equilibrium import DEFAULT_RESIDUAL_TOL, admissibility, uniform_profit_rate
from .linear_economy import (
    Technology,
    WageBundle,
    _strongly_connected,
    exploitation_rate,
    labor_values,
    value_of_bundle,
)
from .synthesis import (
    WageRegion,
    analyze_change,
    ratio_condition_holds,
    sample_constant_exploitation,
    sample_rising_exploitation,
    synthesize_culs_change,
    SynthesizedChange,
)
from .technical_change import TechChange, check_properties

PROFIT_FALL_MARGIN = 1e-12
EXPLOITATION_MATCH_TOL = 1e-9
CONTROL_SLACK = 1e-9


class Verdict(enum.Enum):
    """What a scenario did to the profit and exploitation rates."""

    PROFIT_FELL_EXPLOITATION_CONSTANT = "ProfitFellExploitationConstant"
    PROFIT_FELL_EXPLOITATION_ROSE = "ProfitFellExploitationRose"
    OKISHIO_RISE = "OkishioRise"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True, eq=False)
class ScenarioFlags:
    """Side conditions recorded while running a scenario."""

    viable: bool
    culs: bool
    more_expensive: bool
    value_constant: bool
    saving_bounded: bool
    admissible_pre: bool
    surplus_ok_post: bool
    region_feasible: bool
    ratio_condition: bool


@dataclass(frozen=True, eq=False)
class ScenarioReport:
    """Before/after snapshot of one technical-change scenario."""

    pre_profit: float
    pre_prices: np.ndarray
    pre_values: np.ndarray
    pre_exploitation: float
    post_profit: float
    post_prices: np.ndarray
    post_values: np.ndarray
    post_exploitation: float
    flags: ScenarioFlags
    verdict: Verdict


def _verdict(
    pre_profit: float,
    post_profit: float,
    pre_exploitation: float,
    post_exploitation: float,
) -> Verdict:
    fell = post_profit < pre_profit - PROFIT_FALL_MARGIN
    rose = post_profit > pre_profit + PROFIT_FALL_MARGIN
    if fell and abs(post_exploitation - pre_exploitation) <= EXPLOITATION_MATCH_TOL:
        return Verdict.PROFIT_FELL_EXPLOITATION_CONSTANT
    if fell and post_exploitation > pre_exploitation + PROFIT_FALL_MARGIN:
        return Verdict.PROFIT_FELL_EXPLOITATION_ROSE
    if rose:
        return Verdict.OKISHIO_RISE
    return Verdict.INCONCLUSIVE


def run_scenarios(
    tech: Technology,
    bundle: WageBundle,
    change: TechChange,
    new_bundles: tuple,
    residual_tol: float = DEFAULT_RESIDUAL_TOL,
) -> list[ScenarioReport]:
    """Solve before a change once, then after it under each new bundle.

    Everything is recomputed from the raw inputs; no intermediate state
    is shared with whatever produced the change or the bundles. Module
    errors propagate with scenario context prepended.
    """
    try:
        pre_eq = uniform_profit_rate(tech, bundle, residual_tol)
        analysis = analyze_change(tech, bundle, pre_eq, change)
        pre, new_values = analysis.values, analysis.new_values
        flags_pre = admissibility(pre_eq.prices, pre.values, pre.bundle_value)
        posts = []
        for new_bundle in new_bundles:
            post_eq = uniform_profit_rate(analysis.patched, new_bundle, residual_tol)
            post_exploit = exploitation_rate(value_of_bundle(new_values, new_bundle))
            properties = check_properties(
                tech, change, pre_eq, pre.values, new_values, bundle, new_bundle
            )
            posts.append((post_eq, post_exploit, properties))
    except EconomyError as err:
        context = f"scenario with {tech.n} sectors, change in sector {change.sector + 1}"
        if hasattr(err, "add_note"):
            err.add_note(context)
            raise
        raise type(err)(f"{err} ({context})") from err
    classification, region = analysis.classification, analysis.region
    return [
        ScenarioReport(
            pre_profit=pre_eq.profit_rate,
            pre_prices=pre_eq.prices,
            pre_values=pre.values,
            pre_exploitation=pre.exploitation,
            post_profit=post_eq.profit_rate,
            post_prices=post_eq.prices,
            post_values=new_values,
            post_exploitation=post_exploit,
            flags=ScenarioFlags(
                viable=classification.viable,
                culs=classification.culs,
                more_expensive=properties.more_expensive,
                value_constant=properties.value_constant,
                saving_bounded=properties.saving_bounded,
                admissible_pre=flags_pre.admissible,
                surplus_ok_post=properties.surplus_ok_post,
                region_feasible=region is not None and region.feasible,
                ratio_condition=region is not None and ratio_condition_holds(region),
            ),
            verdict=_verdict(
                pre_eq.profit_rate, post_eq.profit_rate, pre.exploitation, post_exploit
            ),
        )
        for post_eq, post_exploit, properties in posts
    ]


def run_scenario(
    tech: Technology,
    bundle: WageBundle,
    change: TechChange,
    new_bundle: WageBundle,
    residual_tol: float = DEFAULT_RESIDUAL_TOL,
) -> ScenarioReport:
    """Solve before and after a change: ``run_scenarios`` with one bundle."""
    return run_scenarios(tech, bundle, change, (new_bundle,), residual_tol)[0]


ORACLE_MAX_SECTORS = 6
_ORACLE_BISECT_TOL = 1e-10
# 13 squarings = 8192 effective power, within a 10k-term budget.
_ORACLE_SQUARINGS = 13


def _powers_decay(matrix: np.ndarray, mu: float) -> bool:
    """True when powers of matrix/mu shrink geometrically.

    Tracks the log of the infinity norm of dyadic powers; squaring the
    normalized iterate keeps everything in floating range. The final
    decision compares the last two log norms, so any constant factor in
    the norm equivalence cancels.
    """
    scaled = matrix / mu
    norm = float(np.max(np.abs(scaled).sum(axis=1)))
    if norm == 0.0:
        return True
    log_norm = float(np.log(norm))
    iterate = scaled / norm
    prev = log_norm
    for _ in range(_ORACLE_SQUARINGS):
        squared = iterate @ iterate
        step = float(np.max(np.abs(squared).sum(axis=1)))
        if step == 0.0:
            return True
        log_norm = 2.0 * log_norm + float(np.log(step))
        if log_norm < np.log(1e-12):
            return True
        if log_norm > np.log(1e12):
            return False
        iterate = squared / step
        delta = log_norm - prev
        prev = log_norm
    return delta < -1e-12


def oracle_spectral_radius(matrix) -> float:
    """Bracket the dominant eigenvalue of a nonnegative matrix.

    Pure convergence test plus bisection: no eigensolver, no shared code
    with the power iteration it is meant to check. Limited to 6 sectors
    (OracleLimit beyond) since cost grows with the bisection depth.
    Exact when the spectral radius equals the largest row sum.
    """
    arr = np.asarray(matrix, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"matrix must be square, got shape {arr.shape}")
    if np.any(arr < 0):
        raise ValueError("oracle requires a nonnegative matrix")
    if arr.shape[0] > ORACLE_MAX_SECTORS:
        raise OracleLimit(
            f"spectral radius oracle supports up to {ORACLE_MAX_SECTORS} sectors, "
            f"got {arr.shape[0]}"
        )
    hi = float(np.max(arr.sum(axis=1)))
    if hi == 0.0:
        return 0.0
    if not _powers_decay(arr, hi):
        # Row-sum bound attained; no smaller scale can converge.
        return hi
    lo = 0.0
    while hi - lo > _ORACLE_BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if _powers_decay(arr, mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True, eq=False)
class RegionMembership:
    """Raw inequality checks for a point against a wage region."""

    nonnegative: bool
    above_price_plane: bool
    on_value_plane: bool

    @property
    def overall(self) -> bool:
        return self.nonnegative and self.above_price_plane and self.on_value_plane


def oracle_region_membership(point, region: WageRegion) -> RegionMembership:
    """Check region membership from raw dot products.

    Accepts a WageBundle or a bare array (a bare zero vector is legal
    here even though WageBundle forbids it).
    """
    quantities = np.asarray(getattr(point, "quantities", point), dtype=float)
    if quantities.shape[0] != region.n:
        raise ValueError(
            f"point of length {quantities.shape[0]} cannot lie in a "
            f"{region.n}-sector region"
        )
    cost = float(region.prices @ quantities)
    worth = float(region.new_values @ quantities)
    return RegionMembership(
        nonnegative=bool(np.all(quantities >= 0)),
        above_price_plane=cost > region.price_offset + 1e-12,
        on_value_plane=abs(worth - region.value_offset) <= 1e-10,
    )


def _connect_cycle(inputs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Add a random production cycle so the input graph is strongly connected."""
    n = inputs.shape[0]
    order = rng.permutation(n)
    patched = inputs.copy()
    for k in range(n):
        patched[order[(k + 1) % n], order[k]] += 1e-3
    return patched


def random_economy(rng: np.random.Generator, n: int) -> tuple[Technology, WageBundle]:
    """Draw a valid economy whose wage bundle is admissible.

    The input matrix is rescaled to a random spectral radius in
    (0.3, 0.8) and the bundle to a random labor value in (0.3, 0.9);
    draws failing admissibility (e.g. near-equal organic compositions)
    are rejected and retried.
    """
    for _ in range(200):
        inputs = rng.uniform(0.0, 0.3, (n, n))
        if not _strongly_connected(inputs):
            inputs = _connect_cycle(inputs, rng)
        radius = float(np.max(np.abs(np.linalg.eigvals(inputs))))
        if radius <= 0:
            continue
        inputs *= rng.uniform(0.3, 0.8) / radius
        labor = rng.uniform(0.05, 0.5, n)
        tech = Technology(inputs, labor)
        values = labor_values(tech)
        direction = rng.uniform(0.1, 1.0, n)
        target = rng.uniform(0.3, 0.9)
        bundle = WageBundle(direction * (target / float(values @ direction)))
        equilibrium = uniform_profit_rate(tech, bundle)
        flags = admissibility(
            equilibrium.prices, values, value_of_bundle(values, bundle)
        )
        if flags.admissible:
            return tech, bundle
    raise RuntimeError(f"no admissible {n}-sector economy in 200 draws")


@dataclass(frozen=True, eq=False)
class SweepRecord:
    """One random economy pushed through all three scenario branches.

    ``scenario`` replaces the bundle with a constant-exploitation sample,
    ``okishio`` keeps the old bundle fixed, and ``rising`` uses a sample
    strictly below the old bundle's labor value.
    """

    index: int
    seed: int
    n: int
    tech: Technology
    bundle: WageBundle
    synthesized: SynthesizedChange
    region: WageRegion
    constant_bundle: WageBundle
    rising_bundle: WageBundle
    scenario: ScenarioReport
    okishio: ScenarioReport
    rising: ScenarioReport

    @property
    def okishio_ok(self) -> bool:
        """Old bundle kept: the profit rate must not fall."""
        return self.okishio.post_profit >= self.okishio.pre_profit - CONTROL_SLACK

    @property
    def rising_ok(self) -> bool:
        return self.rising.verdict is Verdict.PROFIT_FELL_EXPLOITATION_ROSE


def run_suite(
    seed: int = 1000,
    count: int = 500,
    n_range: tuple = (2, 8),
    residual_tol: float = DEFAULT_RESIDUAL_TOL,
) -> list[SweepRecord]:
    """Generate ``count`` economies and run the three branches on each.

    Fully deterministic in ``seed``: economy number ``index`` is drawn
    from a generator keyed on (seed, index), so records are reproducible
    individually.
    """
    lo, hi = int(n_range[0]), int(n_range[1])
    if not 1 <= lo <= hi:
        raise ValueError(f"bad sector range {n_range}")
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    records = []
    for index in range(count):
        rng = np.random.default_rng([seed, index])
        n = int(rng.integers(lo, hi + 1))
        tech, bundle = random_economy(rng, n)
        sector = int(rng.integers(n))
        epsilon_frac = float(rng.uniform(0.1, 0.9))
        labor_frac = float(rng.uniform(0.1, 0.9))
        equilibrium = uniform_profit_rate(tech, bundle, residual_tol)
        synthesized = synthesize_culs_change(
            tech, bundle, equilibrium, sector, epsilon_frac, labor_frac
        )
        change = synthesized.change
        region = analyze_change(tech, bundle, equilibrium, change).region
        constant_seed = int(rng.integers(2**63 - 1))
        rising_seed = int(rng.integers(2**63 - 1))
        constant_bundle = sample_constant_exploitation(region, constant_seed)
        rising_bundle = sample_rising_exploitation(region, rising_seed)
        scenario, okishio, rising = run_scenarios(
            tech, bundle, change, (constant_bundle, bundle, rising_bundle), residual_tol
        )
        records.append(
            SweepRecord(
                index=index,
                seed=seed,
                n=n,
                tech=tech,
                bundle=bundle,
                synthesized=synthesized,
                region=region,
                constant_bundle=constant_bundle,
                rising_bundle=rising_bundle,
                scenario=scenario,
                okishio=okishio,
                rising=rising,
            )
        )
    return records


_CSV_COLUMNS = [
    "index",
    "seed",
    "n",
    "viable",
    "culs",
    "more_expensive",
    "value_constant",
    "saving_bounded",
    "admissible_pre",
    "surplus_ok_post",
    "region_feasible",
    "ratio_condition",
    "profit_pre",
    "profit_post",
    "exploitation_pre",
    "exploitation_post",
    "verdict",
    "okishio_profit_post",
    "okishio_ok",
    "rising_exploitation_post",
    "rising_ok",
]


def suite_csv(records) -> str:
    """Flatten suite records to CSV. Floats use repr, so output is
    byte-identical across runs with the same seed."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    for record in records:
        flags = record.scenario.flags
        writer.writerow(
            [
                record.index,
                record.seed,
                record.n,
                flags.viable,
                flags.culs,
                flags.more_expensive,
                flags.value_constant,
                flags.saving_bounded,
                flags.admissible_pre,
                flags.surplus_ok_post,
                flags.region_feasible,
                flags.ratio_condition,
                repr(record.scenario.pre_profit),
                repr(record.scenario.post_profit),
                repr(record.scenario.pre_exploitation),
                repr(record.scenario.post_exploitation),
                record.scenario.verdict.value,
                repr(record.okishio.post_profit),
                record.okishio_ok,
                repr(record.rising.post_exploitation),
                record.rising_ok,
            ]
        )
    return buffer.getvalue()


def suite_summary(records) -> dict:
    """Aggregate counts; ``violations`` must be zero on a healthy build."""
    verdicts = {verdict.value: 0 for verdict in Verdict}
    okishio_violations = 0
    rising_violations = 0
    for record in records:
        verdicts[record.scenario.verdict.value] += 1
        if not record.okishio_ok:
            okishio_violations += 1
        if not record.rising_ok:
            rising_violations += 1
    main_violations = len(records) - verdicts[
        Verdict.PROFIT_FELL_EXPLOITATION_CONSTANT.value
    ]
    return {
        "count": len(records),
        "verdicts": verdicts,
        "okishio_violations": okishio_violations,
        "rising_violations": rising_violations,
        "violations": main_violations + okishio_violations + rising_violations,
    }
