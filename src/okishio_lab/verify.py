"""End-to-end scenario runner, independent oracles, and the random suite.

A *scenario* is: solve an economy, apply a technical change together
with a replacement wage bundle, solve again, and compare. The verdict
names what happened to the profit rate and the exploitation rate. The
profit rate ``1/rho - 1`` counts as fallen or risen only when the
Collatz–Wielandt brackets on ``rho`` before and after the change are
disjoint, so no verdict rests on a margin in the units of the rates.

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
from dataclasses import dataclass, fields

import numpy as np

from .errors import EconomyError, OracleLimit
# uniform_profit_rate is bound here for perfbench/tracing.py, which wraps
# each name in every module that binds it, and for its tests.
from .equilibrium import (  # noqa: F401
    admissibility,
    solve_equilibria,
    uniform_profit_rate,
)
from .linear_economy import (
    Technology,
    WageBundle,
    _by_size,
    _connected_rows,
    certify_techniques,
    exploitation_rate,
    labor_values,
    value_of_bundle,
)
from .synthesis import (
    WageRegion,
    analyze_changes,
    ratio_condition_holds,
    sample_constant_exploitation,
    sample_rising_exploitation,
    synthesize_culs_change,
    SynthesizedChange,
)
from .technical_change import TechChange, check_properties

# Economies that run_suite draws, solves and verifies together.
SUITE_BLOCK = 128
# Candidate draws random_economy makes before giving up.
DRAW_ATTEMPTS = 200
EXPLOITATION_MATCH_TOL = 1e-9


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


# The flags' names, in field order: their CSV columns and JSON keys.
SCENARIO_FLAG_NAMES = tuple(flag.name for flag in fields(ScenarioFlags))


@dataclass(frozen=True, eq=False)
class ScenarioReport:
    """Before/after snapshot of one technical-change scenario.

    ``pre_rho_bounds`` and ``post_rho_bounds`` are the verifier's own
    Collatz–Wielandt brackets on the wage-augmented spectral radius,
    from which the verdict is decided.
    """

    pre_profit: float
    pre_prices: np.ndarray
    pre_values: np.ndarray
    pre_exploitation: float
    post_profit: float
    post_prices: np.ndarray
    post_values: np.ndarray
    post_exploitation: float
    pre_rho_bounds: tuple[float, float]
    post_rho_bounds: tuple[float, float]
    flags: ScenarioFlags
    verdict: Verdict


def _profit_fell(pre_bounds, post_bounds) -> bool:
    """The profit rate ``1/rho - 1`` certainly fell: ``rho`` certainly rose."""
    return post_bounds[0] > pre_bounds[1]


def _verdict(
    pre_bounds: tuple[float, float],
    post_bounds: tuple[float, float],
    pre_exploitation: float,
    post_exploitation: float,
) -> Verdict:
    fell = _profit_fell(pre_bounds, post_bounds)
    # It rose when rho certainly fell: the same test, sides swapped.
    rose = _profit_fell(post_bounds, pre_bounds)
    change = post_exploitation - pre_exploitation
    if fell and abs(change) <= EXPLOITATION_MATCH_TOL:
        return Verdict.PROFIT_FELL_EXPLOITATION_CONSTANT
    if fell and change > EXPLOITATION_MATCH_TOL:
        return Verdict.PROFIT_FELL_EXPLOITATION_ROSE
    if rose:
        return Verdict.OKISHIO_RISE
    return Verdict.INCONCLUSIVE


def run_scenarios(
    tech: Technology,
    bundle: WageBundle,
    change: TechChange,
    new_bundles: tuple,
) -> list[ScenarioReport]:
    """Solve before a change once, then after it under each new bundle.

    Everything is recomputed from the raw inputs; no intermediate state
    is shared with whatever produced the change or the bundles. Module
    errors propagate with scenario context prepended.
    """
    return _verify([(tech, bundle, change, tuple(new_bundles))])[0]


def _verify(cases: list) -> list[list[ScenarioReport]]:
    """``run_scenarios`` for each ``(tech, bundle, change, new_bundles)``.

    One stacked solve prices every pre-change state, one stacked check
    per size certifies the patched techniques, and one stacked solve
    prices every post-change state. When any step fails, the cases are
    run again one at a time, so the error raised is the first failing
    case's, with its context.
    """
    try:
        return _verify_stacked(cases)
    except EconomyError as err:
        if len(cases) > 1:
            for case in cases:
                _verify([case])
            raise
        tech, _, change, _ = cases[0]
        context = f"scenario with {tech.n} sectors, change in sector {change.sector + 1}"
        if hasattr(err, "add_note"):
            err.add_note(context)
            raise
        raise type(err)(f"{err} ({context})") from err


def _verify_stacked(cases: list) -> list[list[ScenarioReport]]:
    pre_eqs = solve_equilibria([(tech, bundle) for tech, bundle, _, _ in cases])
    analyses = analyze_changes(
        [
            (tech, bundle, pre_eq, change)
            for (tech, bundle, change, _), pre_eq in zip(cases, pre_eqs)
        ]
    )
    post_eqs = iter(
        solve_equilibria(
            [
                (analysis.patched, new_bundle)
                for analysis, case in zip(analyses, cases)
                for new_bundle in case[3]
            ]
        )
    )
    return [
        [_report(case, pre_eq, analysis, new_bundle, next(post_eqs)) for new_bundle in case[3]]
        for case, pre_eq, analysis in zip(cases, pre_eqs, analyses)
    ]


def _report(case, pre_eq, analysis, new_bundle, post_eq) -> ScenarioReport:
    tech, bundle, change, _ = case
    pre, new_values = analysis.values, analysis.new_values
    classification, region = analysis.classification, analysis.region
    flags_pre = admissibility(pre_eq.prices, pre.values, pre.bundle_value)
    post_exploit = exploitation_rate(value_of_bundle(new_values, new_bundle))
    properties = check_properties(
        tech, change, pre_eq, pre.values, new_values, bundle, new_bundle
    )
    return ScenarioReport(
        pre_profit=pre_eq.profit_rate,
        pre_prices=pre_eq.prices,
        pre_values=pre.values,
        pre_exploitation=pre.exploitation,
        post_profit=post_eq.profit_rate,
        post_prices=post_eq.prices,
        post_values=new_values,
        post_exploitation=post_exploit,
        pre_rho_bounds=pre_eq.rho_bounds,
        post_rho_bounds=post_eq.rho_bounds,
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
            pre_eq.rho_bounds, post_eq.rho_bounds, pre.exploitation, post_exploit
        ),
    )


def run_scenario(
    tech: Technology,
    bundle: WageBundle,
    change: TechChange,
    new_bundle: WageBundle,
) -> ScenarioReport:
    """Solve before and after a change: ``run_scenarios`` with one bundle."""
    return run_scenarios(tech, bundle, change, (new_bundle,))[0]


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
    are rejected and retried, up to DRAW_ATTEMPTS draws. ``n`` must be at
    least 2: with one sector price over value is one over the bundle
    value exactly, so no bundle has ratio headroom.
    """
    if n < 2:
        raise ValueError(
            f"a random economy needs at least 2 sectors, got {n}: with one, "
            "no wage bundle is admissible"
        )
    tech, bundle, _ = _draw_economies([rng], [n])[0]
    return tech, bundle


def _draw_economies(rngs: list, sizes: list) -> list:
    """``random_economy`` for several generators, with its equilibria.

    Each round draws one candidate per economy still open, from that
    economy's own generator, in phases: raw inputs; one connectivity
    check per size, patching a cycle into each matrix that fails it; one
    stacked ``eigvals`` per size for the radius; scale and labor; one
    stacked certification per size; the bundle; and one
    ``solve_equilibria`` call for all. Only rejected economies draw
    again, so each generator is consumed as ``random_economy`` alone
    consumes it: a candidate whose radius is not positive is dropped
    before its scale is drawn, and an economy that has made
    DRAW_ATTEMPTS draws raises RuntimeError. Returns
    ``(tech, bundle, equilibrium)`` per generator.
    """
    drawn: list = [None] * len(rngs)
    attempts = [0] * len(rngs)
    pending = list(range(len(rngs)))
    while pending:
        for index in pending:
            if attempts[index] == DRAW_ATTEMPTS:
                raise RuntimeError(
                    f"no admissible {sizes[index]}-sector economy in {DRAW_ATTEMPTS} draws"
                )
            attempts[index] += 1
        raw = {index: rngs[index].uniform(0.0, 0.3, (sizes[index],) * 2) for index in pending}
        radii = {}
        for rows in _by_size([sizes[index] for index in pending]).values():
            group = [pending[row] for row in rows]
            connected = _connected_rows(np.array([raw[index] for index in group]))
            for index, ok in zip(group, connected):
                if not ok:
                    raw[index] = _connect_cycle(raw[index], rngs[index])
            moduli = np.abs(np.linalg.eigvals(np.array([raw[index] for index in group])))
            radii.update(zip(group, moduli.max(axis=1).tolist()))
        live = [index for index in pending if radii[index] > 0]
        labor = []
        for index in live:
            raw[index] *= rngs[index].uniform(0.3, 0.8) / radii[index]
            labor.append(rngs[index].uniform(0.05, 0.5, sizes[index]))
        candidates = []
        for index, tech in zip(live, certify_techniques([raw[i] for i in live], labor)):
            values = labor_values(tech)
            direction = rngs[index].uniform(0.1, 1.0, sizes[index])
            target = rngs[index].uniform(0.3, 0.9)
            candidates.append(
                (tech, WageBundle(direction * (target / float(values @ direction))))
            )
        rejected = [index for index in pending if not radii[index] > 0]
        for index, (tech, bundle), equilibrium in zip(
            live, candidates, solve_equilibria(candidates)
        ):
            values = labor_values(tech)
            flags = admissibility(
                equilibrium.prices, values, value_of_bundle(values, bundle)
            )
            if flags.admissible:
                drawn[index] = (tech, bundle, equilibrium)
            else:
                rejected.append(index)
        pending = sorted(rejected)
    return drawn


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
        """Old bundle kept: the profit rate must not certainly fall."""
        return not _profit_fell(self.okishio.pre_rho_bounds, self.okishio.post_rho_bounds)

    @property
    def rising_ok(self) -> bool:
        return self.rising.verdict is Verdict.PROFIT_FELL_EXPLOITATION_ROSE


def run_suite(seed: int = 1000, count: int = 500, n_range: tuple = (2, 8)) -> list[SweepRecord]:
    """Generate ``count`` economies and run the three branches on each.

    Fully deterministic in ``seed``: economy number ``index`` is drawn
    from a generator keyed on (seed, index), so records are reproducible
    individually. ``iter_suite``, collected.
    """
    return list(iter_suite(seed, count, n_range))


def iter_suite(seed: int = 1000, count: int = 500, n_range: tuple = (2, 8)):
    """``run_suite``'s records in index order, SUITE_BLOCK economies at a time.

    Arguments are checked at the call. The records of one block are made
    together, and each is the same whichever other economies share its
    block.
    """
    lo, hi = int(n_range[0]), int(n_range[1])
    if not 2 <= lo <= hi:
        # One sector never has ratio headroom: price over value is one
        # over the bundle value exactly.
        raise ValueError(
            f"bad sector range {n_range}: need 2 <= n_min <= n_max, "
            "since one sector admits no wage bundle"
        )
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    return (
        record
        for start in range(0, count, SUITE_BLOCK)
        for record in _sweep_block(seed, range(start, min(start + SUITE_BLOCK, count)), (lo, hi))
    )


def _sweep_block(seed: int, indices: range, sizes: tuple) -> list:
    """Records for the economies ``indices``: draw, synthesize, verify.

    The producer draws every economy's knobs, synthesizes each change at
    the equilibrium its draw solved, analyzes all the changes together
    (one stacked certification per size) and samples the bundles; the
    verifier then prices every economy again from its raw inputs, in one
    stacked solve before the changes and one after.
    """
    rngs = [np.random.default_rng([seed, index]) for index in indices]
    ns = [int(rng.integers(sizes[0], sizes[1] + 1)) for rng in rngs]
    drawn = _draw_economies(rngs, ns)
    knobs = [
        (
            int(rng.integers(n)),
            float(rng.uniform(0.1, 0.9)),
            float(rng.uniform(0.1, 0.9)),
            int(rng.integers(2**63 - 1)),
            int(rng.integers(2**63 - 1)),
        )
        for rng, n in zip(rngs, ns)
    ]
    synthesized = [
        synthesize_culs_change(tech, bundle, equilibrium, sector, epsilon_frac, labor_frac)
        for (tech, bundle, equilibrium), (sector, epsilon_frac, labor_frac, _, _) in zip(
            drawn, knobs
        )
    ]
    analyses = analyze_changes(
        [(*economy, synth.change) for economy, synth in zip(drawn, synthesized)]
    )
    produced = [
        dict(
            index=index, seed=seed, n=n, tech=tech, bundle=bundle,
            synthesized=synth, region=analysis.region,
            constant_bundle=sample_constant_exploitation(analysis.region, constant_seed),
            rising_bundle=sample_rising_exploitation(analysis.region, rising_seed),
        )
        for index, n, (tech, bundle, _), (*_, constant_seed, rising_seed), synth, analysis
        in zip(indices, ns, drawn, knobs, synthesized, analyses)
    ]
    cases = [
        (
            fields["tech"], fields["bundle"], fields["synthesized"].change,
            (fields["constant_bundle"], fields["bundle"], fields["rising_bundle"]),
        )
        for fields in produced
    ]
    return [
        SweepRecord(**fields, scenario=scenario, okishio=okishio, rising=rising)
        for fields, (scenario, okishio, rising) in zip(produced, _verify(cases))
    ]


SUITE_CSV_COLUMNS = [
    "index",
    "seed",
    "n",
    *SCENARIO_FLAG_NAMES,
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


def suite_csv_row(record: SweepRecord) -> list:
    """One record's CSV row, under SUITE_CSV_COLUMNS.

    Floats use repr, so output is byte-identical across runs with the
    same seed.
    """
    flags = record.scenario.flags
    return [
        record.index,
        record.seed,
        record.n,
        *(getattr(flags, name) for name in SCENARIO_FLAG_NAMES),
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


def suite_csv(records) -> str:
    """Flatten suite records to CSV text, header first."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(SUITE_CSV_COLUMNS)
    writer.writerows(map(suite_csv_row, records))
    return buffer.getvalue()


def suite_summary(records) -> dict:
    """Aggregate counts; ``violations`` must be zero on a healthy build.

    Reads ``records`` once, so it also counts a stream as it goes.
    """
    verdicts = {verdict.value: 0 for verdict in Verdict}
    count = okishio_violations = rising_violations = 0
    for record in records:
        count += 1
        verdicts[record.scenario.verdict.value] += 1
        if not record.okishio_ok:
            okishio_violations += 1
        if not record.rising_ok:
            rising_violations += 1
    main_violations = count - verdicts[Verdict.PROFIT_FELL_EXPLOITATION_CONSTANT.value]
    return {
        "count": count,
        "verdicts": verdicts,
        "okishio_violations": okishio_violations,
        "rising_violations": rising_violations,
        "violations": main_violations + okishio_violations + rising_violations,
    }
