"""End-to-end scenario runner, independent oracles, and the random suite.

A *scenario* is: solve an economy, apply a technical change together
with a replacement wage bundle, solve again, and compare. The verdict
names what happened to the profit rate and the exploitation rate. The
profit rate ``1/rho - 1`` counts as fallen or risen only when the
Collatz–Wielandt brackets on ``rho`` before and after the change are
disjoint, so no verdict rests on a margin in the units of the rates.
``run_scenarios`` passes its one case to ``_verify_rows``, and the sweep
passes each size group's arrays to it in one call; both build their
reports from its arrays with ``_scenario_reports``. ``iter_suite_rows``,
which the CLI's sweep writes, reads its rows from those arrays and builds
no report.

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
from collections import namedtuple
from dataclasses import dataclass, fields
from itertools import repeat
from operator import itemgetter

import numpy as np

from .errors import EconomyError, NoConvergence, OracleLimit
# uniform_profit_rate is bound here for perfbench/tracing.py, which wraps
# each name in every module that binds it, and for its tests.
from .equilibrium import (  # noqa: F401
    _augmented, _check_prices, _price_rows, _Prices, admissibility, uniform_profit_rate
)
from .linear_economy import (
    Technology, WageBundle, _by_size, _certify_rows, _check_bundles, _dots, _is_integer,
    _require_fit, exploitation_rate,
)
from .synthesis import (
    SynthesizedChange, WageRegion, _analyze_rows, _generators, _ratio_rows, _sample_rows,
    _synthesize_rows, _synthesized_change, _uniform, _wage_region,
)
from .technical_change import (
    TechChange, _change_row, _classify_rows, _Costs, _patch_rows, _property_rows,
)
from .tolerances import (
    MATCH_TOL, ON_PLANE_TOL, ORACLE_BISECT_TOL, ORACLE_DECAY_TOL, STRICT_MARGIN, matches,
    strictly_above,
)

# Economies that run_suite draws, solves and verifies together: at least
# SUITE_BLOCK, and as many as hold SUITE_ENTRIES input-matrix entries at the
# largest sector count (suite_block).
SUITE_BLOCK = 128
SUITE_ENTRIES = 512 * 8 * 8
# Candidate draws random_economy makes before giving up.
DRAW_ATTEMPTS = 200


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


def _profit_fell(pre_bounds, post_bounds):
    """The profit rate ``1/rho - 1`` certainly fell (``rho`` certainly rose),
    from one ``(lo, hi)`` bracket a side or ``(k, 2)`` arrays of them."""
    return np.asarray(post_bounds)[..., 0] > np.asarray(pre_bounds)[..., 1]


# Verdicts by the codes _verdict_codes gives them.
_VERDICTS = (Verdict.INCONCLUSIVE, Verdict.OKISHIO_RISE, Verdict.PROFIT_FELL_EXPLOITATION_ROSE,
             Verdict.PROFIT_FELL_EXPLOITATION_CONSTANT)


def _verdict_codes(pre_bounds, post_bounds, pre_exploitation, post_exploitation):
    """Each row's verdict, as its position in ``_VERDICTS``. The profit rate
    rose when ``rho`` certainly fell, the same test with the sides swapped;
    it cannot both rise and fall."""
    change = post_exploitation - pre_exploitation
    # A fall's code: 3 with exploitation constant, 2 with it rising, else 0.
    fall = 3 * matches(post_exploitation, pre_exploitation) + 2 * (change > MATCH_TOL)
    return _profit_fell(post_bounds, pre_bounds) + _profit_fell(pre_bounds, post_bounds) * fall


def run_scenarios(
    tech: Technology,
    bundle: WageBundle,
    change: TechChange,
    new_bundles: tuple,
) -> list[ScenarioReport]:
    """Solve before a change once, then after it under each new bundle.

    Everything is recomputed from the raw inputs; no intermediate state
    is shared with whatever produced the change or the bundles. Module
    errors propagate with the scenario's context added.
    """
    new_bundles = tuple(new_bundles)
    try:
        _require_fit(tech.n, (bundle, *new_bundles), change)
        news = np.array([each.quantities for each in new_bundles]).reshape(-1, tech.n)
        owner = None if len(news) == 1 else np.zeros(len(news), dtype=int)
        verified = _verify_rows(tech.inputs[None], tech.labor[None], tech.values[None],
                                bundle.quantities[None], *_change_row(change), news, owner)
    except EconomyError as err:
        context = f"scenario with {tech.n} sectors, change in sector {change.sector + 1}"
        if hasattr(err, "add_note"):
            err.add_note(context)
            raise
        raise type(err)(f"{err} ({context})") from err
    return _scenario_reports(verified, 0, range(len(news)), tech.values)


# _verify_rows' results: the before side per case, the after side, flags
# (a (m, 9) array in ScenarioFlags order) and verdict codes per new bundle.
_Verified = namedtuple("_Verified", "pre_profit pre_prices pre_bounds exploitation new_values "
                       "post_profit post_prices post_bounds post_exploitation flags verdicts")


def _verify_rows(inputs, labor, values, quantities, sectors, columns, labors, news, owner):
    """The scenarios of each new bundle j, of case ``owner[j]`` (j if None), as arrays.

    Case i is the technique ``(inputs[i], labor[i])`` with its values, its
    bundle and the change of sector ``sectors[i]``. Each step is one array
    call, whose first failing row raises its error; ``_scenario_reports``
    builds reports from the result.

    The patched techniques do not depend on the prices before the change,
    so one ``_price_rows`` call prices both sides: the k cases before the
    change stacked over the m bundles after it. Its checks run in the
    chain's order: the prices before, the change's analysis from the
    verifier's own costs, the prices after. When that call raises, the two
    sides are priced apart in that order, so the first failing step raises
    its own error.
    """
    per_bundle = (lambda array: array) if owner is None else itemgetter(owner)
    k, (m, n) = len(quantities), news.shape
    patched = _patch_rows(inputs, labor, sectors, columns, labors)
    stack = np.empty((k + m, n, n))
    before = _augmented(inputs, labor, quantities, out=stack[:k])
    after = _augmented(*map(per_bundle, patched), news, out=stack[k:])
    try:
        both = _price_rows(stack, np.concatenate((quantities, news)))
    except NoConvergence:
        pre = post = None
    else:
        pre, post = (_Prices(*[field[rows] for field in both])
                     for rows in (slice(None, k), slice(k, None)))
    if pre is None:
        pre = _price_rows(before, quantities)
    _check_prices(pre)
    costs = _classify_rows(pre.prices, inputs, labor, sectors, columns, labors)
    analysis = _analyze_rows(values, quantities, pre.prices, costs, patched)
    if post is None:
        post = _price_rows(after, news)
    _check_prices(post)
    # A change that is not viable has no region.
    viable, regions = costs.viable, analysis.regions
    value_post, value_pre = _dots(per_bundle(analysis.new_values), news), analysis.bundle_value
    costs = _Costs(*map(per_bundle, costs))
    properties = _property_rows(costs, per_bundle(pre.prices), per_bundle(labors),
                                per_bundle(value_pre), value_post, news)
    admissible_pre = admissibility(pre.prices, values, value_pre).admissible
    flags = np.array([
        costs.viable, costs.culs, properties.more_expensive, properties.value_constant,
        properties.saving_bounded, per_bundle(admissible_pre), properties.surplus_ok_post,
        per_bundle(viable & regions.feasible),
        per_bundle(viable & _ratio_rows(regions).any(axis=1)),
    ]).T
    post_exploitation = exploitation_rate(value_post)
    verdicts = _verdict_codes(per_bundle(pre.bounds), post.bounds,
                              per_bundle(analysis.exploitation), post_exploitation)
    return _Verified(pre.profit, pre.prices, pre.bounds, analysis.exploitation,
                     analysis.new_values, post.profit, post.prices, post.bounds,
                     post_exploitation, flags, verdicts)


def _scenario_reports(verified: _Verified, case: int, bundles, pre_values) -> list:
    """A ScenarioReport for each new bundle in ``bundles``, all of case ``case``,
    whose technique has the labor values ``pre_values``. The reports share
    their before side's arrays, which are copies."""
    pre_prices, new_values = verified.pre_prices[case].copy(), verified.new_values[case].copy()
    pre_profit, exploitation = verified.pre_profit[case].item(), verified.exploitation[case].item()
    pre_bounds = tuple(verified.pre_bounds[case].tolist())
    return [
        ScenarioReport(
            pre_profit, pre_prices, pre_values, exploitation, verified.post_profit[j].item(),
            verified.post_prices[j].copy(), new_values, verified.post_exploitation[j].item(),
            pre_bounds, tuple(verified.post_bounds[j].tolist()),
            ScenarioFlags(*verified.flags[j].tolist()), _VERDICTS[verified.verdicts[j]],
        )
        for j in bundles
    ]


def run_scenario(
    tech: Technology,
    bundle: WageBundle,
    change: TechChange,
    new_bundle: WageBundle,
) -> ScenarioReport:
    """Solve before and after a change: ``run_scenarios`` with one bundle."""
    return run_scenarios(tech, bundle, change, (new_bundle,))[0]


ORACLE_MAX_SECTORS = 6
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
        if log_norm < np.log(ORACLE_DECAY_TOL):
            return True
        if log_norm > -np.log(ORACLE_DECAY_TOL):
            return False
        iterate = squared / step
        delta = log_norm - prev
        prev = log_norm
    return delta < -STRICT_MARGIN


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
    while hi - lo > ORACLE_BISECT_TOL:
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
        above_price_plane=strictly_above(cost, region.price_offset),
        on_value_plane=matches(worth, region.value_offset, ON_PLANE_TOL),
    )


def random_economy(rng: np.random.Generator, n: int) -> tuple[Technology, WageBundle]:
    """Draw a valid economy whose wage bundle is admissible.

    The input matrix, drawn entrywise from [0, 0.3), is rescaled to a
    random spectral radius in (0.3, 0.8) and the bundle to a random labor
    value in (0.3, 0.9); draws failing admissibility (e.g. near-equal
    organic compositions) are rejected and retried, up to DRAW_ATTEMPTS
    draws. ``n`` must be at least 2: with one sector price over value is
    one over the bundle value exactly, so no bundle has ratio headroom.
    """
    if n < 2:
        raise ValueError(
            f"a random economy needs at least 2 sectors, got {n}: with one, "
            "no wage bundle is admissible"
        )
    drawn = _draw_group([rng], n)
    return _drawn_technology(drawn, 0), WageBundle(drawn.quantities[0])


# _draw_group's economies: techniques as arrays, with their values and
# productivity bounds, bundles and prices.
_Drawn = namedtuple("_Drawn", "inputs labor values bounds quantities prices")


def _drawn_technology(drawn: _Drawn, row: int) -> Technology:
    return Technology._certified(drawn.inputs[row], drawn.labor[row], drawn.values[row],
                                 drawn.bounds[row])


def _draw_group(rngs: list, n: int) -> _Drawn:
    """``random_economy`` for several generators, all for ``n`` sectors.

    Each round draws every open economy's candidate with one ``random`` call
    on its own generator, mapped into its five parts' ranges by ``_uniform``,
    then certifies, solves and checks them in one array call each. Only
    rejected economies draw again, so a generator is consumed as
    ``random_economy`` alone consumes it, and one that has made
    DRAW_ATTEMPTS draws raises RuntimeError. Entries are positive (zero
    has probability 2**-53), so each candidate is strongly connected with
    a positive radius; one that were not would fail the round's stacked
    certificate as Decomposable. No candidate becomes a ``Technology``
    here.
    """
    k = len(rngs)
    pending, found = np.arange(k), None
    for _ in range(DRAW_ATTEMPTS):
        if not pending.size:
            break
        u, at = np.array([rngs[row].random(n * n + 2 * n + 2) for row in pending.tolist()]), n * n
        raw = _uniform(0.0, 0.3, u[:, :at]).reshape(-1, n, n)
        radius, labor = _uniform(0.3, 0.8, u[:, at]), _uniform(0.05, 0.5, u[:, at + 1:at + 1 + n])
        direction, target = _uniform(0.1, 1.0, u[:, at + 1 + n:-1]), _uniform(0.3, 0.9, u[:, -1])
        raw *= (radius / np.abs(np.linalg.eigvals(raw)).max(axis=1))[:, None, None]
        values, bounds = _certify_rows(raw, labor)
        bundles = direction * (target / _dots(values, direction))[:, None]
        solved = _price_rows(_augmented(raw, labor, bundles), bundles)
        _check_prices(solved)
        flags = admissibility(solved.prices, values, _dots(values, bundles))
        accepted = np.flatnonzero(flags.admissible)
        rows = pending[accepted]
        parts = (raw, labor, values, bounds, bundles, solved.prices)
        found = found or [np.empty((k,) + part.shape[1:]) for part in parts]
        for whole, part in zip(found, parts):
            whole[rows] = part[accepted]
        pending = np.setdiff1d(pending, rows)
    if pending.size:
        raise RuntimeError(f"no admissible {n}-sector economy in {DRAW_ATTEMPTS} draws")
    return _Drawn(*found)


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
    def verdict(self) -> str:
        """The constant-exploitation scenario's verdict, as its CSV column holds it."""
        return self.scenario.verdict.value

    @property
    def okishio_ok(self) -> bool:
        """Old bundle kept: the profit rate must not certainly fall."""
        return not _profit_fell(self.okishio.pre_rho_bounds, self.okishio.post_rho_bounds)

    @property
    def rising_ok(self) -> bool:
        return self.rising.verdict is Verdict.PROFIT_FELL_EXPLOITATION_ROSE


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
# One economy's sweep results, one field per CSV column: what suite_csv_row
# makes of a SweepRecord and what iter_suite_rows yields with no record.
SweepRow = namedtuple("SweepRow", SUITE_CSV_COLUMNS)


def run_suite(seed: int = 1000, count: int = 500, n_range: tuple = (2, 8)) -> list[SweepRecord]:
    """Generate ``count`` economies and run the three branches on each.

    Fully deterministic in ``seed``: economy number ``index`` is drawn
    from a generator keyed on (seed, index), so records are reproducible
    individually. ``iter_suite``, collected.
    """
    return list(iter_suite(seed, count, n_range))


def suite_block(n_max: int) -> int:
    """Economies per sweep block when sizes reach ``n_max`` sectors: SUITE_BLOCK,
    or more while their input matrices hold no more than SUITE_ENTRIES entries."""
    return max(SUITE_BLOCK, SUITE_ENTRIES // n_max**2)


def iter_suite(seed: int = 1000, count: int = 500, n_range: tuple = (2, 8)):
    """``run_suite``'s records in index order, ``suite_block(n_max)`` economies
    at a time: SUITE_BLOCK, or more while their input matrices at ``n_max``
    sectors hold no more than SUITE_ENTRIES entries.

    Arguments are checked at the call. The economies of one block are
    drawn, solved, checked and verified together as arrays before its first
    record is yielded, so a block that fails yields none of its records.
    Each record is built only when the stream reaches it, and is the same
    whichever other economies share its block.
    """
    return _iter_blocks(seed, count, n_range, _group_records)


def iter_suite_rows(seed: int = 1000, count: int = 500, n_range: tuple = (2, 8)):
    """``suite_csv_row`` of each record ``iter_suite`` yields, read straight
    from each size group's arrays: the same blocks, checks and failures,
    with no ``SweepRecord`` or object of its own built."""
    return _iter_blocks(seed, count, n_range, _group_rows)


def _iter_blocks(seed: int, count: int, n_range: tuple, edge):
    """The sweep's arguments checked (a float or bool refused, not truncated), then
    its blocks' items in index order, each size group's made by ``edge``."""
    for name, value in (("n_min", n_range[0]), ("n_max", n_range[1]), ("count", count)):
        if not _is_integer(value):
            raise ValueError(f"{name} must be an integer, got {value!r}")
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
    block = suite_block(hi)
    return (
        item
        for start in range(0, count, block)
        for item in _sweep_block(seed, range(start, min(start + block, count)), (lo, hi), edge)
    )


def _sweep_block(seed: int, indices: range, sizes: tuple, edge):
    """What ``edge`` makes of the economies ``indices``, in index order.

    One ``_sweep_group`` per size, on its economies' generators, runs in
    the order sizes first appear, before the first item: a block raises
    the error of the first failing economy in the first group that has
    one. ``edge(group)`` returns the function that gives the item of the
    group's row i.
    """
    rngs = _generators([(seed, index) for index in indices])
    groups = _by_size([int(rng.integers(sizes[0], sizes[1] + 1)) for rng in rngs])
    places: list = [None] * len(rngs)
    for n, rows in groups.items():
        item = edge(_sweep_group(seed, [indices[row] for row in rows],
                                 [rngs[row] for row in rows], n))
        for at, row in enumerate(rows):
            places[row] = item, at
    return (item(at) for item, at in places)


# _sweep_group's economies as arrays: the draw, the synthesized changes,
# their regions, the constant and rising samples, and the verifier's results.
_SweepGroup = namedtuple("_SweepGroup",
                         "seed indices n drawn synthesized regions constant rising verified")


def _sweep_group(seed: int, indices: list, rngs: list, n: int) -> _SweepGroup:
    """Economies of ``n`` sectors, drawn, synthesized and verified as arrays.

    The producer holds the group as arrays, one array call each to draw,
    synthesize each change at its draw's equilibrium (checked there as
    ``TechChange`` checks one), analyze and sample. Each economy's knobs are
    drawn after it: the sector, both fractions in one ``random(2)`` call, and
    two sampler seeds. Its bundle stack is checked as ``WageBundle`` checks
    one before one ``_verify_rows`` call prices every economy again from the
    raw inputs, before and after the change, under its constant, old and
    rising bundle. When that call fails, the economies run again one at a
    time, so the first failing one raises its own error with its scenario,
    and if none does, the group's error stands. No object is built on success.
    """
    drawn = _draw_group(rngs, n)
    sectors, fractions, constant_seeds, rising_seeds = map(np.array, zip(*[
        (rng.integers(n), rng.random(2), rng.integers(2**63 - 1), rng.integers(2**63 - 1))
        for rng in rngs
    ]))
    epsilon_frac, labor_frac = _uniform(0.1, 0.9, fractions).T
    economies = drawn.inputs, drawn.labor, drawn.values, drawn.quantities, drawn.prices
    synthesized = _synthesize_rows(*economies, sectors, epsilon_frac, labor_frac)
    changes = sectors, synthesized.new_columns, synthesized.new_labor
    # Synthesis makes only viable changes, which have regions.
    regions = _analyze_rows(drawn.values, drawn.quantities, drawn.prices, synthesized.costs,
                            _patch_rows(drawn.inputs, drawn.labor, *changes)).regions
    constant = _sample_rows(regions, constant_seeds.tolist())
    rising = _sample_rows(regions, rising_seeds.tolist(), shrink=True)
    # Each economy's constant, old and rising bundle, in that order.
    news = np.stack((constant, drawn.quantities, rising), axis=1).reshape(-1, n)
    _check_bundles(news)
    group = _SweepGroup(seed, indices, n, drawn, synthesized, regions, constant, rising, None)
    try:
        verified = _verify_rows(*economies[:4], *changes, news,
                                np.repeat(np.arange(len(indices)), 3))
    except EconomyError:
        for row in range(len(indices)):
            tech, bundle, synth, constant_bundle, rising_bundle = _produced(group, row)
            run_scenarios(tech, bundle, synth.change, (constant_bundle, bundle, rising_bundle))
        raise
    return group._replace(verified=verified)


def _produced(group: _SweepGroup, row: int) -> tuple:
    """Row ``row``'s technique, bundle, synthesized change and its constant
    and rising bundles, as objects owning copies of their arrays."""
    drawn = group.drawn
    tech, bundle = _drawn_technology(drawn, row), WageBundle._checked(drawn.quantities[row])
    sampled = (WageBundle._checked(stack[row]) for stack in (group.constant, group.rising))
    return tech, bundle, _synthesized_change(group.synthesized, row), *sampled


def _group_records(group: _SweepGroup):
    """The function that builds the SweepRecord of the group's row i."""

    def record(row: int) -> SweepRecord:
        tech, bundle, synth, constant_bundle, rising_bundle = _produced(group, row)
        reports = _scenario_reports(group.verified, row, range(3 * row, 3 * row + 3), tech.values)
        return SweepRecord(group.indices[row], group.seed, group.n, tech, bundle, synth,
                           _wage_region(group.regions, row), constant_bundle, rising_bundle,
                           *reports)

    return record


def _group_rows(group: _SweepGroup):
    """The function that gives the SweepRow of the group's row i, all rows
    read from the verifier's arrays, each column once: the constant, old
    and rising bundle's results are every third entry from 0, 1 and 2."""
    verified = group.verified
    constant, okishio, rising = (slice(start, None, 3) for start in range(3))
    codes = verified.verdicts
    columns = (
        *verified.flags[constant].T.tolist(),
        verified.pre_profit.tolist(),
        verified.post_profit[constant].tolist(),
        verified.exploitation.tolist(),
        verified.post_exploitation[constant].tolist(),
        [_VERDICTS[code].value for code in codes[constant].tolist()],
        verified.post_profit[okishio].tolist(),
        (~_profit_fell(verified.pre_bounds, verified.post_bounds[okishio])).tolist(),
        verified.post_exploitation[rising].tolist(),
        (codes[rising] == _VERDICTS.index(Verdict.PROFIT_FELL_EXPLOITATION_ROSE)).tolist(),
    )
    rows = list(map(SweepRow, group.indices, repeat(group.seed), repeat(group.n), *columns))
    return rows.__getitem__


def suite_csv_row(record: SweepRecord) -> SweepRow:
    """One record's CSV row, under SUITE_CSV_COLUMNS.

    Floats are Python floats, which ``csv`` writes by repr, so output is
    byte-identical across runs with the same seed.
    """
    scenario = record.scenario
    return SweepRow(
        record.index,
        record.seed,
        record.n,
        *(getattr(scenario.flags, name) for name in SCENARIO_FLAG_NAMES),
        scenario.pre_profit,
        scenario.post_profit,
        scenario.pre_exploitation,
        scenario.post_exploitation,
        record.verdict,
        record.okishio.post_profit,
        record.okishio_ok,
        record.rising.post_exploitation,
        record.rising_ok,
    )


def suite_csv(records) -> str:
    """Flatten suite records to CSV text, header first."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(SUITE_CSV_COLUMNS)
    writer.writerows(map(suite_csv_row, records))
    return buffer.getvalue()


def suite_summary(records) -> dict:
    """Aggregate counts; ``violations`` must be zero on a healthy build.

    Reads ``records`` once, so it also counts a stream as it goes, and only
    their ``verdict``, ``okishio_ok`` and ``rising_ok``: SweepRecords and
    SweepRows count alike.
    """
    verdicts = {verdict.value: 0 for verdict in Verdict}
    count = okishio_violations = rising_violations = 0
    for record in records:
        count += 1
        verdicts[record.verdict] += 1
        okishio_violations += not record.okishio_ok
        rising_violations += not record.rising_ok
    main_violations = count - verdicts[Verdict.PROFIT_FELL_EXPLOITATION_CONSTANT.value]
    return {
        "count": count,
        "verdicts": verdicts,
        "okishio_violations": okishio_violations,
        "rising_violations": rising_violations,
        "violations": main_violations + okishio_violations + rising_violations,
    }
