"""Constructive side: wage regions, bundle samplers, and change synthesis.

For a viable change, replacement wage bundles that (i) cost more than
the old normalized wage and (ii) embody exactly the labor the old bundle
embodied form the region between two hyperplanes in goods space:

* the *price plane*, with normal the pre-change prices and offset the
  change's break-even wage; admissible bundles lie strictly above it;
* the *value plane*, with normal the post-change labor values and offset
  the old bundle's labor value; admissible bundles lie on it.

The region meets the nonnegative orthant exactly when the value plane's
intercept on some axis exceeds the price plane's intercept there, which
is the same as some sector's price to new-value ratio exceeding the
product of the two markups (one plus exploitation, one plus saving
rate). Both forms are computed; they must always agree.

``analyze_change`` is the one place a candidate change is classified,
applied, revalued and given its region: ``_analyze_rows`` for one row,
on the costs ``_classify_rows`` gives it. The sweep passes the costs its
synthesis classified, the verifier its own.

Samplers draw bundles from that region (or strictly inside the price
side of it, for rising exploitation): one proposal and one check per
bundle, none redrawn. Everything is deterministic given a seed.

``synthesize_culs_change`` runs the other direction: given an economy
whose wage bundle has admissibility headroom, it constructs a viable
capital-using labor-saving change with a nonempty region, by loading
every input requirement of one sector slightly and cutting its direct
labor into a window whose endpoints the headroom dictates.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from dataclasses import dataclass
from itertools import compress

import numpy as np

from .errors import Infeasible, InvalidFraction, NotInB, SamplingExhausted
from .equilibrium import Equilibrium, admissibility
from .linear_economy import (
    Technology, ValueSystem, WageBundle, _certify_rows, _dots, _require, _require_fit,
    _require_sector, exploitation_rate,
)
from .technical_change import (
    ChangeClassification, TechChange, _change_row, _check_changes, _classifications,
    _classify_rows, _patch_rows,
)
from .tolerances import ON_PLANE_TOL, STRICT_MARGIN, matches, strictly_above, strictly_below


@dataclass(frozen=True, eq=False)
class WageRegion:
    """The admissible-bundle region of a viable change.

    ``price_plane_intercepts[j]`` is where the price plane cuts axis j
    (break-even wage over price); ``value_plane_intercepts[j]`` is where
    the value plane does (old bundle value over new labor value). Sector
    j can carry an admissible single-good-heavy bundle exactly when its
    value intercept is the larger one.
    """

    prices: np.ndarray
    new_values: np.ndarray
    price_offset: float
    value_offset: float
    price_plane_intercepts: np.ndarray
    value_plane_intercepts: np.ndarray
    feasible_sectors: np.ndarray
    feasible: bool

    @property
    def n(self) -> int:
        return self.prices.shape[0]


# WageRegion's fields, one row each: the array form of regions.
_Regions = namedtuple("_Regions", WageRegion.__dataclass_fields__)


def _region_rows(prices, new_values, bundle_value, break_even_wage) -> _Regions:
    """``build_region`` for ``(k, n)`` prices and new values and ``(k,)`` offsets."""
    x, y = break_even_wage[:, None] / prices, bundle_value[:, None] / new_values
    feasible = y > x
    return _Regions(prices, new_values, break_even_wage, bundle_value, x, y, feasible,
                    feasible.any(axis=1))


def _one_region(region: WageRegion) -> _Regions:
    """A ``WageRegion`` as a one-row ``_Regions``; None, a non-viable change's, raises."""
    if region is None:
        raise ValueError("wage region is only defined for a viable change")
    return _Regions(*(np.asarray(field)[None] for field in vars(region).values()))


def _wage_region(regions: _Regions, row: int) -> WageRegion:
    """Row ``row`` as a ``WageRegion`` owning copies of its arrays."""
    return WageRegion(*(part[row].copy() if part.ndim > 1 else part[row].item()
                        for part in regions))


def build_region(
    equilibrium: Equilibrium,
    new_values: np.ndarray,
    bundle_value: float,
    classification: ChangeClassification,
) -> WageRegion:
    """Assemble the wage region of a viable classified change.

    The one-row call of ``_region_rows``.

    Args:
        equilibrium: pre-change prices (wage-bundle numeraire).
        new_values: labor values of the post-change technique.
        bundle_value: labor value of the current wage bundle.
        classification: cost arithmetic; must be viable.
    """
    if not classification.viable:
        raise ValueError("wage region is only defined for a viable change")
    _require_fit(equilibrium.prices.shape[0], values=(new_values,))
    new_values = np.asarray(new_values, dtype=float)
    if not np.all(np.isfinite(new_values) & (new_values > 0)):
        raise ValueError("post-change labor values must be finite and strictly positive")
    if not 0 < bundle_value < np.inf:
        raise ValueError(f"bundle value must be positive and finite, got {bundle_value}")
    offsets = np.array([bundle_value], dtype=float), np.array([classification.break_even_wage])
    return _wage_region(_region_rows(equilibrium.prices[None], new_values[None], *offsets), 0)


@dataclass(frozen=True, eq=False)
class ChangeAnalysis:
    """A change priced at the pre-change equilibrium, applied and revalued.

    ``patched`` is the technique after the change and ``new_values`` its
    labor values; ``region`` is None when the change is not viable.
    """

    values: ValueSystem
    classification: ChangeClassification
    patched: Technology
    new_values: np.ndarray
    region: WageRegion | None


# _analyze_rows' results, one row each; new_values and new_bounds certify the patched rows.
_Analyses = namedtuple("_Analyses", "bundle_value exploitation new_values new_bounds regions")


def _analyze_rows(values, quantities, prices, costs, patched):
    """``analyze_change`` for each row, from the ``_classify_rows`` costs of its
    change at ``prices``, certifying the ``patched`` techniques (``_patch_rows``
    of the changes) in one stacked check; a row's region means something only
    if its change is viable."""
    bundle_value = _dots(values, quantities)
    new_values, new_bounds = _certify_rows(*patched)
    regions = _region_rows(prices, new_values, bundle_value, 1.0 + costs.saving_rate)
    return _Analyses(bundle_value, exploitation_rate(bundle_value), new_values, new_bounds,
                     regions)


def analyze_change(
    tech: Technology, bundle: WageBundle, equilibrium: Equilibrium, change: TechChange
) -> ChangeAnalysis:
    """Classify a change, apply it, revalue, and build its wage region.

    ``equilibrium`` prices ``tech`` with ``bundle`` as numeraire. Raises
    NotProductive or Decomposable if the patched technique is no longer
    acceptable. The one-row call of ``_analyze_rows``; the patched
    technique is built from its certified row.
    """
    _require_fit(tech.n, (bundle,), change, equilibrium.prices)
    prices, changed = equilibrium.prices[None], _change_row(change)
    costs = _classify_rows(prices, tech.inputs[None], tech.labor[None], *changed)
    inputs, labor = _patch_rows(tech.inputs[None], tech.labor[None], *changed)
    done = _analyze_rows(tech.values[None], bundle.quantities[None], prices, costs, (inputs, labor))
    patched = Technology._certified(inputs[0], labor[0], done.new_values[0], done.new_bounds[0])
    classification = _classifications(costs)[0]
    values = ValueSystem(tech.values, done.bundle_value[0].item(), done.exploitation[0].item())
    region = _wage_region(done.regions, 0) if classification.viable else None
    return ChangeAnalysis(values, classification, patched, patched.values, region)


def _ratio_rows(regions: _Regions) -> np.ndarray:
    """``ratio_condition_sectors`` for each row."""
    threshold = (1.0 / regions.value_offset) * regions.price_offset
    return regions.prices / regions.new_values > threshold[:, None]


def ratio_condition_sectors(region: WageRegion) -> np.ndarray:
    """Markup-product form of feasibility, sector by sector.

    Sector j passes when its pre-change price over post-change labor
    value exceeds ``(1/value_offset) * price_offset``, i.e. one plus
    exploitation times one plus the saving rate. The one-row call of
    ``_ratio_rows``.
    """
    return _ratio_rows(_one_region(region))[0]


def ratio_condition_holds(region: WageRegion) -> bool:
    """True when some sector passes the markup-product test.

    Algebraically identical to ``region.feasible``; computed from the
    alternative expression so the two routes can be cross-checked.
    """
    return bool(ratio_condition_sectors(region).any())


@dataclass(frozen=True)
class PivotUniform:
    """Default sampling strategy: uniform along the pivot axis.

    Draws the pivot coordinate uniformly between the two intercepts of
    the best sector (largest ratio of value to price intercept), then
    puts the remaining bundle value on the other goods in quantities
    proportional to ``weights`` (equal quantities when omitted), not in
    equal value.
    """

    weights: tuple | None = None


@dataclass(frozen=True)
class EqualOffPivot:
    """Sampling strategy giving each off-pivot good the same quantity, not value.

    ``pivot`` fixes the heavy sector (default: the largest ratio of value
    to price intercept), and ``value`` fixes the pivot coordinate instead
    of drawing it. A pinned pivot whose value intercept is not above its
    price intercept, with no value given, raises Infeasible. With both
    given the proposal is fully deterministic.
    """

    pivot: int | None = None
    value: float | None = None


def _pivot_plan(regions: _Regions, strategy) -> tuple:
    """What each row's proposal needs: the pivot, its coordinate's bounds,
    equal where it is not drawn, its new value, the weights spreading the
    rest of the value over the other goods with their value, and ``bare``:
    rows with no weight left, whose whole value, fixed or not, is the pivot's."""
    values, (k, n) = regions.new_values, regions.prices.shape
    if not isinstance(strategy, (PivotUniform, EqualOffPivot)):
        raise TypeError(f"unknown sampling strategy {strategy!r}")
    x, y = regions.price_plane_intercepts, regions.value_plane_intercepts
    at = np.arange(k), (y / x).argmax(axis=1)
    fixed, pivot = getattr(strategy, "value", None), getattr(strategy, "pivot", None)
    if pivot is not None:
        _require_sector(pivot, n, "pivot sector")
        at[1][:] = pivot
        # No coordinate between the intercepts to draw: refused, not retried.
        if fixed is None:
            _require([(regions.feasible_sectors[:, pivot], lambda row: Infeasible(
                f"sector {pivot + 1} cannot carry a bundle: its value intercept "
                f"{y[row, pivot]:.6g} is not above its price intercept {x[row, pivot]:.6g}"))])
    weights = np.ones((k, n))
    if getattr(strategy, "weights", None) is not None:
        given = np.array(strategy.weights, dtype=float)
        if given.shape != (n,) or not (np.isfinite(given) & (given >= 0)).all():
            raise ValueError("weights must be finite and nonnegative, one per sector")
        weights *= given
    weights[at] = 0.0
    off_value = _dots(values, weights)
    # With nothing to spread the rest over, it all goes on the pivot.
    bare = off_value <= 0
    off_value[bare], weights[bare] = 1.0, 0.0
    lows = x[at] if fixed is None else np.where(bare, x[at], float(fixed))
    highs = np.where(bare, lows, y[at]) if fixed is None else lows
    return at[1], lows, highs, values[at], weights, off_value, bare


# NumPy's SeedSequence hash (O'Neill's seed_seq_fe, frozen under NEP 19) on
# its pool of 4 words: mix_entropy takes 17 hash constants in turn and
# generate_state(4, uint64) 9; each xors a word and the next multiplies it.
_POOL_HASH, _STATE_HASH = (
    np.array([init * pow(mult, i, 1 << 32) & 0xFFFFFFFF for i in range(count)], dtype=np.uint32)
    for init, mult, count in ((0x43B0D7E5, 0x931E8875, 17), (0x8B51F9DD, 0x58F38DED, 9)))
_MIX_L, _MIX_R, _XSHIFT = np.uint32(0xCA01F9DD), np.uint32(0x4973F715), np.uint32(16)
_OTHERS = [np.array([dst for dst in range(4) if dst != src]) for src in range(4)]


def _hashmix(words: np.ndarray, constants: np.ndarray) -> np.ndarray:
    words = (words ^ constants[:-1]) * constants[1:]
    return words ^ words >> _XSHIFT


@functools.cache
def _given_state():
    """An ISeedSequence handing PCG64 a state hashed beforehand, made at
    first use: numpy.random is not imported when the package loads."""
    from numpy.random.bit_generator import ISeedSequence

    class GivenState(ISeedSequence):
        def __init__(self, state):
            self.state = state

        def generate_state(self, n_words, dtype=None):  # PCG64 asks for 4 uint64 words
            return self.state

    return GivenState


def _generators(seeds) -> list:
    """``[np.random.default_rng(seed) for seed in seeds]``, bit for bit, each
    seed an int or a sequence of ints, hashed for all rows in one array pass.

    Each row's words, zero-padded to the pool's 4 (SeedSequence pads with
    ``hashmix(0)``), run mix_entropy and generate_state as columns. One seed,
    a value that is not a nonnegative int, or a row of more than 4 words goes
    to ``default_rng`` itself, which raises its own errors.
    """
    rows = [seed if isinstance(seed, (list, tuple)) else (seed,) for seed in seeds]
    if len(rows) > 1 and all(type(value) is int and value >= 0 for row in rows for value in row):
        # SeedSequence's uint32 words of a row: each value's, low word first.
        words = [[value >> shift & 0xFFFFFFFF for value in row
                  for shift in range(0, max(value.bit_length(), 1), 32)] for row in rows]
        if max(map(len, words)) <= 4:
            pool = _hashmix(np.array([row + [0] * (4 - len(row)) for row in words],
                                     dtype=np.uint32), _POOL_HASH[:5])
            for src, others in enumerate(_OTHERS):
                hashed = _hashmix(pool[:, src, None], _POOL_HASH[4 + 3 * src:8 + 3 * src])
                mixed = pool[:, others] * _MIX_L - hashed * _MIX_R
                pool[:, others] = mixed ^ mixed >> _XSHIFT
            state = _hashmix(np.tile(pool, 2), _STATE_HASH).astype(np.uint64)
            state = state[:, 1::2] << np.uint64(32) | state[:, ::2]  # little-endian pairs
            given = _given_state()
            return [np.random.Generator(np.random.PCG64(given(row))) for row in state]
    return [np.random.default_rng(seed) for seed in seeds]


def _uniform(low, high, u):
    """``Generator.uniform(low, high)``, bit for bit and stream for stream, from the
    doubles ``u`` that ``random()`` drew in its place, as NumPy maps them."""
    return low + (high - low) * u


def _sample_rows(regions: _Regions, seeds, strategy=None, shrink: bool = False) -> np.ndarray:
    """The samplers for each row, row i drawing from ``default_rng(seeds[i])``.

    Each row makes one proposal, from its own generator, and one check: by
    ``_require``, the first row that fails raises SamplingExhausted, naming
    its pivot coordinate and the first inequality it breaks. ``shrink`` scales
    the on-plane samples inside, for rising exploitation, and checks them again.

    One proposal is enough. On a drawn pivot p's interval ``[x_p, y_p]``
    a bundle's cost less the break-even wage is linear in the coordinate,
    ``r v'_p (y_p - x_p)`` and ``p_p (y_p - x_p)`` at the ends, r the
    off-pivot weights' price-to-value ratio, so every draw clears it by at
    least ``(y_p - x_p) min(r v'_p, p_p)``. A drawn row fails only when the
    region is all but empty at the pivot, or when rounding puts the
    coordinate on ``y_p`` and leaves the rest negative by an ulp. A pinned
    row (a fixed value, or a bare row) fails when its coordinate gives no bundle.
    Each generator draws through ``random()`` and ``_uniform``: a pivot coordinate
    whose bounds differ, then with ``shrink`` the shrink.
    """
    _require([(regions.feasible,
               lambda row: Infeasible("wage region does not meet the nonnegative orthant"))])
    pivots, lows, highs, pivot_values, weights, off_value, bare = _pivot_plan(
        regions, PivotUniform() if strategy is None else strategy)
    rngs, drawn = _generators(seeds), lows < highs
    bundle_value, break_even = regions.value_offset, regions.price_offset

    def exhausted(checks):  # pairs of a row mask and the text of a row's failure
        return [(holds, lambda row, why=why: SamplingExhausted(
            f"pivot coordinate {coords[row]:.6g} {why(row)}")) for holds, why in checks]

    # A pinned value may be infinite or NaN; it fails the checks below,
    # and its arithmetic on the way warns of nothing.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # A candidate on the value plane: the pivot coordinate, drawn where its
        # bounds differ (else kept exactly), and the rest spread by weight.
        coords = lows.copy()
        coords[drawn] = _uniform(lows[drawn], highs[drawn],
                                 np.array([rng.random() for rng in compress(rngs, drawn)]))
        rest = bundle_value - pivot_values * coords
        base = weights * (rest / off_value)[:, None]
        np.copyto(coords, bundle_value / pivot_values, where=bare)
        base[np.arange(len(coords)), pivots] = coords
        worth, cost = _dots(regions.new_values, base), _dots(regions.prices, base)
        # Neither the rest nor an entry may be negative. The other entries
        # are nonnegative multiples of the rest, which leaves the pivot's;
        # a NaN one is not nonnegative either.
        checks = [
            (coords >= 0, lambda i: "is not nonnegative"),
            (rest >= 0, lambda i: f"carries value {pivot_values[i] * coords[i]:.6g}, above the "
                                  f"bundle value {bundle_value[i]:.6g}"),
            (matches(worth, bundle_value, ON_PLANE_TOL), lambda i: f"leaves the bundle "
             f"{worth[i] - bundle_value[i]:+.3g} off the value plane at {bundle_value[i]:.6g}"),
            (strictly_above(cost, break_even),
             lambda i: _cost_failure("gives", cost[i], break_even[i])),
        ]
        if shrink:
            lo, hi = (break_even + STRICT_MARGIN) / cost, 1.0 - STRICT_MARGIN / bundle_value
            checks.append((lo < hi, lambda i: "leaves no room strictly below the bundle value"))
        _require(exhausted(checks))
    if not shrink:
        return base
    # Away from both endpoints, so the strict margins are macroscopic.
    draws = _uniform(0.25, 0.75, np.array([rng.random() for rng in rngs]))
    base *= (lo + draws * (hi - lo))[:, None]
    shrunk, shrunk_worth = _dots(regions.prices, base), _dots(regions.new_values, base)
    _require(exhausted([
        (strictly_above(shrunk, break_even),
         lambda i: _cost_failure("shrinks to", shrunk[i], break_even[i])),
        (strictly_below(shrunk_worth, bundle_value),
         lambda i: f"shrinks to a bundle worth {shrunk_worth[i]:.6g}, not below par"),
    ]))
    return base


def _cost_failure(verb: str, cost: float, break_even: float) -> str:
    return (f"{verb} a bundle costing {cost:.6g}, not above the break-even wage {break_even:.6g} "
            f"by more than {STRICT_MARGIN:.0e} (margin {cost - break_even:+.3g})")


def sample_constant_exploitation(
    region: WageRegion,
    seed: int = 1000,
    strategy=None,
) -> WageBundle:
    """Draw a bundle in the region: dearer than the old wage, same value.

    Deterministic for a given (region, seed, strategy). Raises Infeasible
    when the region misses the nonnegative orthant, and SamplingExhausted
    when its one proposal fails (a pinned coordinate outside the region,
    or a region all but empty at the pivot), naming the inequality. The
    one-row call of ``_sample_rows``.
    """
    return WageBundle(_sample_rows(_one_region(region), [seed], strategy)[0])


def sample_rising_exploitation(region: WageRegion, seed: int = 1000) -> WageBundle:
    """Draw a bundle strictly above the price plane, strictly below par value.

    Takes an on-plane sample and shrinks it radially: scaling preserves
    positivity and the price-plane side while pushing the labor value
    strictly below the old bundle's, so exploitation rises. The one-row
    call of ``_sample_rows``.
    """
    return WageBundle(_sample_rows(_one_region(region), [seed], shrink=True)[0])


@dataclass(frozen=True, eq=False)
class SynthesizedChange:
    """A constructed change plus the knobs that pinned it down.

    ``interval_ratio`` is the factor between the admissible labor
    window's endpoints: new labor anywhere strictly inside
    ``(upper / interval_ratio, upper)`` keeps the change viable with a
    nonempty wage region.
    """

    change: TechChange
    pivot_sector: int
    interval_ratio: float
    column_increment: float
    labor_interval: tuple

    @property
    def sector(self) -> int:
        return self.change.sector


# _synthesize_rows' changes and their knobs, one row each, and the changes'
# _classify_rows costs at the prices they were made at.
_Synthesized = namedtuple("_Synthesized", "sectors new_columns new_labor pivot interval_ratio "
                          "increment lower upper costs")


def _synthesize_rows(inputs, labor, values, quantities, prices, sectors, epsilon_frac, labor_frac):
    """``synthesize_culs_change`` for each row, each knob ``(k,)``: by ``_require``,
    the first row whose bundle is not admissible raises NotInB, and only then
    the first whose change would not clear the classifier's strict margin
    raises Infeasible. Its changes pass ``_check_changes``, as ``TechChange``'s do."""
    bundle_value = _dots(values, quantities)
    flags = admissibility(prices, values, bundle_value)
    _require([
        (flags.nonnegative_surplus,
         lambda row: NotInB("wage bundle is not admissible: bundle value outside (0, 1]")),
        (flags.ratio_headroom, lambda row: NotInB(
            "wage bundle is not admissible: no price-value ratio exceeds one plus exploitation")),
    ])
    # The pivot's headroom h fixes how deep the labor cut may go.
    interval_ratio = bundle_value * flags.max_ratio
    rows = np.arange(len(sectors))
    old_labor, price_sum = labor[rows, sectors], prices.sum(axis=1)
    old_columns = inputs[rows, :, sectors]
    increment = epsilon_frac * old_labor / price_sum
    upper = old_labor - increment * price_sum
    lower = upper / interval_ratio
    new_labor = lower + labor_frac * (upper - lower)
    new_columns = old_columns + increment[:, None]
    # Unit cost falls by (1 - labor_frac)(1 - epsilon_frac) λ h/(1 + h) of
    # itself, λ the sector's labor share, and each input rises by increment /
    # a_is of itself, least for the largest: near either end of a knob, or
    # with headroom near zero, one of them fails the margin classify applies.
    costs = _classify_rows(prices, inputs, labor, sectors, new_columns, new_labor)

    def infeasible(row, bound, gain):
        return Infeasible(f"a change in sector {sectors[row] + 1} would not be viable and "
                          f"capital-using labor-saving: its {bound} {gain:.3g} is not above "
                          f"{STRICT_MARGIN:.0e}")

    _require([
        (costs.viable, lambda row: infeasible(row, "relative unit-cost drop", (
            (1.0 - labor_frac[row]) * (1.0 - epsilon_frac[row]) * old_labor[row]
            / costs.cost_pre[row] * (1.0 - 1.0 / interval_ratio[row])))),
        (costs.culs, lambda row: infeasible(row, "smallest relative input rise",
                                            increment[row] / old_columns[row].max())),
    ])
    _check_changes(sectors, new_columns, new_labor)
    return _Synthesized(sectors, new_columns, new_labor, flags.max_ratio_sector, interval_ratio,
                        increment, lower, upper, costs)


def _synthesized_change(synthesized: _Synthesized, row: int) -> SynthesizedChange:
    """Row ``row``, whose change passed ``_check_changes``, as a
    ``SynthesizedChange`` owning a copy of its column."""
    sector, new_labor, pivot, ratio, increment, lower, upper = (
        field[row].item() for field in synthesized[:-1] if field.ndim == 1)
    change = TechChange._checked(sector, synthesized.new_columns[row], new_labor)
    return SynthesizedChange(change, pivot, ratio, increment, (lower, upper))


def synthesize_culs_change(
    tech: Technology,
    bundle: WageBundle,
    equilibrium: Equilibrium,
    sector: int,
    epsilon_frac: float = 0.5,
    labor_frac: float = 0.5,
) -> SynthesizedChange:
    """Construct a viable capital-using labor-saving change in ``sector``.

    ``epsilon_frac`` sets how much of the sector's labor cost becomes the
    uniform input increment, ``labor_frac`` places the new direct labor in
    its admissible window; both must lie strictly between 0 and 1. Then
    ``sector``, a 0-based integer, passes ``_require_sector`` and the bundle
    and prices ``_require_fit``. The bundle must be admissible (positive
    surplus and ratio headroom); NotInB otherwise.

    The construction guarantees, at the pre-change equilibrium: unit
    cost strictly falls, every input requirement strictly rises, direct
    labor strictly falls, and the wage region of the change meets the
    nonnegative orthant. Raises Infeasible, naming the bound and its
    value, when the cost drop or the smallest input rise, each relative
    to what it changes, would not exceed ``STRICT_MARGIN``: near either
    end of a knob, or with headroom near zero. The one-row call of
    ``_synthesize_rows``.
    """
    for name, frac in (("epsilon_frac", epsilon_frac), ("labor_frac", labor_frac)):
        if not 0.0 < frac < 1.0:
            raise InvalidFraction(f"{name} must lie strictly between 0 and 1, got {frac}")
    _require_sector(sector, tech.n, "sector")
    _require_fit(tech.n, (bundle,), prices=equilibrium.prices)
    rows = (tech.inputs, tech.labor, tech.values, bundle.quantities, equilibrium.prices)
    knobs = np.array([sector]), np.array([epsilon_frac], float), np.array([labor_frac], float)
    return _synthesized_change(_synthesize_rows(*(row[None] for row in rows), *knobs), 0)
