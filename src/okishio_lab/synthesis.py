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

``analyze_changes`` is the one place a candidate change is classified,
applied, revalued and given its region; ``analyze_change`` is its
one-case form.

Samplers draw bundles from that region (or strictly inside the price
side of it, for rising exploitation) by rejection with a fixed proposal
budget. Everything is deterministic given a seed.

``synthesize_culs_change`` runs the other direction: given an economy
whose wage bundle has admissibility headroom, it constructs a viable
capital-using labor-saving change with a nonempty region, by loading
every input requirement of one sector slightly and cutting its direct
labor into a window whose endpoints the headroom dictates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import Infeasible, InvalidFraction, InvalidSector, NotInB, SamplingExhausted
from .equilibrium import STRICT_MARGIN, Equilibrium, admissibility
from .linear_economy import (
    Technology, ValueSystem, WageBundle, labor_values, value_of_bundle, value_system
)
from .technical_change import ChangeClassification, TechChange, apply_changes, classify

ON_PLANE_TOL = 1e-10
PROPOSAL_BUDGET = 10_000


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


def build_region(
    equilibrium: Equilibrium,
    new_values: np.ndarray,
    bundle_value: float,
    classification: ChangeClassification,
) -> WageRegion:
    """Assemble the wage region of a viable classified change.

    Args:
        equilibrium: pre-change prices (wage-bundle numeraire).
        new_values: labor values of the post-change technique.
        bundle_value: labor value of the current wage bundle.
        classification: cost arithmetic; must be viable.
    """
    if not classification.viable:
        raise ValueError("wage region is only defined for a viable change")
    new_values = np.asarray(new_values, dtype=float)
    if np.any(new_values <= 0):
        raise ValueError("post-change labor values must be strictly positive")
    if bundle_value <= 0:
        raise ValueError(f"bundle value must be positive, got {bundle_value}")
    prices = equilibrium.prices
    price_offset = classification.break_even_wage
    x = price_offset / prices
    y = bundle_value / new_values
    feasible_sectors = y > x
    return WageRegion(
        prices=prices,
        new_values=new_values,
        price_offset=price_offset,
        value_offset=bundle_value,
        price_plane_intercepts=x,
        value_plane_intercepts=y,
        feasible_sectors=feasible_sectors,
        feasible=bool(feasible_sectors.any()),
    )


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


def analyze_change(
    tech: Technology, bundle: WageBundle, equilibrium: Equilibrium, change: TechChange
) -> ChangeAnalysis:
    """Classify a change, apply it, revalue, and build its wage region.

    ``equilibrium`` prices ``tech`` with ``bundle`` as numeraire. Raises
    NotProductive or Decomposable if the patched technique is no longer
    acceptable. ``analyze_changes`` with one case.
    """
    return analyze_changes([(tech, bundle, equilibrium, change)])[0]


def analyze_changes(cases) -> list[ChangeAnalysis]:
    """``analyze_change`` for each ``(tech, bundle, equilibrium, change)``.

    Every case is valued and classified first; then ``apply_changes``
    certifies all the patched techniques, one stacked check per size.
    """
    priced = [
        (value_system(tech, bundle), classify(tech, equilibrium, change))
        for tech, bundle, equilibrium, change in cases
    ]
    patched = apply_changes([(tech, change) for tech, _, _, change in cases])
    analyses = []
    for (_, _, equilibrium, _), (pre, classification), technique in zip(
        cases, priced, patched
    ):
        new_values = labor_values(technique)
        region = None
        if classification.viable:
            region = build_region(equilibrium, new_values, pre.bundle_value, classification)
        analyses.append(ChangeAnalysis(pre, classification, technique, new_values, region))
    return analyses


def ratio_condition_sectors(region: WageRegion) -> np.ndarray:
    """Markup-product form of feasibility, sector by sector.

    Sector j passes when its pre-change price over post-change labor
    value exceeds ``(1/value_offset) * price_offset``, i.e. one plus
    exploitation times one plus the saving rate.
    """
    threshold = (1.0 / region.value_offset) * region.price_offset
    return region.prices / region.new_values > threshold


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
    the best sector (largest intercept gap), then spreads the remaining
    bundle value over the other goods proportionally to ``weights``
    (equal weights when omitted).
    """

    weights: tuple | None = None


@dataclass(frozen=True)
class EqualOffPivot:
    """Sampling strategy that splits the off-pivot value equally.

    ``pivot`` fixes the heavy sector (default: best intercept gap), and
    ``value`` fixes the pivot coordinate instead of drawing it. With both
    given the proposal is fully deterministic.
    """

    pivot: int | None = None
    value: float | None = None


def _best_pivot(region: WageRegion) -> int:
    gaps = region.value_plane_intercepts / region.price_plane_intercepts
    return int(np.argmax(gaps))


def _propose(region: WageRegion, rng: np.random.Generator, strategy) -> np.ndarray | None:
    """One candidate bundle on the value plane, or None if ill-posed."""
    x = region.price_plane_intercepts
    y = region.value_plane_intercepts
    values = region.new_values
    if isinstance(strategy, EqualOffPivot):
        pivot = _best_pivot(region) if strategy.pivot is None else int(strategy.pivot)
        if pivot < 0 or pivot >= region.n:
            raise InvalidSector(f"pivot {pivot} outside range 0..{region.n - 1}")
        coord = (
            rng.uniform(x[pivot], y[pivot]) if strategy.value is None
            else float(strategy.value)
        )
        rest = region.value_offset - values[pivot] * coord
        off_weight = values.sum() - values[pivot]
        if rest < 0 or off_weight <= 0:
            return None
        candidate = np.full(region.n, rest / off_weight)
        candidate[pivot] = coord
        return candidate
    if isinstance(strategy, PivotUniform):
        pivot = _best_pivot(region)
        if strategy.weights is None:
            weights = np.ones(region.n)
        else:
            weights = np.array(strategy.weights, dtype=float)
            if weights.shape[0] != region.n or np.any(weights < 0):
                raise ValueError("weights must be nonnegative, one per sector")
        weights = weights.copy()
        weights[pivot] = 0.0
        coord = rng.uniform(x[pivot], y[pivot])
        rest = region.value_offset - values[pivot] * coord
        off_value = float(values @ weights)
        if rest < 0:
            return None
        if off_value <= 0:
            # Nothing to spread the remainder over; put it all on the pivot.
            candidate = np.zeros(region.n)
            candidate[pivot] = region.value_offset / values[pivot]
            return candidate
        candidate = weights * (rest / off_value)
        candidate[pivot] = coord
        return candidate
    raise TypeError(f"unknown sampling strategy {strategy!r}")


def _accept_on_plane(region: WageRegion, candidate: np.ndarray) -> bool:
    if np.any(candidate < 0):
        return False
    cost = float(region.prices @ candidate)
    worth = float(region.new_values @ candidate)
    return (
        cost > region.price_offset + STRICT_MARGIN
        and abs(worth - region.value_offset) <= ON_PLANE_TOL
    )


def sample_constant_exploitation(
    region: WageRegion,
    seed: int = 1000,
    strategy=None,
) -> WageBundle:
    """Draw a bundle in the region: dearer than the old wage, same value.

    Deterministic for a given (region, seed, strategy). Raises Infeasible
    when the region misses the nonnegative orthant and SamplingExhausted
    if the proposal budget runs out (pathological strategies only).
    """
    if not region.feasible:
        raise Infeasible("wage region does not meet the nonnegative orthant")
    if strategy is None:
        strategy = PivotUniform()
    if region.n == 1:
        # The plane is a single point; feasibility already placed it above.
        point = np.array([region.value_offset / region.new_values[0]])
        return WageBundle(point)
    rng = np.random.default_rng(seed)
    for _ in range(PROPOSAL_BUDGET):
        candidate = _propose(region, rng, strategy)
        if candidate is not None and _accept_on_plane(region, candidate):
            return WageBundle(candidate)
    raise SamplingExhausted(
        f"no admissible bundle in {PROPOSAL_BUDGET} proposals; "
        "check the strategy's pivot and value against the region"
    )


def sample_rising_exploitation(region: WageRegion, seed: int = 1000) -> WageBundle:
    """Draw a bundle strictly above the price plane, strictly below par value.

    Takes an on-plane sample and shrinks it radially: scaling preserves
    positivity and the price-plane side while pushing the labor value
    strictly below the old bundle's, so exploitation rises.
    """
    if not region.feasible:
        raise Infeasible("wage region does not meet the nonnegative orthant")
    rng = np.random.default_rng(seed)
    for _ in range(PROPOSAL_BUDGET):
        if region.n == 1:
            base = np.array([region.value_offset / region.new_values[0]])
        else:
            base = _propose(region, rng, PivotUniform())
            if base is None or not _accept_on_plane(region, base):
                continue
        cost = float(region.prices @ base)
        lo = (region.price_offset + STRICT_MARGIN) / cost
        hi = 1.0 - STRICT_MARGIN / region.value_offset
        if not lo < hi:
            continue
        # Stay away from both endpoints so the strict margins are macroscopic.
        scale = lo + rng.uniform(0.25, 0.75) * (hi - lo)
        candidate = scale * base
        if (
            float(region.prices @ candidate) > region.price_offset + STRICT_MARGIN
            and float(region.new_values @ candidate)
            < region.value_offset - STRICT_MARGIN
        ):
            return WageBundle(candidate)
    raise SamplingExhausted(
        f"no strictly-inside bundle in {PROPOSAL_BUDGET} proposals"
    )


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


def synthesize_culs_change(
    tech: Technology,
    bundle: WageBundle,
    equilibrium: Equilibrium,
    sector: int,
    epsilon_frac: float = 0.5,
    labor_frac: float = 0.5,
) -> SynthesizedChange:
    """Construct a viable capital-using labor-saving change in ``sector``.

    Requires the wage bundle to be admissible (positive surplus and
    ratio headroom); raises NotInB otherwise. ``epsilon_frac`` sets how
    much of the sector's labor cost is converted into the uniform input
    increment, ``labor_frac`` places the new direct labor inside its
    admissible window; both must lie strictly between 0 and 1.

    The construction guarantees, at the pre-change equilibrium: unit
    cost strictly falls, every input requirement strictly rises, direct
    labor strictly falls, and the wage region of the change meets the
    nonnegative orthant.
    """
    for name, frac in (("epsilon_frac", epsilon_frac), ("labor_frac", labor_frac)):
        if not 0.0 < frac < 1.0:
            raise InvalidFraction(f"{name} must lie strictly between 0 and 1, got {frac}")
    if sector < 0 or sector >= tech.n:
        raise InvalidSector(f"sector {sector} outside range 0..{tech.n - 1}")
    values = labor_values(tech)
    bundle_value = value_of_bundle(values, bundle)
    flags = admissibility(equilibrium.prices, values, bundle_value)
    if not flags.admissible:
        detail = (
            "bundle value outside (0, 1]" if not flags.nonnegative_surplus
            else "no price-value ratio exceeds one plus exploitation"
        )
        raise NotInB(f"wage bundle is not admissible: {detail}")
    # The pivot's headroom fixes how deep the labor cut may go.
    interval_ratio = bundle_value * flags.max_ratio
    old_labor = float(tech.labor[sector])
    price_sum = float(equilibrium.prices.sum())
    increment = epsilon_frac * old_labor / price_sum
    upper = old_labor - increment * price_sum
    lower = upper / interval_ratio
    new_labor = lower + labor_frac * (upper - lower)
    change = TechChange(
        sector=sector,
        new_column=tech.input_column(sector) + increment,
        new_labor=new_labor,
    )
    return SynthesizedChange(
        change=change,
        pivot_sector=flags.max_ratio_sector,
        interval_ratio=interval_ratio,
        column_increment=increment,
        labor_interval=(lower, upper),
    )
