"""Wage-region geometry, samplers, and change synthesis."""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from okishio_lab import synthesis
from okishio_lab import (
    EqualOffPivot,
    Infeasible,
    InvalidFraction,
    InvalidSector,
    NotInB,
    PivotUniform,
    SamplingExhausted,
    Technology,
    WageBundle,
    analyze_change,
    apply_change,
    build_region,
    check_properties,
    classify,
    labor_values,
    oracle_region_membership,
    ratio_condition_holds,
    ratio_condition_sectors,
    sample_constant_exploitation,
    sample_rising_exploitation,
    synthesize_culs_change,
    uniform_profit_rate,
    value_of_bundle,
)


@pytest.fixture
def ref_region(ref_tech, ref_bundle, ref_change):
    eq = uniform_profit_rate(ref_tech, ref_bundle)
    values = labor_values(ref_tech)
    new_values = labor_values(apply_change(ref_tech, ref_change))
    cls = classify(ref_tech, eq, ref_change)
    return build_region(eq, new_values, value_of_bundle(values, ref_bundle), cls)


@pytest.fixture
def one_sector_region(one_sector_tech, one_sector_bundle):
    # A = (0.5), L = (1), b = (0.25): p = (4), values = (2), vb = 0.5.
    # Change to A = (0.55), L = 0.7 is viable: cost 3 -> 2.9.
    from okishio_lab import TechChange

    eq = uniform_profit_rate(one_sector_tech, one_sector_bundle)
    change = TechChange(sector=0, new_column=np.array([0.55]), new_labor=0.7)
    cls = classify(one_sector_tech, eq, change)
    new_values = labor_values(apply_change(one_sector_tech, change))
    values = labor_values(one_sector_tech)
    return build_region(
        eq, new_values, value_of_bundle(values, one_sector_bundle), cls
    )


class _FakeViable:
    """Stands in for a ChangeClassification when only the offset matters."""

    def __init__(self, break_even_wage):
        self.viable = True
        self.break_even_wage = break_even_wage


class _FakeNotViable:
    viable = False
    break_even_wage = 1.0


def _fake_eq(prices):
    from okishio_lab import Equilibrium

    return Equilibrium(
        prices=prices,
        profit_rate=0.0,
        spectral_radius=1.0,
        residual=0.0,
        iterations=0,
        rho_bounds=(1.0, 1.0),
    )


@pytest.mark.parametrize("call", [
    sample_constant_exploitation, sample_rising_exploitation, ratio_condition_sectors,
    ratio_condition_holds,
])
def test_missing_region_of_a_change_that_is_not_viable_is_refused(call):
    # analyze_change gives a change that is not viable no region (None).
    with pytest.raises(ValueError, match="^wage region is only defined for a viable change$"):
        call(None)


class TestRegionGeometry:
    def test_reference_intercepts(self, ref_region):
        np.testing.assert_allclose(
            ref_region.price_plane_intercepts,
            [19.0 / 18.0, 1.1611111111111112, 0.9675925925925926],
            atol=1e-9,
        )
        np.testing.assert_allclose(
            ref_region.value_plane_intercepts,
            [1.0368188512518408, 1.1912013536379018, 0.9934148620209059],
            atol=1e-9,
        )

    def test_reference_intercepts_printed_precision(self, ref_region):
        np.testing.assert_allclose(
            ref_region.price_plane_intercepts,
            [1.0555556, 1.1611111, 0.9675926],
            atol=1e-7,
        )
        np.testing.assert_allclose(
            ref_region.value_plane_intercepts,
            [1.0368189, 1.1912014, 0.9934149],
            atol=1e-7,
        )

    def test_reference_feasibility_pattern(self, ref_region):
        assert ref_region.feasible
        np.testing.assert_array_equal(
            ref_region.feasible_sectors, [False, True, True]
        )

    def test_offsets(self, ref_region):
        assert ref_region.price_offset == pytest.approx(19.0 / 18.0, abs=1e-9)
        assert ref_region.value_offset == pytest.approx(4.0 / 7.0, abs=1e-12)

    def test_ratio_condition_agrees(self, ref_region):
        assert ratio_condition_holds(ref_region) == ref_region.feasible
        np.testing.assert_array_equal(
            ratio_condition_sectors(ref_region), ref_region.feasible_sectors
        )

    def test_ratio_condition_threshold_arithmetic(self, ref_region):
        # Markup product (1 + e)(1 + saving rate) = 1.75 * 19/18.
        threshold = (1.0 / ref_region.value_offset) * ref_region.price_offset
        assert threshold == pytest.approx(1.8472222222222223, abs=1e-9)
        ratios = ref_region.prices / ref_region.new_values
        np.testing.assert_allclose(
            ratios,
            [1.8144329896907216, 1.8950931890504211, 1.8965192433618648],
            atol=1e-8,
        )

    def test_scaled_up_values_kill_feasibility(self, ref_region):
        # Doubling the new values halves every value intercept.
        squeezed = build_region(
            _fake_eq(ref_region.prices),
            ref_region.new_values * 2.0,
            ref_region.value_offset,
            _FakeViable(ref_region.price_offset),
        )
        assert not squeezed.feasible
        assert not ratio_condition_holds(squeezed)

    def test_non_viable_change_rejected(self, ref_region):
        with pytest.raises(ValueError, match="viable"):
            build_region(
                _fake_eq(ref_region.prices),
                ref_region.new_values,
                ref_region.value_offset,
                _FakeNotViable(),
            )

    @pytest.mark.parametrize(
        "new_values, bundle_value, message",
        [([0.5, 0.0, 0.5], 0.6, "strictly positive"), ([0.5, 0.5, 0.5], 0.0, "must be positive")],
    )
    def test_bad_offsets_rejected(self, new_values, bundle_value, message):
        with pytest.raises(ValueError, match=message):
            build_region(_fake_eq(np.ones(3)), np.array(new_values), bundle_value, _FakeViable(0.5))


class TestConstantExploitationSampler:
    def test_reproduces_published_bundle(self, ref_region):
        # Pivot sector 2 with its coordinate pinned to the published draw;
        # the equal-split tail then lands on the printed figures.
        bundle = sample_constant_exploitation(
            ref_region, strategy=EqualOffPivot(pivot=1, value=1.170977)
        )
        np.testing.assert_allclose(
            bundle.quantities,
            [0.008613446793178136, 1.170977, 0.008613446793178136],
            atol=1e-9,
        )
        np.testing.assert_allclose(
            bundle.quantities, [0.008613, 1.170977, 0.008613], atol=1e-6
        )

    def test_default_strategy_satisfies_joint_properties(
        self, ref_region, ref_tech, ref_bundle, ref_change
    ):
        bundle = sample_constant_exploitation(ref_region, seed=5)
        eq = uniform_profit_rate(ref_tech, ref_bundle)
        values = labor_values(ref_tech)
        new_values = labor_values(apply_change(ref_tech, ref_change))
        report = check_properties(
            ref_tech, ref_change, eq, values, new_values, ref_bundle, bundle
        )
        assert report.all_hold

    def test_sample_lies_in_region(self, ref_region):
        for seed in (1, 2, 3, 10, 99):
            bundle = sample_constant_exploitation(ref_region, seed=seed)
            membership = oracle_region_membership(bundle, ref_region)
            assert membership.overall, f"seed {seed} left the region"

    def test_deterministic_per_seed(self, ref_region):
        first = sample_constant_exploitation(ref_region, seed=42)
        second = sample_constant_exploitation(ref_region, seed=42)
        np.testing.assert_array_equal(first.quantities, second.quantities)
        different = sample_constant_exploitation(ref_region, seed=43)
        assert not np.array_equal(first.quantities, different.quantities)

    def test_weights_spread_tail(self, ref_region):
        bundle = sample_constant_exploitation(
            ref_region, seed=4, strategy=PivotUniform(weights=(1.0, 1.0, 3.0))
        )
        assert oracle_region_membership(bundle, ref_region).overall
        # Pivot is sector 3 (largest ratio of value to price intercept);
        # off-pivot goods 1 and 2 get value proportional to the weights.
        q = bundle.quantities
        assert q[1] == pytest.approx(q[0], rel=1e-9)

    def test_one_sector_forced_point(self, one_sector_region):
        bundle = sample_constant_exploitation(one_sector_region, seed=8)
        # Only point on the value plane: vb / new_value = 0.5 / (0.7/0.45).
        assert bundle.quantities[0] == pytest.approx(0.32142857142857145, abs=1e-12)
        assert oracle_region_membership(bundle, one_sector_region).overall

    def test_infeasible_region_raises(self, ref_region):
        squeezed = build_region(
            _fake_eq(ref_region.prices),
            ref_region.new_values * 2.0,
            ref_region.value_offset,
            _FakeViable(ref_region.price_offset),
        )
        with pytest.raises(Infeasible):
            sample_constant_exploitation(squeezed, seed=1)

    def test_impossible_pinned_value_exhausts(self, ref_region):
        # A pivot coordinate worth more than the whole bundle value leaves
        # a negative remainder for the tail, so the one proposal fails.
        bad = EqualOffPivot(pivot=1, value=2.0)
        with pytest.raises(SamplingExhausted, match=r"^pivot coordinate 2 carries value "
                           r"0\.959416, above the bundle value 0\.571429$"):
            sample_constant_exploitation(ref_region, seed=1, strategy=bad)

    @pytest.mark.parametrize("value, why", [
        (float("inf"), "carries value inf, above the bundle value 0.571429"),
        (float("nan"), "is not nonnegative"),
        (-1.0, "is not nonnegative"),
    ], ids=["inf", "nan", "negative"])
    def test_pinned_value_outside_every_bundle_raises_without_warnings(
        self, ref_region, value, why
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SamplingExhausted) as excinfo:
                sample_constant_exploitation(
                    ref_region, seed=1, strategy=EqualOffPivot(pivot=1, value=value))
        assert str(excinfo.value) == f"pivot coordinate {value:.6g} {why}"

    def test_weight_only_on_the_pivot_puts_the_whole_value_there(self, ref_region):
        # Pivot sector 3 (largest ratio of value to price intercept) is the
        # only sector with weight, so nothing is left to spread: the bundle
        # is the value plane's point on the pivot axis.
        bundle = sample_constant_exploitation(
            ref_region, seed=4, strategy=PivotUniform(weights=(0, 0, 1))
        )
        expected = ref_region.value_offset / ref_region.new_values[2]
        assert bundle.quantities.tolist() == [0.0, 0.0, expected]
        assert oracle_region_membership(bundle, ref_region).overall

    def test_stacked_bare_and_drawn_rows_are_their_one_row_calls(self, ref_region):
        # Weight only on good 2: the reference region pivots on sector 3 and
        # draws, the other on sector 2 and is bare, its value all on good 2.
        other = build_region(
            _fake_eq(np.ones(3)), np.array([1.0, 0.5, 1.0]), 0.6, _FakeViable(0.5)
        )
        regions, seeds = [ref_region, other, other, ref_region], [3, 4, 5, 6]
        stack = synthesis._Regions(
            *map(np.concatenate, zip(*map(synthesis._one_region, regions))))
        strategy = PivotUniform(weights=(0, 1, 0))
        rows = synthesis._sample_rows(stack, seeds, strategy)
        for row, region, seed in zip(rows, regions, seeds):
            alone = sample_constant_exploitation(region, seed, strategy)
            assert np.array_equal(row, alone.quantities)
        assert rows[1].tolist() == rows[2].tolist() == [0.0, 1.2, 0.0]
        assert rows[0][0] == rows[3][0] == 0.0 and rows[0][2] != rows[3][2]

    def test_equal_off_pivot_with_negligible_other_values(self):
        # The pivot's value is 1 and the others 1e-20: the rest of the
        # bundle value goes to the other goods in huge equal quantities.
        region = build_region(
            _fake_eq(np.ones(3)), np.array([1.0, 1e-20, 1e-20]), 0.6, _FakeViable(0.5)
        )
        bundle = sample_constant_exploitation(region, seed=2, strategy=EqualOffPivot(pivot=0))
        q = bundle.quantities
        assert 0.5 < q[0] < 0.6 and q[1] == q[2] > 0.0
        assert oracle_region_membership(bundle, region).overall

    def test_pinned_pivot_that_cannot_carry_a_bundle(self, ref_region):
        # Sector 1's value intercept is below its price intercept: no drawn
        # coordinate lies between them, so the pin is refused, not retried.
        assert not ref_region.feasible_sectors[0]
        with pytest.raises(Infeasible, match=r"sector 1 cannot carry a bundle: "
                           r"its value intercept 1\.03682 is not above its price intercept "
                           r"1\.05556"):
            sample_constant_exploitation(ref_region, seed=1, strategy=EqualOffPivot(pivot=0))
        # A pinned value is not drawn, so it is tried as given.
        pinned = EqualOffPivot(pivot=0, value=0.5)
        bundle = sample_constant_exploitation(ref_region, seed=1, strategy=pinned)
        assert bundle.quantities[0] == 0.5

    @pytest.mark.parametrize("pivot", [-1, 3])
    def test_pivot_out_of_range_rejected(self, ref_region, pivot):
        with pytest.raises(InvalidSector, match=f"pivot sector {pivot + 1} outside range 1..3"):
            sample_constant_exploitation(ref_region, seed=1, strategy=EqualOffPivot(pivot=pivot))

    @pytest.mark.parametrize("pivot", [1.5, True])
    def test_pivot_that_is_not_an_integer_rejected(self, ref_region, pivot):
        with pytest.raises(InvalidSector, match=f"pivot sector must be an integer, got {pivot}"):
            sample_constant_exploitation(ref_region, seed=1, strategy=EqualOffPivot(pivot=pivot))

    def test_numpy_integer_pivot_accepted(self, ref_region):
        bundles = [sample_constant_exploitation(ref_region, seed=1, strategy=EqualOffPivot(pivot))
                   for pivot in (np.int64(1), 1)]
        assert np.array_equal(*(bundle.quantities for bundle in bundles))

    @pytest.mark.parametrize("weights", [
        (1.0, -1.0, 1.0), (1.0, 1.0), (float("nan"), 1.0, 1.0), (float("inf"), 1.0, 1.0),
    ])
    def test_bad_weights_rejected(self, ref_region, weights):
        with pytest.raises(ValueError, match="^weights must be finite and nonnegative, one per "
                                             "sector$"):
            sample_constant_exploitation(ref_region, seed=1, strategy=PivotUniform(weights))

    def test_unknown_strategy_rejected(self, ref_region):
        with pytest.raises(TypeError):
            sample_constant_exploitation(ref_region, seed=1, strategy="uniform")


class TestRisingExploitationSampler:
    def test_sample_is_strictly_inside(self, ref_region):
        for seed in (1, 7, 2026):
            bundle = sample_rising_exploitation(ref_region, seed=seed)
            cost = float(ref_region.prices @ bundle.quantities)
            worth = float(ref_region.new_values @ bundle.quantities)
            assert cost > ref_region.price_offset + 1e-12
            assert worth < ref_region.value_offset - 1e-12

    def test_on_plane_point_rejected_by_membership(self, ref_region):
        # A constant-exploitation sample sits on the value plane, so it
        # must fail the rising sampler's strict below-value requirement.
        on_plane = sample_constant_exploitation(ref_region, seed=3)
        worth = float(ref_region.new_values @ on_plane.quantities)
        assert not worth < ref_region.value_offset - 1e-12

    def test_shrunken_published_bundle_is_inside(self, ref_region):
        # Radial shrink of the published bundle: dearer than break-even,
        # value strictly below par.
        shrunk = 0.999 * np.array(
            [0.008613446793178136, 1.170977, 0.008613446793178136]
        )
        cost = float(ref_region.prices @ shrunk)
        worth = float(ref_region.new_values @ shrunk)
        assert cost > ref_region.price_offset + 1e-12
        assert worth < ref_region.value_offset - 1e-12

    def test_midpoint_with_shrink_is_inside(self, ref_region):
        base = sample_constant_exploitation(ref_region, seed=12)
        midpoint = 0.5 * (base.quantities + 0.98 * base.quantities)
        cost = float(ref_region.prices @ midpoint)
        worth = float(ref_region.new_values @ midpoint)
        assert cost > ref_region.price_offset + 1e-12
        assert worth < ref_region.value_offset - 1e-12

    def test_deterministic(self, ref_region):
        first = sample_rising_exploitation(ref_region, seed=31)
        second = sample_rising_exploitation(ref_region, seed=31)
        np.testing.assert_array_equal(first.quantities, second.quantities)

    def test_one_sector_draws_only_the_shrink(self, one_sector_region):
        # The one sector's row is bare: its on-plane point is not drawn, so
        # each generator's first draw is the shrink factor.
        for seed, expected in enumerate(
            [0.3060171729876255, 0.30378252901230285, 0.29931450239721913]
        ):
            bundle = sample_rising_exploitation(one_sector_region, seed=seed)
            assert bundle.quantities.tolist() == [expected]

    def test_one_sector(self, one_sector_region):
        bundle = sample_rising_exploitation(one_sector_region, seed=2)
        cost = float(one_sector_region.prices @ bundle.quantities)
        worth = float(one_sector_region.new_values @ bundle.quantities)
        assert cost > one_sector_region.price_offset + 1e-12
        assert worth < one_sector_region.value_offset - 1e-12


@st.composite
def feasible_regions(draw, n):
    """A region of ``n`` sectors whose best value intercept is at least
    1 + 1e-6 times its price intercept."""
    entries = st.lists(st.floats(0.5, 2.0), min_size=n, max_size=n)
    prices, new_values = np.array(draw(entries)), np.array(draw(entries))
    break_even, headroom = draw(st.floats(0.5, 2.0)), 10.0 ** draw(st.floats(-6.0, 0.0))
    bundle_value = (1.0 + headroom) * break_even / (prices / new_values).max()
    return build_region(_fake_eq(prices), new_values, bundle_value, _FakeViable(break_even))


class TestOneProposal:
    @pytest.mark.parametrize("sample", [sample_constant_exploitation, sample_rising_exploitation])
    def test_region_all_but_empty_at_the_pivot_raises_at_once(self, sample):
        # Only sector 1 is feasible, its value intercept 1e-13 above its
        # price intercept: every coordinate clears the break-even wage by
        # less than the strict margin, and the one proposal says so.
        region = build_region(
            _fake_eq(np.ones(3)), np.array([0.6 / (0.5 * (1 + 1e-13)), 10.0, 10.0]), 0.6,
            _FakeViable(0.5),
        )
        assert region.feasible_sectors.tolist() == [True, False, False]
        with pytest.raises(SamplingExhausted, match=r"^pivot coordinate 0\.5 gives a bundle "
                           r"costing 0\.5, not above the break-even wage 0\.5 by more than "
                           r"1e-12 \(margin \+\d\.\d+e-1[34]\)$"):
            sample(region, seed=1)

    @pytest.mark.parametrize("sample", [sample_constant_exploitation, sample_rising_exploitation])
    def test_unbounded_pivot_interval_is_refused_by_name(self, sample, ref_region):
        # An infinite value intercept draws an infinite coordinate, which the
        # one check refuses, rather than NumPy's uniform refusing the range.
        y = ref_region.value_plane_intercepts.copy()
        y[1] = np.inf
        region = dataclasses.replace(ref_region, value_plane_intercepts=y)
        with pytest.raises(SamplingExhausted, match=r"^pivot coordinate inf carries value inf, "
                           r"above the bundle value 0\.571429$"):
            sample(region, seed=3)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 8).flatmap(lambda n: st.lists(feasible_regions(n), min_size=1,
                                                        max_size=3)),
           st.integers(0, 2**32 - 1))
    def test_feasible_regions_sample_on_the_first_proposal(self, regions, seed):
        seeds = [seed + row for row in range(len(regions))]
        stack = synthesis._Regions(
            *map(np.concatenate, zip(*map(synthesis._one_region, regions))))
        constant = synthesis._sample_rows(stack, seeds)
        rising = synthesis._sample_rows(stack, seeds, shrink=True)
        for row, (region, row_seed) in enumerate(zip(regions, seeds)):
            bundle = sample_constant_exploitation(region, row_seed)
            assert np.array_equal(constant[row], bundle.quantities)
            assert oracle_region_membership(bundle, region).overall
            shrunk = sample_rising_exploitation(region, row_seed)
            assert np.array_equal(rising[row], shrunk.quantities)
            membership = oracle_region_membership(shrunk, region)
            assert membership.nonnegative and membership.above_price_plane
            assert float(region.new_values @ shrunk.quantities) < region.value_offset - 1e-12


class TestSynthesize:
    def test_reference_construction_midpoint(self, ref_tech, ref_bundle):
        eq = uniform_profit_rate(ref_tech, ref_bundle)
        synth = synthesize_culs_change(ref_tech, ref_bundle, eq, sector=2)
        # increment = 0.5 * 0.25 / 3, window scaled by 0.5 * 0.25.
        assert synth.column_increment == pytest.approx(1.0 / 24.0, abs=1e-9)
        lo, hi = synth.labor_interval
        assert hi == pytest.approx(0.125, abs=1e-12)
        assert lo == pytest.approx(0.1203125, abs=1e-9)
        assert synth.change.new_labor == pytest.approx(0.12265625, abs=1e-9)
        assert synth.interval_ratio == pytest.approx(80.0 / 77.0, abs=1e-9)
        assert synth.pivot_sector == 1
        np.testing.assert_allclose(
            synth.change.new_column,
            [0.25 + 1 / 24, 0.05 + 1 / 24, 0.35 + 1 / 24],
            atol=1e-9,
        )

    def test_new_labor_strictly_inside_window(self, ref_tech, ref_bundle):
        eq = uniform_profit_rate(ref_tech, ref_bundle)
        for labor_frac in (0.05, 0.5, 0.95):
            synth = synthesize_culs_change(
                ref_tech, ref_bundle, eq, sector=2, labor_frac=labor_frac
            )
            lo, hi = synth.labor_interval
            assert lo < synth.change.new_labor < hi

    def test_output_classifies_viable_culs(self, ref_tech, ref_bundle):
        eq = uniform_profit_rate(ref_tech, ref_bundle)
        synth = synthesize_culs_change(ref_tech, ref_bundle, eq, sector=2)
        cls = classify(ref_tech, eq, synth.change)
        assert cls.viable
        assert cls.culs

    def test_output_region_feasible(self, ref_tech, ref_bundle):
        eq = uniform_profit_rate(ref_tech, ref_bundle)
        synth = synthesize_culs_change(ref_tech, ref_bundle, eq, sector=2)
        cls = classify(ref_tech, eq, synth.change)
        values = labor_values(ref_tech)
        new_values = labor_values(apply_change(ref_tech, synth.change))
        region = build_region(
            eq, new_values, value_of_bundle(values, ref_bundle), cls
        )
        assert region.feasible
        assert ratio_condition_holds(region)

    def test_every_sector_works(self, ref_tech, ref_bundle):
        eq = uniform_profit_rate(ref_tech, ref_bundle)
        for sector in range(3):
            synth = synthesize_culs_change(ref_tech, ref_bundle, eq, sector=sector)
            cls = classify(ref_tech, eq, synth.change)
            assert cls.viable and cls.culs

    def test_extreme_labor_frac_still_viable(self, ref_tech, ref_bundle):
        eq = uniform_profit_rate(ref_tech, ref_bundle)
        synth = synthesize_culs_change(
            ref_tech, ref_bundle, eq, sector=2, labor_frac=0.999
        )
        cls = classify(ref_tech, eq, synth.change)
        assert cls.viable
        assert cls.cost_drop > 0

    def test_equal_organic_composition_rejected(
        self, equal_organic_tech, equal_organic_bundle
    ):
        eq = uniform_profit_rate(equal_organic_tech, equal_organic_bundle)
        with pytest.raises(NotInB, match="ratio"):
            synthesize_culs_change(
                equal_organic_tech, equal_organic_bundle, eq, sector=0
            )

    def test_bad_fractions_rejected(self, ref_tech, ref_bundle):
        eq = uniform_profit_rate(ref_tech, ref_bundle)
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(InvalidFraction):
                synthesize_culs_change(
                    ref_tech, ref_bundle, eq, sector=0, epsilon_frac=bad
                )
            with pytest.raises(InvalidFraction):
                synthesize_culs_change(
                    ref_tech, ref_bundle, eq, sector=0, labor_frac=bad
                )

    def test_bad_sector_rejected(self, ref_tech, ref_bundle):
        eq = uniform_profit_rate(ref_tech, ref_bundle)
        with pytest.raises(InvalidSector):
            synthesize_culs_change(ref_tech, ref_bundle, eq, sector=3)
        with pytest.raises(InvalidSector):
            synthesize_culs_change(ref_tech, ref_bundle, eq, sector=-1)

    @pytest.mark.parametrize("sector", [1.0, True, 2.5])
    def test_sector_that_is_not_an_integer_rejected(self, ref_tech, ref_bundle, sector):
        eq = uniform_profit_rate(ref_tech, ref_bundle)
        with pytest.raises(InvalidSector) as raised:
            synthesize_culs_change(ref_tech, ref_bundle, eq, sector=sector)
        assert str(raised.value) == f"sector must be an integer, got {sector!r}"

    def test_numpy_integer_sector_accepted(self, ref_tech, ref_bundle):
        eq = uniform_profit_rate(ref_tech, ref_bundle)
        made = [synthesize_culs_change(ref_tech, ref_bundle, eq, sector=sector)
                for sector in (np.int64(2), 2)]
        assert made[0].sector == made[1].sector == 2
        assert np.array_equal(made[0].change.new_column, made[1].change.new_column)
        assert made[0].change.new_labor == made[1].change.new_labor

    # The relative cost drop is (1 - labor_frac)(1 - epsilon_frac) λ h/(1 + h):
    # about 1e-13 here. With epsilon_frac = 1e-13 each input rises by less
    # than 1e-12 of itself.
    @pytest.mark.parametrize("epsilon_frac, labor_frac, bound", [
        (0.999999999, 0.99, "relative unit-cost drop 1.01e-13"),
        (1e-13, 0.5, "smallest relative input rise 2.38e-14"),
    ], ids=["cost-drop", "input-rise"])
    def test_knobs_near_their_ends_are_infeasible(
        self, ref_tech, ref_bundle, epsilon_frac, labor_frac, bound
    ):
        eq = uniform_profit_rate(ref_tech, ref_bundle)
        with pytest.raises(Infeasible, match=f"sector 3 .*{bound} is not above 1e-12"):
            synthesize_culs_change(ref_tech, ref_bundle, eq, 2, epsilon_frac, labor_frac)

    def test_stacked_synthesis_checks_every_bundle_before_any_change(self, ref_tech, ref_bundle):
        # Row 0's change would be Infeasible (epsilon_frac 1e-13); row 1's
        # bundle, at labor value 1.2, is not admissible. NotInB comes first.
        eq = uniform_profit_rate(ref_tech, ref_bundle)
        dear = ref_bundle.quantities * (1.2 / value_of_bundle(ref_tech.values, ref_bundle))
        economies = [np.stack([part] * 2) for part in
                     (ref_tech.inputs, ref_tech.labor, ref_tech.values, eq.prices)]
        economies.insert(3, np.stack([ref_bundle.quantities, dear]))
        knobs = np.array([2, 2]), np.array([1e-13, 0.5]), np.array([0.5, 0.5])

        def rows(which):
            return [part[which] for part in economies + list(knobs)]

        with pytest.raises(Infeasible, match="smallest relative input rise"):
            synthesis._synthesize_rows(*rows(slice(0, 1)))
        with pytest.raises(NotInB) as alone:
            synthesis._synthesize_rows(*rows(slice(1, 2)))
        with pytest.raises(NotInB) as stacked:
            synthesis._synthesize_rows(*rows(slice(None)))
        assert str(stacked.value) == str(alone.value) == (
            "wage bundle is not admissible: bundle value outside (0, 1]")

    def test_headroom_near_zero_never_gives_a_change_its_classifier_rejects(self):
        outcomes = set()
        for delta in np.geomspace(1e-12, 1e-9, 61):
            tech, bundle = headroom_economy(delta)
            eq = uniform_profit_rate(tech, bundle)
            for sector in range(tech.n):
                try:
                    synth = synthesize_culs_change(tech, bundle, eq, sector)
                except (NotInB, Infeasible) as err:
                    outcomes.add(type(err))
                    continue
                analysis = analyze_change(tech, bundle, eq, synth.change)
                assert analysis.classification.viable and analysis.classification.culs
                assert analysis.region is not None and analysis.region.feasible
                outcomes.add(None)
        # The family runs from no headroom through too little to enough.
        assert outcomes == {NotInB, Infeasible, None}


def headroom_economy(delta):
    """``A = 1/8 + delta R`` and a bundle worth half a day: the price-value
    headroom h grows from zero with delta (h is about 0.19 delta)."""
    inputs = 1.0 / 8.0 + delta * np.random.default_rng(3).uniform(size=(4, 4))
    tech = Technology(inputs, np.full(4, 0.2))
    return tech, WageBundle(np.full(4, 0.5 / tech.values.sum()))


def first_draws(rng):
    return rng.uniform(), rng.integers(2**63 - 1), rng.uniform(size=(4, 4))


def assert_default_streams(seeds):
    generators = synthesis._generators(seeds)
    assert len(generators) == len(seeds)
    for rng, seed in zip(generators, seeds):
        (x, i, block), (y, j, expected) = map(first_draws, (rng, np.random.default_rng(seed)))
        assert (x, i) == (y, j)
        np.testing.assert_array_equal(block, expected)


class TestGenerators:
    """``_generators`` hashes many seeds at once; every stream must be
    ``default_rng``'s, bit for bit."""

    INTEGER_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 - 2] + [
        int(seed) for seed in np.random.default_rng(21).integers(2**63 - 1, size=595)
    ]

    @pytest.mark.parametrize("k", [1, 2, 600])
    def test_integer_seeds(self, k):
        for start in range(0, len(self.INTEGER_SEEDS), k):
            assert_default_streams(self.INTEGER_SEEDS[start:start + k])

    # One to four words of seed, then the index: entropy of 2, 3, 4 and 5 words.
    @pytest.mark.parametrize("seed", [1000, 2**32 + 7, 2**64 + 3, 2**96 + 5])
    @pytest.mark.parametrize("k", [1, 2, 600])
    def test_seed_index_pairs(self, seed, k):
        assert_default_streams([(seed, index) for index in range(k)])

    @pytest.mark.parametrize("seeds, batched", [
        ([7], False),
        ([(2**64 + 3, 0), (2**64 + 3, 1)], True),
        ([(2**96 + 5, 0), (2**96 + 5, 1)], False),
        ([np.int64(7), 8], False),
    ], ids=["one-seed", "four-words", "five-words", "numpy-int"])
    def test_only_pooled_rows_of_two_or_more_seeds_are_batched(self, seeds, batched, monkeypatch):
        calls, default_rng = [], np.random.default_rng

        def counted(seed):
            calls.append(seed)
            return default_rng(seed)

        monkeypatch.setattr(np.random, "default_rng", counted)
        synthesis._generators(seeds)
        assert calls == ([] if batched else list(seeds))

    @pytest.mark.parametrize("seeds", [[-1], [-1, 2], [(-1, 0), (-1, 1)], [(5, 0), (5, -1)]])
    def test_negative_seed_raises_default_rngs_error(self, seeds):
        with pytest.raises(ValueError) as expected:
            np.random.default_rng(min(seeds))
        with pytest.raises(ValueError, match=f"^{expected.value}$"):
            synthesis._generators(seeds)


class TestFeasibilityFormsAgree:
    def test_intercept_and_markup_forms_match_on_random_regions(self):
        # The two routes compute the same predicate from different
        # arithmetic; they must agree sector by sector, bit for bit.
        from okishio_lab import Technology

        rng = np.random.default_rng(314)
        agreements = 0
        for _ in range(60):
            n = int(rng.integers(2, 7))
            inputs = rng.uniform(0.01, 0.3, (n, n))
            inputs *= rng.uniform(0.3, 0.8) / np.max(np.abs(np.linalg.eigvals(inputs)))
            tech = Technology(inputs, rng.uniform(0.05, 0.5, n))
            values = labor_values(tech)
            direction = rng.uniform(0.1, 1.0, n)
            bundle = WageBundle(
                direction * (rng.uniform(0.3, 0.9) / float(values @ direction))
            )
            eq = uniform_profit_rate(tech, bundle)
            from okishio_lab import TechChange

            sector = int(rng.integers(n))
            change = TechChange(
                sector=sector,
                new_column=tech.input_column(sector) + rng.uniform(1e-4, 2e-3),
                new_labor=float(tech.labor[sector]) * rng.uniform(0.6, 0.95),
            )
            cls = classify(tech, eq, change)
            if not cls.viable:
                continue
            new_values = labor_values(apply_change(tech, change))
            region = build_region(
                eq, new_values, value_of_bundle(values, bundle), cls
            )
            assert ratio_condition_holds(region) == region.feasible
            np.testing.assert_array_equal(
                ratio_condition_sectors(region), region.feasible_sectors
            )
            agreements += 1
        assert agreements >= 40
