"""Scenario runner, oracles, generator, and the random suite."""

import numpy as np
import pytest

from okishio_lab import (
    OracleLimit,
    TechChange,
    Technology,
    Verdict,
    WageBundle,
    admissibility,
    apply_change,
    augmented_inputs,
    build_region,
    classify,
    labor_values,
    oracle_region_membership,
    oracle_spectral_radius,
    random_economy,
    run_scenario,
    run_scenarios,
    run_suite,
    suite_csv,
    suite_summary,
    uniform_profit_rate,
    value_of_bundle,
)


SOLVED_BUNDLE = np.array([0.008613446793178136, 1.170977, 0.008613446793178136])


class TestRunScenario:
    def test_reference_scenario_constant_exploitation(
        self, ref_tech, ref_bundle, ref_change
    ):
        report = run_scenario(
            ref_tech, ref_bundle, ref_change, WageBundle(SOLVED_BUNDLE)
        )
        assert report.verdict is Verdict.PROFIT_FELL_EXPLOITATION_CONSTANT
        assert report.pre_profit == pytest.approx(0.17647058823529413, abs=1e-9)
        assert report.post_profit == pytest.approx(0.16045512011280572, abs=1e-9)
        assert report.pre_exploitation == pytest.approx(0.75, abs=1e-9)
        assert abs(report.post_exploitation - report.pre_exploitation) <= 1e-9
        flags = report.flags
        assert flags.viable and flags.culs
        assert flags.more_expensive and flags.value_constant and flags.saving_bounded
        assert flags.admissible_pre and flags.surplus_ok_post
        assert flags.region_feasible and flags.ratio_condition

    def test_reference_scenario_okishio_control(self, ref_tech, ref_bundle, ref_change):
        report = run_scenario(ref_tech, ref_bundle, ref_change, ref_bundle)
        assert report.verdict is Verdict.OKISHIO_RISE
        assert report.post_profit == pytest.approx(0.18110236220472413, abs=1e-9)
        assert report.post_profit > report.pre_profit

    def test_noop_change_is_inconclusive(self, ref_tech, ref_bundle):
        noop = TechChange(
            sector=0,
            new_column=ref_tech.input_column(0).copy(),
            new_labor=float(ref_tech.labor[0]),
        )
        report = run_scenario(ref_tech, ref_bundle, noop, ref_bundle)
        assert report.verdict is Verdict.INCONCLUSIVE
        # Identical data, identical deterministic solve.
        assert report.post_profit == report.pre_profit
        assert not report.flags.viable
        assert not report.flags.region_feasible
        assert not report.flags.ratio_condition

    def test_rising_exploitation_verdict(self, ref_tech, ref_bundle, ref_change):
        shrunk = WageBundle(0.999 * SOLVED_BUNDLE)
        report = run_scenario(ref_tech, ref_bundle, ref_change, shrunk)
        assert report.verdict is Verdict.PROFIT_FELL_EXPLOITATION_ROSE
        assert report.post_exploitation > report.pre_exploitation + 1e-12
        assert report.post_profit < report.pre_profit - 1e-12

    def test_error_carries_scenario_context(self, ref_tech, ref_bundle):
        from okishio_lab import NotProductive

        heavy = TechChange(
            sector=2,
            new_column=ref_tech.input_column(2) + 1.0,
            new_labor=0.18,
        )
        with pytest.raises(NotProductive) as excinfo:
            run_scenario(ref_tech, ref_bundle, heavy, ref_bundle)
        text = str(excinfo.value) + "".join(getattr(excinfo.value, "__notes__", []))
        assert "sector 3" in text

    def test_verdict_never_contradicts_profit_flags(self, ref_tech, ref_bundle, ref_change):
        report = run_scenario(
            ref_tech, ref_bundle, ref_change, WageBundle(SOLVED_BUNDLE)
        )
        if report.verdict is Verdict.PROFIT_FELL_EXPLOITATION_CONSTANT:
            assert report.post_profit < report.pre_profit - 1e-12
            assert abs(report.post_exploitation - report.pre_exploitation) <= 1e-9


class TestSpectralRadiusOracle:
    def test_reference_augmented_matrix_exact(self, ref_tech, ref_bundle):
        # Constant row sums 0.85: the row-sum bound is attained and the
        # oracle returns it without bisecting.
        m = augmented_inputs(ref_tech, ref_bundle)
        assert oracle_spectral_radius(m) == 0.85

    def test_reference_inputs_exact(self, ref_inputs):
        assert oracle_spectral_radius(ref_inputs) == 0.65

    def test_diagonal(self):
        assert oracle_spectral_radius(np.diag([0.2, 0.7])) == pytest.approx(
            0.7, abs=1e-9
        )

    def test_rank_one(self):
        # All entries 0.5: eigenvalues are 1 and 0.
        assert oracle_spectral_radius(np.full((2, 2), 0.5)) == pytest.approx(
            1.0, abs=1e-9
        )

    def test_zero_matrix(self):
        assert oracle_spectral_radius(np.zeros((3, 3))) == 0.0

    def test_agrees_with_power_iteration_on_random_matrices(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = int(rng.integers(1, 7))
            matrix = rng.uniform(0.0, 0.5, (n, n))
            reference = float(np.max(np.abs(np.linalg.eigvals(matrix))))
            assert oracle_spectral_radius(matrix) == pytest.approx(
                reference, abs=1e-8
            )

    def test_size_limit(self):
        with pytest.raises(OracleLimit):
            oracle_spectral_radius(np.zeros((7, 7)))

    def test_negative_entries_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            oracle_spectral_radius(np.array([[0.1, -0.1], [0.1, 0.1]]))


class TestRegionMembershipOracle:
    @pytest.fixture
    def region(self, ref_tech, ref_bundle, ref_change):
        eq = uniform_profit_rate(ref_tech, ref_bundle)
        values = labor_values(ref_tech)
        new_values = labor_values(apply_change(ref_tech, ref_change))
        cls = classify(ref_tech, eq, ref_change)
        return build_region(eq, new_values, value_of_bundle(values, ref_bundle), cls)

    def test_solved_bundle_inside(self, region):
        membership = oracle_region_membership(SOLVED_BUNDLE, region)
        assert membership.nonnegative
        assert membership.above_price_plane
        assert membership.on_value_plane
        assert membership.overall

    def test_zero_vector_outside(self, region):
        membership = oracle_region_membership(np.zeros(3), region)
        assert membership.nonnegative
        assert not membership.above_price_plane
        assert not membership.on_value_plane
        assert not membership.overall

    def test_feasible_axis_point_inside(self, region):
        # Put the whole bundle value on a feasible sector's axis: the
        # intercept point is on the value plane and above the price plane.
        sector = int(np.argmax(region.feasible_sectors))
        point = np.zeros(3)
        point[sector] = region.value_plane_intercepts[sector]
        membership = oracle_region_membership(point, region)
        assert membership.overall

    def test_infeasible_axis_point_below(self, region):
        # Sector 1's value intercept sits below its price intercept.
        assert not region.feasible_sectors[0]
        point = np.zeros(3)
        point[0] = region.value_plane_intercepts[0]
        membership = oracle_region_membership(point, region)
        assert membership.on_value_plane
        assert not membership.above_price_plane

    def test_negative_point_flagged(self, region):
        membership = oracle_region_membership(np.array([-0.1, 1.2, 0.0]), region)
        assert not membership.nonnegative
        assert not membership.overall

    def test_length_mismatch(self, region):
        with pytest.raises(ValueError, match="length"):
            oracle_region_membership(np.zeros(2), region)


class TestRandomEconomy:
    def test_draws_are_valid_and_admissible(self):
        rng = np.random.default_rng(77)
        for n in (2, 4, 8):
            tech, bundle = random_economy(rng, n)
            assert tech.n == n
            values = labor_values(tech)
            bundle_value = value_of_bundle(values, bundle)
            assert 0.3 - 1e-9 <= bundle_value <= 0.9 + 1e-9
            prices = uniform_profit_rate(tech, bundle).prices
            assert admissibility(prices, values, bundle_value).admissible

    def test_deterministic_given_generator_state(self):
        first = random_economy(np.random.default_rng(123), 4)
        second = random_economy(np.random.default_rng(123), 4)
        np.testing.assert_array_equal(first[0].inputs, second[0].inputs)
        np.testing.assert_array_equal(first[1].quantities, second[1].quantities)

    def test_cycle_patch_connects_decomposable_draws(self):
        from okishio_lab.linear_economy import _strongly_connected
        from okishio_lab.verify import _connect_cycle

        block = np.zeros((4, 4))
        block[0, 1] = block[1, 0] = 0.2  # two isolated 2-blocks
        block[2, 3] = block[3, 2] = 0.2
        assert not _strongly_connected(block)
        patched = _connect_cycle(block, np.random.default_rng(3))
        assert _strongly_connected(patched)


@pytest.fixture(scope="module")
def records():
    return run_suite(seed=1000, count=40)


class TestSuite:
    def test_all_verdicts_constant(self, records):
        assert len(records) == 40
        for record in records:
            assert record.scenario.verdict is Verdict.PROFIT_FELL_EXPLOITATION_CONSTANT
            assert record.scenario.post_profit < record.scenario.pre_profit - 1e-12
            assert (
                abs(
                    record.scenario.post_exploitation
                    - record.scenario.pre_exploitation
                )
                <= 1e-9
            )

    def test_okishio_and_rising_branches(self, records):
        for record in records:
            assert record.okishio_ok
            assert record.rising_ok
            assert (
                record.rising.post_exploitation
                > record.rising.pre_exploitation + 1e-12
            )

    def test_guarantee_flags_all_hold(self, records):
        for record in records:
            flags = record.scenario.flags
            assert flags.viable and flags.culs
            assert flags.region_feasible and flags.ratio_condition
            assert flags.region_feasible == flags.ratio_condition

    def test_sampled_bundles_lie_in_their_regions(self, records):
        for record in records:
            assert oracle_region_membership(
                record.constant_bundle, record.region
            ).overall

    def test_price_value_chain(self, records):
        for record in records:
            assert np.all(record.scenario.pre_prices > record.scenario.pre_values)
            assert np.all(
                record.scenario.pre_values >= record.scenario.post_values - 1e-10
            )

    def test_csv_deterministic_and_shaped(self, records):
        text = suite_csv(records)
        again = suite_csv(run_suite(seed=1000, count=40))
        assert text == again
        lines = text.splitlines()
        assert len(lines) == 41
        header = lines[0].split(",")
        assert header[0] == "index"
        assert "verdict" in header

    def test_different_seed_differs(self, records):
        other = run_suite(seed=1001, count=5)
        assert other[0].scenario.pre_profit != records[0].scenario.pre_profit

    def test_summary_counts(self, records):
        summary = suite_summary(records)
        assert summary["count"] == 40
        assert summary["verdicts"]["ProfitFellExploitationConstant"] == 40
        assert summary["violations"] == 0
        assert summary["okishio_violations"] == 0
        assert summary["rising_violations"] == 0

    def test_records_are_individually_reproducible(self, records):
        # Economy index 7 regenerated alone matches the batch draw.
        single = run_suite(seed=1000, count=8)[7]
        batch = records[7]
        np.testing.assert_array_equal(single.tech.inputs, batch.tech.inputs)
        np.testing.assert_array_equal(
            single.constant_bundle.quantities, batch.constant_bundle.quantities
        )
        assert single.scenario.post_profit == batch.scenario.post_profit


def _in_other_units(record, labor, goods):
    """A sweep record's scenario inputs in other units of labor and goods.

    Every labor figure is multiplied by ``labor`` and every quantity of
    good i divided by d_i (``goods`` for even i, ``1 / goods`` for odd i):
    with D = diag(d), A -> D^-1 A D, L -> L D and each bundle
    b -> D^-1 b, bundles also divided by ``labor``.
    """
    d = np.array([goods if i % 2 == 0 else 1.0 / goods for i in range(record.n)])
    tech = Technology(
        record.tech.inputs * d[None, :] / d[:, None], record.tech.labor * d * labor
    )
    change = record.synthesized.change
    sector = change.sector
    change = TechChange(
        sector, change.new_column * d[sector] / d, change.new_labor * d[sector] * labor
    )

    def rescaled(bundle):
        return WageBundle(bundle.quantities / d / labor)

    new_bundles = (record.constant_bundle, record.bundle, record.rising_bundle)
    return tech, rescaled(record.bundle), change, tuple(map(rescaled, new_bundles))


@pytest.mark.parametrize(
    "labor, goods", [(1e-13, 1.0), (1.0, 1e-6), (1.0, 1e-12)],
    ids=["labor*1e-13", "goods*1e-+6", "goods*1e-+12"],
)
def test_scenario_verdicts_are_free_of_units(records, labor, goods):
    for record in records:
        base = run_scenarios(*_in_other_units(record, 1.0, 1.0))
        other = run_scenarios(*_in_other_units(record, labor, goods))
        for a, b in zip(base, other):
            assert vars(a.flags) == vars(b.flags), record.index
            assert a.verdict is b.verdict, record.index
