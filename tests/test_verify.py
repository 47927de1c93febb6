"""Scenario runner, oracles, generator, and the random suite."""

import dataclasses

import numpy as np
import pytest

from okishio_lab import synthesis, verify, worked_example
from okishio_lab import (
    NotProductive,
    OracleLimit,
    SweepRecord,
    TechChange,
    Technology,
    Verdict,
    WageAdmissibility,
    WageBundle,
    admissibility,
    analyze_change,
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
    sample_constant_exploitation,
    sample_rising_exploitation,
    suite_csv,
    suite_summary,
    synthesize_culs_change,
    uniform_profit_rate,
    value_of_bundle,
)
from okishio_lab.linear_economy import _by_size
from okishio_lab.verify import suite_csv_row


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

    def test_no_new_bundle_gives_no_report(self):
        tech, bundle = worked_example.economy()
        synthesized = synthesize_culs_change(tech, bundle, uniform_profit_rate(tech, bundle), 2)
        assert run_scenarios(tech, bundle, synthesized.change, ()) == []
        # The economy and the change are still verified.
        heavy = TechChange(2, tech.input_column(2) + 1.0, 0.18)
        with pytest.raises(NotProductive):
            run_scenarios(tech, bundle, heavy, ())

    @pytest.mark.parametrize("count", [1, 3])
    def test_patches_the_change_once(self, ref_tech, ref_bundle, ref_change, monkeypatch, count):
        # At 400 sectors each patch copies a 1.28 MB matrix; the analysis
        # and the post-change solve share one.
        calls, patch_rows = [], verify._patch_rows

        def counted(*args):
            calls.append(args)
            return patch_rows(*args)

        monkeypatch.setattr(verify, "_patch_rows", counted)
        bundles = (WageBundle(SOLVED_BUNDLE), ref_bundle, WageBundle(0.999 * SOLVED_BUNDLE))
        reports = run_scenarios(ref_tech, ref_bundle, ref_change, bundles[:count])
        assert len(calls) == 1
        alone = [run_scenario(ref_tech, ref_bundle, ref_change, each) for each in bundles[:count]]
        for report, single in zip(reports, alone):
            assert report.post_profit == single.post_profit
            assert np.array_equal(report.post_prices, single.post_prices)

    def test_verdict_never_contradicts_profit_flags(self, ref_tech, ref_bundle, ref_change):
        report = run_scenario(
            ref_tech, ref_bundle, ref_change, WageBundle(SOLVED_BUNDLE)
        )
        if report.verdict is Verdict.PROFIT_FELL_EXPLOITATION_CONSTANT:
            assert report.post_profit < report.pre_profit - 1e-12
            assert abs(report.post_exploitation - report.pre_exploitation) <= 1e-9


class TestBracketVerdicts:
    """The profit rate 1/rho - 1 moved only when the brackets on rho are disjoint."""

    PRE = (0.80, 0.81)

    @pytest.mark.parametrize(
        "post, change, verdict",
        [
            # Overlapping: the midpoints differ by 5e-3, yet nothing is certain.
            ((0.805, 0.815), 0.0, Verdict.INCONCLUSIVE),
            ((0.795, 0.805), 0.0, Verdict.INCONCLUSIVE),
            # Touching at one end is not disjoint.
            ((0.81, 0.82), 0.0, Verdict.INCONCLUSIVE),
            ((0.82, 0.83), 0.0, Verdict.PROFIT_FELL_EXPLOITATION_CONSTANT),
            ((0.82, 0.83), 5e-10, Verdict.PROFIT_FELL_EXPLOITATION_CONSTANT),
            ((0.82, 0.83), 2e-9, Verdict.PROFIT_FELL_EXPLOITATION_ROSE),
            ((0.82, 0.83), -2e-9, Verdict.INCONCLUSIVE),
            ((0.78, 0.79), 0.0, Verdict.OKISHIO_RISE),
            ((0.78, 0.79), 2e-9, Verdict.OKISHIO_RISE),
        ],
        ids=[
            "overlap-above", "overlap-below", "touching", "fell-constant", "fell-within-tol",
            "fell-rose", "fell-exploitation-fell", "rose", "rose-exploitation-rose",
        ],
    )
    def test_verdict_from_brackets(self, post, change, verdict):
        rows = (self.PRE, post, 0.75, 0.75 + change)
        code = verify._verdict_codes(*(np.array([row]) for row in rows))[0]
        assert verify._VERDICTS[code] is verdict

    def test_reports_carry_the_verifiers_brackets(self, ref_tech, ref_bundle, ref_change):
        report = run_scenario(ref_tech, ref_bundle, ref_change, WageBundle(SOLVED_BUNDLE))
        pre_lo, pre_hi = report.pre_rho_bounds
        post_lo, post_hi = report.post_rho_bounds
        assert report.pre_rho_bounds == uniform_profit_rate(ref_tech, ref_bundle).rho_bounds
        assert pre_lo <= pre_hi < post_lo <= post_hi

    def test_control_fails_exactly_when_its_profit_rate_certainly_fell(self, records):
        record = records[0]
        lo, hi = record.okishio.pre_rho_bounds

        def control(post_lo, post_hi):
            report = dataclasses.replace(record.okishio, post_rho_bounds=(post_lo, post_hi))
            return dataclasses.replace(record, okishio=report).okishio_ok

        above = np.nextafter(hi, np.inf)
        assert control(hi, hi + 1e-3)
        assert not control(above, hi + 1e-3)
        # A midpoint far above the old bracket, but the brackets overlap.
        assert control(lo, hi + 1e-3)
        assert control(lo - 1e-3, lo)


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

    def test_nilpotent(self):
        # The square is zero, so every scale decays: the bracket shrinks to 0.
        assert oracle_spectral_radius(np.array([[0.0, 1.0], [0.0, 0.0]])) == pytest.approx(
            0.0, abs=1e-9
        )

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            oracle_spectral_radius(np.ones((2, 3)))

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

    def test_stacked_draw_consumes_each_generator_as_one_loop_does(self, monkeypatch):
        # Random draws are almost never rejected, so a third of them are
        # rejected here, by a rule the reference loop applies too.
        monkeypatch.setattr(verify, "admissibility", _picky_admissibility)
        sizes = [2, 3, 2, 8, 5, 3, 2, 2, 6, 4, 7, 2] * 4
        rngs = [np.random.default_rng([91, index]) for index in range(len(sizes))]
        drawn = [None] * len(sizes)
        for n, rows in _by_size(sizes).items():
            group = verify._draw_group([rngs[row] for row in rows], n)
            for at, row in enumerate(rows):
                drawn[row] = verify._drawn_technology(group, at), WageBundle(group.quantities[at])
        rounds = 0
        for index, (n, rng, (tech, bundle)) in enumerate(zip(sizes, rngs, drawn)):
            reference = np.random.default_rng([91, index])
            ref_tech, ref_bundle, attempts = _reference_draw(
                reference, n, _picky_admissibility
            )
            rounds = max(rounds, attempts)
            assert np.array_equal(tech.inputs, ref_tech.inputs)
            assert np.array_equal(tech.labor, ref_tech.labor)
            assert np.array_equal(tech.values, ref_tech.values)
            assert np.array_equal(bundle.quantities, ref_bundle.quantities)
            assert rng.bit_generator.state == reference.bit_generator.state
        assert rounds > 1  # some economy was rejected and drew again

    @pytest.mark.parametrize("picky", [False, True], ids=["admissibility", "picky"])
    @pytest.mark.parametrize("n", range(2, 13))
    def test_random_economy_leaves_the_generator_as_five_uniform_calls_do(
        self, n, picky, monkeypatch
    ):
        # Real draws are almost never rejected; the picky rule rejects about
        # a third, so some of these seeds need a second round or more.
        admissible = _picky_admissibility if picky else admissibility
        monkeypatch.setattr(verify, "admissibility", admissible)
        rounds = []
        for seed in range(8):
            rng, twin = np.random.default_rng([seed, n]), np.random.default_rng([seed, n])
            tech, bundle = random_economy(rng, n)
            ref_tech, ref_bundle, attempts = _reference_draw(twin, n, admissible)
            rounds.append(attempts)
            assert tech.inputs.tobytes() == ref_tech.inputs.tobytes()
            assert tech.labor.tobytes() == ref_tech.labor.tobytes()
            assert bundle.quantities.tobytes() == ref_bundle.quantities.tobytes()
            assert rng.bit_generator.state == twin.bit_generator.state
        assert (max(rounds) > 1) == picky  # only the picky rule made a seed draw again

    @pytest.mark.parametrize("n", [0, 1])
    def test_fewer_than_two_sectors_refused(self, n):
        # With one sector price over value is one over the bundle value,
        # so no draw could ever be admissible.
        with pytest.raises(ValueError, match="at least 2 sectors"):
            random_economy(np.random.default_rng(5), n)

    def test_gives_up_after_draw_attempts(self, monkeypatch):
        certified = []
        original = verify._certify_rows

        def counted(inputs, labor):
            certified.extend(inputs)
            return original(inputs, labor)

        def rejects_everything(prices, values, bundle_value):
            # One flag per row, as admissibility gives for a stack.
            rows = np.shape(bundle_value)
            return WageAdmissibility(np.ones(rows, dtype=bool), np.zeros(rows, dtype=bool),
                                     np.zeros(rows), np.zeros(rows, dtype=int))

        monkeypatch.setattr(verify, "admissibility", rejects_everything)
        monkeypatch.setattr(verify, "_certify_rows", counted)
        with pytest.raises(RuntimeError, match=f"in {verify.DRAW_ATTEMPTS} draws"):
            random_economy(np.random.default_rng(6), 3)
        assert len(certified) == verify.DRAW_ATTEMPTS


def _worked_pivot_interval():
    """The worked example's default pivot interval, which its samplers draw in."""
    tech, bundle = worked_example.economy()
    region = analyze_change(tech, bundle, uniform_profit_rate(tech, bundle),
                            worked_example.change()).region
    x, y = region.price_plane_intercepts, region.value_plane_intercepts
    pivot = (y / x).argmax()
    return float(x[pivot]), float(y[pivot])


# Every (low, high) the package maps random() draws into with _uniform, and the
# shape it draws there: random_economy's matrix, radius, labor, bundle direction
# and bundle value, the sweep's two fractions, the samplers' pivot coordinate
# and rising-exploitation shrink.
UNIFORM_DRAWS = [
    *(((0.0, 0.3), (n, n)) for n in range(2, 13)),
    ((0.3, 0.8), None), ((0.05, 0.5), 7), ((0.1, 1.0), 7), ((0.3, 0.9), None),
    ((0.1, 0.9), 2), ((0.1, 0.9), None), ((0.25, 0.75), None),
    (_worked_pivot_interval(), None),
]


class TestUniformIdentity:
    """The sweep draws with ``random()`` and maps the doubles as NumPy's
    ``uniform`` maps them; a NumPy whose ``uniform`` differs fails here."""

    @pytest.mark.parametrize("bounds, size", UNIFORM_DRAWS)
    def test_uniform_is_random_mapped_bit_for_bit(self, bounds, size):
        low, high = bounds
        for seed in range(21):
            drawn, mapped = np.random.default_rng(seed), np.random.default_rng(seed)
            expected = np.asarray(drawn.uniform(low, high, size))
            got = np.asarray(synthesis._uniform(low, high, mapped.random(size)))
            assert got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()
            assert mapped.bit_generator.state == drawn.bit_generator.state


def _picky_admissibility(prices, values, bundle_value):
    """``admissibility`` that also rejects about a third of all bundles.

    Takes one economy or a stack of them, as ``admissibility`` does.
    """
    flags = admissibility(prices, values, bundle_value)
    kept = np.asarray(bundle_value * 1e6).astype(int) % 3 != 0
    surplus = np.logical_and(flags.nonnegative_surplus, kept)
    headroom = np.logical_and(flags.ratio_headroom, kept)
    if surplus.ndim == 0:
        surplus, headroom = bool(surplus), bool(headroom)
    return WageAdmissibility(surplus, headroom, flags.max_ratio, flags.max_ratio_sector)


def _reference_draw(rng, n, admissible=admissibility):
    """``random_economy`` as one loop per economy, with its attempt count.

    The stacked draw must consume each generator exactly as this does.
    """
    for attempt in range(1, verify.DRAW_ATTEMPTS + 1):
        inputs = rng.uniform(0.0, 0.3, (n, n))
        radius = float(np.max(np.abs(np.linalg.eigvals(inputs))))
        inputs *= rng.uniform(0.3, 0.8) / radius
        tech = Technology(inputs, rng.uniform(0.05, 0.5, n))
        direction = rng.uniform(0.1, 1.0, n)
        target = rng.uniform(0.3, 0.9)
        bundle = WageBundle(direction * (target / float(tech.values @ direction)))
        prices = uniform_profit_rate(tech, bundle).prices
        bundle_value = value_of_bundle(tech.values, bundle)
        if admissible(prices, tech.values, bundle_value).admissible:
            return tech, bundle, attempt
    raise RuntimeError("no admissible draw")


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

    def test_negative_seed_error_is_the_same_for_one_economy_and_many(self):
        # One economy draws from default_rng itself, several from its batched hash.
        errors = []
        for count in (1, 5):
            with pytest.raises(ValueError) as raised:
                run_suite(seed=-1, count=count)
            errors.append(str(raised.value))
        assert errors[0] == errors[1]

    @pytest.mark.parametrize("kwargs, message", [
        (dict(count=2.5), "count must be an integer, got 2.5"),
        (dict(count=True), "count must be an integer, got True"),
        (dict(count=3, n_range=(2.9, 3.9)), "n_min must be an integer, got 2.9"),
        (dict(count=3, n_range=(2, 3.0)), "n_max must be an integer, got 3.0"),
    ])
    def test_arguments_that_are_not_integers_are_refused(self, kwargs, message):
        # int() would cut (2.9, 3.9) to sizes 2..3 without a word.
        with pytest.raises(ValueError) as raised:
            run_suite(**kwargs)
        assert str(raised.value) == message

    def test_numpy_integer_arguments_are_accepted(self):
        given = run_suite(count=np.int64(3), n_range=(np.int64(2), np.int64(3)))
        assert suite_csv(given) == suite_csv(run_suite(count=3, n_range=(2, 3)))

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


def _rebuilt_alone(seed, index, n_range=(2, 8)):
    """Sweep economy ``index`` made one call at a time through the public API."""
    rng = np.random.default_rng([seed, index])
    n = int(rng.integers(n_range[0], n_range[1] + 1))
    tech, bundle = random_economy(rng, n)
    equilibrium = uniform_profit_rate(tech, bundle)
    sector = int(rng.integers(n))
    epsilon_frac, labor_frac = float(rng.uniform(0.1, 0.9)), float(rng.uniform(0.1, 0.9))
    synthesized = synthesize_culs_change(
        tech, bundle, equilibrium, sector, epsilon_frac, labor_frac
    )
    region = analyze_change(tech, bundle, equilibrium, synthesized.change).region
    constant = sample_constant_exploitation(region, int(rng.integers(2**63 - 1)))
    rising = sample_rising_exploitation(region, int(rng.integers(2**63 - 1)))
    scenario, okishio, rising_report = run_scenarios(
        tech, bundle, synthesized.change, (constant, bundle, rising)
    )
    return SweepRecord(
        index, seed, n, tech, bundle, synthesized, region, constant, rising,
        scenario, okishio, rising_report,
    )


@pytest.fixture(scope="module")
def wide_records():
    return run_suite(seed=1000, count=40, n_range=(2, 12))


def test_sweep_rows_equal_economies_made_one_at_a_time(records):
    assert_rows_equal_economies_made_one_at_a_time(records, (2, 8))


def test_wide_sweep_rows_equal_economies_made_one_at_a_time(wide_records):
    assert max(record.n for record in wide_records[:20]) > 8
    assert_rows_equal_economies_made_one_at_a_time(wide_records, (2, 12))


def assert_rows_equal_economies_made_one_at_a_time(records, n_range):
    for record in records[:20]:
        alone = _rebuilt_alone(1000, record.index, n_range)
        assert suite_csv_row(record) == suite_csv_row(alone)
        assert np.array_equal(record.tech.inputs, alone.tech.inputs)
        assert np.array_equal(record.tech.values, alone.tech.values)
        assert record.tech.productivity_bound == alone.tech.productivity_bound
        for mine, theirs in (
            (record.bundle, alone.bundle),
            (record.constant_bundle, alone.constant_bundle),
            (record.rising_bundle, alone.rising_bundle),
        ):
            assert np.array_equal(mine.quantities, theirs.quantities)
        change, alone_change = record.synthesized.change, alone.synthesized.change
        assert np.array_equal(change.new_column, alone_change.new_column)
        assert change.new_labor == alone_change.new_labor
        for name in ("price_plane_intercepts", "value_plane_intercepts", "feasible_sectors"):
            assert np.array_equal(getattr(record.region, name), getattr(alone.region, name)), name
        for mine, theirs in (
            (record.scenario, alone.scenario),
            (record.okishio, alone.okishio),
            (record.rising, alone.rising),
        ):
            assert np.array_equal(mine.pre_prices, theirs.pre_prices)
            assert np.array_equal(mine.post_prices, theirs.post_prices)
            assert np.array_equal(mine.post_values, theirs.post_values)
            assert mine.pre_rho_bounds == theirs.pre_rho_bounds
            assert mine.post_rho_bounds == theirs.post_rho_bounds
            assert vars(mine.flags) == vars(theirs.flags)
            assert mine.verdict is theirs.verdict


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
    "labor, goods",
    [(1e-13, 1.0), (1.0, 1e-6), (1.0, 1e-12), (1e150, 1.0), (1e-150, 1.0), (1.0, 1e150),
     (1.0, 1e-150)],
    ids=["labor*1e-13", "goods*1e-+6", "goods*1e-+12", "labor*1e150", "labor*1e-150",
         "goods*1e+-150", "goods*1e-+150"],
)
def test_scenario_verdicts_are_free_of_units(records, labor, goods):
    for record in records:
        base = run_scenarios(*_in_other_units(record, 1.0, 1.0))
        other = run_scenarios(*_in_other_units(record, labor, goods))
        for a, b in zip(base, other):
            assert vars(a.flags) == vars(b.flags), record.index
            assert a.verdict is b.verdict, record.index
