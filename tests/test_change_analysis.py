"""The shared change-analysis chain and the verifier's single pre-change solve."""

import collections
import importlib
import pkgutil
import sys
from dataclasses import fields

import numpy as np
import pytest

import okishio_lab
from okishio_lab import equilibrium, linear_economy, synthesis, verify
from okishio_lab import (
    DegenerateNormalization,
    EconomyError,
    Infeasible,
    InvalidSector,
    NoConvergence,
    NotInB,
    NotProductive,
    TechChange,
    Technology,
    WageAdmissibility,
    WageBundle,
    analyze_change,
    apply_change,
    build_region,
    check_properties,
    classify,
    labor_values,
    random_economy,
    run_scenario,
    run_scenarios,
    run_suite,
    sample_constant_exploitation,
    sample_rising_exploitation,
    synthesize_culs_change,
    uniform_profit_rate,
    value_system,
)


class TestAnalyzeChange:
    def test_matches_the_chain_written_out(self, ref_tech, ref_bundle, ref_change):
        equilibrium = uniform_profit_rate(ref_tech, ref_bundle)
        analysis = analyze_change(ref_tech, ref_bundle, equilibrium, ref_change)
        pre = value_system(ref_tech, ref_bundle)
        classification = classify(ref_tech, equilibrium, ref_change)
        new_values = labor_values(apply_change(ref_tech, ref_change))
        region = build_region(
            equilibrium, new_values, pre.bundle_value, classification
        )
        assert np.array_equal(analysis.values.values, pre.values)
        assert analysis.values.bundle_value == pre.bundle_value
        assert analysis.values.exploitation == pre.exploitation
        assert vars(analysis.classification) == vars(classification)
        patched = apply_change(ref_tech, ref_change)
        assert np.array_equal(analysis.patched.inputs, patched.inputs)
        assert np.array_equal(analysis.patched.labor, patched.labor)
        assert np.array_equal(analysis.new_values, new_values)
        assert np.array_equal(
            analysis.region.value_plane_intercepts, region.value_plane_intercepts
        )
        assert np.array_equal(
            analysis.region.price_plane_intercepts, region.price_plane_intercepts
        )

    def test_patches_its_row_once(self, ref_tech, ref_bundle, ref_change, monkeypatch):
        # At 400 sectors each patch copies a 1.28 MB matrix.
        calls, patch_rows = [], synthesis._patch_rows

        def counted(*args):
            calls.append(args)
            return patch_rows(*args)

        monkeypatch.setattr(synthesis, "_patch_rows", counted)
        equilibrium = uniform_profit_rate(ref_tech, ref_bundle)
        analysis = analyze_change(ref_tech, ref_bundle, equilibrium, ref_change)
        assert len(calls) == 1
        patched = apply_change(ref_tech, ref_change)
        assert np.array_equal(analysis.patched.inputs, patched.inputs)
        assert np.array_equal(analysis.patched.labor, patched.labor)

    def test_change_that_is_not_viable_has_no_region(self, ref_tech, ref_bundle):
        dearer = TechChange(
            sector=2, new_column=ref_tech.input_column(2) + 0.01, new_labor=0.25
        )
        equilibrium = uniform_profit_rate(ref_tech, ref_bundle)
        analysis = analyze_change(ref_tech, ref_bundle, equilibrium, dearer)
        assert not analysis.classification.viable
        assert analysis.region is None
        assert analysis.new_values.shape == (3,)

    def test_unproductive_patched_technique_raises(self, ref_tech, ref_bundle):
        heavy = TechChange(
            sector=2, new_column=ref_tech.input_column(2) + 1.0, new_labor=0.18
        )
        equilibrium = uniform_profit_rate(ref_tech, ref_bundle)
        with pytest.raises(NotProductive):
            analyze_change(ref_tech, ref_bundle, equilibrium, heavy)

    @pytest.mark.parametrize("length", [2, 4])
    def test_column_of_the_wrong_length_is_named(self, ref_tech, ref_bundle, length):
        change = TechChange(sector=1, new_column=np.full(length, 0.1), new_labor=0.1)
        equilibrium = uniform_profit_rate(ref_tech, ref_bundle)
        message = f"replacement column length {length} does not match 3 sectors"
        with pytest.raises(ValueError, match=message):
            apply_change(ref_tech, change)
        with pytest.raises(ValueError, match=message):
            analyze_change(ref_tech, ref_bundle, equilibrium, change)


def _assert_same_report(batched, single):
    for field in fields(single):
        a, b = getattr(batched, field.name), getattr(single, field.name)
        if isinstance(b, np.ndarray):
            assert np.array_equal(a, b), field.name
        elif field.name == "flags":
            assert vars(a) == vars(b)
        else:
            assert a == b, field.name


def _random_case(seed):
    rng = np.random.default_rng([seed, 0])
    n = int(rng.integers(2, 9))
    tech, bundle = random_economy(rng, n)
    equilibrium = uniform_profit_rate(tech, bundle)
    sector = int(rng.integers(n))
    synthesized = synthesize_culs_change(tech, bundle, equilibrium, sector)
    return tech, bundle, synthesized.change


class TestRunScenarios:
    @pytest.mark.parametrize("seed", [None, 11, 12, 13, 14], ids=lambda s: f"seed={s}")
    def test_equals_one_run_scenario_per_bundle(
        self, seed, ref_tech, ref_bundle, ref_change
    ):
        # seed None is the reference economy, the others random draws.
        if seed is None:
            tech, bundle, change = ref_tech, ref_bundle, ref_change
        else:
            tech, bundle, change = _random_case(seed)
        equilibrium = uniform_profit_rate(tech, bundle)
        region = analyze_change(tech, bundle, equilibrium, change).region
        new_bundles = (
            sample_constant_exploitation(region, 1),
            bundle,
            sample_rising_exploitation(region, 2),
        )
        batched = run_scenarios(tech, bundle, change, new_bundles)
        assert len(batched) == 3
        for report, new_bundle in zip(batched, new_bundles):
            _assert_same_report(report, run_scenario(tech, bundle, change, new_bundle))


# Matrices per sweep economy that reach _left_perron: the draw's
# equilibrium, which the producer reuses, the verifier's pre-change
# re-solve, and one post-change equilibrium for each of three bundles.
# The sweep draws no rejected candidate at this seed, so the bound is exact.
MATRICES_PER_ECONOMY = 5


def test_sweep_classifies_each_change_once_a_side(monkeypatch):
    # The producer classifies a size group's changes once, when it makes
    # them, and passes those costs on to its analysis; the verifier
    # classifies them once more, at its own prices.
    calls = {synthesis: [], verify: []}
    for module, rows in calls.items():
        def counted(*args, rows=rows, original=module._classify_rows):
            rows.append(len(args[3]))
            return original(*args)

        monkeypatch.setattr(module, "_classify_rows", counted)
    records = run_suite(seed=1000, count=20)
    groups = sorted(collections.Counter(record.n for record in records).values())
    assert len(groups) > 1
    assert sorted(calls[synthesis]) == sorted(calls[verify]) == groups


def _wrap_everywhere(monkeypatch, original, wrapper):
    """Rebind ``original`` to ``wrapper`` in every okishio_lab module."""
    package = okishio_lab
    modules = [package] + [
        importlib.import_module(f"{package.__name__}.{info.name}")
        for info in pkgutil.iter_modules(package.__path__)
    ]
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, wrapper)


def _count_draws(monkeypatch):
    """Candidate matrices per draw round, as the draw certifies them."""
    rounds = []
    original = verify._certify_rows

    def counted(inputs, labor):
        rounds.append([np.array(matrix) for matrix in inputs])
        return original(inputs, labor)

    monkeypatch.setattr(verify, "_certify_rows", counted)
    return rounds


def test_sweep_solves_each_object_once_per_side(monkeypatch):
    matrices, stacks, value_rows, certified, one_row = [], [], [], [], []
    linear_economy = okishio_lab.linear_economy
    original_perron = linear_economy._left_perron
    original_rows = linear_economy._value_rows
    original_certify = linear_economy._certify_rows
    original_init = Technology.__post_init__

    def counted_perron(stack):
        stacks.append(stack.shape[0])
        matrices.extend(stack)
        return original_perron(stack)

    def counted_rows(inputs, labor):
        value_rows.append(inputs.shape[0])
        return original_rows(inputs, labor)

    def counted_certify(inputs, labor):
        certified.append(inputs.shape[:2])
        return original_certify(inputs, labor)

    def counted_init(self):
        one_row.append(self)
        original_init(self)

    _wrap_everywhere(monkeypatch, original_perron, counted_perron)
    _wrap_everywhere(monkeypatch, original_rows, counted_rows)
    _wrap_everywhere(monkeypatch, original_certify, counted_certify)
    monkeypatch.setattr(Technology, "__post_init__", counted_init)
    rounds = _count_draws(monkeypatch)
    count = 20
    run_suite(seed=1000, count=count)
    assert len(matrices) <= MATRICES_PER_ECONOMY * count
    # Stacked by sector count: three stacks (draw, pre, post) per size.
    assert len(stacks) <= 3 * len({m.shape[0] for m in matrices})
    # Every value solve is a stacked one. Each candidate and each patched
    # technique (the producer's and the verifier's) reaches it once.
    candidates = sum(map(len, rounds))
    assert sum(value_rows) == candidates + 2 * count
    assert sum(k for k, _ in certified) == sum(value_rows)
    # One stacked certification per size for each draw round, the
    # producer's patched techniques and the verifier's. Every size is
    # drawn at least twice at this seed, so no technique is certified alone.
    sizes = collections.Counter(n for _, n in certified)
    assert sizes and max(sizes.values()) <= 3 + len(rounds) - 1
    assert one_row == []


def test_lone_sizes_build_no_technique_through_its_checks(monkeypatch):
    # Sizes 6 and 7 are drawn once each at this seed, so their draws and
    # patched techniques are stacks of one row, certified in the stack too.
    built, original_init = [], Technology.__post_init__

    def counted_init(self):
        built.append(self)
        original_init(self)

    monkeypatch.setattr(Technology, "__post_init__", counted_init)
    records = run_suite(seed=1001, count=20)
    sizes = collections.Counter(record.n for record in records)
    assert sizes[6] == sizes[7] == 1
    assert built == []


def test_sweep_builds_techniques_only_for_accepted_draws(monkeypatch):
    built = []
    original_certified = Technology._certified.__func__
    original_init = Technology.__post_init__

    def counted_certified(cls, *arrays):
        built.append(original_certified(cls, *arrays))
        return built[-1]

    def counted_init(self):
        built.append(self)
        original_init(self)

    def first_round_rejected(prices, values, bundle_value):
        # The first draw round's candidates all fail, so they draw again.
        flags = original_admissibility(prices, values, bundle_value)
        headroom = flags.ratio_headroom & bool(rejected)
        rejected.append(len(bundle_value))
        return WageAdmissibility(
            flags.nonnegative_surplus, headroom, flags.max_ratio, flags.max_ratio_sector
        )

    monkeypatch.setattr(Technology, "_certified", classmethod(counted_certified))
    monkeypatch.setattr(Technology, "__post_init__", counted_init)
    rejected, original_admissibility = [], verify.admissibility
    monkeypatch.setattr(verify, "admissibility", first_round_rejected)
    rounds = _count_draws(monkeypatch)
    records = run_suite(seed=1000, count=20)
    # None of the rejected candidates became a technique, and neither did
    # a patched technique, which the array forms certify.
    assert sum(map(len, rounds)) == len(records) + rejected[0]
    assert sorted(map(id, built)) == sorted(id(record.tech) for record in records)


def test_sweep_eigensolves_only_to_draw_economies(monkeypatch):
    # The draw rescales each candidate by its eigvals radius; Technology
    # certifies productivity from its one value solve, and no equilibrium
    # needs an eigensolver.
    seen, callers = [], []
    original_eigvals = np.linalg.eigvals

    def counted_eigvals(matrices):
        callers.append(sys._getframe(1).f_code.co_name)
        seen.extend(np.array(matrix) for matrix in matrices)
        return original_eigvals(matrices)

    monkeypatch.setattr(np.linalg, "eigvals", counted_eigvals)
    rounds = _count_draws(monkeypatch)
    run_suite(seed=1000, count=20)
    candidates = [matrix for matrices in rounds for matrix in matrices]
    assert len(candidates) >= 20
    assert callers and set(callers) == {"_draw_group"}
    # One stacked eigvals per size in each draw round.
    assert len(callers) == sum(len({m.shape for m in matrices}) for matrices in rounds)
    # Each candidate is its eigvals matrix rescaled: pair them one to one.
    assert len(seen) == len(candidates)
    unmatched = list(seen)
    for candidate in candidates:
        match = next(
            i for i, matrix in enumerate(unmatched)
            if matrix.shape == candidate.shape
            and np.allclose(candidate / candidate.max(), matrix / matrix.max(), rtol=1e-13)
        )
        unmatched.pop(match)


def _raised(call, *args):
    """The exception ``call(*args)`` raises, as (type, message)."""
    with pytest.raises(EconomyError) as excinfo:
        call(*args)
    return type(excinfo.value), str(excinfo.value)


def _stacked(regions):
    """Wage regions of one size as the samplers' array form."""
    rows = zip(*map(synthesis._one_region, regions))
    return synthesis._Regions(*map(np.concatenate, rows))


def _price_pairs(pairs):
    """Price ``(tech, bundle)`` pairs of one size as one stack, and check them."""
    stack = np.array([equilibrium.augmented_inputs(tech, bundle) for tech, bundle in pairs])
    priced = equilibrium._price_rows(stack, np.array([bundle.quantities for _, bundle in pairs]))
    equilibrium._check_prices(priced)


def _skewed_economy():
    # Sector 1 prices at about 0.11 of sector 0, so a bundle of the
    # smallest subnormal quantity of good 1 costs 0 at the eigenvector.
    tech = Technology(np.array([[0.5, 0.05], [0.05, 0.05]]), np.array([0.2, 0.3]))
    return tech, WageBundle(np.array([0.0, 5e-324]))


class TestFailingRowRaisesItsOwnError:
    """A row that fails inside an array form raises what its one-row call raises."""

    def test_price_rows_residual(self, monkeypatch):
        rng = np.random.default_rng(71)
        pairs = [random_economy(rng, 4) for _ in range(6)]
        residuals = [uniform_profit_rate(*pair).residual for pair in pairs]
        good, bad = int(np.argmin(residuals)), int(np.argmax(residuals))
        assert residuals[good] < residuals[bad]
        tol = 0.5 * (residuals[good] + residuals[bad])
        monkeypatch.setattr(equilibrium, "RESIDUAL_TOL", tol)
        alone = _raised(uniform_profit_rate, *pairs[bad])
        assert alone[0] is NoConvergence
        assert _raised(_price_pairs, [pairs[good], pairs[bad]]) == alone

    def test_price_rows_degenerate_normalization(self):
        skewed = _skewed_economy()
        alone = _raised(uniform_profit_rate, *skewed)
        assert alone[0] is DegenerateNormalization
        good = (Technology(skewed[0].inputs, skewed[0].labor), WageBundle(np.ones(2)))
        assert _raised(_price_pairs, [good, skewed]) == alone

    def test_samplers_infeasible_region(self, ref_tech, ref_bundle, ref_change):
        equilibrium_ = uniform_profit_rate(ref_tech, ref_bundle)
        region = analyze_change(ref_tech, ref_bundle, equilibrium_, ref_change).region
        squeezed = build_region(
            equilibrium_, region.new_values * 2.0, region.value_offset,
            classify(ref_tech, equilibrium_, ref_change),
        )
        assert region.feasible and not squeezed.feasible
        samplers = ((False, sample_constant_exploitation), (True, sample_rising_exploitation))
        for shrink, sampler in samplers:
            alone = _raised(sampler, squeezed, 5)
            assert alone[0] is Infeasible
            group = _stacked([region, squeezed])
            assert _raised(synthesis._sample_rows, group, [4, 5], None, shrink) == alone
            # Feasible rows are what the one-row sampler returns.
            both = synthesis._sample_rows(_stacked([region, region]), [4, 5], None, shrink)
            for row, seed in zip(both, (4, 5)):
                assert np.array_equal(row, sampler(region, seed).quantities)

    def test_synthesis_bundle_not_admissible(
        self, ref_tech, ref_bundle, equal_organic_tech, equal_organic_bundle
    ):
        cases = [(ref_tech, ref_bundle), (equal_organic_tech, equal_organic_bundle)]
        equilibria = [uniform_profit_rate(*case) for case in cases]
        alone = _raised(synthesize_culs_change, *cases[1], equilibria[1], 0)
        assert alone[0] is NotInB
        rows = [
            np.array([getattr(tech, name) for tech, _ in cases])
            for name in ("inputs", "labor", "values")
        ]
        group = (
            *rows,
            np.array([bundle.quantities for _, bundle in cases]),
            np.array([equilibrium_.prices for equilibrium_ in equilibria]),
            np.array([0, 0]), np.array([0.5, 0.5]), np.array([0.5, 0.5]),
        )
        assert _raised(synthesis._synthesize_rows, *group) == alone


def _raised_in_scenario(call, *args):
    """The exception ``call(*args)`` raises, as (type, message with its notes)."""
    with pytest.raises(EconomyError) as excinfo:
        call(*args)
    err = excinfo.value
    return type(err), str(err) + "".join(getattr(err, "__notes__", []))


def _failing_solves(monkeypatch, matrices):
    """Make the solve of each matrix in ``matrices`` raise NoConvergence naming its key."""
    original = linear_economy._perron_one

    def perron_one(matrix):
        for key, target in matrices.items():
            if matrix.shape == target.shape and np.allclose(matrix, target, rtol=0, atol=1e-15):
                raise NoConvergence(f"forced failure {key}")
        return original(matrix)

    monkeypatch.setattr(linear_economy, "_perron_one", perron_one)


class TestErrorPrecedence:
    """``run_scenarios`` raises the error of the first step of its chain that
    fails: the prices before the change, the patched technique, then the
    prices after it, though one call prices both sides."""

    @pytest.mark.parametrize("fails", [
        ("before", "patched", "after"), ("patched", "after"), ("after",)
    ], ids=lambda fails: "-".join(fails))
    def test_failing_solves(self, ref_tech, ref_bundle, ref_change, monkeypatch, fails):
        change = ref_change
        if "patched" in fails:  # the heavy change of test_error_carries_scenario_context
            change = TechChange(2, ref_tech.input_column(2) + 1.0, 0.18)
        new = WageBundle(np.array([0.3, 0.4, 0.3]))
        inputs, labor = ref_tech.inputs.copy(), ref_tech.labor.copy()
        inputs[:, 2], labor[2] = change.new_column, change.new_labor
        solves = {"before": equilibrium.augmented_inputs(ref_tech, ref_bundle),
                  "after": inputs + np.outer(new.quantities, labor)}
        first = fails[0]
        if first == "patched":
            expected = _raised(apply_change, ref_tech, change)
        else:
            expected = (NoConvergence, f"forced failure {first}")
        _failing_solves(monkeypatch, {side: solves[side] for side in fails if side in solves})
        raised, text = _raised_in_scenario(run_scenarios, ref_tech, ref_bundle, change, (new,))
        assert raised is expected[0]
        assert text.startswith(expected[1])
        assert "scenario with 3 sectors, change in sector 3" in text

    def test_bundles_without_a_price(self):
        # The skewed bundle costs 0 at either side's eigenvector, which the
        # merged solve does not check: the first side to check it raises.
        tech, skewed = _skewed_economy()
        heavy = TechChange(0, tech.input_column(0) + 1.0, 0.1)
        mild = TechChange(0, tech.input_column(0) * 1.01, 0.19)
        ones = WageBundle(np.ones(2))
        cases = [
            ((tech, skewed, heavy, (ones,)), _raised(uniform_profit_rate, tech, skewed)),
            ((tech, ones, heavy, (skewed,)), _raised(apply_change, tech, heavy)),
            ((tech, ones, mild, (ones, skewed)),
             _raised(uniform_profit_rate, apply_change(tech, mild), skewed)),
        ]
        assert [case[1][0] for case in cases] == [
            DegenerateNormalization, NotProductive, DegenerateNormalization
        ]
        for args, (expected, message) in cases:
            raised, text = _raised_in_scenario(run_scenarios, *args)
            assert raised is expected
            assert text.startswith(message)
            assert "scenario with 2 sectors, change in sector 1" in text


# The one-economy entry points that take prices, each called on a technique,
# a bundle, an equilibrium and a change; synthesis takes the change's sector.
ENTRY_POINTS = {
    "classify": lambda tech, bundle, eq, change: classify(tech, eq, change),
    "check_properties": lambda tech, bundle, eq, change: check_properties(
        tech, change, eq, tech.values, tech.values, bundle, bundle),
    "analyze_change": analyze_change,
    "synthesize_culs_change": lambda tech, bundle, eq, change: synthesize_culs_change(
        tech, bundle, eq, change.sector),
}


class TestOneFitRule:
    """Parts of another economy are refused by name, in one order: each
    bundle's length, the change's sector, its column's length, the prices'."""

    @pytest.fixture
    def other(self):
        tech = Technology(np.full((4, 4), 0.1), np.ones(4))
        bundle = WageBundle(np.full(4, 0.2))
        return bundle, uniform_profit_rate(tech, bundle)

    @pytest.mark.parametrize("call", sorted(ENTRY_POINTS))
    def test_prices_of_another_economy(self, call, ref_tech, ref_bundle, ref_change, other):
        with pytest.raises(ValueError) as raised:
            ENTRY_POINTS[call](ref_tech, ref_bundle, other[1], ref_change)
        assert str(raised.value) == "price vector length 4 does not match 3 sectors"

    @pytest.mark.parametrize("call", sorted(set(ENTRY_POINTS) - {"classify"}))
    def test_bundle_of_another_length(self, call, ref_tech, ref_bundle, ref_change, other):
        eq = uniform_profit_rate(ref_tech, ref_bundle)
        with pytest.raises(ValueError) as raised:
            ENTRY_POINTS[call](ref_tech, other[0], eq, ref_change)
        assert str(raised.value) == "wage bundle length 4 does not match 3 sectors"

    def test_misfits_are_named_in_order(self, ref_tech, ref_bundle, ref_change, other):
        eq = uniform_profit_rate(ref_tech, ref_bundle)
        far = TechChange(5, np.full(6, 0.1), 0.1)
        long_column = TechChange(1, np.full(4, 0.1), 0.1)
        cases = [
            ((other[0], other[1], far), ValueError, "wage bundle length 4 does not match 3 sectors"),
            ((ref_bundle, other[1], far), InvalidSector, "sector 6 outside range 1..3"),
            ((ref_bundle, other[1], long_column), ValueError,
             "replacement column length 4 does not match 3 sectors"),
            ((ref_bundle, other[1], ref_change), ValueError,
             "price vector length 4 does not match 3 sectors"),
        ]
        for (bundle, prices, change), error, message in cases:
            with pytest.raises(error) as raised:
                analyze_change(ref_tech, bundle, prices, change)
            assert str(raised.value) == message
        analyze_change(ref_tech, ref_bundle, eq, ref_change)

    @pytest.mark.parametrize("misfit", ["values", "new_values"])
    def test_check_properties_value_vector_of_another_length(
        self, misfit, ref_tech, ref_bundle, ref_change
    ):
        eq = uniform_profit_rate(ref_tech, ref_bundle)
        vectors = {"values": ref_tech.values, "new_values": ref_tech.values, misfit: np.ones(4)}
        with pytest.raises(ValueError) as raised:
            check_properties(ref_tech, ref_change, eq, vectors["values"], vectors["new_values"],
                             ref_bundle, ref_bundle)
        assert str(raised.value) == "value vector length 4 does not match 3 sectors"

    def test_check_properties_names_prices_before_values(
        self, ref_tech, ref_bundle, ref_change, other
    ):
        with pytest.raises(ValueError) as raised:
            check_properties(ref_tech, ref_change, other[1], np.ones(4), np.ones(4),
                             ref_bundle, ref_bundle)
        assert str(raised.value) == "price vector length 4 does not match 3 sectors"

    def test_build_region_new_values_of_another_length(self, ref_tech, ref_bundle, ref_change):
        eq = uniform_profit_rate(ref_tech, ref_bundle)
        classification = classify(ref_tech, eq, ref_change)
        with pytest.raises(ValueError) as raised:
            build_region(eq, [0.5, 0.5, 0.5, 0.5], 0.4, classification)
        assert str(raised.value) == "value vector length 4 does not match 3 sectors"
