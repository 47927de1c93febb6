"""The shared change-analysis chain and the verifier's single pre-change solve."""

import collections
import importlib
import pkgutil
import sys
from dataclasses import fields

import numpy as np
import pytest

import okishio_lab
from okishio_lab import verify
from okishio_lab import (
    NotProductive,
    TechChange,
    Technology,
    analyze_change,
    apply_change,
    build_region,
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


# Solves per sweep economy: the producer and the verifier each solve the
# pre-change and patched techniques once, random_economy screens its draw,
# and each of the three bundles gets one post-change equilibrium.
SOLVE_LIMITS = {"uniform_profit_rate": 6, "labor_values": 6, "Technology": 3}


def test_sweep_solves_each_object_once_per_side(monkeypatch):
    per_economy = []
    package = okishio_lab
    modules = [package] + [
        importlib.import_module(f"{package.__name__}.{info.name}")
        for info in pkgutil.iter_modules(package.__path__)
    ]

    def counted(name, original):
        def wrapper(*args, **kwargs):
            if name == "random_economy":
                per_economy.append(collections.Counter())
            else:
                per_economy[-1][name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in ("random_economy", "uniform_profit_rate", "labor_values"):
        original = getattr(package, name)
        wrapper = counted(name, original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, wrapper)
    monkeypatch.setattr(
        Technology, "__post_init__", counted("Technology", Technology.__post_init__)
    )
    count = 20
    run_suite(seed=1000, count=count)
    assert len(per_economy) == count
    for name, limit in SOLVE_LIMITS.items():
        assert max(calls[name] for calls in per_economy) <= limit, name


def test_sweep_eigensolves_only_to_draw_economies(monkeypatch):
    # random_economy rescales each draw by its eigvals radius; Technology
    # certifies productivity from its one value solve, and labor_values
    # reads the values that solve kept.
    draws, eigensolves, value_solves, per_construction = [], [], [], []
    original_eigvals, original_solve = np.linalg.eigvals, np.linalg.solve
    original_init = Technology.__post_init__
    original_connected = verify._strongly_connected

    def counted_eigvals(*args, **kwargs):
        eigensolves.append(sys._getframe(1).f_code.co_name)
        return original_eigvals(*args, **kwargs)

    def counted_solve(*args, **kwargs):
        if sys._getframe(1).f_code.co_name == "_solve_values":
            value_solves.append(args)
        return original_solve(*args, **kwargs)

    def counted_init(self):
        before = len(value_solves)
        original_init(self)
        per_construction.append(len(value_solves) - before)

    def counted_connected(inputs):
        draws.append(inputs)
        return original_connected(inputs)

    monkeypatch.setattr(np.linalg, "eigvals", counted_eigvals)
    monkeypatch.setattr(np.linalg, "solve", counted_solve)
    monkeypatch.setattr(Technology, "__post_init__", counted_init)
    # random_economy screens each draw's connectivity once, through the
    # name verify imported.
    monkeypatch.setattr(verify, "_strongly_connected", counted_connected)
    run_suite(seed=1000, count=20)
    assert len(draws) >= 20
    assert eigensolves == ["random_economy"] * len(draws)
    assert per_construction and max(per_construction) <= 1
    assert len(value_solves) == sum(per_construction)
