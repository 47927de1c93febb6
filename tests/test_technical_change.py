"""Technical change classification and the joint bundle properties.

Includes the classical fixed-bundle control: across many random viable
changes the profit rate never falls when the wage bundle stays put.
"""

import json

import numpy as np
import pytest

from okishio_lab import (
    InvalidSector,
    NotProductive,
    TechChange,
    Technology,
    WageBundle,
    apply_change,
    check_properties,
    classify,
    labor_values,
    load_tech_change,
    save_tech_change,
    uniform_profit_rate,
    value_of_bundle,
)
from okishio_lab.technical_change import _check_changes


@pytest.fixture
def ref_eq(ref_tech, ref_bundle):
    return uniform_profit_rate(ref_tech, ref_bundle)


class TestClassify:
    def test_reference_change(self, ref_tech, ref_eq, ref_change):
        cls = classify(ref_tech, ref_eq, ref_change)
        assert cls.viable
        assert cls.culs
        assert cls.cost_pre == pytest.approx(0.9272727272727272, abs=1e-9)
        assert cls.cost_post == pytest.approx(0.9172727272727272, abs=1e-9)
        assert cls.cost_drop == pytest.approx(0.01, abs=1e-9)
        assert cls.saving_rate == pytest.approx(1.0 / 18.0, abs=1e-9)
        assert cls.break_even_wage == pytest.approx(19.0 / 18.0, abs=1e-9)

    def test_break_even_identity_is_exact(self, ref_tech, ref_eq, ref_change):
        cls = classify(ref_tech, ref_eq, ref_change)
        assert cls.break_even_wage == 1.0 + cls.saving_rate

    def test_identity_change_not_viable(self, ref_tech, ref_eq):
        unchanged = TechChange(
            sector=2,
            new_column=ref_tech.input_column(2).copy(),
            new_labor=float(ref_tech.labor[2]),
        )
        cls = classify(ref_tech, ref_eq, unchanged)
        assert not cls.viable
        assert not cls.culs
        assert cls.cost_drop == 0.0

    def test_cheaper_column_viable_but_not_culs(self, ref_tech, ref_eq):
        cheaper = TechChange(
            sector=0,
            new_column=ref_tech.input_column(0) * 0.9,
            new_labor=float(ref_tech.labor[0]),
        )
        cls = classify(ref_tech, ref_eq, cheaper)
        assert cls.viable
        assert not cls.culs

    def test_sector_out_of_range(self, ref_tech, ref_eq):
        with pytest.raises(InvalidSector):
            classify(
                ref_tech,
                ref_eq,
                TechChange(sector=3, new_column=np.ones(4) * 0.1, new_labor=0.1),
            )

    def test_column_length_mismatch(self, ref_tech, ref_eq):
        with pytest.raises(ValueError, match="length"):
            classify(
                ref_tech,
                ref_eq,
                TechChange(sector=0, new_column=np.array([0.1, 0.1]), new_labor=0.1),
            )


class TestProperties:
    def test_reference_bundle_satisfies_all(self, ref_tech, ref_eq, ref_change, ref_bundle):
        # The full-precision replacement bundle: pivot coordinate as
        # printed, tail solved exactly on the constant-value plane.
        new_bundle = WageBundle(
            np.array([0.008613446793178136, 1.170977, 0.008613446793178136])
        )
        values = labor_values(ref_tech)
        new_values = labor_values(apply_change(ref_tech, ref_change))
        report = check_properties(
            ref_tech, ref_change, ref_eq, values, new_values, ref_bundle, new_bundle
        )
        assert report.more_expensive
        assert report.value_constant
        assert report.saving_bounded
        assert report.surplus_ok_post
        assert report.all_hold
        assert report.new_bundle_cost == pytest.approx(1.0825345, abs=1e-6)
        assert report.bundle_value_post == pytest.approx(4.0 / 7.0, abs=1e-9)

    def test_printed_rounding_breaks_exact_value_match(
        self, ref_tech, ref_eq, ref_change, ref_bundle
    ):
        # The 6-decimal printed bundle misses the value plane by ~5e-7,
        # which the 1e-9 equality tolerance must reject.
        printed = WageBundle(np.array([0.008613, 1.170977, 0.008613]))
        values = labor_values(ref_tech)
        new_values = labor_values(apply_change(ref_tech, ref_change))
        report = check_properties(
            ref_tech, ref_change, ref_eq, values, new_values, ref_bundle, printed
        )
        assert report.more_expensive
        assert not report.value_constant
        assert abs(report.bundle_value_post - report.bundle_value_pre) < 1e-6

    def test_old_bundle_is_not_dearer(self, ref_tech, ref_eq, ref_change, ref_bundle):
        values = labor_values(ref_tech)
        new_values = labor_values(apply_change(ref_tech, ref_change))
        report = check_properties(
            ref_tech, ref_change, ref_eq, values, new_values, ref_bundle, ref_bundle
        )
        # Old bundle costs exactly one by normalization: not strictly more.
        assert not report.more_expensive

    def test_doubled_bundle_changes_value(self, ref_tech, ref_eq, ref_change, ref_bundle):
        doubled = WageBundle(ref_bundle.quantities * 2.0)
        values = labor_values(ref_tech)
        new_values = labor_values(apply_change(ref_tech, ref_change))
        report = check_properties(
            ref_tech, ref_change, ref_eq, values, new_values, ref_bundle, doubled
        )
        assert report.more_expensive
        assert not report.value_constant

    @pytest.mark.parametrize("which", [0, 1], ids=["old bundle", "new bundle"])
    def test_bundle_of_another_size_is_refused(
        self, ref_tech, ref_eq, ref_change, ref_bundle, which
    ):
        bundles = [ref_bundle, ref_bundle]
        bundles[which] = WageBundle(np.array([0.5, 0.5]))
        values = labor_values(ref_tech)
        new_values = labor_values(apply_change(ref_tech, ref_change))
        with pytest.raises(ValueError, match="wage bundle length 2 does not match 3 sectors"):
            check_properties(ref_tech, ref_change, ref_eq, values, new_values, *bundles)


class TestApplyChange:
    def test_reference_patch(self, ref_tech, ref_change):
        patched = apply_change(ref_tech, ref_change)
        np.testing.assert_array_equal(patched.input_column(2), [0.27, 0.07, 0.37])
        assert patched.labor[2] == 0.18
        # Other sectors untouched.
        np.testing.assert_array_equal(patched.input_column(0), ref_tech.input_column(0))
        np.testing.assert_array_equal(patched.input_column(1), ref_tech.input_column(1))

    def test_new_labor_values(self, ref_tech, ref_change):
        new_values = labor_values(apply_change(ref_tech, ref_change))
        np.testing.assert_allclose(
            new_values,
            [0.5511363636363635, 0.4797077922077921, 0.5752164502164502],
            atol=1e-9,
        )
        np.testing.assert_allclose(
            new_values, [0.5511364, 0.4797078, 0.5752165], atol=1e-7
        )

    def test_breaking_productivity_rejected(self, ref_tech):
        heavy = TechChange(
            sector=2,
            new_column=ref_tech.input_column(2) + 1.0,
            new_labor=0.18,
        )
        with pytest.raises(NotProductive):
            apply_change(ref_tech, heavy)

    def test_noop_round_trip(self, ref_tech):
        unchanged = TechChange(
            sector=1,
            new_column=ref_tech.input_column(1).copy(),
            new_labor=float(ref_tech.labor[1]),
        )
        patched = apply_change(ref_tech, unchanged)
        np.testing.assert_array_equal(patched.inputs, ref_tech.inputs)
        np.testing.assert_array_equal(patched.labor, ref_tech.labor)


def random_productive_economy(rng, n):
    inputs = rng.uniform(0.01, 0.3, (n, n))
    inputs *= rng.uniform(0.3, 0.8) / np.max(np.abs(np.linalg.eigvals(inputs)))
    tech = Technology(inputs, rng.uniform(0.05, 0.5, n))
    values = labor_values(tech)
    direction = rng.uniform(0.1, 1.0, n)
    target = rng.uniform(0.3, 0.9)
    bundle = WageBundle(direction * (target / float(values @ direction)))
    return tech, bundle


class TestOkishioControl:
    def test_profit_rate_never_falls_with_fixed_bundle(self):
        # 500 random viable changes, bundle held fixed: the classical
        # anchor. Viability is forced by shrinking recipes outright.
        rng = np.random.default_rng(20260819)
        checked = 0
        while checked < 500:
            n = int(rng.integers(2, 9))
            tech, bundle = random_productive_economy(rng, n)
            eq = uniform_profit_rate(tech, bundle)
            sector = int(rng.integers(n))
            shrink_inputs = rng.uniform(0.7, 0.999)
            shrink_labor = rng.uniform(0.7, 1.05)
            change = TechChange(
                sector=sector,
                new_column=tech.input_column(sector) * shrink_inputs,
                new_labor=float(tech.labor[sector]) * shrink_labor,
            )
            cls = classify(tech, eq, change)
            if not cls.viable:
                continue
            post = uniform_profit_rate(apply_change(tech, change), bundle)
            assert post.profit_rate >= eq.profit_rate - 1e-9, (
                f"profit fell with fixed bundle: {eq.profit_rate} -> "
                f"{post.profit_rate} (n={n}, sector={sector})"
            )
            checked += 1

    def test_reference_change_raises_profit_with_fixed_bundle(
        self, ref_tech, ref_bundle, ref_change
    ):
        pre = uniform_profit_rate(ref_tech, ref_bundle)
        post = uniform_profit_rate(apply_change(ref_tech, ref_change), ref_bundle)
        assert post.profit_rate == pytest.approx(0.18110236220472413, abs=1e-9)
        assert post.profit_rate > pre.profit_rate


class TestValuesFallUnderCuls:
    def test_viable_culs_changes_weakly_lower_all_values(self):
        rng = np.random.default_rng(99)
        checked = 0
        while checked < 200:
            n = int(rng.integers(2, 9))
            tech, bundle = random_productive_economy(rng, n)
            eq = uniform_profit_rate(tech, bundle)
            sector = int(rng.integers(n))
            bump = rng.uniform(1e-4, 3e-3)
            cut = rng.uniform(0.6, 0.95)
            change = TechChange(
                sector=sector,
                new_column=tech.input_column(sector) + bump,
                new_labor=float(tech.labor[sector]) * cut,
            )
            cls = classify(tech, eq, change)
            if not (cls.viable and cls.culs):
                continue
            old_values = labor_values(tech)
            new_values = labor_values(apply_change(tech, change))
            assert np.all(new_values <= old_values + 1e-10), (
                f"a labor value rose under a viable CU-LS change (n={n})"
            )
            checked += 1


class TestTechChangeFiles:
    def test_round_trip_bit_for_bit(self, tmp_path, ref_change):
        first = tmp_path / "tc.json"
        second = tmp_path / "tc2.json"
        save_tech_change(first, ref_change)
        loaded = load_tech_change(first)
        save_tech_change(second, loaded)
        assert first.read_bytes() == second.read_bytes()
        assert loaded.sector == ref_change.sector
        np.testing.assert_array_equal(loaded.new_column, ref_change.new_column)
        assert loaded.new_labor == ref_change.new_labor

    def test_file_sector_is_one_based(self, tmp_path, ref_change):
        path = tmp_path / "tc.json"
        save_tech_change(path, ref_change)
        raw = json.loads(path.read_text())
        assert raw["sector"] == 3
        assert load_tech_change(path).sector == 2

    def test_zero_sector_rejected(self, tmp_path):
        path = tmp_path / "tc.json"
        path.write_text(json.dumps({"sector": 0, "column": [0.1], "labor": 0.1}))
        with pytest.raises(InvalidSector, match="1-based"):
            load_tech_change(path)

    def test_missing_key_named(self, tmp_path):
        path = tmp_path / "tc.json"
        path.write_text(json.dumps({"sector": 1, "column": [0.1]}))
        with pytest.raises(ValueError, match="'labor'"):
            load_tech_change(path)

    def test_negative_labor_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            TechChange(sector=0, new_column=np.array([0.1]), new_labor=-0.5)


@pytest.mark.parametrize("sector, shown", [
    (2.7, "2.7"), (True, "True"), (np.float64(2.0), repr(np.float64(2.0))),
])
def test_sector_that_is_not_an_integer_is_refused(sector, shown):
    # Each would otherwise pass as sector 2 or 1 (0-based) once int() cut it.
    with pytest.raises(InvalidSector) as raised:
        TechChange(sector, np.array([0.1, 0.1, 0.1]), 0.2)
    assert str(raised.value) == f"sector must be an integer, got {shown}"


def test_numpy_integer_sector_is_accepted():
    change = TechChange(np.int64(2), np.array([0.1, 0.1, 0.1]), 0.2)
    assert change.sector == 2 and type(change.sector) is int


# One-change arguments that TechChange refuses, each for one reason.
BAD_CHANGES = {
    "negative column": (0, [0.1, -0.1], 0.2),
    "zero labor": (0, [0.1, 0.1], 0.0),
    "infinite labor": (0, [0.1, 0.1], np.inf),
    "NaN labor": (0, [0.1, 0.1], np.nan),
    "sector outside": (2, [0.1, 0.1], 0.2),
    "negative sector": (-1, [0.1, 0.1], 0.2),
}


@pytest.mark.parametrize("kind", sorted(BAD_CHANGES))
def test_stacked_change_check_raises_what_tech_change_raises(kind):
    sector, column, labor = BAD_CHANGES[kind]
    with pytest.raises(InvalidSector if "sector" in kind else ValueError) as alone:
        TechChange(sector, np.array(column), labor)
    # The bad row sits between a good row and one that fails every check.
    rows = [(1, [0.2, 0.3], 0.1), (sector, column, labor), (5, [-1.0, 0.0], -1.0)]
    sectors, columns, labors = map(np.array, zip(*rows))
    with pytest.raises(type(alone.value)) as stacked:
        _check_changes(sectors, columns, labors)
    assert str(stacked.value) == str(alone.value)
    _check_changes(sectors[:1], columns[:1], labors[:1])
