"""Core model tests: validation, labor values, exploitation arithmetic.

Expected numbers were frozen from an independent dense-solver oracle
(direct inverse / eigenvalue computations done outside this package);
exact fractions are noted where the data admits them.
"""

import collections
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from okishio_lab import (
    Decomposable,
    NegativeExploitationWarning,
    NonPositiveValue,
    NotProductive,
    SingularSystem,
    Technology,
    WageBundle,
    augmented_inputs,
    check_productive_indecomposable,
    exploitation_rate,
    labor_values,
    load_economy,
    max_profit_rate,
    random_economy,
    save_economy,
    value_of_bundle,
    value_system,
)
from okishio_lab.linear_economy import (
    CW_TOL,
    PRODUCTIVITY_MARGIN,
    _solve_values,
    _strongly_connected,
)


class TestValidation:
    def test_negative_input_entry_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            Technology(np.array([[0.1, -0.2], [0.1, 0.1]]), np.array([1.0, 1.0]))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            Technology(np.array([[0.1, 0.2, 0.3], [0.1, 0.1, 0.1]]), np.array([1.0, 1.0]))

    def test_no_sectors_rejected(self):
        with pytest.raises(ValueError, match="at least one sector"):
            Technology(np.zeros((0, 0)), np.zeros(0))
        with pytest.raises(ValueError, match="at least one sector"):
            check_productive_indecomposable(np.zeros((0, 0)))

    def test_labor_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="labor"):
            Technology(np.eye(2) * 0.1 + 0.01, np.array([1.0, 1.0, 1.0]))

    def test_zero_labor_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            Technology(np.full((2, 2), 0.1), np.array([1.0, 0.0]))

    def test_unproductive_rejected(self):
        with pytest.raises(NotProductive, match="not productive"):
            Technology(np.full((2, 2), 0.6), np.array([1.0, 1.0]))

    def test_identity_matrix_rejected(self):
        # rho = 1 exactly; also decomposable, but productivity is the
        # point of this fixture and connectivity is checked first.
        with pytest.raises((NotProductive, Decomposable)):
            Technology(np.eye(2), np.array([1.0, 1.0]))

    def test_decomposable_rejected(self):
        with pytest.raises(Decomposable, match="strongly connected"):
            Technology(np.diag([0.1, 0.1]), np.array([1.0, 1.0]))

    def test_spectral_radius_is_measured_not_passed(self, ref_tech):
        with pytest.raises(TypeError):
            Technology(ref_tech.inputs, ref_tech.labor, 0.5)

    def test_arrays_are_readonly(self, ref_tech):
        with pytest.raises(ValueError):
            ref_tech.inputs[0, 0] = 99.0
        with pytest.raises(ValueError):
            ref_tech.labor[0] = 99.0

    def test_input_column_is_recipe(self, ref_tech):
        np.testing.assert_allclose(ref_tech.input_column(0), [0.35, 0.15, 0.15])

    def test_zero_bundle_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            WageBundle(np.zeros(3))

    def test_negative_bundle_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            WageBundle(np.array([0.1, -0.1]))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            Technology(np.array([[np.nan]]), np.array([1.0]))


class TestDiagnosis:
    def test_reference_matrix_passes(self, ref_inputs):
        # Constant column^T row sums of 0.65 pin the dominant eigenvalue
        # exactly; cross-checked by evaluating the characteristic
        # polynomial at 0.65 below.
        diag = check_productive_indecomposable(ref_inputs)
        assert diag.passed
        assert diag.strongly_connected
        assert diag.spectral_radius == pytest.approx(0.65, abs=1e-12)

    def test_reference_radius_solves_characteristic_polynomial(self, ref_inputs):
        mu = 0.65
        assert np.linalg.det(mu * np.eye(3) - ref_inputs) == pytest.approx(0.0, abs=1e-14)

    def test_identity_fails(self):
        diag = check_productive_indecomposable(np.eye(2))
        assert not diag.passed
        assert diag.spectral_radius == pytest.approx(1.0)

    def test_decomposable_diagonal_fails(self):
        diag = check_productive_indecomposable(np.diag([0.1, 0.1]))
        assert not diag.passed
        assert not diag.strongly_connected
        assert diag.spectral_radius == pytest.approx(0.1)

    def test_one_sector_trivially_connected(self):
        diag = check_productive_indecomposable(np.array([[0.5]]))
        assert diag.passed and diag.strongly_connected


def _reference_strongly_connected(adjacency: np.ndarray) -> bool:
    """Positivity of (I + adjacency)^(n-1), by clipped repeated squaring."""
    n = adjacency.shape[0]
    reach = (np.eye(n) + adjacency > 0).astype(np.int64)
    steps = 1
    while steps < n - 1:
        reach = np.minimum(reach @ reach, 1)
        steps *= 2
    return bool(np.all(reach > 0))


class TestConnectivity:
    def test_closure_matches_matrix_power_reference(self):
        # Edge densities c * ln(n) / n straddle the connectivity threshold,
        # so both verdicts are common.
        rng = np.random.default_rng(2205)
        verdicts = collections.Counter()
        for _ in range(600):
            n = int(rng.integers(1, 31))
            density = min(1.0, rng.uniform(0.5, 2.5) * np.log(max(n, 2)) / n)
            adjacency = (rng.random((n, n)) < density).astype(float)
            inputs = adjacency * rng.uniform(0.01, 0.3, (n, n))
            expected = _reference_strongly_connected(adjacency)
            assert _strongly_connected(inputs) is expected, adjacency
            verdicts[expected] += 1
        assert verdicts[True] > 100 and verdicts[False] > 100

    def test_tiny_entries_are_edges(self):
        # Only an exact zero is missing: a 1e-14 input is an input in
        # some other unit of that good.
        cycle = np.roll(np.eye(4), 1, axis=1) * 0.2
        assert _strongly_connected(cycle)
        cycle[0, 1] = 1e-14
        assert _strongly_connected(cycle)
        cycle[0, 1] = 0.0
        assert not _strongly_connected(cycle)


class TestLaborValues:
    def test_reference_values(self, ref_tech):
        # Exact fractions 4/7, 1/2, 9/14.
        values = labor_values(ref_tech)
        np.testing.assert_allclose(
            values, [4.0 / 7.0, 0.5, 9.0 / 14.0], atol=1e-12
        )

    def test_reference_values_printed_precision(self, ref_tech):
        np.testing.assert_allclose(
            labor_values(ref_tech), [0.5714286, 0.5, 0.6428571], atol=1e-7
        )

    def test_accounting_identity_residual(self, ref_tech):
        values = labor_values(ref_tech)
        residual = values @ (np.eye(3) - ref_tech.inputs) - ref_tech.labor
        assert np.max(np.abs(residual)) <= 1e-10

    def test_no_inputs_means_values_equal_labor(self):
        # Negligible but nonzero inputs, so the graph is connected:
        # values are labor plus terms of order 1e-13.
        tech = Technology(np.full((3, 3), 1e-13), np.array([0.3, 0.7, 1.1]))
        np.testing.assert_allclose(labor_values(tech), [0.3, 0.7, 1.1], atol=1e-12)

    def test_one_sector_geometric_sum(self, one_sector_tech):
        # 1 / (1 - 0.5) = 2 units of labor per unit of output.
        np.testing.assert_allclose(labor_values(one_sector_tech), [2.0], atol=1e-12)

    def test_matches_truncated_series_at_radius_09(self):
        # Values equal the labor content of the whole input chain: the
        # truncated series sum_k L A^k must agree once the tail is tiny.
        base = np.array([[0.5, 0.3], [0.2, 0.6]])
        rho = np.max(np.abs(np.linalg.eigvals(base)))
        inputs = base * (0.9 / rho)
        tech = Technology(inputs, np.array([0.4, 0.8]))
        values = labor_values(tech)
        series = np.zeros(2)
        power = np.eye(2)
        for _ in range(201):
            series += tech.labor @ power
            power = power @ inputs
        assert np.max(np.abs(values - series)) <= 1e-8

    def test_random_economies_satisfy_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(2, 9))
            inputs = rng.uniform(0.01, 0.3, (n, n))
            inputs *= rng.uniform(0.3, 0.9) / np.max(np.abs(np.linalg.eigvals(inputs)))
            tech = Technology(inputs, rng.uniform(0.05, 1.0, n))
            values = labor_values(tech)
            assert np.all(values > 0)
            residual = values @ (np.eye(n) - inputs) - tech.labor
            assert np.max(np.abs(residual)) <= 1e-9


def eigvals_radius(matrix):
    return float(np.max(np.abs(np.linalg.eigvals(matrix))))


class TestValueCertificate:
    @pytest.mark.parametrize("scale", [1e6, 1e8, 1e10, 1e14])
    def test_accepted_in_any_unit_of_labor(self, ref_tech, scale):
        # The residual is measured against the largest value: as an
        # absolute residual, x1e8 read 3.7e-9 and x1e14 2.0e-3.
        tech = Technology(ref_tech.inputs, ref_tech.labor * scale)
        np.testing.assert_allclose(
            labor_values(tech),
            labor_values(ref_tech) * scale,
            rtol=np.finfo(float).eps,
            atol=0.0,
        )

    def test_loose_bound_falls_back_to_the_radius(self, ref_inputs):
        # Sector 1's labor is rounded away next to its value, so the bound
        # 1 - min_i L_i / v_i reads 1 although the radius is 0.65.
        labor = np.array([1e-16, 1.0, 1.0])
        assert _solve_values(ref_inputs, labor)[1] >= 1.0 - PRODUCTIVITY_MARGIN
        tech = Technology(ref_inputs, labor)
        assert tech.spectral_radius == pytest.approx(0.65, rel=1e-14)
        assert np.all(tech.values > 0)

    def test_zero_matrix_has_radius_zero(self):
        tech = Technology(np.array([[0.0]]), np.array([1.0]))
        assert tech.spectral_radius == 0.0
        assert max_profit_rate(tech) == float("inf")
        np.testing.assert_array_equal(tech.values, [1.0])

    def test_periodic_matrix(self):
        # Eigenvalues +-0.4: power steps alone would never settle.
        tech = Technology(np.array([[0.0, 0.2], [0.8, 0.0]]), np.array([1.0, 1.0]))
        assert tech.spectral_radius == pytest.approx(0.4, rel=1e-14)

    def test_values_are_kept_read_only(self, ref_tech):
        assert labor_values(ref_tech) is ref_tech.values
        with pytest.raises(ValueError):
            ref_tech.values[0] = 99.0
        with pytest.raises(TypeError):
            Technology(ref_tech.inputs, ref_tech.labor, ref_tech.values)

    def test_failed_solve_is_singular_only_when_productive(
        self, ref_inputs, monkeypatch
    ):
        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        # Both matrices have equal column sums, so measuring their radius
        # needs no solve of its own.
        monkeypatch.setattr(np.linalg, "solve", failing)
        with pytest.raises(SingularSystem, match="singular"):
            Technology(ref_inputs, np.array([0.2, 0.15, 0.25]))
        with pytest.raises(NotProductive, match="1.200000"):
            Technology(np.full((2, 2), 0.6), np.array([1.0, 1.0]))


@st.composite
def drawn_economies(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return random_economy(rng, draw(st.integers(2, 8)))


class TestCertificateProperties:
    @settings(max_examples=60, deadline=None)
    @given(drawn_economies(), st.integers(-6, 6))
    def test_bound_is_above_eigvals(self, economy, k):
        tech, bundle = economy
        labor = tech.labor * 10.0**k
        rescaled = Technology(tech.inputs, labor)
        # The technique, and the same economy's wage-augmented matrix
        # (radius 1/(1 + pi) < 1) with the bundle counted in 10^-k units.
        augmented = augmented_inputs(rescaled, WageBundle(bundle.quantities * 10.0**-k))
        for inputs in (tech.inputs, augmented):
            values, bound = _solve_values(inputs, labor)
            assert np.all(values > 0)
            assert bound >= eigvals_radius(inputs) * (1.0 - CW_TOL)

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 8),
        st.sampled_from([0.5, 0.99, 1.0 - 1e-9, 1.0 + 1e-9, 2.0]),
        st.integers(-6, 6),
    )
    def test_verdict_matches_eigvals(self, seed, n, radius, k):
        rng = np.random.default_rng(seed)
        inputs = rng.uniform(0.0, 0.3, (n, n)) * (rng.random((n, n)) < 0.5)
        # A cycle through every sector keeps the matrix irreducible.
        inputs[np.arange(n), np.roll(np.arange(n), 1)] += rng.uniform(0.01, 0.3, n)
        inputs *= radius / eigvals_radius(inputs)
        labor = rng.uniform(0.05, 0.5, n) * 10.0**k
        if eigvals_radius(inputs) < 1.0 - PRODUCTIVITY_MARGIN:
            assert np.all(Technology(inputs, labor).values > 0)
        else:
            with pytest.raises(NotProductive):
                Technology(inputs, labor)


class TestBundleValue:
    def test_reference_bundle_value(self, ref_tech, ref_bundle):
        values = labor_values(ref_tech)
        assert value_of_bundle(values, ref_bundle) == pytest.approx(
            4.0 / 7.0, abs=1e-12
        )

    def test_unit_vector_picks_out_value(self, ref_tech):
        values = labor_values(ref_tech)
        bundle = WageBundle(np.array([0.0, 1.0, 0.0]))
        assert value_of_bundle(values, bundle) == pytest.approx(0.5, abs=1e-12)

    def test_length_mismatch_rejected(self, ref_tech):
        values = labor_values(ref_tech)
        with pytest.raises(ValueError, match="length"):
            value_of_bundle(values, WageBundle(np.array([1.0, 1.0])))


class TestExploitation:
    def test_reference_rate(self):
        assert exploitation_rate(4.0 / 7.0) == pytest.approx(0.75, abs=1e-12)

    def test_quarter_day_bundle(self):
        assert exploitation_rate(0.25) == pytest.approx(3.0, abs=1e-12)

    def test_whole_day_bundle_zero(self):
        assert exploitation_rate(1.0) == 0.0

    def test_nonpositive_rejected(self):
        with pytest.raises(NonPositiveValue):
            exploitation_rate(0.0)
        with pytest.raises(NonPositiveValue):
            exploitation_rate(-0.3)

    def test_above_one_warns_negative(self):
        with pytest.warns(NegativeExploitationWarning):
            rate = exploitation_rate(1.25)
        assert rate == pytest.approx(-0.2, abs=1e-12)

    @given(st.floats(min_value=1e-6, max_value=1.0))
    def test_markup_identity(self, bundle_value):
        # 1 + e and 1/vb are the same markup, to machine precision.
        rate = exploitation_rate(bundle_value)
        assert 1.0 + rate == pytest.approx(1.0 / bundle_value, rel=1e-12)

    def test_strictly_decreasing_in_bundle(self, ref_tech):
        values = labor_values(ref_tech)
        base = np.full(3, 0.3)
        rate0 = exploitation_rate(value_of_bundle(values, WageBundle(base)))
        for k in range(3):
            richer = base.copy()
            richer[k] += 0.05
            rate1 = exploitation_rate(value_of_bundle(values, WageBundle(richer)))
            assert rate1 < rate0

    def test_value_system_bundles_everything(self, ref_tech, ref_bundle):
        system = value_system(ref_tech, ref_bundle)
        assert system.bundle_value == pytest.approx(4.0 / 7.0, abs=1e-12)
        assert system.exploitation == pytest.approx(0.75, abs=1e-12)
        np.testing.assert_allclose(system.values, [4 / 7, 0.5, 9 / 14], atol=1e-12)


class TestEconomyFiles:
    def test_round_trip_bit_for_bit(self, tmp_path, ref_tech, ref_bundle):
        first = tmp_path / "econ.json"
        second = tmp_path / "econ2.json"
        save_economy(first, ref_tech, ref_bundle)
        tech, bundle = load_economy(first)
        save_economy(second, tech, bundle)
        assert first.read_bytes() == second.read_bytes()
        np.testing.assert_array_equal(tech.inputs, ref_tech.inputs)
        np.testing.assert_array_equal(tech.labor, ref_tech.labor)
        np.testing.assert_array_equal(bundle.quantities, ref_bundle.quantities)

    def test_missing_key_named(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"A": [[0.1]], "L": [1.0]}))
        with pytest.raises(ValueError, match="'b'"):
            load_economy(bad)

    def test_column_convention_is_not_transposed(self, tmp_path):
        # Row-major file: A[0][1] is good 1 used by sector 2. A change in
        # sector 2's recipe must show up in column 1 of the loaded matrix.
        path = tmp_path / "econ.json"
        path.write_text(
            json.dumps(
                {
                    "A": [[0.1, 0.7], [0.2, 0.1]],
                    "L": [1.0, 1.0],
                    "b": [0.1, 0.1],
                }
            )
        )
        tech, _ = load_economy(path)
        assert tech.inputs[0, 1] == 0.7
        np.testing.assert_allclose(tech.input_column(1), [0.7, 0.1])

    def test_invalid_economy_rejected_on_load(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps({"A": [[1.2, 0.1], [0.1, 1.2]], "L": [1, 1], "b": [1, 1]})
        )
        with pytest.raises(NotProductive):
            load_economy(path)
