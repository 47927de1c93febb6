"""Core model tests: validation, labor values, exploitation arithmetic.

Expected numbers were frozen from an independent dense-solver oracle
(direct inverse / eigenvalue computations done outside this package);
exact fractions are noted where the data admits them.
"""

import collections
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from okishio_lab import (
    Decomposable,
    InvalidSector,
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
from okishio_lab import linear_economy
from okishio_lab.linear_economy import (
    _as_floats,
    _certify_rows,
    _check_bundles,
    _connected_rows,
    _read_fields,
    _require,
    _sector_max,
    _sector_min,
)
from okishio_lab.tolerances import CW_TOL, STRICT_MARGIN


class TestValidation:
    def test_negative_input_entry_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            Technology(np.array([[0.1, -0.2], [0.1, 0.1]]), np.array([1.0, 1.0]))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            Technology(np.array([[0.1, 0.2, 0.3], [0.1, 0.1, 0.1]]), np.array([1.0, 1.0]))

    def test_flat_input_matrix_rejected(self):
        with pytest.raises(ValueError, match="2-dimensional"):
            Technology(np.ones(3), np.ones(3))

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

    @pytest.mark.parametrize("sector, message", [
        (-1, "sector 0 outside range 1..3"), (3, "sector 4 outside range 1..3"),
        (1.0, "sector must be an integer, got 1.0"),
    ])
    def test_input_column_of_no_sector_is_refused(self, ref_tech, sector, message):
        # A negative index would otherwise count from the end.
        with pytest.raises(InvalidSector) as raised:
            ref_tech.input_column(sector)
        assert str(raised.value) == message

    def test_zero_bundle_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            WageBundle(np.zeros(3))

    def test_negative_bundle_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            WageBundle(np.array([0.1, -0.1]))

    @pytest.mark.parametrize("bad", [[0.0, 0.0], [0.1, -0.1], [-0.1, 0.0]])
    def test_stacked_bundle_check_raises_what_wage_bundle_raises(self, bad):
        with pytest.raises(ValueError) as alone:
            WageBundle(np.array(bad))
        # The row after the bad one fails the other check.
        after = [0.0, 0.0] if min(bad) < 0 else [0.1, -0.1]
        with pytest.raises(ValueError) as stacked:
            _check_bundles(np.array([[0.2, 0.1], bad, after]))
        assert str(stacked.value) == str(alone.value)
        _check_bundles(np.array([[0.2, 0.1], [0.0, 0.3]]))

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


def _connected(inputs: np.ndarray) -> bool:
    return bool(_connected_rows(inputs[None])[0])


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
            assert _connected(inputs) is expected, adjacency
            verdicts[expected] += 1
        assert verdicts[True] > 100 and verdicts[False] > 100

    def test_cycles_need_every_edge(self):
        # One cycle through every sector in a random order is the deepest
        # connected graph, n levels of the search; cutting any one of its
        # edges disconnects it.
        rng = np.random.default_rng(2207)
        for n in (1, 2, 3, 7, 30, 64):
            order = rng.permutation(n)
            cycle = np.zeros((n, n))
            cycle[order, np.roll(order, -1)] = rng.uniform(0.01, 0.3, n)
            assert _connected(cycle) and _reference_strongly_connected(cycle)
            if n > 1:
                cut = cycle.copy()
                cut[order[0], order[1]] = 0.0
                assert not _connected(cut) and not _reference_strongly_connected(cut)

    def test_stacked_search_matches_one_matrix_at_a_time(self):
        rng = np.random.default_rng(2206)
        verdicts = collections.Counter()
        for _ in range(200):
            n, k = int(rng.integers(1, 13)), int(rng.integers(1, 9))
            density = rng.uniform(0.05, 0.6)
            stack = (rng.random((k, n, n)) < density) * rng.uniform(0.01, 0.3, (k, n, n))
            expected = [_reference_strongly_connected(matrix) for matrix in stack]
            assert _connected_rows(stack).tolist() == expected
            verdicts.update(expected)
        assert verdicts[True] > 100 and verdicts[False] > 100
        assert _connected_rows(np.empty((0, 3, 3))).shape == (0,)

    @pytest.mark.parametrize("n", [2, 200, 800])
    def test_long_cycles_through_technology(self, n):
        # A cycle is n levels deep: past the stacked levels each row
        # finishes alone, and one edge fewer leaves it decomposable.
        cycle = np.roll(np.eye(n), 1, axis=1) * 0.5
        assert Technology(cycle, np.ones(n)).n == n
        cycle[n - 1, 0] = 0.0
        with pytest.raises(Decomposable, match="strongly connected"):
            Technology(cycle, np.ones(n))

    def test_sparse_irreducible_patterns_match_closure(self):
        # A random cycle plus sparse entries, deep enough to outlast the
        # stacked levels, alone and stacked by size; the same patterns with
        # one cycle edge cut are connected or not as the extra entries fall.
        rng = np.random.default_rng(2208)
        verdicts, by_size = collections.Counter(), collections.defaultdict(list)
        for _ in range(400):
            n = int(rng.integers(3, 30))
            order = rng.permutation(n)
            pattern = rng.random((n, n)) < rng.uniform(0.05, 0.3)
            pattern[order, np.roll(order, -1)] = True
            cut = pattern.copy()
            cut[order[0], order[1]] = False
            for adjacency in (pattern, cut):
                inputs = adjacency * rng.uniform(0.01, 0.3, (n, n))
                expected = _reference_strongly_connected(adjacency)
                assert _connected(inputs) is expected, adjacency
                verdicts[expected] += 1
                by_size[n].append((inputs, expected))
        assert verdicts[True] > 400 and verdicts[False] > 50
        for cases in by_size.values():
            stack = np.array([inputs for inputs, _ in cases])
            assert _connected_rows(stack).tolist() == [expected for _, expected in cases]

    def test_tiny_entries_are_edges(self):
        # Only an exact zero is missing: a 1e-14 input is an input in
        # some other unit of that good.
        cycle = np.roll(np.eye(4), 1, axis=1) * 0.2
        assert _connected(cycle)
        cycle[0, 1] = 1e-14
        assert _connected(cycle)
        cycle[0, 1] = 0.0
        assert not _connected(cycle)


class TestSectorReductions:
    # Reduced from a sector-major copy, they must give NumPy's own row
    # reductions, of contiguous stacks and of views.
    @pytest.mark.parametrize("k, n", [(0, 3), (1, 1), (1, 6), (2, 400), (5, 3), (250, 8)])
    @pytest.mark.parametrize("nan", [False, True])
    def test_equal_numpy_row_reductions(self, k, n, nan):
        rng = np.random.default_rng(k * 1000 + n)
        stack = rng.normal(size=(k, n))
        if nan and k:
            stack[k // 2, n // 2] = np.nan
            stack[-1] = np.nan
        for stacks in (stack, stack[::-1], np.asfortranarray(stack)):
            for helper, reduce in ((_sector_min, np.min), (_sector_max, np.max)):
                expected = reduce(stacks, axis=-1)
                assert helper(stacks).shape == expected.shape == (k,)
                assert np.array_equal(helper(stacks), expected, equal_nan=True)


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
        values, bound = _certify_rows(ref_inputs[None], labor[None])
        assert bound[0] >= 1.0 - STRICT_MARGIN
        tech = Technology(ref_inputs, labor)
        assert tech.spectral_radius == pytest.approx(0.65, rel=1e-14)
        assert np.all(tech.values > 0)
        assert np.array_equal(tech.values, values[0])
        assert tech.productivity_bound == bound[0]

    def test_productivity_bound_is_kept(self, ref_tech):
        values, bound = _certify_rows(ref_tech.inputs[None], ref_tech.labor[None])
        assert ref_tech.productivity_bound == bound[0]
        assert np.array_equal(ref_tech.values, values[0])
        assert ref_tech.productivity_bound >= ref_tech.spectral_radius * (1.0 - CW_TOL)
        assert ref_tech.productivity_bound < 1.0 - STRICT_MARGIN

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
        monkeypatch.setattr(linear_economy, "_solve", failing)
        with pytest.raises(SingularSystem) as singular:
            Technology(ref_inputs, np.array([0.2, 0.15, 0.25]))
        # The solver's own message is kept.
        assert str(singular.value) == "value accounting system is singular: Singular matrix"
        with pytest.raises(NotProductive, match="1.200000"):
            Technology(np.full((2, 2), 0.6), np.array([1.0, 1.0]))

    @pytest.mark.parametrize(
        "factor, message",
        [
            (-1.0, "value accounting system gives a value of -5.714e-01, not positive"),
            (
                1.0 + 1e-6,
                "value accounting residual 5.778e-07 relative to the largest value "
                "exceeds 1e-10",
            ),
        ],
    )
    def test_unusable_values_of_a_productive_technique_are_singular(
        self, ref_inputs, monkeypatch, factor, message
    ):
        # The solve's first value is scaled by factor: the technique stays
        # productive (radius 0.65), so its values are what is wrong.
        solve = linear_economy._solve

        def perturbed(*args):
            out = solve(*args)
            out.flat[0] *= factor
            return out

        monkeypatch.setattr(linear_economy, "_solve", perturbed)
        labor = np.array([0.2, 0.15, 0.25])
        with pytest.raises(SingularSystem) as raised:
            Technology(ref_inputs, labor)
        assert str(raised.value) == message
        with pytest.raises(SingularSystem) as stacked:
            _certify_rows(ref_inputs[None], labor[None])
        assert str(stacked.value) == message


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
        stack = np.array([tech.inputs, augmented])
        # Both are accepted, a bound that reads 1 on the radius.
        certified = _certify_rows(stack, np.array([labor, labor]))
        for inputs, values, bound in zip(stack, *certified):
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
        if eigvals_radius(inputs) < 1.0 - STRICT_MARGIN:
            assert np.all(Technology(inputs, labor).values > 0)
        else:
            with pytest.raises(NotProductive):
                Technology(inputs, labor)


def _good_rows(rng, n, k):
    inputs = rng.uniform(0.0, 0.3, (k, n, n))
    inputs /= inputs.sum(axis=1, keepdims=True).max(axis=2, keepdims=True) / 0.7
    return list(inputs), list(rng.uniform(0.05, 0.5, (k, n)))


def _ref_inputs():
    return np.array([[0.35, 0.05, 0.25], [0.15, 0.45, 0.05], [0.15, 0.15, 0.35]])


# One row for each way Technology can reject a technique, in the order it
# checks, and a row whose bound reads 1 that its measured radius accepts.
BAD_ROWS = {
    "negative entry": (_ref_inputs() - np.eye(3) * 0.4, np.ones(3)),
    "non-finite entry": (np.where(np.eye(3) > 0, np.inf, 0.1), np.ones(3)),
    "labor not positive": (_ref_inputs(), np.array([0.2, 0.0, 0.25])),
    "decomposable": (np.diag([0.3, 0.4, 0.5]), np.ones(3)),
    "not productive": (np.full((3, 3), 0.4), np.ones(3)),
    # Rank one with radius exactly 1: I - A is exactly singular, so the
    # whole stacked solve fails.
    "singular": (np.array([[0.5] * 3, [0.25] * 3, [0.25] * 3]), np.ones(3)),
}
BOUND_READS_ONE = (_ref_inputs(), np.array([1e-16, 1.0, 1.0]))

# What each bad row raises, written out.
BAD_ROW_ERRORS = {
    "negative entry": (ValueError, "input matrix must be nonnegative"),
    "non-finite entry": (ValueError, "array entries must be finite"),
    "labor not positive": (ValueError, "labor vector must be strictly positive"),
    "decomposable": (
        Decomposable,
        "economy is decomposable: sector input graph is not strongly connected",
    ),
    "not productive": (
        NotProductive,
        "input matrix is not productive: spectral radius 1.200000 is not below 1",
    ),
    "singular": (
        NotProductive,
        "input matrix is not productive: spectral radius 1.000000 is not below 1",
    ),
}


def _verdict(inputs, labor):
    """What ``Technology`` makes of one row: its error's type and message,
    or None with the row's values and bound."""
    try:
        tech = Technology(inputs, labor)
    except Exception as err:
        return type(err), str(err)
    return None, tech.values, tech.productivity_bound


def _stack_verdict(inputs, labor):
    """``_verdict`` of ``_certify_rows`` on a stack: the error it raises, or
    None with the stack's values and bounds."""
    try:
        with np.errstate(invalid="ignore"):  # a non-finite row's solve makes NaN
            values, bounds = _certify_rows(np.array(inputs), np.array(labor))
    except Exception as err:
        return type(err), str(err)
    return None, values, bounds


def _built_techniques(monkeypatch) -> list:
    """Every Technology built through its checks from now on."""
    built, original = [], Technology.__post_init__

    def counted(self):
        original(self)
        built.append(self)

    monkeypatch.setattr(Technology, "__post_init__", counted)
    return built


class TestStackedCertificate:
    def test_good_rows_equal_one_at_a_time(self, monkeypatch):
        rng = np.random.default_rng(404)
        for n in (1, 2, 3, 8, 30):
            inputs, labor = _good_rows(rng, n, 6)
            built = _built_techniques(monkeypatch)
            values, bounds = _certify_rows(np.array(inputs), np.array(labor))
            assert built == []
            for row, (a, l) in enumerate(zip(inputs, labor)):
                single = Technology(a, l)
                assert np.array_equal(values[row], single.values)
                assert bounds[row] == single.productivity_bound

    def test_lone_row_is_certified_in_the_stack(self, monkeypatch):
        inputs, labor = _good_rows(np.random.default_rng(406), 3, 1)
        built = _built_techniques(monkeypatch)
        values, bounds = _certify_rows(np.array(inputs), np.array(labor))
        assert built == []
        single = Technology(inputs[0], labor[0])
        assert np.array_equal(values, [single.values])
        assert bounds.tolist() == [single.productivity_bound]

    def test_techniques_own_read_only_copies(self):
        inputs, labor = _good_rows(np.random.default_rng(405), 4, 3)
        stack, labor_stack = np.array(inputs), np.array(labor)
        values, bounds = _certify_rows(stack, labor_stack)
        techs = [Technology._certified(*row) for row in zip(stack, labor_stack, values, bounds)]
        for tech, a, l in zip(techs, inputs, labor):
            assert np.array_equal(tech.inputs, a) and np.array_equal(tech.labor, l)
            for array in (tech.inputs, tech.labor, tech.values):
                assert not array.flags.writeable
                assert array.base is None
            assert not np.shares_memory(tech.inputs, stack)
        stack[0, 0, 0] = 99.0
        assert techs[0].inputs[0, 0] != 99.0

    @pytest.mark.parametrize("kind", sorted(BAD_ROWS))
    def test_bad_row_raises_what_technology_raises(self, kind, monkeypatch):
        bad_inputs, bad_labor = BAD_ROWS[kind]
        error, message = BAD_ROW_ERRORS[kind]
        with pytest.raises(Exception) as alone:
            Technology(bad_inputs, bad_labor)
        assert type(alone.value) is error and str(alone.value) == message
        assert _stack_verdict([bad_inputs], [bad_labor]) == (error, message)
        inputs, labor = _good_rows(np.random.default_rng(407), 3, 5)
        inputs.insert(2, bad_inputs)
        labor.insert(2, bad_labor)
        assert _stack_verdict(inputs, labor) == (error, message)
        # The good rows, before and after the bad one, certify in a stack
        # as each does alone, and no Technology is built for them.
        del inputs[2], labor[2]
        built = _built_techniques(monkeypatch)
        values, _ = _certify_rows(np.array(inputs), np.array(labor))
        assert built == []
        for row, (a, l) in enumerate(zip(inputs, labor)):
            assert np.array_equal(values[row], Technology(a, l).values)

    def test_each_row_of_a_mixed_stack_keeps_its_own_error(self):
        # Every finite bad row but the singular one, which would fail the
        # whole solve, between good rows: each raises alone what Technology
        # raises for it, and each tail of the stack raises its first bad
        # row's error.
        (g0, g1, g2), good_labor = _good_rows(np.random.default_rng(411), 3, 3)
        rows = [
            BAD_ROWS["decomposable"],
            (g0, good_labor[0]),
            BAD_ROWS["negative entry"],
            BAD_ROWS["not productive"],
            (g1, good_labor[1]),
            BOUND_READS_ONE,
            (g2, good_labor[2]),
            BAD_ROWS["labor not positive"],
        ]
        verdicts = [_verdict(*row) for row in rows]
        assert [verdict[0] for verdict in verdicts] == [
            Decomposable, None, ValueError, NotProductive, None, None, None, ValueError,
        ]
        for row, verdict in zip(rows, verdicts):
            if verdict[0] is not None:
                assert _stack_verdict([row[0]], [row[1]]) == verdict
        for start in range(len(rows)):
            inputs, labor = zip(*rows[start:])
            first = next(verdict for verdict in verdicts[start:] if verdict[0] is not None)
            assert _stack_verdict(inputs, labor) == first

    def test_failed_stacked_solve_certifies_rows_one_at_a_time(self, monkeypatch):
        inputs, labor = _good_rows(np.random.default_rng(413), 4, 3)
        alone = [Technology(a, l) for a, l in zip(inputs, labor)]
        solve = linear_economy._solve

        def lone_rows_only(a, b):
            if a.ndim == 3 and len(a) > 1:
                raise np.linalg.LinAlgError("Singular matrix")
            return solve(a, b)

        monkeypatch.setattr(linear_economy, "_solve", lone_rows_only)
        values, bounds = _certify_rows(np.array(inputs), np.array(labor))
        for row, tech in enumerate(alone):
            assert np.array_equal(values[row], tech.values)
            assert bounds[row] == tech.productivity_bound

    def test_first_bad_row_in_order_raises(self):
        inputs, labor = _good_rows(np.random.default_rng(408), 3, 4)
        inputs[1], labor[1] = BAD_ROWS["decomposable"]
        inputs[3], labor[3] = BAD_ROWS["negative entry"]
        with pytest.raises(Decomposable):
            _certify_rows(np.array(inputs), np.array(labor))

    @pytest.mark.parametrize("first", sorted(BAD_ROWS) + ["bound reads one"])
    @pytest.mark.parametrize("second", sorted(BAD_ROWS) + ["bound reads one"])
    def test_first_failing_row_wins_across_kinds(self, first, second):
        # [good, a, good, b, good]: the stack raises a's error, or b's if a
        # is accepted; if both are, every row keeps its values and bound alone.
        kinds = dict(BAD_ROWS, **{"bound reads one": BOUND_READS_ONE})
        (g0, g1, g2), good_labor = _good_rows(np.random.default_rng(412), 3, 3)
        rows = [(g0, good_labor[0]), kinds[first], (g1, good_labor[1]), kinds[second],
                (g2, good_labor[2])]
        verdicts = [_verdict(*row) for row in rows]
        got = _stack_verdict(*zip(*rows))
        failing = [verdict for verdict in verdicts if verdict[0] is not None]
        if failing:
            assert got == failing[0]
            return
        assert got[0] is None
        for row, verdict in enumerate(verdicts):
            assert np.array_equal(got[1][row], verdict[1])
            assert got[2][row] == verdict[2]

    def test_bound_that_reads_one_is_accepted_on_the_radius(self, monkeypatch):
        inputs, labor = _good_rows(np.random.default_rng(409), 3, 4)
        inputs.insert(1, BOUND_READS_ONE[0])
        labor.insert(1, BOUND_READS_ONE[1])
        single = Technology(*BOUND_READS_ONE)
        alone = [Technology(a, l) for a, l in zip(inputs, labor)]
        built = _built_techniques(monkeypatch)
        values, bounds = _certify_rows(np.array(inputs), np.array(labor))
        # No row is built as a Technology; the one whose bound reads 1 is
        # accepted with the values it solves alone.
        assert built == []
        assert np.array_equal(values[1], single.values)
        assert bounds[1] == single.productivity_bound == 1.0
        assert single.spectral_radius == pytest.approx(0.65)
        for row, tech in enumerate(alone):
            assert np.array_equal(values[row], tech.values)
            assert bounds[row] == tech.productivity_bound


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


    def test_first_value_that_is_not_positive_is_named_and_nan_passes(self):
        with pytest.raises(NonPositiveValue) as raised:
            exploitation_rate(np.array([[0.5, np.nan], [-0.2, 0.0]]))
        assert str(raised.value) == "bundle value must be positive, got -0.2"
        assert np.isnan(exploitation_rate(np.nan))
        assert exploitation_rate(np.array([])).shape == (0,)


def _named(name):
    """A check's error: a ValueError naming the check and the failing row."""
    return lambda row: ValueError(f"{name} {row}")


class TestRequire:
    """``_require``, the one rule every stacked check raises by."""

    def test_lowest_failing_row_raises_named_by_its_first_failing_check(self):
        # Row 0 passes, row 1 fails b and c, row 2 a and b, row 3 only c.
        checks = [
            (np.array([True, True, False, True]), _named("a")),
            (np.array([True, False, False, True]), _named("b")),
            (np.array([True, False, True, False]), _named("c")),
        ]
        with pytest.raises(ValueError, match="^b 1$"):
            _require(checks)
        # Rows are numbered within the stack passed.
        with pytest.raises(ValueError, match="^a 0$"):
            _require([(holds[2:], error) for holds, error in checks])
        with pytest.raises(ValueError, match="^c 0$"):
            _require([(holds[3:], error) for holds, error in checks])

    def test_one_row_as_it_stands(self):
        with pytest.raises(ValueError, match="^b 0$"):
            _require([(np.True_, _named("a")), (False, _named("b")), (np.False_, _named("c"))])
        _require([(True, _named("a")), (np.True_, _named("b"))])

    @pytest.mark.parametrize("rows", [0, 3])
    def test_passing_stack_raises_nothing(self, rows):
        def never(row):
            raise AssertionError("a passing row's error was built")

        _require([(np.ones(rows, dtype=bool), never), (np.ones(rows, dtype=bool), never)])


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

    def test_round_trip_keeps_every_bit(self, tmp_path):
        # Subnormals, 17-digit reprs and signed zeros come back as the same
        # doubles, not merely close ones.
        inputs = np.array([
            [0.35, 0.05000000000000001, 0.25],
            [5e-324, 0.45, -0.0],
            [0.15, 0.15000000000000002, 0.35000000000000003],
        ])
        labor = np.array([0.2, 2.2250738585072014e-308, 0.12345678901234568])
        quantities = np.array([-0.0, 4.9406564584124654e-324, 0.3333333333333333])
        first, second = tmp_path / "econ.json", tmp_path / "econ2.json"
        save_economy(first, Technology(inputs, labor), WageBundle(quantities))
        tech, bundle = load_economy(first)
        for read, written in ((tech.inputs, inputs), (tech.labor, labor),
                              (bundle.quantities, quantities)):
            np.testing.assert_array_equal(read.view(np.int64), written.view(np.int64))
        save_economy(second, tech, bundle)
        assert first.read_bytes() == second.read_bytes()

    def test_reader_rounds_as_the_standard_library_does(self, tmp_path):
        # Decimals of 17 to 19 significant digits from below the subnormals
        # to near the top of the double range, integers beyond 64 bits, and
        # the halfway cases at the bottom of the range.
        rng = random.Random(20221)
        corpus = []
        for _ in range(100_000):
            count = rng.randint(17, 19)
            digits = str(rng.randrange(10 ** (count - 1), 10 ** count))
            sign = rng.choice(("-", ""))
            corpus.append(f"{sign}{digits[0]}.{digits[1:]}e{rng.randint(-330, 306)}")
        corpus += [str(rng.choice((-1, 1)) * rng.randrange(2 ** 64, 2 ** 200))
                   for _ in range(2_000)]
        corpus += ["2.2250738585072011e-308", "4.9406564584124654e-324",
                   "2.4703282292062328e-324", "2.4703282292062327e-324"]
        text = "[" + ", ".join(corpus) + "]"
        path = tmp_path / "corpus.json"
        path.write_text('{"x": ' + text + "}")
        read = _read_fields(path, "corpus", {"x": _as_floats}, lambda floats: floats)
        expected = np.array(json.loads(text), dtype=float)
        np.testing.assert_array_equal(read.view(np.int64), expected.view(np.int64))

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
