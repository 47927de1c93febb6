"""Equilibrium solver tests.

The n = 3 cross-check oracle here finds the dominant root of the
characteristic cubic by sign scanning plus bisection, sharing nothing
with the production solver. Elsewhere ``max|eigvals|`` is the oracle.
"""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from okishio_lab import (
    NoConvergence,
    NotProductive,
    Technology,
    WageBundle,
    admissibility,
    augmented_inputs,
    labor_values,
    max_profit_rate,
    random_economy,
    run_scenarios,
    run_suite,
    suite_csv,
    uniform_profit_rate,
    value_of_bundle,
)
from okishio_lab import equilibrium, linear_economy, verify
from okishio_lab.equilibrium import _left_perron
from okishio_lab.linear_economy import PLAIN_ROWS
from okishio_lab.tolerances import CW_TOL
from okishio_lab.verify import iter_suite, suite_block


def cubic_dominant_root(matrix):
    """Largest real eigenvalue of a nonnegative 3x3 matrix.

    Expands det(mu I - M) via trace/minor/determinant coefficients and
    bisects on a sign change; no eigensolver involved.
    """
    m = np.asarray(matrix, dtype=float)
    assert m.shape == (3, 3)
    c2 = -float(np.trace(m))
    minors = (
        m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1]
        + m[0, 0] * m[2, 2] - m[0, 2] * m[2, 0]
        + m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    )
    c1 = float(minors)
    c0 = -float(np.linalg.det(m))

    def poly(mu):
        return ((mu + c2) * mu + c1) * mu + c0

    hi = float(np.max(np.abs(m).sum(axis=1))) + 1.0
    # Dominant root of a nonnegative matrix lies in [0, hi); the
    # polynomial is positive beyond it.
    lo = 0.0
    grid = np.linspace(hi, 0.0, 20001)
    for mu in grid:
        if poly(mu) < 0:
            lo = mu
            break
    else:
        return 0.0
    hi = lo + (grid[0] - grid[1])
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if poly(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestReferenceEquilibrium:
    def test_profit_rate(self, ref_tech, ref_bundle):
        eq = uniform_profit_rate(ref_tech, ref_bundle)
        # Augmented matrix has constant row sums 0.85, so pi = 1/0.85 - 1.
        assert eq.profit_rate == pytest.approx(0.17647058823529413, abs=1e-9)
        assert eq.spectral_radius == pytest.approx(0.85, abs=1e-9)

    def test_prices(self, ref_tech, ref_bundle):
        eq = uniform_profit_rate(ref_tech, ref_bundle)
        np.testing.assert_allclose(
            eq.prices, [1.0, 10.0 / 11.0, 12.0 / 11.0], atol=1e-9
        )

    def test_printed_precision(self, ref_tech, ref_bundle):
        eq = uniform_profit_rate(ref_tech, ref_bundle)
        assert eq.profit_rate == pytest.approx(0.1764706, abs=1e-7)
        np.testing.assert_allclose(eq.prices, [1.0, 0.9090909, 1.0909091], atol=1e-7)

    def test_bundle_costs_exactly_one(self, ref_tech, ref_bundle):
        eq = uniform_profit_rate(ref_tech, ref_bundle)
        assert float(eq.prices @ ref_bundle.quantities) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_residual_certificate(self, ref_tech, ref_bundle):
        eq = uniform_profit_rate(ref_tech, ref_bundle)
        m = augmented_inputs(ref_tech, ref_bundle)
        replayed = float(
            np.max(np.abs(eq.prices - (1.0 + eq.profit_rate) * (eq.prices @ m)))
        ) / float(np.max(eq.prices))
        assert eq.residual <= 1e-9
        assert replayed == pytest.approx(eq.residual, abs=1e-15)

    def test_prices_exceed_values(self, ref_tech, ref_bundle):
        # Positive profits put every price strictly above its labor value
        # under this normalization.
        eq = uniform_profit_rate(ref_tech, ref_bundle)
        assert np.all(eq.prices > labor_values(ref_tech))

    def test_profit_below_zero_wage_ceiling(self, ref_tech, ref_bundle):
        eq = uniform_profit_rate(ref_tech, ref_bundle)
        assert 0.0 < eq.profit_rate < max_profit_rate(ref_tech)

    def test_post_change_equilibrium(self, ref_tech, ref_change):
        # Patched reference economy with the printed replacement bundle.
        from okishio_lab import apply_change

        patched = apply_change(ref_tech, ref_change)
        new_bundle = WageBundle(np.array([0.008613, 1.170977, 0.008613]))
        eq = uniform_profit_rate(patched, new_bundle)
        assert eq.profit_rate == pytest.approx(0.16045533572380033, abs=1e-9)
        np.testing.assert_allclose(
            eq.prices,
            [0.9288431859178241, 0.8398325637112113, 0.9956179876771973],
            atol=1e-9,
        )
        np.testing.assert_allclose(
            eq.prices, [0.9288424, 0.8398318, 0.9956171], atol=1e-5
        )


class TestOneSector:
    def test_closed_form(self, one_sector_tech, one_sector_bundle):
        # M = 0.5 + 0.25 * 1 = 0.75, pi = 1/3, p normalizes to 4.
        eq = uniform_profit_rate(one_sector_tech, one_sector_bundle)
        assert eq.spectral_radius == pytest.approx(0.75, abs=1e-12)
        assert eq.profit_rate == pytest.approx(1.0 / 3.0, abs=1e-12)
        np.testing.assert_allclose(eq.prices, [4.0], atol=1e-12)


class TestMaxProfitRate:
    def test_reference_value(self, ref_tech):
        assert max_profit_rate(ref_tech) == pytest.approx(
            1.0 / 0.65 - 1.0, abs=1e-9
        )

    def test_one_sector(self, one_sector_tech):
        assert max_profit_rate(one_sector_tech) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("seed", [None, 31, 32, 33], ids=lambda s: f"seed={s}")
    def test_reads_the_validated_spectral_radius(self, seed, ref_tech):
        # seed None is the reference economy, the others random draws.
        if seed is None:
            tech = ref_tech
        else:
            rng = np.random.default_rng(seed)
            tech, _ = random_economy(rng, int(rng.integers(2, 12)))
        rho, _, _, bounds = _left_perron(tech.inputs[None])
        midpoint, (lo, hi) = rho[0], bounds[0]
        assert tech.spectral_radius == midpoint
        # eigvals and the bracket's ratios each carry a few ulps of
        # rounding, so containment is checked to CW_TOL.
        rho = float(np.max(np.abs(np.linalg.eigvals(tech.inputs))))
        assert lo * (1.0 - CW_TOL) <= rho <= hi * (1.0 + CW_TOL)
        assert max_profit_rate(tech) == 1.0 / tech.spectral_radius - 1.0

    def test_falls_when_inputs_rise(self, ref_tech):
        heavier = Technology(ref_tech.inputs + 0.05, ref_tech.labor)
        assert max_profit_rate(heavier) < max_profit_rate(ref_tech)


class TestCrossCheckOracle:
    def test_reference_augmented_matrix(self, ref_tech, ref_bundle):
        m = augmented_inputs(ref_tech, ref_bundle)
        eq = uniform_profit_rate(ref_tech, ref_bundle)
        assert cubic_dominant_root(m) == pytest.approx(eq.spectral_radius, abs=1e-10)

    def test_random_three_sector_economies(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            inputs = rng.uniform(0.01, 0.3, (3, 3))
            inputs *= rng.uniform(0.3, 0.8) / np.max(np.abs(np.linalg.eigvals(inputs)))
            tech = Technology(inputs, rng.uniform(0.05, 0.5, 3))
            values = labor_values(tech)
            direction = rng.uniform(0.1, 1.0, 3)
            bundle = WageBundle(direction * (0.6 / float(values @ direction)))
            eq = uniform_profit_rate(tech, bundle)
            root = cubic_dominant_root(augmented_inputs(tech, bundle))
            assert eq.spectral_radius == pytest.approx(root, abs=1e-10)


class TestSolverContract:
    def test_positive_prices_on_random_economies(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            inputs = rng.uniform(0.01, 0.3, (n, n))
            inputs *= rng.uniform(0.3, 0.8) / np.max(np.abs(np.linalg.eigvals(inputs)))
            tech = Technology(inputs, rng.uniform(0.05, 0.5, n))
            bundle = WageBundle(rng.uniform(0.05, 0.5, n))
            eq = uniform_profit_rate(tech, bundle)
            assert np.all(eq.prices > 0)
            assert eq.residual <= 1e-9
            assert float(eq.prices @ bundle.quantities) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_tight_tolerance_rejected(self, monkeypatch):
        tech, bundle = random_economy(np.random.default_rng(29), 6)
        residual = uniform_profit_rate(tech, bundle).residual
        assert residual > 0.0
        monkeypatch.setattr(equilibrium, "RESIDUAL_TOL", 0.5 * residual)
        with pytest.raises(NoConvergence, match="residual"):
            uniform_profit_rate(tech, bundle)

    def test_bundle_length_mismatch(self, ref_tech):
        with pytest.raises(ValueError, match="match"):
            uniform_profit_rate(ref_tech, WageBundle(np.array([0.5])))


def screen(tech, bundle):
    """Admissibility of a bundle at its technique's equilibrium."""
    values = labor_values(tech)
    prices = uniform_profit_rate(tech, bundle).prices
    return admissibility(prices, values, value_of_bundle(values, bundle))


class TestAdmissibility:
    def test_reference_bundle_admissible(self, ref_tech, ref_bundle):
        flags = screen(ref_tech, ref_bundle)
        assert flags.admissible
        assert flags.nonnegative_surplus and flags.ratio_headroom
        assert flags.max_ratio == pytest.approx(20.0 / 11.0, abs=1e-9)
        assert flags.max_ratio_sector == 1

    def test_reference_ratios(self, ref_tech, ref_bundle):
        eq = uniform_profit_rate(ref_tech, ref_bundle)
        ratios = eq.prices / labor_values(ref_tech)
        np.testing.assert_allclose(
            ratios, [1.75, 1.8181818181818181, 1.696969696969697], atol=1e-9
        )

    def test_post_change_headroom_with_printed_bundle(self, ref_tech, ref_change):
        from okishio_lab import apply_change

        patched = apply_change(ref_tech, ref_change)
        new_bundle = WageBundle(np.array([0.008613, 1.170977, 0.008613]))
        flags = screen(patched, new_bundle)
        assert flags.admissible
        assert flags.max_ratio == pytest.approx(1.7507170, abs=1e-6)
        assert flags.max_ratio_sector == 1

    def test_equal_organic_composition_has_no_headroom(
        self, equal_organic_tech, equal_organic_bundle
    ):
        # All ratios equal one plus exploitation exactly: no strict excess.
        flags = screen(equal_organic_tech, equal_organic_bundle)
        assert flags.nonnegative_surplus
        assert not flags.ratio_headroom
        assert not flags.admissible

    def test_overpaid_bundle_fails_surplus(self, ref_tech):
        values = labor_values(ref_tech)
        rich = WageBundle(np.full(3, 0.7))
        assert value_of_bundle(values, rich) > 1.0
        flags = screen(ref_tech, rich)
        assert not flags.nonnegative_surplus
        assert not flags.admissible

    def test_ties_break_to_lowest_sector(self):
        flags = admissibility(
            np.array([1.0, 2.0, 1.0]), np.array([0.5, 1.0, 0.5]), 0.4
        )
        assert flags.max_ratio_sector == 0
        assert flags.max_ratio == pytest.approx(2.0)


def spectral_radius(matrix):
    return float(np.max(np.abs(np.linalg.eigvals(matrix))))


def two_block_economy(rng, coupling, target, size=4):
    """Two weakly coupled blocks with |lambda_2| / rho(M) near ``target``.

    Every cross-block input is ``coupling``. The wage goods all come
    from block 1, so block 1 carries the dominant eigenvalue of the
    wage-augmented matrix M, and block 2's inputs are scaled to
    ``target`` times it.
    """
    n = 2 * size
    inputs = np.full((n, n), coupling)
    a11 = rng.uniform(0.1, 1.0, (size, size))
    inputs[:size, :size] = a11 * (rng.uniform(0.3, 0.5) / spectral_radius(a11))
    a22 = rng.uniform(0.1, 1.0, (size, size))
    labor = rng.uniform(0.05, 0.5, n)
    wage_goods = np.concatenate([rng.uniform(0.1, 1.0, size), np.zeros(size)])
    values = labor_values(Technology(inputs, labor))
    quantities = wage_goods * (0.5 / float(values @ wage_goods))
    wage_block = inputs[:size, :size] + np.outer(quantities[:size], labor[:size])
    inputs[size:, size:] = a22 * (
        target * spectral_radius(wage_block) / spectral_radius(a22)
    )
    return Technology(inputs, labor), WageBundle(quantities)


def second_eigen_ratio(tech, bundle):
    moduli = np.sort(np.abs(np.linalg.eigvals(augmented_inputs(tech, bundle))))
    return float(moduli[-2] / moduli[-1])


class TestNearlyDecomposable:
    # Power iteration needs about 1 / -log(ratio) steps on these; the
    # shifted steps need a handful whatever the ratio.

    @pytest.mark.parametrize(
        "coupling, target, ratio",
        [(1e-9, 0.999, 0.999), (1e-6, 0.9985, 0.997)],
        ids=["coupling=1e-9", "coupling=1e-6"],
    )
    def test_profit_rate_matches_eigvals(self, coupling, target, ratio):
        tech, bundle = two_block_economy(np.random.default_rng(0), coupling, target)
        assert second_eigen_ratio(tech, bundle) == pytest.approx(ratio, abs=5e-4)
        eq = uniform_profit_rate(tech, bundle)
        rho = spectral_radius(augmented_inputs(tech, bundle))
        assert eq.profit_rate == pytest.approx(1.0 / rho - 1.0, rel=1e-13)
        assert eq.iterations <= 20


class TestCertificate:
    def test_reference_bracket(self, ref_tech, ref_bundle):
        eq = uniform_profit_rate(ref_tech, ref_bundle)
        lo, hi = eq.rho_bounds
        assert lo <= 0.85 <= hi
        assert (hi - lo) / hi <= CW_TOL
        assert eq.spectral_radius == pytest.approx(0.85, rel=1e-15)
        assert eq.profit_rate == pytest.approx(3.0 / 17.0, rel=1e-15)
        assert eq.iterations > 0

    def test_residual_within_half_the_bracket(self):
        # With x the certified iterate and rho the bracket's midpoint, the
        # residual of p = x / cost is max_i p_i |rho - r_i| / (rho max p),
        # r_i = (x M)_i / x_i, which is at most (hi - lo) / (2 rho) when
        # every r_i lies in [lo, hi]. Rounding adds, in units u = eps / 2:
        # (n + 1) u to the solver's ratios (an n-term product of
        # nonnegative terms and a division), n u to the check's own
        # product, 2 u to scaling x into p (once in p, once in its image),
        # 1 u each to the midpoint rho and to dividing the image by it. In
        # all (2n + 5) u, below (n + 3) eps and at most 3 n eps for n >= 2.
        rng = np.random.default_rng(31)
        economies = [random_economy(rng, n) for n in range(2, 9) for _ in range(6)]
        economies += [
            two_block_economy(rng, coupling, target)
            for coupling, target in [(1e-9, 0.999), (1e-6, 0.9985), (1e-4, 0.99), (1e-3, 0.9)]
        ]
        eps = np.finfo(float).eps
        for tech, bundle in economies:
            eq = uniform_profit_rate(tech, bundle)
            lo, hi = eq.rho_bounds
            assert eq.residual <= 0.5 * (hi - lo) / eq.spectral_radius + 3 * tech.n * eps

    def test_residual_holds_when_the_wage_radius_is_large(self, ref_tech, ref_bundle):
        # A bundle a billion times the reference's puts rho(M) near 2e8 and
        # the profit rate at -1 + 5e-9; 1 + pi would keep only about half
        # of its digits, while the image pM / rho loses none.
        eq = uniform_profit_rate(ref_tech, WageBundle(ref_bundle.quantities * 1e9))
        lo, hi = eq.rho_bounds
        assert eq.spectral_radius > 1e8
        assert eq.residual <= equilibrium.RESIDUAL_TOL
        eps = np.finfo(float).eps
        assert eq.residual <= 0.5 * (hi - lo) / eq.spectral_radius + 3 * ref_tech.n * eps

    def test_one_sector_needs_no_steps(self, one_sector_tech, one_sector_bundle):
        eq = uniform_profit_rate(one_sector_tech, one_sector_bundle)
        assert eq.iterations == 0
        assert eq.rho_bounds == (0.75, 0.75)

    def test_dense_800_sectors(self):
        rng = np.random.default_rng(800)
        inputs = rng.uniform(0.0, 1.0, (800, 800))
        inputs *= 0.5 / spectral_radius(inputs)
        tech = Technology(inputs, rng.uniform(0.05, 0.5, 800))
        values = labor_values(tech)
        direction = rng.uniform(0.1, 1.0, 800)
        bundle = WageBundle(direction * (0.5 / float(values @ direction)))
        eq = uniform_profit_rate(tech, bundle)
        lo, hi = eq.rho_bounds
        assert (hi - lo) / hi <= CW_TOL
        rho = spectral_radius(augmented_inputs(tech, bundle))
        assert eq.spectral_radius == pytest.approx(rho, rel=1e-14)


class TestUnits:
    """Rescaling labor or goods must not change what is accepted."""

    @pytest.mark.parametrize(
        "labor_scale, bundle_scale",
        [(1.0, 1e-3), (1.0, 1e-6), (1e6, 1e-6), (1e14, 1e-14)],
    )
    def test_rescaled_reference_solves(
        self, ref_tech, ref_bundle, labor_scale, bundle_scale
    ):
        tech = Technology(ref_tech.inputs, ref_tech.labor * labor_scale)
        bundle = WageBundle(ref_bundle.quantities * bundle_scale)
        eq = uniform_profit_rate(tech, bundle)
        assert eq.residual <= 1e-9
        assert float(eq.prices @ bundle.quantities) == pytest.approx(1.0, rel=1e-12)

    def test_same_economy_in_other_units(self, ref_tech, ref_bundle):
        # Labor counted in micro-hours, goods in mega-units: the same M.
        base = uniform_profit_rate(ref_tech, ref_bundle)
        tech = Technology(ref_tech.inputs, ref_tech.labor * 1e6)
        eq = uniform_profit_rate(tech, WageBundle(ref_bundle.quantities * 1e-6))
        assert eq.profit_rate == pytest.approx(base.profit_rate, rel=1e-15)
        np.testing.assert_allclose(eq.prices, base.prices * 1e6, rtol=1e-14)


@st.composite
def economies(draw):
    """random_economy draws with 1 to 8 sectors, or two-block draws."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        coupling = 10.0 ** draw(st.floats(-9.0, -3.0))
        return two_block_economy(rng, coupling, draw(st.floats(0.9, 0.999)))
    n = draw(st.integers(1, 8))
    if n == 1:
        # One sector has no price-value headroom, so random_economy
        # cannot draw it.
        tech = Technology(rng.uniform(0.1, 0.8, (1, 1)), rng.uniform(0.05, 0.5, 1))
        return tech, WageBundle(rng.uniform(0.1, 0.9, 1) / labor_values(tech))
    return random_economy(rng, n)


def exact_bracket(tech, bundle):
    """The Collatz–Wielandt bracket of the exact ``A + b L``, in Fractions.

    For any positive row vector x, ``min_j (x M)_j / x_j <= rho(M) <=
    max_j (x M)_j / x_j``; x here is the left Perron vector ``np.linalg.eig``
    finds for the rounded M. Floats are Fractions exactly, so nothing rounds.
    """
    moduli, vectors = np.linalg.eig(augmented_inputs(tech, bundle).T)
    left = np.abs(vectors[:, np.argmax(np.abs(moduli))].real)
    assert (left > 0).all()
    x = [Fraction(entry) for entry in left.tolist()]
    inputs = [[Fraction(entry) for entry in row] for row in tech.inputs.tolist()]
    wage = [Fraction(entry) for entry in bundle.quantities.tolist()]
    labor = [Fraction(entry) for entry in tech.labor.tolist()]
    sectors = range(tech.n)
    ratios = [sum(x[i] * (inputs[i][j] + wage[i] * labor[j]) for i in sectors) / x[j]
              for j in sectors]
    return min(ratios), max(ratios)


class TestCertificateProperties:
    @settings(max_examples=40, deadline=None)
    @given(economies())
    def test_bracket_overlaps_exact_bracket(self, economy):
        tech, bundle = economy
        eq = uniform_profit_rate(tech, bundle)
        lo, hi = eq.rho_bounds
        assert (hi - lo) / hi <= CW_TOL
        # The exact bracket holds rho for certain; the solver's ratios carry
        # a few ulps of rounding, so the overlap is checked to CW_TOL.
        exact_lo, exact_hi = exact_bracket(tech, bundle)
        assert exact_lo <= Fraction(hi * (1.0 + CW_TOL))
        assert Fraction(lo * (1.0 - CW_TOL)) <= exact_hi

    @settings(max_examples=40, deadline=None)
    @given(economies(), st.integers(-6, 6))
    def test_invariant_under_units(self, economy, k):
        assert_invariant_under_units(economy, k)

    # A two-block draw (coupling 1.4e-7) on which block 2's prices move by
    # 2.3e-13 relative, against a units_bound of 8.9e-12 from its kappa of 49.
    def test_invariant_under_units_on_a_nearly_decomposable_draw(self):
        economy = two_block_economy(
            np.random.default_rng(1219610616), 10.0**-6.845137604422893, 0.9581007372115669
        )
        assert_invariant_under_units(economy, 3)


def perron_condition(tech, bundle):
    """``max_i (p |B#|)_i / p_i`` for the equilibrium prices p and the group
    inverse B# of ``B = I - M/rho`` (Meyer, SIAM J. Matrix Anal. Appl. 15,
    1994), M the wage-augmented matrix.

    ``B# = (B + x y^T)^-1 - x y^T`` for B's right and left null vectors
    with ``y x = 1``: the right Perron vector from numpy's ``eig`` and the
    prices. A row vector r with ``|r| <= d p`` entrywise has
    ``|r B#| <= d p |B#|``, so this number bounds, entry by entry and
    relative to each entry, how far such a perturbation moves the left
    Perron vector.
    """
    matrix = augmented_inputs(tech, bundle)
    equilibrium = uniform_profit_rate(tech, bundle)
    moduli, vectors = np.linalg.eig(matrix)
    right = np.abs(vectors[:, np.argmax(moduli.real)].real)
    prices = equilibrium.prices
    left = prices / float(prices @ right)
    system = np.eye(tech.n) - matrix / equilibrium.spectral_radius
    group = np.linalg.inv(system + np.outer(right, left)) - np.outer(right, left)
    return float(((prices @ np.abs(group)) / prices).max())


def units_bound(tech, bundle):
    """How far each price counted in two unit systems may differ, relative to itself.

    To first order, with u = eps / 2, kappa = perron_condition, z the
    exact left Perron vector and every inequality entrywise:

    * the two matrices: A + b L rounds twice, A + (b 10^-k)(L 10^k) five
      times (10^-k itself is rounded), so ``|dM| <= 7u M = 3.5 eps M``;
      as z > 0, ``|z dM| <= 3.5 eps z M = 3.5 eps rho z``, and z moves by
      ``(z dM / rho) B#`` plus a multiple of z, at most ``3.5 eps kappa``
      of each entry;
    * each solve stops at a Collatz-Wielandt bracket of relative width at
      most CW_TOL, so its vector x has ``|x M - rho x| <= (CW_TOL/2 + n eps)
      rho x`` about the midpoint (n-term products of nonnegative numbers)
      and lies within ``(CW_TOL/2 + n eps) kappa`` of each entry of a
      multiple of z: two solves give ``kappa (CW_TOL + 2 n eps)``;
    * scaling a vector so that its bundle costs one subtracts a weighted
      mean of its entries' relative errors, so at most doubles them, and
      rounds on its own: ``2u`` in ``b 10^-k``, ``n u`` in the cost and u
      in the quotient, ``(n + 2) eps`` for the two solves.

    In all ``c kappa n eps`` with ``c = 2 (5.5 + CW_TOL/eps)`` for any
    n >= 1, plus ``(n + 2) eps``, which alone remains with one sector,
    where the vector is fixed and kappa is 0.
    """
    eps = np.finfo(float).eps
    kappa = perron_condition(tech, bundle)
    return 2.0 * (5.5 + CW_TOL / eps) * kappa * tech.n * eps + (tech.n + 2) * eps


def assert_invariant_under_units(economy, k):
    # L * 10^k with b * 10^-k leaves M unchanged up to rounding: the
    # profit rate stays, and prices are counted in a unit 10^k smaller.
    tech, bundle = economy
    base = uniform_profit_rate(tech, bundle)
    eq = uniform_profit_rate(
        Technology(tech.inputs, tech.labor * 10.0**k),
        WageBundle(bundle.quantities * 10.0**-k),
    )
    # 1 + pi = 1/rho: pi itself loses relative digits to the
    # cancellation in 1/rho - 1 when it is small.
    assert 1.0 + eq.profit_rate == pytest.approx(1.0 + base.profit_rate, rel=1e-14)
    np.testing.assert_allclose(eq.prices, base.prices * 10.0**k, rtol=units_bound(tech, bundle))


# A row that converges in one power step (rank one) and one whose first
# power step does not narrow its bracket tenfold, so its next is shifted.
FAST = np.outer([1.0, 2.0], [0.2, 0.1])
SLOW = np.array([[0.5, 0.1], [0.1, 0.3]])


def assert_rows_match_single(stack):
    """A stacked solve returns, row for row, exactly the single solve."""
    rho, vectors, steps, bounds = _left_perron(stack)
    assert rho.shape == steps.shape == (len(stack),)
    for row, matrix in enumerate(stack):
        one_rho, one_vector, one_steps, one_bounds = _left_perron(matrix[None])
        assert rho[row] == one_rho[0]
        assert np.array_equal(vectors[row], one_vector[0])
        assert steps[row] == one_steps[0]
        assert np.array_equal(bounds[row], one_bounds[0])
    return steps


class TestStackedSolve:
    def test_random_economies(self):
        rng = np.random.default_rng(61)
        for n in range(2, 9):
            economies = [random_economy(rng, n) for _ in range(6)]
            assert_rows_match_single(
                np.stack([augmented_inputs(tech, bundle) for tech, bundle in economies])
            )
            assert_rows_match_single(np.stack([tech.inputs for tech, _ in economies]))

    def test_near_decomposable(self):
        rng = np.random.default_rng(62)
        stack = np.stack(
            [
                augmented_inputs(*two_block_economy(rng, coupling, target))
                for coupling, target in [(1e-9, 0.999), (1e-6, 0.9985), (1e-4, 0.99)]
            ]
        )
        assert_rows_match_single(stack)

    def test_fast_and_slow_rows_together(self):
        # Fast rows converge on power steps and leave the working set
        # while slow rows are still taking shifted steps.
        rng = np.random.default_rng(63)
        fast = [augmented_inputs(*random_economy(rng, 8)) for _ in range(3)]
        slow = [augmented_inputs(*two_block_economy(rng, 1e-9, 0.999)) for _ in range(2)]
        steps = assert_rows_match_single(np.stack([slow[0], *fast, slow[1]]))
        assert max(steps[1:4]) < min(steps[0], steps[4])

    def test_before_and_after_stacked_as_the_verifier_stacks_them(self):
        # The verifier prices its cases before a change over its bundles
        # after it in one call: each side's rows are those of its own call.
        rng = np.random.default_rng(66)
        sides = []
        for n in range(1, 13):
            before = rng.uniform(0.01, 0.3, (3, n, n))
            sides.append((before, before * rng.uniform(0.9, 1.2, (3, n, n))))
        slow = [augmented_inputs(*two_block_economy(rng, coupling, target))
                for coupling, target in [(1e-9, 0.999), (1e-6, 0.9985), (1e-4, 0.99)]]
        fast = [augmented_inputs(*random_economy(rng, 8)) for _ in range(3)]
        sides += [(np.stack(slow[:2]), np.stack(fast)), (np.stack(fast[:1]), np.stack(slow))]
        for before, after in sides:
            merged = np.concatenate((before, after))
            together = _left_perron(merged)
            for rows, alone in ((slice(None, len(before)), _left_perron(before)),
                                (slice(len(before), None), _left_perron(after))):
                for field, part in zip(together, alone):
                    assert np.array_equal(field[rows], part)
            assert_rows_match_single(merged)

    def test_both_loops_give_the_same_bits_around_the_threshold(self):
        # Up to PLAIN_ROWS rows run the plain loop, more the masked one.
        rng = np.random.default_rng(67)
        fast = [augmented_inputs(*random_economy(rng, 6)) for _ in range(PLAIN_ROWS)]
        slow = [augmented_inputs(*two_block_economy(rng, 1e-9, 0.999, size=3))
                for _ in range(PLAIN_ROWS)]
        stack = np.stack([row for pair in zip(fast, slow) for row in pair])
        for k in range(1, 2 * PLAIN_ROWS + 1):
            assert_rows_match_single(stack[:k])
            masked = linear_economy._perron_stack(stack[:k])
            for field, part in zip(_left_perron(stack[:k]), masked):
                assert np.array_equal(field, part)

    def test_one_sector(self):
        stack = np.array([[[0.75]], [[0.2]], [[0.5]]])
        steps = assert_rows_match_single(stack)
        assert not steps.any()
        assert np.array_equal(_left_perron(stack)[0], [0.75, 0.2, 0.5])

    def test_every_row_is_checked(self):
        rng = np.random.default_rng(64)
        good = augmented_inputs(*random_economy(rng, 3))
        with pytest.raises(NoConvergence, match="not positive"):
            _left_perron(np.stack([good, np.zeros((3, 3)), good]))

    def test_zero_second_row_raises_its_own_error(self):
        # The masked loop refuses the stack at its start bracket, so the
        # rows run one at a time and the zero matrix raises as it does alone.
        good = np.array([[0.2, 0.3], [0.4, 0.1]])
        with pytest.raises(NoConvergence) as alone:
            _left_perron(np.zeros((1, 2, 2)))
        with pytest.raises(NoConvergence, match="not positive") as stacked:
            _left_perron(np.stack([good, np.zeros((2, 2))]))
        assert str(stacked.value) == str(alone.value)

    def test_first_failing_row_raises_its_own_error(self):
        # Row 0 fails on its second step, row 1 at the start bracket: the
        # error is row 0's, worded as its solve alone words it.
        first = np.diag([0.5, 0.3])
        with pytest.raises(NoConvergence) as alone:
            _left_perron(first[None])
        with pytest.raises(NoConvergence) as stacked:
            _left_perron(np.stack([first, np.zeros((2, 2))]))
        assert str(stacked.value) == str(alone.value)
        assert str(alone.value) == "shifted solve failed with bracket [0.3, 0.5]"

    # The masked loop's failure exits, on stacks of PLAIN_ROWS rows that
    # converge on power steps alone with the failing row last: the loop
    # refuses the stack, the rows run one at a time, and the failing row
    # raises its own error. Each exit refuses what it checks before any
    # arithmetic on it, so a run warns of nothing. A fake solve stands for
    # a failing shifted step; it fails the test once called ten times, as a
    # loop that missed its exit would call it without end.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("failing, solution, message", [
        (np.zeros((2, 2)), None, "dominant eigenvalue bracket [0.0, 0.0] is not positive"),
        (np.diag([0.5, 0.3]), None, "shifted solve failed with bracket [0.3, 0.5]"),
        (SLOW, [0.0, 1.0], "iterate lost positivity with bracket"),
        (SLOW, [1.0, 1.0], "shifted step did not narrow the bracket"),
    ], ids=["start-bracket", "singular-shift", "positivity", "no-narrowing"])
    def test_masked_loop_refuses_and_the_row_raises_its_own_error(
        self, monkeypatch, failing, solution, message
    ):
        if solution is not None:
            calls = []

            def fake_solve(a, b):
                calls.append(len(a))
                assert len(calls) < 10, "a refused shifted step ran again"
                return np.broadcast_to(solution, b.shape).copy()

            monkeypatch.setattr(linear_economy, "_solve", fake_solve)
        stack = np.stack([FAST] * PLAIN_ROWS + [failing])
        assert linear_economy._perron_stack(stack) is None
        with pytest.raises(NoConvergence) as alone:
            _left_perron(failing[None])
        with pytest.raises(NoConvergence) as stacked:
            _left_perron(stack)
        assert str(stacked.value) == str(alone.value)
        assert str(alone.value).startswith(message)

    def test_group_error_stands_when_every_economy_passes_alone(self, monkeypatch):
        # The group's verification fails, every economy then passes alone:
        # the group's own error is raised.
        records = run_suite(seed=1000, count=20)
        group = [record for record in records if record.n == records[0].n]
        original, alone, error = verify._verify_rows, [], NoConvergence("the group failed")

        def fails_for_groups(inputs, *rest):
            if len(inputs) > 1:
                raise error
            alone.append(inputs[0])
            return original(inputs, *rest)

        monkeypatch.setattr(verify, "_verify_rows", fails_for_groups)
        with pytest.raises(NoConvergence) as excinfo:
            run_suite(seed=1000, count=20)
        assert excinfo.value is error
        assert len(group) > 1 and len(alone) == len(group)
        for inputs, record in zip(alone, group):
            assert np.array_equal(inputs, record.tech.inputs)

    def test_suite_error_names_its_scenario(self, monkeypatch):
        # The verifier gets a heavy change for the marked economies: their
        # patched techniques are not productive, so their size group's
        # verification fails and its economies run again one at a time.
        records = run_suite(seed=1000, count=20)
        group = [record for record in records if record.n == records[0].n]
        assert len(group) >= 3
        original = verify._verify_rows
        marked = []

        def heavy_verify_rows(inputs, labor, values, quantities, sectors, columns, *rest):
            heavy = [any(np.array_equal(a, r.tech.inputs) for r in marked) for a in inputs]
            # A unit more of each input: the sector's own input alone then
            # puts the radius above one.
            columns = columns + np.array(heavy, dtype=float)[:, None]
            return original(inputs, labor, values, quantities, sectors, columns, *rest)

        def error_text(call, *args):
            with pytest.raises(NotProductive) as excinfo:
                call(*args)
            err = excinfo.value
            return str(err) + "".join(getattr(err, "__notes__", []))

        def alone(record):
            bundles = (record.constant_bundle, record.bundle, record.rising_bundle)
            return error_text(
                run_scenarios, record.tech, record.bundle, record.synthesized.change, bundles
            )

        monkeypatch.setattr(verify, "_verify_rows", heavy_verify_rows)
        marked[:] = [group[2]]
        text = alone(group[2])
        sector = group[2].synthesized.sector + 1
        assert f"scenario with {group[2].n} sectors, change in sector {sector}" in text
        assert error_text(run_suite, 1000, 20) == text
        # With two failing economies, the lower index raises.
        marked[:] = [group[2], group[1]]
        assert alone(group[1]) != text
        assert error_text(run_suite, 1000, 20) == alone(group[1])

    def test_record_does_not_depend_on_its_block(self):
        _assert_records_do_not_depend_on_their_block((2, 8))

    def test_wide_record_does_not_depend_on_its_block(self):
        _assert_records_do_not_depend_on_their_block((2, 12))

    def test_block_rule_holds_a_budget_of_entries(self):
        assert [suite_block(n) for n in (2, 8, 12, 16, 50)] == [8192, 512, 227, 128, 128]

    def test_failing_block_yields_none_of_its_records(self, monkeypatch):
        # The group of the second block's last economy samples a negative
        # bundle; another group of that block comes before it.
        block = suite_block(8)
        count = block + 5
        expected = suite_csv(run_suite(seed=1000, count=block))
        original_group, original_sample = verify._sweep_group, verify._sample_rows
        groups, poisoned = [], [False]

        def group(seed, indices, rngs, n):
            groups.append(indices)
            poisoned[0] = count - 1 in indices
            return original_group(seed, indices, rngs, n)

        def sample(regions, seeds, *args, **kwargs):
            sampled = original_sample(regions, seeds, *args, **kwargs)
            if poisoned[0]:
                sampled[0, 0] = -1.0
            return sampled

        monkeypatch.setattr(verify, "_sweep_group", group)
        monkeypatch.setattr(verify, "_sample_rows", sample)
        stream = iter_suite(seed=1000, count=count)
        assert suite_csv(next(stream) for _ in range(block)) == expected
        with pytest.raises(ValueError) as excinfo:
            next(stream)
        assert str(excinfo.value) == "wage bundle quantities must be nonnegative"
        second = [indices for indices in groups if indices[0] >= block]
        assert len(second) > 1 and count - 1 in second[-1] and block in second[0]


def _assert_records_do_not_depend_on_their_block(n_range):
    # suite_block + 5 economies span two blocks; the first 20 share their
    # block with different economies in the two runs.
    longer = run_suite(seed=1000, count=suite_block(n_range[1]) + 5, n_range=n_range)
    shorter = run_suite(seed=1000, count=20, n_range=n_range)
    assert suite_csv(longer[:20]) == suite_csv(shorter)
    for a, b in zip(longer, shorter):
        for report in ("scenario", "okishio", "rising"):
            for name in ("pre_prices", "post_prices", "post_values"):
                assert np.array_equal(
                    getattr(getattr(a, report), name), getattr(getattr(b, report), name)
                )
    # No record keeps a view into its block's stacks.
    assert all(array.base is None for array in _arrays(longer[0]))


def _arrays(obj):
    """Every array reachable through an object's dataclass fields."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _arrays(item)
    elif dataclasses.is_dataclass(obj):
        for field in dataclasses.fields(obj):
            yield from _arrays(getattr(obj, field.name))
