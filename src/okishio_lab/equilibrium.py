"""Long-run equilibrium: production prices and the uniform profit rate.

With the wage advanced as a bundle of goods, wage costs become input
costs and the relevant matrix is ``inputs + outer(bundle, labor)``: each
column augments a sector's recipe with the goods its workers consume.
Prices of production are a positive left eigenvector of that matrix for
its dominant eigenvalue ``rho``, and the uniform profit rate is
``1/rho - 1``. Prices are normalized so the wage bundle costs exactly
one, which makes the nominal wage the unit of account.

The eigenpair is found on the transpose ``T`` from the positive start
``x = 1``. Every iterate carries a Collatz–Wielandt bracket
``min_i (Tx)_i/x_i <= rho <= max_i (Tx)_i/x_i`` (Meyer, *Matrix
Analysis*, ch. 8), and the solver stops when its relative width is at
most CW_TOL. Plain power steps are taken while each shrinks the width
at least tenfold; from the first that does not, Noda's shifted inverse
iteration (Numer. Math. 17, 1971) takes over, which converges
quadratically however close the second eigenvalue is to ``rho``. The
bracket does not depend on the units of goods or labor, and neither
does the returned residual, which is measured relative to the largest
price.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateNormalization, NoConvergence
from .linear_economy import (
    Technology,
    WageBundle,
    labor_values,
    value_of_bundle,
)

# Relative width of the Collatz–Wielandt bracket at which the solver stops.
CW_TOL = 1e-14
DEFAULT_RESIDUAL_TOL = 1e-9
# Strictness margin for price-value ratio, cost and elementwise comparisons.
STRICT_MARGIN = 1e-12


@dataclass(frozen=True, eq=False)
class Equilibrium:
    """Prices of production with their supporting eigendata.

    ``residual`` is the infinity norm of ``p - (1 + pi) p M`` divided by
    that of ``p``, where M is the wage-augmented input matrix; it bounds
    how far the reported prices are from an exact fixed point in any
    units. ``rho_bounds`` is the final Collatz–Wielandt bracket on the
    spectral radius of M and ``iterations`` the number of power and
    shifted steps taken to reach it.
    """

    prices: np.ndarray
    profit_rate: float
    spectral_radius: float
    residual: float
    iterations: int
    rho_bounds: tuple[float, float]

    def to_json_dict(self) -> dict:
        return {
            "pi": self.profit_rate,
            "p": [float(x) for x in self.prices],
            "rho": self.spectral_radius,
            "residual": self.residual,
            "iterations": self.iterations,
            "rho_bounds": list(self.rho_bounds),
        }


@dataclass(frozen=True, eq=False)
class WageAdmissibility:
    """Screens a wage bundle for the constructions used downstream.

    ``nonnegative_surplus``: the bundle's labor value lies in (0, 1], so
    workers are not paid more than a whole day's labor.
    ``ratio_headroom``: some sector's price-value ratio strictly exceeds
    the reciprocal bundle value (equivalently, exceeds one plus the
    exploitation rate). Equal organic compositions fail this.
    """

    nonnegative_surplus: bool
    ratio_headroom: bool
    max_ratio: float
    max_ratio_sector: int

    @property
    def admissible(self) -> bool:
        return self.nonnegative_surplus and self.ratio_headroom


def augmented_inputs(tech: Technology, bundle: WageBundle) -> np.ndarray:
    """Input matrix with wage goods folded into each sector's recipe."""
    return tech.inputs + np.outer(bundle.quantities, tech.labor)


def _left_perron(
    matrix: np.ndarray,
) -> tuple[float, np.ndarray, int, tuple[float, float]]:
    """Dominant eigenvalue and positive left eigenvector, with its certificate.

    Iterates on ``T = matrix.T`` from ``x = 1``, renormalizing by the
    largest entry. Each iterate's Collatz–Wielandt bracket ``[lo, hi]``
    contains the spectral radius; the loop stops once
    ``(hi - lo) / hi <= CW_TOL``. Power steps ``x <- Tx`` are kept while
    each shrinks that relative width at least tenfold, so a fast-mixing
    matrix never factorizes. From the first power step that does not,
    every step is Noda's: solve ``(hi I - T) z = x``. Since ``hi >= rho``
    the shifted matrix is an M-matrix and ``z`` stays positive. A shifted
    step that does not shrink the width, a failed solve or an iterate
    that is not strictly positive raises NoConvergence. The width starts
    below one, so there are at most 14 power steps before the switch.

    Returns the bracket's midpoint, the iterate it certifies, the number
    of steps and the bracket.
    """
    transposed = matrix.T
    n = transposed.shape[0]
    vec = np.ones(n)
    image = transposed @ vec
    lo, hi = float(image.min()), float(image.max())
    if not hi > 0.0:
        raise NoConvergence(f"dominant eigenvalue bracket [{lo!r}, {hi!r}] is not positive")
    width = (hi - lo) / hi
    steps, shifted = 0, False
    while not width <= CW_TOL:
        if shifted:
            # Solved in the iterate's own scale, D^-1 (hi I - T) D with
            # D = diag(vec), so rounding stays relative to each entry.
            # Built in place: one n x n array besides the solver's copy.
            system = transposed * vec
            system /= -vec[:, None]
            system.flat[:: n + 1] += hi
            try:
                step = vec * np.linalg.solve(system, np.ones(n))
            except np.linalg.LinAlgError as err:
                raise NoConvergence(
                    f"shifted solve failed with bracket [{lo!r}, {hi!r}]"
                ) from err
        else:
            step = image
        step = step / step.max()
        if not step.min() > 0.0:
            raise NoConvergence(f"iterate lost positivity with bracket [{lo!r}, {hi!r}]")
        image = transposed @ step
        ratios = image / step
        lo, hi = float(ratios.min()), float(ratios.max())
        new_width = (hi - lo) / hi
        if shifted and not new_width < width:
            raise NoConvergence(f"shifted step did not narrow the bracket [{lo!r}, {hi!r}]")
        shifted = shifted or not new_width <= 0.1 * width
        vec, width = step, new_width
        steps += 1
    return 0.5 * (lo + hi), vec, steps, (lo, hi)


def uniform_profit_rate(
    tech: Technology,
    bundle: WageBundle,
    residual_tol: float = DEFAULT_RESIDUAL_TOL,
) -> Equilibrium:
    """Solve for prices of production and the uniform profit rate.

    Args:
        tech: validated production data.
        bundle: wage bundle, also the price normalizer (bundle costs one).
        residual_tol: acceptance bound on the fixed-point residual,
            relative to the largest price.

    Returns:
        Equilibrium with strictly positive prices.

    Raises:
        NoConvergence: the Collatz–Wielandt bracket could not be
            narrowed to CW_TOL, or the residual check failed.
        DegenerateNormalization: the bundle has zero cost at the raw
            eigenvector, so prices cannot be scaled to it.
    """
    if bundle.n != tech.n:
        raise ValueError(
            f"wage bundle length {bundle.n} does not match {tech.n} sectors"
        )
    augmented = augmented_inputs(tech, bundle)
    rho, raw, steps, bounds = _left_perron(augmented)
    cost = float(raw @ bundle.quantities)
    # raw is strictly positive and the bundle nonzero, so only underflow
    # leaves the bundle without a price.
    if not cost > 0.0:
        raise DegenerateNormalization("wage bundle has zero cost at the eigenvector")
    prices = raw / cost
    profit = 1.0 / rho - 1.0
    image = (1.0 + profit) * (prices @ augmented)
    scale = float(np.max(prices))
    residual = float(np.max(np.abs(prices - image))) / scale
    # Evaluating the residual rounds each entry by up to about n + 1 ulps
    # of the image, so no tolerance below that can be certified.
    rounding = (tech.n + 1) * np.finfo(float).eps * float(np.max(image)) / scale
    if residual + rounding > residual_tol:
        raise NoConvergence(
            f"equilibrium residual {residual:.3e} (rounding {rounding:.1e}) "
            f"exceeds tolerance {residual_tol:.3e}"
        )
    return Equilibrium(prices, profit, rho, residual, steps, bounds)


def max_profit_rate(tech: Technology) -> float:
    """Profit rate at a zero wage: ``1/spectral_radius(inputs) - 1``."""
    if tech.spectral_radius == 0.0:
        return float("inf")
    return 1.0 / tech.spectral_radius - 1.0


def admissibility(
    prices: np.ndarray, values: np.ndarray, bundle_value: float
) -> WageAdmissibility:
    """Admissibility flags from already-computed prices and values."""
    ratios = np.asarray(prices, dtype=float) / np.asarray(values, dtype=float)
    sector = int(np.argmax(ratios))
    max_ratio = float(ratios[sector])
    surplus_ok = 0.0 < bundle_value <= 1.0
    headroom = surplus_ok and max_ratio > 1.0 / bundle_value + STRICT_MARGIN
    return WageAdmissibility(surplus_ok, headroom, max_ratio, sector)


def check_wage_admissibility(tech: Technology, bundle: WageBundle) -> WageAdmissibility:
    """Solve the economy and screen its wage bundle.

    Ties are broken toward the lowest sector index when several sectors
    share the maximal price-value ratio.
    """
    equilibrium = uniform_profit_rate(tech, bundle)
    values = labor_values(tech)
    bundle_value = value_of_bundle(values, bundle)
    return admissibility(equilibrium.prices, values, bundle_value)
