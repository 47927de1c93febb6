"""Long-run equilibrium: production prices and the uniform profit rate.

With the wage advanced as a bundle of goods, wage costs become input
costs and the relevant matrix is ``inputs + outer(bundle, labor)``: each
column augments a sector's recipe with the goods its workers consume.
Prices of production are a positive left eigenvector of that matrix for
its dominant eigenvalue ``rho``, and the uniform profit rate is
``1/rho - 1``. Prices are normalized so the wage bundle costs exactly
one, which makes the nominal wage the unit of account.

The eigenpair is found by ``linear_economy._left_perron``, which also
measures the input matrix's own radius, on the transpose ``T`` from the
positive start ``x = 1``. Every iterate carries a Collatz–Wielandt bracket
``min_i (Tx)_i/x_i <= rho <= max_i (Tx)_i/x_i`` (Meyer, *Matrix
Analysis*, ch. 8), and the solver stops when its relative width is at
most CW_TOL. Plain power steps are taken while each shrinks the width
at least tenfold; from the first that does not, Noda's shifted inverse
iteration (Numer. Math. 17, 1971) takes over, which converges
quadratically however close the second eigenvalue is to ``rho``. The
bracket does not depend on the units of goods or labor, and neither
does the returned residual, which is measured relative to the largest
price.

``solve_equilibria`` prices many economies at once: the matrices of one
size form a ``(k, n, n)`` stack, and ``_left_perron`` runs its plain
loop for one row and a masked loop over stacked products and solves
for more. Each row takes the same steps with the same arithmetic
either way, so an equilibrium does not depend on what was solved
beside it. ``uniform_profit_rate`` is its one-row case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateNormalization, NoConvergence
from .linear_economy import CW_TOL, Technology, WageBundle, _left_perron

DEFAULT_RESIDUAL_TOL = 1e-9
_EPS = float(np.finfo(float).eps)
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
    if bundle.n != tech.n:
        raise ValueError(
            f"wage bundle length {bundle.n} does not match {tech.n} sectors"
        )
    return tech.inputs + np.outer(bundle.quantities, tech.labor)


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
    return solve_equilibria([(tech, bundle)], residual_tol)[0]


def solve_equilibria(
    systems, residual_tol: float = DEFAULT_RESIDUAL_TOL
) -> list[Equilibrium]:
    """``uniform_profit_rate`` for each ``(tech, bundle)`` pair, in order.

    The wage-augmented matrices of all pairs with the same number of
    sectors go to ``_left_perron`` as one stack, so the number of solver
    calls grows with the number of distinct sizes, not of pairs. Each
    certified row is then priced on its own by ``_equilibrium``, so an
    equilibrium does not depend on the pairs solved beside it. A pair
    that fails raises what ``uniform_profit_rate`` raises for it.
    """
    by_size: dict[int, list[int]] = {}
    for index, (tech, _) in enumerate(systems):
        by_size.setdefault(tech.n, []).append(index)
    solved: list = [None] * len(systems)
    for rows in by_size.values():
        pairs = [systems[index] for index in rows]
        stack = np.array([augmented_inputs(tech, bundle) for tech, bundle in pairs])
        certified = zip(rows, pairs, stack, *_left_perron(stack))
        for index, (_, bundle), augmented, rho, raw, steps, bounds in certified:
            solved[index] = _equilibrium(
                augmented, bundle, float(rho), raw, int(steps), tuple(bounds.tolist()),
                residual_tol,
            )
    return solved


def _equilibrium(
    augmented: np.ndarray,
    bundle: WageBundle,
    rho: float,
    raw: np.ndarray,
    steps: int,
    bounds: tuple[float, float],
    residual_tol: float,
) -> Equilibrium:
    """Prices from one certified eigenvector: normalize, then check the residual.

    Row by row, with 1-d products: a stacked product need not round as
    the single one does.
    """
    cost = float(raw @ bundle.quantities)
    # raw is strictly positive and the bundle nonzero, so only underflow
    # leaves the bundle without a price.
    if not cost > 0.0:
        raise DegenerateNormalization("wage bundle has zero cost at the eigenvector")
    prices = raw / cost
    profit = 1.0 / rho - 1.0
    image = (1.0 + profit) * (prices @ augmented)
    scale = float(prices.max())
    residual = float(np.abs(prices - image).max()) / scale
    # Evaluating the residual rounds each entry by up to about n + 1 ulps
    # of the image, so no tolerance below that can be certified.
    rounding = (bundle.n + 1) * _EPS * float(image.max()) / scale
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
