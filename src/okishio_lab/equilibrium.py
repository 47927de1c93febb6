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
most ``tolerances.CW_TOL``. Plain power steps are taken while each
shrinks the width at least tenfold; from the first that does not, Noda's
shifted inverse iteration (Numer. Math. 17, 1971) takes over, which
converges quadratically however close the second eigenvalue is to
``rho``. The bracket does not depend on the units of goods or labor, and
neither does the returned residual, which is measured relative to the
largest price. The bracket also bounds that residual: for prices from an
iterate whose bracket has relative width ``w``, it is at most ``w/2``
plus a few ulps per sector of rounding. A solve is rejected only if its
residual exceeds the fixed ``tolerances.RESIDUAL_TOL``, far above that
bound, so it guards the solver's arithmetic and leaves no tolerance to choose.

``_price_rows`` prices a ``(k, n, n)`` stack of economies of one size:
``_left_perron`` runs its plain loop a row at a time on a stack of up to
``PLAIN_ROWS`` rows and a masked loop over stacked products and solves
on a taller one, and the normalization and residual are array
expressions that round as the 1-d products do. So an equilibrium does
not depend on what was solved beside it. ``uniform_profit_rate`` is its
one-row call; the sweep's draw calls it on whole stacks, and the
verifier once per call on the equilibria before and after the change
stacked together.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateNormalization, NoConvergence
from .linear_economy import (
    Technology, WageBundle, _dots, _left_perron, _require, _require_fit, _sector_max
)
from .tolerances import RESIDUAL_TOL, strictly_above


@dataclass(frozen=True, eq=False)
class Equilibrium:
    """Prices of production with their supporting eigendata.

    ``residual`` is the infinity norm of ``p - p M / rho`` divided by
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
        return self.nonnegative_surplus & self.ratio_headroom


def augmented_inputs(tech: Technology, bundle: WageBundle) -> np.ndarray:
    """Input matrix with wage goods folded into each sector's recipe."""
    _require_fit(tech.n, (bundle,))
    return _augmented(tech.inputs[None], tech.labor[None], bundle.quantities[None])[0]


def _augmented(inputs, labor, quantities, out=None) -> np.ndarray:
    """``augmented_inputs`` for ``(k, n, n)`` inputs, ``(k, n)`` labor and bundles,
    written to ``out`` if given.

    The wage goods are added to the inputs in place of a third stack; the
    sum is the same either way round.
    """
    augmented = np.multiply(quantities[:, :, None], labor[:, None, :], out=out)
    augmented += inputs
    return augmented


# _price_rows' equilibria, an Equilibrium's fields one row each, and the
# cost of each row's bundle at its eigenvector.
_Prices = namedtuple("_Prices", "prices profit rho residual steps bounds cost")


def _price_rows(augmented: np.ndarray, quantities: np.ndarray) -> _Prices:
    """Prices of each row of a ``(k, n, n)`` augmented stack, scaled so that
    its bundle costs one; ``_check_prices`` raises a failed row's error."""
    rho, raw, steps, bounds = _left_perron(augmented)
    cost = _dots(raw, quantities)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        prices = raw / cost[:, None]
        profit = 1.0 / rho - 1.0
        # pM/rho, not (1 + profit) pM: when rho >> 1, 1 + (1/rho - 1) would
        # lose about log10(rho) digits and the residual with them.
        image = (prices[:, None, :] @ augmented)[:, 0, :] / rho[:, None]
        residual = _sector_max(np.abs(prices - image)) / _sector_max(prices)
    return _Prices(prices, profit, rho, residual, steps, bounds, cost)


def _check_prices(priced: _Prices) -> None:
    """``_require`` on each row's bundle cost, then its residual; a bundle
    lacks a price only by underflow, raw being positive. NaN fails too."""
    _require([
        (priced.cost > 0.0,
         lambda row: DegenerateNormalization("wage bundle has zero cost at the eigenvector")),
        (priced.residual <= RESIDUAL_TOL, lambda row: NoConvergence(
            f"equilibrium residual {priced.residual[row]:.3e} exceeds {RESIDUAL_TOL:.0e}")),
    ])


def uniform_profit_rate(tech: Technology, bundle: WageBundle) -> Equilibrium:
    """Prices of production and the uniform profit rate: ``_price_rows`` on one row.

    Args:
        tech: validated production data.
        bundle: wage bundle, also the price normalizer (bundle costs one).

    Returns:
        Equilibrium with strictly positive prices.

    Raises:
        NoConvergence: the Collatz–Wielandt bracket could not be
            narrowed to CW_TOL, or the residual exceeds RESIDUAL_TOL.
        DegenerateNormalization: the bundle has zero cost at the raw
            eigenvector, so prices cannot be scaled to it.
    """
    priced = _price_rows(augmented_inputs(tech, bundle)[None], bundle.quantities[None])
    _check_prices(priced)
    profit, rho, residual, steps = (field.item() for field in priced[1:5])
    return Equilibrium(priced.prices[0].copy(), profit, rho, residual, steps,
                       tuple(priced.bounds[0].tolist()))


def max_profit_rate(tech: Technology) -> float:
    """Profit rate at a zero wage: ``1/spectral_radius(inputs) - 1``."""
    if tech.spectral_radius == 0.0:
        return float("inf")
    return 1.0 / tech.spectral_radius - 1.0


def admissibility(prices, values, bundle_value) -> WageAdmissibility:
    """Admissibility flags from already-computed prices and values: of one
    economy, or of ``(k, n)`` stacks with ``(k,)`` bundle values, row by row."""
    ratios = np.divide(prices, values)
    max_ratio, sector = ratios.max(axis=-1), ratios.argmax(axis=-1)
    surplus_ok = (0.0 < bundle_value) & (bundle_value <= 1.0)
    with np.errstate(divide="ignore"):
        headroom = surplus_ok & strictly_above(max_ratio, np.divide(1.0, bundle_value))
    if ratios.ndim > 1:
        return WageAdmissibility(surplus_ok, headroom, max_ratio, sector)
    return WageAdmissibility(bool(surplus_ok), bool(headroom), float(max_ratio), int(sector))
