"""Long-run equilibrium: production prices and the uniform profit rate.

With the wage advanced as a bundle of goods, wage costs become input
costs and the relevant matrix is ``inputs + outer(bundle, labor)``: each
column augments a sector's recipe with the goods its workers consume.
Prices of production are a positive left eigenvector of that matrix for
its dominant eigenvalue ``rho``, and the uniform profit rate is
``1/rho - 1``. Prices are normalized so the wage bundle costs exactly
one, which makes the nominal wage the unit of account.

The eigenpair is found by power iteration on the transpose with
infinity-norm renormalization and a Rayleigh-quotient stopping rule;
the returned residual certifies the fixed point independently of the
iteration count.
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

RQ_TOL = 1e-13
ITERATION_CAP = 10_000
DEFAULT_RESIDUAL_TOL = 1e-9
# Strictness margin for price-value ratio, cost and elementwise comparisons.
STRICT_MARGIN = 1e-12


@dataclass(frozen=True, eq=False)
class Equilibrium:
    """Prices of production with their supporting eigendata.

    ``residual`` is the infinity norm of ``p - (1 + pi) p M`` where M is
    the wage-augmented input matrix; it bounds how far the reported
    prices are from an exact fixed point.
    """

    prices: np.ndarray
    profit_rate: float
    spectral_radius: float
    residual: float

    def to_json_dict(self) -> dict:
        return {
            "pi": self.profit_rate,
            "p": [float(x) for x in self.prices],
            "rho": self.spectral_radius,
            "residual": self.residual,
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


def _left_perron(matrix: np.ndarray) -> tuple[float, np.ndarray]:
    """Dominant eigenvalue and positive left eigenvector by power iteration.

    Iterates on the transpose, renormalizing by the infinity norm.
    Stops when the Rayleigh quotient settles below RQ_TOL and the
    iterate's own eigen-residual is at machine scale.
    """
    transposed = matrix.T.copy()
    vec = np.ones(matrix.shape[0])
    rq_prev = np.inf
    for _ in range(ITERATION_CAP):
        image = transposed @ vec
        rq = float((vec @ image) / (vec @ vec))
        if (
            abs(rq - rq_prev) < RQ_TOL
            and float(np.max(np.abs(image - rq * vec))) <= 1e-12 * float(np.max(np.abs(vec)))
        ):
            return rq, vec
        norm = float(np.max(np.abs(image)))
        if norm == 0.0:
            raise NoConvergence("power iteration collapsed to the zero vector")
        vec = image / norm
        rq_prev = rq
    raise NoConvergence(
        f"power iteration did not meet tolerance {RQ_TOL:g} within {ITERATION_CAP} steps"
    )


def uniform_profit_rate(
    tech: Technology,
    bundle: WageBundle,
    residual_tol: float = DEFAULT_RESIDUAL_TOL,
) -> Equilibrium:
    """Solve for prices of production and the uniform profit rate.

    Args:
        tech: validated production data.
        bundle: wage bundle, also the price normalizer (bundle costs one).
        residual_tol: acceptance bound on the fixed-point residual.

    Returns:
        Equilibrium with strictly positive prices.

    Raises:
        NoConvergence: iteration cap hit or the residual check failed.
        DegenerateNormalization: the bundle has zero cost at the raw
            eigenvector, so prices cannot be scaled to it.
    """
    if bundle.n != tech.n:
        raise ValueError(
            f"wage bundle length {bundle.n} does not match {tech.n} sectors"
        )
    augmented = augmented_inputs(tech, bundle)
    rho, raw = _left_perron(augmented)
    if rho <= 0:
        raise NoConvergence(f"dominant eigenvalue {rho:.3e} is not positive")
    if raw[np.argmax(np.abs(raw))] < 0:
        raw = -raw
    if np.any(raw <= 0):
        raise NoConvergence("left eigenvector is not strictly positive")
    cost = float(raw @ bundle.quantities)
    if abs(cost) <= 1e-14:
        raise DegenerateNormalization("wage bundle has zero cost at the eigenvector")
    prices = raw / cost
    profit = 1.0 / rho - 1.0
    residual = float(np.max(np.abs(prices - (1.0 + profit) * (prices @ augmented))))
    if residual > residual_tol:
        raise NoConvergence(
            f"equilibrium residual {residual:.3e} exceeds tolerance {residual_tol:.3e}"
        )
    return Equilibrium(prices, profit, rho, residual)


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
