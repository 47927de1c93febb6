"""Core data model for an n-sector circulating-capital economy.

Conventions used throughout the package:

* ``inputs`` is the square matrix of produced-goods requirements. Column i
  is sector i's recipe: entry (j, i) is the amount of good j used up to
  produce one unit of good i. All capital circulates (no fixed capital,
  no joint production).
* ``labor`` is the row vector of direct labor per unit of output.
* A wage bundle is the basket of goods a worker receives per unit of
  labor performed. Workers spend the whole wage on the bundle.
* Labor values solve ``values = values @ inputs + labor``, i.e. the total
  labor embodied in one unit of each good.

An economy is accepted only if the input matrix is productive (spectral
radius strictly below one) and the input graph is strongly connected, so
every good enters every other good's production at least indirectly.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    Decomposable,
    NegativeExploitationWarning,
    NonPositiveValue,
    NotProductive,
    SingularSystem,
)

# Margin by which the spectral radius must stay below one.
PRODUCTIVITY_MARGIN = 1e-12
# Entries at or below this are treated as structural zeros of the input graph.
ZERO_PATTERN_TOL = 1e-14
# Acceptable residual for the value-accounting system.
VALUE_RESIDUAL_TOL = 1e-10


def _as_readonly(values, *, ndim: int) -> np.ndarray:
    arr = np.array(values, dtype=float, copy=True)
    if arr.ndim != ndim:
        raise ValueError(f"expected a {ndim}-dimensional array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("array entries must be finite")
    arr.setflags(write=False)
    return arr


def _reachable(adjacency: np.ndarray, start: int) -> np.ndarray:
    """Boolean reachability from ``start`` following directed edges."""
    seen = np.zeros(adjacency.shape[0], dtype=bool)
    frontier = seen.copy()
    frontier[start] = True
    while frontier.any():
        seen |= frontier
        frontier = adjacency[frontier].any(axis=0) & ~seen
    return seen


def _strongly_connected(inputs: np.ndarray) -> bool:
    # Edge i -> j when good i enters sector j's recipe.
    adjacency = inputs > ZERO_PATTERN_TOL
    return bool(_reachable(adjacency, 0).all() and _reachable(adjacency.T, 0).all())


@dataclass(frozen=True, eq=False)
class ProductivityDiagnosis:
    """Outcome of the viability screen applied to an input matrix."""

    spectral_radius: float
    strongly_connected: bool
    passed: bool

    def require_passed(self) -> None:
        """Raise Decomposable or NotProductive unless the screen passed."""
        if not self.strongly_connected:
            raise Decomposable(
                "economy is decomposable: sector input graph is not strongly connected"
            )
        if not self.passed:
            raise NotProductive(
                "input matrix is not productive: spectral radius "
                f"{self.spectral_radius:.6f} is not below 1"
            )


def check_productive_indecomposable(inputs) -> ProductivityDiagnosis:
    """Diagnose whether an input matrix describes an acceptable economy.

    Accepts a raw square array (or anything array-like). Returns the
    spectral radius, a strong-connectivity verdict, and the combined
    pass flag; never raises on failure.
    """
    arr = np.asarray(inputs, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"input matrix must be square, got shape {arr.shape}")
    rho = float(np.max(np.abs(np.linalg.eigvals(arr))))
    connected = _strongly_connected(arr)
    passed = connected and rho < 1.0 - PRODUCTIVITY_MARGIN
    return ProductivityDiagnosis(rho, connected, passed)


@dataclass(frozen=True, eq=False)
class Technology:
    """An immutable (inputs, labor) pair describing production.

    Construction certifies nonnegative inputs, strictly positive direct
    labor, productivity, and indecomposability, or raises. It keeps the
    screen's ``spectral_radius`` so nothing runs the eigensolver again.
    """

    inputs: np.ndarray
    labor: np.ndarray
    spectral_radius: float = field(init=False)

    def __post_init__(self):
        inputs = _as_readonly(self.inputs, ndim=2)
        labor = _as_readonly(self.labor, ndim=1)
        if labor.shape[0] != inputs.shape[0]:
            raise ValueError(
                f"labor vector length {labor.shape[0]} does not match "
                f"{inputs.shape[0]} sectors"
            )
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "labor", labor)
        if np.any(inputs < 0):
            raise ValueError("input matrix must be nonnegative")
        if np.any(labor <= 0):
            raise ValueError("labor vector must be strictly positive")
        diagnosis = check_productive_indecomposable(inputs)
        diagnosis.require_passed()
        object.__setattr__(self, "spectral_radius", diagnosis.spectral_radius)

    @property
    def n(self) -> int:
        return self.inputs.shape[0]

    def input_column(self, sector: int) -> np.ndarray:
        """Recipe of produced inputs for one sector."""
        return self.inputs[:, sector]


@dataclass(frozen=True, eq=False)
class WageBundle:
    """Goods received per unit of labor. Nonnegative, not identically zero."""

    quantities: np.ndarray

    def __post_init__(self):
        quantities = _as_readonly(self.quantities, ndim=1)
        if np.any(quantities < 0):
            raise ValueError("wage bundle quantities must be nonnegative")
        if not np.any(quantities > 0):
            raise ValueError("wage bundle must contain at least one positive quantity")
        object.__setattr__(self, "quantities", quantities)

    @property
    def n(self) -> int:
        return self.quantities.shape[0]


@dataclass(frozen=True, eq=False)
class ValueSystem:
    """Labor values together with the worth of the wage bundle."""

    values: np.ndarray
    bundle_value: float
    exploitation: float


def labor_values(tech: Technology) -> np.ndarray:
    """Solve the value-accounting system ``values (I - inputs) = labor``.

    Returns the vector of total (direct plus indirect) labor embodied in
    one unit of each good. Raises SingularSystem if the solve fails or
    leaves a residual above VALUE_RESIDUAL_TOL.
    """
    n = tech.n
    system = np.eye(n) - tech.inputs.T
    try:
        values = np.linalg.solve(system, tech.labor)
    except np.linalg.LinAlgError as err:
        raise SingularSystem(f"value accounting system is singular: {err}") from err
    residual = float(np.max(np.abs(values @ (np.eye(n) - tech.inputs) - tech.labor)))
    if residual > VALUE_RESIDUAL_TOL:
        raise SingularSystem(
            f"value accounting residual {residual:.3e} exceeds {VALUE_RESIDUAL_TOL:.0e}"
        )
    return values


def value_of_bundle(values: np.ndarray, bundle: WageBundle) -> float:
    """Labor value of one wage bundle."""
    values = np.asarray(values, dtype=float)
    if values.shape != bundle.quantities.shape:
        raise ValueError(
            f"values of length {values.shape[0]} cannot price a bundle of "
            f"length {bundle.n}"
        )
    return float(values @ bundle.quantities)


def exploitation_rate(bundle_value: float) -> float:
    """Unpaid over paid labor: ``(1 - bundle_value) / bundle_value``.

    The bundle value is labor received per unit of labor performed, so it
    must be positive. A value above one whole day makes the rate negative;
    that is flagged with NegativeExploitationWarning rather than rejected.
    """
    if bundle_value <= 0:
        raise NonPositiveValue(f"bundle value must be positive, got {bundle_value}")
    rate = (1.0 - bundle_value) / bundle_value
    if rate < 0:
        warnings.warn(
            f"bundle value {bundle_value:.6g} exceeds one working day; "
            "exploitation rate is negative",
            NegativeExploitationWarning,
            stacklevel=2,
        )
    return rate


def value_system(tech: Technology, bundle: WageBundle) -> ValueSystem:
    """Labor values, bundle value, and exploitation rate in one pass."""
    values = labor_values(tech)
    bundle_value = value_of_bundle(values, bundle)
    return ValueSystem(values, bundle_value, exploitation_rate(bundle_value))


def load_economy(path) -> tuple[Technology, WageBundle]:
    """Read a ``{"A": ..., "L": ..., "b": ...}`` JSON file.

    "A" is the row-major input matrix (column i = sector i's recipe),
    "L" the direct labor vector, "b" the wage bundle.
    """
    with open(path, encoding="utf-8") as handle:
        raw = json.load(handle)
    for key in ("A", "L", "b"):
        if key not in raw:
            raise ValueError(f"economy file is missing key '{key}'")
    tech = Technology(np.array(raw["A"], dtype=float), np.array(raw["L"], dtype=float))
    bundle = WageBundle(np.array(raw["b"], dtype=float))
    if bundle.n != tech.n:
        raise ValueError(
            f"wage bundle length {bundle.n} does not match {tech.n} sectors"
        )
    return tech, bundle


def economy_payload(tech: Technology, bundle: WageBundle) -> dict:
    return {
        "A": [[float(x) for x in row] for row in tech.inputs],
        "L": [float(x) for x in tech.labor],
        "b": [float(x) for x in bundle.quantities],
    }


def save_economy(path, tech: Technology, bundle: WageBundle) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(economy_payload(tech, bundle), handle, indent=2)
        handle.write("\n")


def load_wage(path) -> WageBundle:
    """Read a ``{"b": [...]}`` JSON file."""
    with open(path, encoding="utf-8") as handle:
        raw = json.load(handle)
    if "b" not in raw:
        raise ValueError("wage file is missing key 'b'")
    return WageBundle(np.array(raw["b"], dtype=float))


def wage_payload(bundle: WageBundle) -> dict:
    return {"b": [float(x) for x in bundle.quantities]}


def save_wage(path, bundle: WageBundle) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(wage_payload(bundle), handle, indent=2)
        handle.write("\n")
