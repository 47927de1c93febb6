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

An economy is accepted only if the input graph is strongly connected, so
every good enters every other good's production at least indirectly, and
the input matrix is productive (spectral radius strictly below one).
Productivity is certified by the value solve itself (Hawkins & Simon,
*Econometrica* 1949): for positive labor and an irreducible matrix, a
solution ``values > 0`` of ``values (I - inputs) = labor`` proves the
radius is below one, and ``max_i (values @ inputs)_i / values_i`` bounds
it from above (Collatz–Wielandt; Meyer, *Matrix Analysis*, ch. 8). Only
when that certificate fails is the radius itself measured, by
``_left_perron``, which also solves the price system in ``equilibrium``.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    Decomposable,
    NegativeExploitationWarning,
    NoConvergence,
    NonPositiveValue,
    NotProductive,
    SingularSystem,
)

# Margin by which the spectral radius must stay below one.
PRODUCTIVITY_MARGIN = 1e-12
# Entries at or below this are treated as structural zeros of the input graph.
ZERO_PATTERN_TOL = 1e-14
# Acceptable residual for the value-accounting system, relative to the
# largest value.
VALUE_RESIDUAL_TOL = 1e-10
# Relative width of the Collatz–Wielandt bracket at which _left_perron stops.
CW_TOL = 1e-14


def _as_readonly(values, *, ndim: int) -> np.ndarray:
    arr = np.array(values, dtype=float, copy=True)
    if arr.ndim != ndim:
        raise ValueError(f"expected a {ndim}-dimensional array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("array entries must be finite")
    arr.setflags(write=False)
    return arr


def _require_square(inputs: np.ndarray) -> None:
    if inputs.ndim != 2 or inputs.shape[0] != inputs.shape[1]:
        raise ValueError(f"input matrix must be square, got shape {inputs.shape}")
    if not inputs.size:
        raise ValueError("input matrix must have at least one sector")


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


def _left_perron(
    matrix: np.ndarray,
) -> tuple[float, np.ndarray, int, tuple[float, float]]:
    """Dominant eigenvalue and positive left eigenvector, with its certificate.

    ``matrix`` must be nonnegative and irreducible. Iterates on
    ``T = matrix.T`` from ``x = 1``, renormalizing by the largest entry.
    Each iterate's Collatz–Wielandt bracket ``[lo, hi]`` contains the
    spectral radius; the loop stops once ``(hi - lo) / hi <= CW_TOL``.
    Power steps ``x <- Tx`` are kept while each shrinks that relative
    width at least tenfold, so a fast-mixing matrix never factorizes.
    From the first power step that does not, every step is Noda's: solve
    ``(hi I - T) z = x``. Since ``hi >= rho`` the shifted matrix is an
    M-matrix and ``z`` stays positive. A shifted step that does not
    shrink the width, a failed solve or an iterate that is not strictly
    positive raises NoConvergence. The width starts below one, so there
    are at most 14 power steps before the switch.

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


def _perron_radius(inputs: np.ndarray) -> float:
    """Spectral radius of a nonnegative irreducible matrix.

    The midpoint of ``_left_perron``'s bracket; 0.0 for the zero matrix,
    which is irreducible only with one sector.
    """
    return _left_perron(inputs)[0] if inputs.any() else 0.0


@dataclass(frozen=True, eq=False)
class ProductivityDiagnosis:
    """Outcome of the viability screen applied to an input matrix."""

    spectral_radius: float
    strongly_connected: bool
    passed: bool


def check_productive_indecomposable(inputs) -> ProductivityDiagnosis:
    """Diagnose whether an input matrix describes an acceptable economy.

    Accepts a raw square array (or anything array-like). Returns the
    spectral radius, a strong-connectivity verdict, and the combined
    pass flag; never raises on failure. A nonnegative, strongly connected
    matrix is measured by ``_left_perron``; any other is rejected anyway
    and only reported, through a dense eigensolve.
    """
    arr = np.asarray(inputs, dtype=float)
    _require_square(arr)
    connected = _strongly_connected(arr)
    if connected and not np.any(arr < 0):
        rho = _perron_radius(arr)
    else:
        rho = float(np.max(np.abs(np.linalg.eigvals(arr))))
    passed = connected and rho < 1.0 - PRODUCTIVITY_MARGIN
    return ProductivityDiagnosis(rho, connected, passed)


def _solve_values(inputs: np.ndarray, labor: np.ndarray) -> tuple[np.ndarray, float]:
    """Labor values and their Collatz–Wielandt bound on the spectral radius.

    Solves ``values (I - inputs) = labor`` and returns ``values`` with
    ``max_i (values @ inputs)_i / values_i``, which bounds the radius of
    ``inputs`` from above because ``values`` is positive. Raises
    SingularSystem if the solve fails, a value is not positive, or the
    residual relative to the largest value exceeds VALUE_RESIDUAL_TOL.
    """
    n = inputs.shape[0]
    # I - inputs^T built in place: one n x n array besides the solver's copy.
    system = -inputs.T
    system.flat[:: n + 1] += 1.0
    try:
        values = np.linalg.solve(system, labor)
    except np.linalg.LinAlgError as err:
        raise SingularSystem(f"value accounting system is singular: {err}") from err
    if not values.min() > 0.0:
        raise SingularSystem(
            f"value accounting system gives a value of {values.min():.3e}, not positive"
        )
    image = values @ inputs
    # values @ inputs and labor are each at most values, so measuring the
    # residual against the largest value makes it free of units.
    residual = float(np.max(np.abs(values - image - labor))) / float(values.max())
    if not residual <= VALUE_RESIDUAL_TOL:
        raise SingularSystem(
            f"value accounting residual {residual:.3e} relative to the largest "
            f"value exceeds {VALUE_RESIDUAL_TOL:.0e}"
        )
    return values, float(np.max(image / values))


@dataclass(frozen=True, eq=False)
class Technology:
    """An immutable (inputs, labor) pair describing production.

    Construction certifies nonnegative inputs, strictly positive direct
    labor, indecomposability and productivity, or raises. Productivity
    rests on the labor-value solve, whose bound must be below
    ``1 - PRODUCTIVITY_MARGIN``; its values are kept, read-only, as
    ``values``. Only when that certificate fails is ``spectral_radius``
    measured during construction: NotProductive if it is not below the
    margin either, SingularSystem if it is but the values are unusable.
    Otherwise it is measured the first time it is read.
    """

    inputs: np.ndarray
    labor: np.ndarray
    values: np.ndarray = field(init=False)

    def __post_init__(self):
        inputs = _as_readonly(self.inputs, ndim=2)
        _require_square(inputs)
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
        if not _strongly_connected(inputs):
            raise Decomposable(
                "economy is decomposable: sector input graph is not strongly connected"
            )
        try:
            values, bound = _solve_values(inputs, labor)
        except SingularSystem:
            self._require_productive()
            raise
        if not bound < 1.0 - PRODUCTIVITY_MARGIN:
            # The bound is 1 - min_i labor_i / values_i up to rounding, so
            # it reads 1 once some labor is negligible next to its value;
            # the measured radius then decides.
            self._require_productive()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def _require_productive(self) -> None:
        if not self.spectral_radius < 1.0 - PRODUCTIVITY_MARGIN:
            raise NotProductive(
                "input matrix is not productive: spectral radius "
                f"{self.spectral_radius:.6f} is not below 1"
            )

    @cached_property
    def spectral_radius(self) -> float:
        """Spectral radius of ``inputs``, from its Collatz–Wielandt bracket."""
        return _perron_radius(self.inputs)

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
    """Labor values, the solution of ``values (I - inputs) = labor``.

    Returns the read-only vector of total (direct plus indirect) labor
    embodied in one unit of each good. Constructing ``tech`` solved and
    checked it, so this solves nothing.
    """
    return tech.values


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
