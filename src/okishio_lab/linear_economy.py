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

The certificate is written once, for a ``(k, n, n)`` stack, in
``_certify_rows``: it returns each row's values and bound, or raises,
through ``_require``, the first failing row's error from the first check
it fails. ``Technology`` is its one-row call, as ``WageBundle`` is of
``_check_bundles``, and the array forms build techniques and bundles whose
checks passed in the stack with ``_certified`` and ``_checked``, which
only copy.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import chain

import numpy as np
# NumPy's solve gufunc (LAPACK gesv), called directly by _solve: the wrapper's
# argument handling costs about as much as factoring a 20-sector system.
from numpy.linalg._umath_linalg import solve1 as _solve_gufunc

from .errors import (
    Decomposable,
    InvalidSector,
    NegativeExploitationWarning,
    NoConvergence,
    NonPositiveValue,
    NotProductive,
    SingularSystem,
)
from .tolerances import CW_TOL, VALUE_RESIDUAL_TOL, strictly_below


def _owned(values) -> np.ndarray:
    """A read-only float copy, never a view into another array."""
    arr = np.array(values, dtype=float)
    arr.setflags(write=False)
    return arr


def _require_ndim(arr: np.ndarray, ndim: int) -> None:
    if arr.ndim != ndim:
        raise ValueError(f"expected a {ndim}-dimensional array, got shape {arr.shape}")


def _as_readonly(values, *, ndim: int) -> np.ndarray:
    arr = _owned(values)
    _require_ndim(arr, ndim)
    if not np.isfinite(arr).all():
        raise ValueError("array entries must be finite")
    return arr


def _require_square(inputs: np.ndarray) -> None:
    if inputs.ndim != 2 or inputs.shape[0] != inputs.shape[1]:
        raise ValueError(f"input matrix must be square, got shape {inputs.shape}")
    if not inputs.size:
        raise ValueError("input matrix must have at least one sector")


# Search levels _connected_rows takes for the whole stack at once.
STACKED_LEVELS = 2


def _connected_rows(stack: np.ndarray) -> np.ndarray:
    """Strong connectivity of each matrix of a ``(k, n, n)`` stack.

    Edge i -> j when good i enters sector j's recipe. Only an exact zero
    is no edge: that pattern alone survives a change of units. One
    search: a ``(2k, n)`` frontier from sector 0, forward and on the
    transpose, propagated through the boolean adjacency by stacked
    products. A dense pattern is done within STACKED_LEVELS of them; a row
    still growing then finishes alone, so a deep graph (a long cycle) costs
    each level a read of its frontier's rows rather than a product over
    the whole stack.
    """
    adjacency = stack > 0.0
    graphs = np.concatenate((adjacency, adjacency.transpose(0, 2, 1)))
    seen = graphs[:, 0, :].copy()  # sector 0 and the sectors it reaches directly
    seen[:, 0] = True
    frontier = seen
    levels = 0
    # A dense pattern is done here, before any product.
    while not seen.all() and np.count_nonzero(frontier):
        if levels == STACKED_LEVELS:
            for row in (frontier.any(axis=1) & ~seen.all(axis=1)).nonzero()[0].tolist():
                graph, reached, ahead = graphs[row], seen[row], frontier[row]
                while ahead.any():
                    ahead = graph[ahead].any(axis=0) & ~reached
                    reached |= ahead  # a view: the row of seen
            break
        frontier = (frontier[:, None, :] @ graphs)[:, 0, :] & ~seen
        seen |= frontier
        levels += 1
    return seen.reshape((2,) + adjacency.shape[:2]).all(axis=(0, 2))


def _by_size(sizes) -> dict[int, list[int]]:
    """Positions of each size in ``sizes``, sizes in order of first appearance."""
    groups: dict[int, list[int]] = {}
    for position, size in enumerate(sizes):
        groups.setdefault(size, []).append(position)
    return groups


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a[i] @ b[i]`` for each row of two ``(k, n)`` stacks, rounded as that is:
    a stacked ``matmul`` rounds as the 1-d product, ``einsum`` does not."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _sector_min(stack: np.ndarray) -> np.ndarray:
    """``stack.min(axis=1)`` of a ``(k, n)`` stack; see ``_sector_max``."""
    return np.minimum.reduce(np.ascontiguousarray(stack.T))


def _sector_max(stack: np.ndarray) -> np.ndarray:
    """``stack.max(axis=1)`` of a ``(k, n)`` stack, reduced elementwise over a
    sector-major copy: NumPy reduces ``(k, n)`` along its rows a row at a
    time, 25 µs at k = 250, n = 8, and the ``(n, k)`` copy in about 5. The
    maximum is exact, so the order gives the same value, NaN included."""
    return np.maximum.reduce(np.ascontiguousarray(stack.T))


def _column_dots(a: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """``_dots`` rounded as ``a @ matrix[:, j]``: BLAS sums a strided column
    in another order than a contiguous one, so the columns get a stride."""
    spaced = np.empty(columns.shape + (2,))
    spaced[:, :, 0] = columns
    return (a[:, None, :] @ spaced[:, :, :1])[:, 0, 0]


def _raise_singular(err, flag):
    raise np.linalg.LinAlgError("Singular matrix")


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``x`` with ``a @ x = b`` for float ``(..., n, n)`` and ``(..., n)``: the
    package's one linear solve, under the error state NumPy's own solve sets,
    so a singular matrix raises LinAlgError("Singular matrix") as it does."""
    with np.errstate(call=_raise_singular, invalid="call", over="ignore", divide="ignore",
                     under="ignore"):
        return _solve_gufunc(a, b, signature="dd->d")


# The tallest stack _left_perron solves a row at a time.
PLAIN_ROWS = 3


def _left_perron(
    stack: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Dominant eigenvalues and positive left eigenvectors, with certificates.

    ``stack`` is a ``(k, n, n)`` stack of nonnegative irreducible
    matrices. Each row is iterated on ``T = matrix.T`` from ``x = 1``,
    renormalizing by the largest entry. Each iterate's Collatz–Wielandt
    bracket ``[lo, hi]`` contains the spectral radius; a row stops once
    ``(hi - lo) / hi <= CW_TOL``. Power steps ``x <- Tx`` are kept while
    each shrinks that relative width at least tenfold, so a fast-mixing
    matrix never factorizes. From the first power step that does not,
    every step of that row is Noda's: solve ``(hi I - T) z = x``. Since
    ``hi >= rho`` the shifted matrix is an M-matrix and ``z`` stays
    positive. A start bracket that is not positive, a shifted step that
    does not shrink the width, a failed solve or an iterate that is not
    strictly positive raises NoConvergence. The width starts below one,
    so there are at most 14 power steps before the switch.

    A stack of at most PLAIN_ROWS rows runs a plain loop, a row at a
    time; a taller one runs one masked loop of stacked products and
    solves, each row leaving once converged, with the same arithmetic, so
    a result depends neither on the rows beside it nor on which loop ran.
    On a failure there the rows run one at a time, so the first failing
    row raises its own error. Both loops stay: the masked loop saves
    NumPy's cost per call on the sweep's tall stacks of small matrices,
    but pays for its bookkeeping on a few rows. At n = 3, 8 and 24 (one
    BLAS thread) it overtakes the plain loop at 3 to 6 rows; at n = 400
    it is slower at every height up to 8. A one-economy scenario stacks
    a row before the change and one per new bundle after it: two for the
    CLI's ``verify``, four for a sweep economy's three bundles.

    Returns, per row, the bracket's midpoint, the iterate it certifies,
    the number of steps and the bracket, as arrays of shape ``(k,)``,
    ``(k, n)``, ``(k,)`` and ``(k, 2)``.
    """
    if not 0 < len(stack) <= PLAIN_ROWS:
        solved = _perron_stack(stack)
        if solved is not None:
            return solved
    rho, vectors, steps, bounds = zip(*[_perron_one(matrix) for matrix in stack])
    return np.array(rho), np.array(vectors), np.array(steps), np.array(bounds)


def _perron_one(matrix: np.ndarray) -> tuple[float, np.ndarray, int, tuple[float, float]]:
    """``_left_perron`` on one matrix, as a plain loop."""
    transposed = matrix.T
    n = transposed.shape[0]
    vec = np.ones(n)
    image = transposed @ vec
    lo, hi = float(image.min()), float(image.max())
    if not hi > 0.0:
        raise NoConvergence(f"dominant eigenvalue bracket [{lo!r}, {hi!r}] is not positive")
    width = (hi - lo) / hi
    steps, shifted, ones = 0, False, np.ones(n)
    while not width <= CW_TOL:
        if shifted:
            # Solved in the iterate's own scale, D^-1 (hi I - T) D with
            # D = diag(vec), so rounding stays relative to each entry.
            # Built in place as its C-ordered transpose, the faster layout.
            system = np.multiply(matrix, vec[:, None], order="C")
            system /= -vec
            system.reshape(-1)[:: n + 1] += hi
            try:
                step = vec * _solve(system.T, ones)
            except np.linalg.LinAlgError as err:
                raise NoConvergence(
                    f"shifted solve failed with bracket [{lo!r}, {hi!r}]"
                ) from err
        else:
            step = image
        step /= np.maximum.reduce(step)
        if not np.minimum.reduce(step) > 0.0:
            raise NoConvergence(f"iterate lost positivity with bracket [{lo!r}, {hi!r}]")
        image = transposed @ step
        ratios = image / step
        lo, hi = float(np.minimum.reduce(ratios)), float(np.maximum.reduce(ratios))
        new_width = (hi - lo) / hi
        if shifted and not new_width < width:
            raise NoConvergence(f"shifted step did not narrow the bracket [{lo!r}, {hi!r}]")
        shifted = shifted or not new_width <= 0.1 * width
        vec, width = step, new_width
        steps += 1
    return 0.5 * (lo + hi), vec, steps, (lo, hi)


def _perron_stack(stack: np.ndarray):
    """``_left_perron`` on several matrices, as one masked loop.

    Mirrors ``_perron_one`` operation by operation over the rows still
    working; ``matrices`` stays C-ordered so each row's transpose is laid
    out as ``matrix.T`` is in the plain loop. The rows still working are
    copied out of the stack only for the step that needs them, one copy
    at a time, which bounds the memory held beside the stack by one copy
    of it. Returns None as soon as any row fails a check that makes
    ``_perron_one`` raise.
    """
    k, n, _ = stack.shape
    rho, vectors = np.empty(k), np.empty((k, n))
    steps, bounds = np.zeros(k, dtype=int), np.empty((k, 2))
    rows, matrices = np.arange(k), np.ascontiguousarray(stack, dtype=float)
    vec = np.ones((k, n))
    image = (matrices.transpose(0, 2, 1) @ vec[:, :, None])[:, :, 0]
    lo, hi = _sector_min(image), _sector_max(image)
    if not (hi > 0.0).all():
        return None
    width = (hi - lo) / hi
    shifted = np.zeros(k, dtype=bool)
    diagonal = np.arange(n)
    count = 0
    while True:
        done = width <= CW_TOL
        if done.any():
            out = rows[done]
            rho[out] = 0.5 * (lo[done] + hi[done])
            vectors[out], steps[out] = vec[done], count
            bounds[out, 0], bounds[out, 1] = lo[done], hi[done]
            left = ~done
            rows, vec, image = rows[left], vec[left], image[left]
            lo, hi, width, shifted = lo[left], hi[left], width[left], shifted[left]
        if not rows.size:
            return rho, vectors, steps, bounds
        step = image.copy()
        if shifted.any():
            scale = vec[shifted]
            system = matrices[rows[shifted]].transpose(0, 2, 1)
            system *= scale[:, None, :]
            system /= -scale[:, :, None]
            system[:, diagonal, diagonal] += hi[shifted][:, None]
            try:
                solved = _solve(system, np.ones(scale.shape))
            except np.linalg.LinAlgError:
                return None
            step[shifted] = scale * solved
            del system  # before the rows are copied out for the power step
        step /= _sector_max(step)[:, None]
        if not (_sector_min(step) > 0.0).all():
            return None
        working = matrices if rows.size == k else matrices[rows]
        image = (working.transpose(0, 2, 1) @ step[:, :, None])[:, :, 0]
        del working  # before the next step's system is built
        ratios = image / step
        lo, hi = _sector_min(ratios), _sector_max(ratios)
        new_width = (hi - lo) / hi
        if (shifted & ~(new_width < width)).any():
            return None
        shifted |= ~(new_width <= 0.1 * width)
        vec, width = step, new_width
        count += 1


def _perron_radius(inputs: np.ndarray) -> float:
    """Spectral radius of a nonnegative irreducible matrix.

    The midpoint of ``_left_perron``'s bracket; 0.0 for the zero matrix,
    which is irreducible only with one sector.
    """
    return float(_left_perron(inputs[None])[0][0]) if inputs.any() else 0.0


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
    connected = bool(_connected_rows(arr[None])[0])
    if connected and not np.any(arr < 0):
        rho = _perron_radius(arr)
    else:
        rho = float(np.max(np.abs(np.linalg.eigvals(arr))))
    passed = connected and strictly_below(rho, 1.0)
    return ProductivityDiagnosis(rho, connected, passed)


def _value_rows(inputs: np.ndarray, labor: np.ndarray) -> tuple[np.ndarray, ...]:
    """Labor values of a ``(k, n, n)`` stack, with residuals and bounds.

    Solves ``values (I - inputs) = labor`` for every row in one stacked
    ``_solve``, and returns each row's values, its residual
    ``max_i |values - values @ inputs - labor|_i`` relative to the largest
    value, and its Collatz–Wielandt bound ``max_i (values @ inputs)_i /
    values_i``, whether or not they pass. Raises LinAlgError("Singular
    matrix") if any row is singular.
    """
    k, n, _ = inputs.shape
    system = np.negative(inputs, order="C")
    system.reshape(k, n * n)[:, :: n + 1] += 1.0
    values = _solve(system.transpose(0, 2, 1), labor)
    image = (values[:, None, :] @ inputs)[:, 0, :]
    # values @ inputs and labor are each at most values, so measuring the
    # residual against the largest value makes it free of units. A value
    # that is not positive fails its row anyway.
    with np.errstate(divide="ignore", invalid="ignore"):
        residual = _sector_max(np.abs(values - image - labor)) / _sector_max(values)
        bound = _sector_max(image / values)
    return values, residual, bound


def _certify_rows(inputs: np.ndarray, labor: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The technique certificate, for each row of a ``(k, n, n)`` stack.

    Returns each row's labor values and Collatz–Wielandt bound, or raises,
    through ``_require``, the first failing row's error from the first check
    it fails: finite entries, nonnegative inputs, positive labor, strong
    connectivity, productivity, then the value solve. One stacked solve
    (``_value_rows``) certifies productivity by a bound below
    ``1 - STRICT_MARGIN``. Only a row whose values fail that certificate
    has its radius measured, in row order and up to the first row that
    raises: NotProductive if it is not below the margin either,
    SingularSystem if it is but the values are unusable. A bound that reads
    1 (it is 1 - min_i labor_i / values_i up to rounding, so it does once
    some labor is negligible next to its value) is accepted on the radius.
    A failed stacked solve certifies the rows one at a time.
    """
    k = inputs.shape[0]
    nonnegative, paid = ~(inputs < 0).any(axis=(1, 2)), ~(labor <= 0).any(axis=1)
    connected, singular = _connected_rows(inputs), None
    try:
        values, residual, bound = _value_rows(inputs, labor)
    except np.linalg.LinAlgError as err:
        if k > 1:
            alone = [_certify_rows(inputs[row, None], labor[row, None]) for row in range(k)]
            return tuple(np.concatenate(part) for part in zip(*alone))
        # A lone row's failed solve: its NaN values fail ``positive`` with this error.
        singular = SingularSystem(f"value accounting system is singular: {err}")
        singular.__cause__ = err
        values, residual = np.full(labor.shape, np.nan), np.full(1, np.nan)
        bound = residual
    positive, accurate = _sector_min(values) > 0.0, residual <= VALUE_RESIDUAL_TOL
    certified = strictly_below(bound, 1.0)
    if (nonnegative & paid & connected & positive & accurate & certified).all():
        return values, bound
    finite = np.isfinite(inputs).all(axis=(1, 2)) & np.isfinite(labor).all(axis=1)
    sound, usable = finite & nonnegative & paid & connected, positive & accurate
    radius = np.full(k, np.nan)
    for row in np.flatnonzero(~(sound & usable & certified)).tolist():
        if not sound[row]:
            break
        radius[row] = _perron_radius(inputs[row])
        if not (usable[row] and strictly_below(radius[row], 1.0)):
            break
    _require([
        (finite, lambda row: ValueError("array entries must be finite")),
        (nonnegative, lambda row: ValueError("input matrix must be nonnegative")),
        (paid, lambda row: ValueError("labor vector must be strictly positive")),
        (connected, lambda row: Decomposable(
            "economy is decomposable: sector input graph is not strongly connected")),
        (certified | strictly_below(radius, 1.0), lambda row: NotProductive(
            f"input matrix is not productive: spectral radius {radius[row]:.6f} is not below 1")),
        (positive, lambda row: singular or SingularSystem(
            f"value accounting system gives a value of {values[row].min():.3e}, not positive")),
        (accurate, lambda row: SingularSystem(
            f"value accounting residual {residual[row]:.3e} relative to the largest value "
            f"exceeds {VALUE_RESIDUAL_TOL:.0e}")),
    ])
    return values, bound


@dataclass(frozen=True, eq=False)
class Technology:
    """An immutable (inputs, labor) pair describing production.

    Construction checks shapes and finite entries, then makes the one-row
    call of ``_certify_rows``, which raises unless the inputs are
    nonnegative, direct labor is strictly positive and the technique is
    indecomposable and productive. The value solve's values are kept,
    read-only, as ``values``, and its Collatz–Wielandt bound as
    ``productivity_bound``; ``spectral_radius`` is measured the first time
    it is read.
    """

    inputs: np.ndarray
    labor: np.ndarray
    values: np.ndarray = field(init=False)
    productivity_bound: float = field(init=False)

    def __post_init__(self):
        inputs = _as_readonly(self.inputs, ndim=2)
        _require_square(inputs)
        labor = _as_readonly(self.labor, ndim=1)
        if labor.shape[0] != inputs.shape[0]:
            raise ValueError(f"labor vector length {labor.shape[0]} does not match "
                             f"{inputs.shape[0]} sectors")
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "labor", labor)
        values, bound = _certify_rows(inputs[None], labor[None])
        values = values[0]
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "productivity_bound", float(bound[0]))

    @classmethod
    def _certified(cls, inputs, labor, values, bound) -> "Technology":
        """A technique whose row passed ``_certify_rows`` in a stack.

        Owns read-only copies of the arrays, never views into a stack.
        """
        tech = object.__new__(cls)
        for name, array in (("inputs", inputs), ("labor", labor), ("values", values)):
            object.__setattr__(tech, name, _owned(array))
        object.__setattr__(tech, "productivity_bound", float(bound))
        return tech

    @cached_property
    def spectral_radius(self) -> float:
        """Spectral radius of ``inputs``, from its Collatz–Wielandt bracket."""
        return _perron_radius(self.inputs)

    @property
    def n(self) -> int:
        return self.inputs.shape[0]

    def input_column(self, sector: int) -> np.ndarray:
        """Recipe of produced inputs for one sector, by ``_require_sector``'s rule."""
        _require_sector(sector, self.n, "sector")
        return self.inputs[:, sector]


@dataclass(frozen=True, eq=False)
class WageBundle:
    """Goods received per unit of labor. Nonnegative, not identically zero."""

    quantities: np.ndarray

    def __post_init__(self):
        quantities = _as_readonly(self.quantities, ndim=1)
        _check_bundles(quantities)
        object.__setattr__(self, "quantities", quantities)

    @classmethod
    def _checked(cls, quantities) -> "WageBundle":
        """A bundle whose checks passed in ``_check_bundles``; owns a copy."""
        bundle = object.__new__(cls)
        object.__setattr__(bundle, "quantities", _owned(quantities))
        return bundle

    @property
    def n(self) -> int:
        return self.quantities.shape[0]


def _require(checks) -> None:
    """The package's one first-failing-row rule: ``checks`` pairs, in order, a
    mask True where a row passes (0-d for one row as it stands) with a function
    of a row's index giving its exception. The first failing row raises, from
    the first check it fails, as it would alone; if none fails, this only ANDs
    the masks."""
    passed = np.True_
    for holds, _ in checks:
        passed = passed & holds
    if not passed.all():
        row = passed.argmin()
        raise next(error(row) for holds, error in checks if not np.ravel(holds)[row])


def _check_bundles(quantities: np.ndarray) -> None:
    """``WageBundle``'s checks, through ``_require``, on each row of a ``(k, n)``
    stack of finite quantities, or on the one bundle of a 1-d array, as
    ``WageBundle`` passes it."""
    _require([
        (quantities.min(axis=-1, initial=0.0) >= 0.0,
         lambda row: ValueError("wage bundle quantities must be nonnegative")),
        (quantities.max(axis=-1, initial=0.0) > 0.0,
         lambda row: ValueError("wage bundle must contain at least one positive quantity")),
    ])


def _is_integer(value) -> bool:  # bool subclasses int, and True counts nothing
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _require_sector(sector, n: int | None, name: str) -> None:
    """The one sector rule: raise InvalidSector unless ``sector`` is an integer and,
    if ``n`` is given (``TechChange`` knows no economy), a 0-based index of one of
    ``n`` sectors. The message counts from 1: ``"{name} 5 outside range 1..3"``."""
    if not _is_integer(sector):
        raise InvalidSector(f"{name} must be an integer, got {sector!r}")
    if n is not None and not 0 <= sector < n:
        raise InvalidSector(f"{name} {sector + 1} outside range 1..{n}")


def _require_fit(n: int, bundles=(), change=None, prices=None, values=()) -> None:
    """The one fit rule, called by each one-economy entry point before any arithmetic:
    raise unless each bundle's length, the change's sector (``_require_sector``) and
    column length, the prices' length, then each labor value vector's shape, in that
    order, fit ``n`` sectors."""
    for bundle in bundles:
        if bundle.n != n:
            raise ValueError(f"wage bundle length {bundle.n} does not match {n} sectors")
    if change is not None:
        _require_sector(change.sector, n, "sector")
        if change.new_column.shape[0] != n:
            raise ValueError(f"replacement column length {change.new_column.shape[0]} does "
                             f"not match {n} sectors")
    if prices is not None and prices.shape[0] != n:
        raise ValueError(f"price vector length {prices.shape[0]} does not match {n} sectors")
    for vector in values:
        if np.shape(vector) != (n,):
            raise ValueError(f"value vector length {np.size(vector)} does not match {n} sectors")


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
    _require_fit(bundle.n, values=(values,))
    return float(values @ bundle.quantities)


def exploitation_rate(bundle_value):
    """Unpaid over paid labor: ``(1 - bundle_value) / bundle_value``, of one
    bundle value or, rate by rate, of an array of them.

    The bundle value is labor received per unit of labor performed, so it
    must be positive. A value above one whole day makes the rate negative;
    that is flagged with NegativeExploitationWarning, once for each such
    value, rather than rejected. A NaN value gives a NaN rate.
    """
    # Only a value that is not positive fails: NaN passes.
    _require([(~np.less_equal(bundle_value, 0), lambda row: NonPositiveValue(
        f"bundle value must be positive, got {np.ravel(bundle_value)[row]}"))])
    rate = (1.0 - bundle_value) / bundle_value
    if np.fmin.reduce(rate, axis=None, initial=np.inf) < 0:
        for value in np.extract(np.less(rate, 0), bundle_value).tolist():
            warnings.warn(f"bundle value {value:.6g} exceeds one working day; exploitation "
                          "rate is negative", NegativeExploitationWarning, stacklevel=2)
    return rate


def value_system(tech: Technology, bundle: WageBundle) -> ValueSystem:
    """Labor values, bundle value, and exploitation rate in one pass."""
    values = labor_values(tech)
    bundle_value = value_of_bundle(values, bundle)
    return ValueSystem(values, bundle_value, exploitation_rate(bundle_value))


def _as_float(entry) -> float:
    if type(entry) not in (int, float):  # JSON true is a bool, not an int
        raise TypeError(f"expected a number, got {entry!r}")
    return float(entry)


def _as_floats(entry, ndim: int = 1) -> np.ndarray:
    """A JSON list of numbers, nested ``ndim`` deep, as a float array.
    ``np.array`` also reads strings, booleans and null: they raise TypeError."""
    arr = np.array(entry, dtype=float)
    _require_ndim(arr, ndim)
    flat = entry
    for _ in range(ndim - 1):
        flat = chain.from_iterable(flat)
    if not set(map(type, flat)) <= {int, float}:
        raise TypeError("expected numbers, found a string, boolean or null")
    return arr


def _read_fields(path, kind: str, fields: dict, build):
    """Read a JSON object file and return ``build`` called on its entries,
    one for each key of ``fields`` in order, each through that key's converter.

    A file that is not strict JSON (RFC 8259: no NaN or Infinity, no number
    beyond double range) or not one object raises ValueError naming the
    ``kind`` of file; one that lacks a key, or has an entry of the wrong type
    or shape, names the key too. A ValueError from ``build`` names the kind.
    The parsed file is released when ``build`` returns; releasing it before
    ``build`` leaves the peak of a process that loads a 400-sector table
    over and over where it is, within 0.1 MB.
    """
    import orjson  # here, not at the top: importing it costs about 6 ms of every CLI start

    with open(path, "rb") as handle:
        try:
            raw = orjson.loads(handle.read())
        except ValueError as err:
            raise ValueError(f"{kind} file is not valid JSON: {err}") from err
    if not isinstance(raw, dict):
        raise ValueError(f"{kind} file must hold a JSON object")
    for key in fields:
        if key not in raw:
            raise ValueError(f"{kind} file is missing key '{key}'")
    read = []
    for key, convert in fields.items():
        try:
            read.append(convert(raw[key]))
        except (TypeError, ValueError) as err:
            raise ValueError(f"{kind} file has a malformed '{key}': {err}") from err
    try:
        return build(*read)
    except ValueError as err:
        raise ValueError(f"{kind} file is invalid: {err}") from err


def load_economy(path) -> tuple[Technology, WageBundle]:
    """Read a ``{"A": ..., "L": ..., "b": ...}`` JSON file.

    "A" is the row-major input matrix (column i = sector i's recipe),
    "L" the direct labor vector, "b" the wage bundle.
    """
    fields = {"A": partial(_as_floats, ndim=2), "L": _as_floats, "b": _as_floats}
    return _read_fields(path, "economy", fields, _economy)


def _economy(inputs, labor, quantities) -> tuple[Technology, WageBundle]:
    tech, bundle = Technology(inputs, labor), WageBundle(quantities)
    _require_fit(tech.n, (bundle,))
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
    return _read_fields(path, "wage", {"b": _as_floats}, WageBundle)


def wage_payload(bundle: WageBundle) -> dict:
    return {"b": [float(x) for x in bundle.quantities]}

