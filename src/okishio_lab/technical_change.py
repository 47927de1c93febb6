"""Classification and bookkeeping of single-sector technique changes.

A change replaces one sector's input column and direct labor. At the
ruling prices and a nominal wage of one it is *viable* when it lowers
that sector's unit cost, and it is capital-using labor-saving when every
produced input requirement strictly rises while direct labor strictly
falls. The break-even wage of a viable change is the nominal wage at
which the cost saving would vanish; it exceeds one by the saving per
unit of new labor cost.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
import json

import numpy as np

from .errors import InvalidSector
from .equilibrium import Equilibrium
from .linear_economy import (
    Technology, WageBundle, _as_float, _as_floats, _as_readonly, _column_dots, _dots, _owned,
    _read_fields, _require, _require_fit, _require_sector,
)
from .tolerances import matches, strict_gain, strictly_above


@dataclass(frozen=True, eq=False)
class TechChange:
    """Replacement recipe for a single sector (``sector`` a 0-based integer)."""

    sector: int
    new_column: np.ndarray
    new_labor: float

    def __post_init__(self):
        _require_sector(self.sector, None, "sector")
        column, labor = _as_readonly(self.new_column, ndim=1), float(self.new_labor)
        _check_changes(self.sector, column, labor)
        object.__setattr__(self, "sector", int(self.sector))
        object.__setattr__(self, "new_column", column)
        object.__setattr__(self, "new_labor", labor)

    @classmethod
    def _checked(cls, sector, new_column, new_labor) -> "TechChange":
        """A change whose checks passed in ``_check_changes``; owns a copy."""
        change = object.__new__(cls)
        object.__setattr__(change, "sector", int(sector))
        object.__setattr__(change, "new_column", _owned(new_column))
        object.__setattr__(change, "new_labor", float(new_labor))
        return change


def _check_changes(sectors, new_columns, new_labor) -> None:
    """``TechChange``'s checks, through ``_require``, on each of ``(k,)``
    integer sectors and labor and ``(k, n)`` finite columns: a nonnegative
    column, then positive finite labor, then a sector in range.

    ``TechChange`` passes its one change as it stands, a 1-d column with
    a scalar sector and labor, which the same expressions check without
    the cost of making arrays of them.
    """
    n = new_columns.shape[-1]
    _require([
        (new_columns.min(axis=-1, initial=0.0) >= 0.0,
         lambda row: ValueError("replacement input column must be nonnegative")),
        # NaN labor is not positive, and infinite labor is not finite.
        ((new_labor > 0.0) & (new_labor != np.inf), lambda row: ValueError(
            f"replacement labor must be positive, got {np.ravel(new_labor)[row]}")),
        ((sectors >= 0) & (sectors < n), lambda row: InvalidSector(
            f"sector {np.ravel(sectors)[row] + 1} outside range 1..{n}")),
    ])


@dataclass(frozen=True, eq=False)
class ChangeClassification:
    """Cost arithmetic of a candidate change at given prices.

    ``saving_rate`` is the unit-cost drop per unit of new labor cost and
    ``break_even_wage`` equals one plus it exactly: the nominal wage at
    which adopting the change stops being profitable.
    """

    viable: bool
    culs: bool
    cost_pre: float
    cost_post: float
    cost_drop: float
    saving_rate: float
    break_even_wage: float


# _classify_rows' cost arithmetic, a ChangeClassification's fields one row each.
_Costs = namedtuple("_Costs", "viable culs cost_pre cost_post cost_drop saving_rate")


def _classify_rows(prices, inputs, labor, sectors, new_columns, new_labor) -> _Costs:
    """``classify`` for each row: row i replaces sector ``sectors[i]`` of
    ``(inputs[i], labor[i])`` with ``new_columns[i]`` and ``new_labor[i]``."""
    rows = np.arange(len(sectors))
    old_columns, old_labor = inputs[rows, :, sectors], labor[rows, sectors]
    cost_pre = _column_dots(prices, old_columns) + old_labor
    cost_post = _dots(prices, new_columns) + new_labor
    cost_drop = cost_pre - cost_post
    # Each margin is relative to the quantity compared, so no verdict
    # depends on the units of labor or of any good.
    viable = strict_gain(cost_drop, cost_pre)
    # A zero requirement must become strictly positive.
    column_rises = strict_gain(new_columns - old_columns, old_columns).all(axis=1)
    labor_falls = strict_gain(old_labor - new_labor, old_labor)
    return _Costs(
        viable, column_rises & labor_falls, cost_pre, cost_post, cost_drop, cost_drop / new_labor
    )


def _change_row(change: TechChange):
    """A change as the one-row sectors, new columns and new labor of an array call."""
    return np.array([change.sector]), change.new_column[None], np.array([change.new_labor])


def classify(
    tech: Technology, equilibrium: Equilibrium, change: TechChange
) -> ChangeClassification:
    """Price out a candidate change against the current technique.

    Costs are taken at the equilibrium prices with a nominal wage of one,
    the unit of account when the wage bundle costs one. Every input
    requirement must rise strictly for the change to be capital-using.
    The one-row call of ``_classify_rows``.
    """
    _require_fit(tech.n, change=change, prices=equilibrium.prices)
    rows = (equilibrium.prices[None], tech.inputs[None], tech.labor[None], *_change_row(change))
    return _classifications(_classify_rows(*rows))[0]


def _classifications(costs: _Costs) -> list[ChangeClassification]:
    return [ChangeClassification(*row, 1.0 + row[-1]) for row in zip(*(f.tolist() for f in costs))]


@dataclass(frozen=True, eq=False)
class PropertyReport:
    """Joint conditions on a change and a replacement wage bundle.

    The three flags certify, at the pre-change equilibrium prices and
    post-change labor values:

    * ``more_expensive``: the new bundle costs strictly more than the old
      normalized wage of one.
    * ``value_constant``: the new bundle embodies the same labor as the
      old one (within ``tolerances.MATCH_TOL``).
    * ``saving_bounded``: the unit-cost saving is positive yet smaller
      than the extra outlay on the new labor, ``new_labor * (cost of new
      bundle - 1)``.

    ``surplus_ok_post`` additionally screens the new bundle's labor value
    into (0, 1]. When all four hold, adopting the change lowers the
    uniform profit rate while leaving the exploitation rate unchanged.
    """

    more_expensive: bool
    value_constant: bool
    saving_bounded: bool
    surplus_ok_post: bool
    new_bundle_cost: float
    bundle_value_pre: float
    bundle_value_post: float
    cost_drop: float
    labor_cost_margin: float

    @property
    def all_hold(self) -> bool:
        return (
            self.more_expensive
            and self.value_constant
            and self.saving_bounded
            and self.surplus_ok_post
        )


# PropertyReport's fields, one row each: the array form of property reports.
_Properties = namedtuple("_Properties", PropertyReport.__dataclass_fields__)


def _property_rows(costs: _Costs, prices, new_labor, value_pre, value_post, new_quantities):
    """``check_properties`` for each row, from its change's ``_Costs`` and the
    labor values of the old bundle before and of the new one after it."""
    new_bundle_cost = _dots(prices, new_quantities)
    labor_cost_margin = new_labor * (new_bundle_cost - 1.0)
    return _Properties(
        strictly_above(new_bundle_cost, 1.0), matches(value_pre, value_post),
        costs.viable & strict_gain(labor_cost_margin - costs.cost_drop, costs.cost_pre),
        (0.0 < value_post) & (value_post <= 1.0), new_bundle_cost, value_pre, value_post,
        costs.cost_drop, labor_cost_margin,
    )


def check_properties(
    tech: Technology,
    change: TechChange,
    equilibrium: Equilibrium,
    values: np.ndarray,
    new_values: np.ndarray,
    bundle: WageBundle,
    new_bundle: WageBundle,
) -> PropertyReport:
    """Evaluate the profit-rate-fall conditions for a change/bundle pair.

    ``values`` must belong to ``tech`` and ``new_values`` to the technique
    after ``change``; ``equilibrium`` prices the old technique with the
    old ``bundle`` as numeraire. The one-row call of ``_property_rows``.
    """
    _require_fit(tech.n, (bundle, new_bundle), change, equilibrium.prices, (values, new_values))
    prices, (sectors, columns, labor) = equilibrium.prices[None], _change_row(change)
    costs = _classify_rows(prices, tech.inputs[None], tech.labor[None], sectors, columns, labor)
    value_pre = _dots(np.asarray(values, dtype=float)[None], bundle.quantities[None])
    value_post = _dots(np.asarray(new_values, dtype=float)[None], new_bundle.quantities[None])
    rows = _property_rows(costs, prices, labor, value_pre, value_post, new_bundle.quantities[None])
    return PropertyReport(*(field[0].item() for field in rows))


def _patch_rows(inputs, labor, sectors, new_columns, new_labor):
    """Copies of ``(k, n, n)`` inputs and ``(k, n)`` labor with each row's change made."""
    rows = np.arange(len(sectors))
    patched, patched_labor = inputs.copy(), labor.copy()
    patched[rows, :, sectors] = new_columns
    patched_labor[rows, sectors] = new_labor
    return patched, patched_labor


def apply_change(tech: Technology, change: TechChange) -> Technology:
    """Patch one sector's recipe and revalidate the economy.

    Raises InvalidSector or ValueError if the change does not fit ``tech``,
    as ``classify`` does, and NotProductive or Decomposable if the
    patched technique is no longer acceptable.
    """
    _require_fit(tech.n, change=change)
    patched, labor = _patch_rows(tech.inputs[None], tech.labor[None], *_change_row(change))
    return Technology(patched[0], labor[0])


def _index_of_sector(sector) -> int:
    """A file's 1-based sector number as the package's 0-based index."""
    # type(), not isinstance(): JSON true is a bool, and bool subclasses int.
    if not (type(sector) is int or type(sector) is float and sector.is_integer()):
        raise InvalidSector(f"sector must be a whole number, got {sector!r}")
    if sector < 1:
        raise InvalidSector(f"sector numbers in files are 1-based, got {sector}")
    return int(sector) - 1


def load_tech_change(path) -> TechChange:
    """Read a ``{"sector": ..., "column": ..., "labor": ...}`` JSON file.

    The on-disk sector number is 1-based, matching reports; it is shifted
    to the package's 0-based indexing on load.
    """
    fields = {"sector": _index_of_sector, "column": _as_floats, "labor": _as_float}
    return _read_fields(path, "technical change", fields, TechChange)


def tech_change_payload(change: TechChange) -> dict:
    return {
        "sector": change.sector + 1,
        "column": [float(x) for x in change.new_column],
        "labor": change.new_labor,
    }


def save_tech_change(path, change: TechChange) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(tech_change_payload(change), handle, indent=2)
        handle.write("\n")
