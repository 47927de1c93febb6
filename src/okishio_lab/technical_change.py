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

from dataclasses import dataclass
import json

import numpy as np

from .errors import InvalidSector
from .equilibrium import STRICT_MARGIN, Equilibrium
from .linear_economy import Technology, WageBundle, _as_readonly, certify_techniques

# Sameness tolerance for the bundle-value comparison.
VALUE_MATCH_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class TechChange:
    """Replacement recipe for a single sector (0-based ``sector``)."""

    sector: int
    new_column: np.ndarray
    new_labor: float

    def __post_init__(self):
        column = _as_readonly(self.new_column, ndim=1)
        if np.any(column < 0):
            raise ValueError("replacement input column must be nonnegative")
        labor = float(self.new_labor)
        if not np.isfinite(labor) or labor <= 0:
            raise ValueError(f"replacement labor must be positive, got {labor}")
        if self.sector < 0 or self.sector >= column.shape[0]:
            raise InvalidSector(
                f"sector {self.sector} outside range 0..{column.shape[0] - 1}"
            )
        object.__setattr__(self, "sector", int(self.sector))
        object.__setattr__(self, "new_column", column)
        object.__setattr__(self, "new_labor", labor)


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


def _require_fit(tech: Technology, change: TechChange) -> None:
    """Raise unless ``change`` names a sector of ``tech`` with a column of its length."""
    if change.sector >= tech.n:
        raise InvalidSector(f"sector {change.sector} outside range 0..{tech.n - 1}")
    if change.new_column.shape[0] != tech.n:
        raise ValueError(
            f"replacement column length {change.new_column.shape[0]} does not "
            f"match {tech.n} sectors"
        )


def classify(
    tech: Technology, equilibrium: Equilibrium, change: TechChange
) -> ChangeClassification:
    """Price out a candidate change against the current technique.

    Costs are taken at the equilibrium prices with a nominal wage of one,
    the unit of account when the wage bundle costs one. Every input
    requirement must rise strictly for the change to be capital-using.
    """
    _require_fit(tech, change)
    prices = equilibrium.prices
    old_column = tech.input_column(change.sector)
    old_labor = float(tech.labor[change.sector])
    cost_pre = float(prices @ old_column + old_labor)
    cost_post = float(prices @ change.new_column + change.new_labor)
    cost_drop = cost_pre - cost_post
    # Each margin is relative to the quantity compared, so no verdict
    # depends on the units of labor or of any good.
    viable = cost_drop > STRICT_MARGIN * cost_pre
    # A zero requirement must become strictly positive.
    column_rises = bool(np.all(change.new_column - old_column > STRICT_MARGIN * old_column))
    labor_falls = old_labor - change.new_labor > STRICT_MARGIN * old_labor
    saving_rate = cost_drop / change.new_labor
    return ChangeClassification(
        viable=viable,
        culs=column_rises and labor_falls,
        cost_pre=cost_pre,
        cost_post=cost_post,
        cost_drop=cost_drop,
        saving_rate=saving_rate,
        break_even_wage=1.0 + saving_rate,
    )


@dataclass(frozen=True, eq=False)
class PropertyReport:
    """Joint conditions on a change and a replacement wage bundle.

    The three flags certify, at the pre-change equilibrium prices and
    post-change labor values:

    * ``more_expensive``: the new bundle costs strictly more than the old
      normalized wage of one.
    * ``value_constant``: the new bundle embodies the same labor as the
      old one (within VALUE_MATCH_TOL).
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
    old ``bundle`` as numeraire.
    """
    prices = equilibrium.prices
    old_column = tech.input_column(change.sector)
    old_labor = float(tech.labor[change.sector])
    cost_pre = float(prices @ old_column + old_labor)
    cost_drop = cost_pre - float(prices @ change.new_column + change.new_labor)
    new_bundle_cost = float(prices @ new_bundle.quantities)
    bundle_value_pre = float(np.asarray(values) @ bundle.quantities)
    bundle_value_post = float(np.asarray(new_values) @ new_bundle.quantities)
    labor_cost_margin = change.new_labor * (new_bundle_cost - 1.0)
    return PropertyReport(
        more_expensive=new_bundle_cost > 1.0 + STRICT_MARGIN,
        value_constant=abs(bundle_value_pre - bundle_value_post) <= VALUE_MATCH_TOL,
        saving_bounded=(
            cost_drop > STRICT_MARGIN * cost_pre
            and labor_cost_margin - cost_drop > STRICT_MARGIN * cost_pre
        ),
        surplus_ok_post=0.0 < bundle_value_post <= 1.0,
        new_bundle_cost=new_bundle_cost,
        bundle_value_pre=bundle_value_pre,
        bundle_value_post=bundle_value_post,
        cost_drop=cost_drop,
        labor_cost_margin=labor_cost_margin,
    )


def apply_change(tech: Technology, change: TechChange) -> Technology:
    """Patch one sector's recipe and revalidate the economy.

    Raises InvalidSector or ValueError if the change does not fit ``tech``,
    as ``classify`` does, and NotProductive or Decomposable if the
    patched technique is no longer acceptable. ``apply_changes`` with one
    case.
    """
    return apply_changes([(tech, change)])[0]


def apply_changes(cases) -> list[Technology]:
    """``apply_change`` for each ``(tech, change)``, certified together.

    Every patched technique of one size is validated in one stacked
    check by ``certify_techniques``. A failing case raises what
    ``apply_change`` raises for it.
    """
    inputs, labor = [], []
    for tech, change in cases:
        _require_fit(tech, change)
        patched, new_labor = tech.inputs.copy(), tech.labor.copy()
        patched[:, change.sector] = change.new_column
        new_labor[change.sector] = change.new_labor
        inputs.append(patched)
        labor.append(new_labor)
    return certify_techniques(inputs, labor)


def load_tech_change(path) -> TechChange:
    """Read a ``{"sector": ..., "column": ..., "labor": ...}`` JSON file.

    The on-disk sector number is 1-based, matching reports; it is shifted
    to the package's 0-based indexing on load.
    """
    with open(path, encoding="utf-8") as handle:
        raw = json.load(handle)
    for key in ("sector", "column", "labor"):
        if key not in raw:
            raise ValueError(f"technical change file is missing key '{key}'")
    sector = raw["sector"]
    # type(), not isinstance(): JSON true is a bool, and bool subclasses int.
    if not (type(sector) is int or type(sector) is float and sector.is_integer()):
        raise InvalidSector(f"sector must be a whole number, got {sector!r}")
    if sector < 1:
        raise InvalidSector(f"sector numbers in files are 1-based, got {sector}")
    return TechChange(
        sector=int(sector) - 1,
        new_column=np.array(raw["column"], dtype=float),
        new_labor=float(raw["labor"]),
    )


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
