"""A fully worked three-sector economy with frozen reference numbers.

The numbers below were produced once, independently of this package's
solvers, and are replayed as a golden regression: ``replay()`` recomputes
every figure and compares it at ``tolerances.REPLAY_TOL``. The economy
has a viable capital-using labor-saving change in sector 3 and a
replacement wage bundle that keeps the exploitation rate at 0.75 while
the profit rate falls from about 0.176 to about 0.160.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .equilibrium import admissibility, uniform_profit_rate
from .linear_economy import Technology, WageBundle, exploitation_rate, value_of_bundle
from .synthesis import analyze_change
from .technical_change import TechChange
from .tolerances import REPLAY_TOL, matches

_INPUTS = [
    [0.35, 0.05, 0.25],
    [0.15, 0.45, 0.05],
    [0.15, 0.15, 0.35],
]
_LABOR = [0.2, 0.15, 0.25]
_BUNDLE = [1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0]

# Sector 3 gets a dearer column and less direct labor.
_NEW_COLUMN = [0.27, 0.07, 0.37]
_NEW_LABOR = 0.18

# Replacement bundle as printed in the reference run (6 decimals): sector
# 2 heavy, equal quantities of the others. tests/test_synthesis.py rebuilds
# it at full precision with EqualOffPivot(pivot=1, value=1.170977).
_PRINTED_BUNDLE = [0.008613, 1.170977, 0.008613]

REFERENCE = {
    "profit_rate": 0.1764706,
    "price_1": 1.0,
    "price_2": 0.9090909,
    "price_3": 1.0909091,
    "labor_value_1": 0.5714286,
    "labor_value_2": 0.5,
    "labor_value_3": 0.6428571,
    "bundle_value": 0.5714286,
    "exploitation": 0.75,
    "max_price_value_ratio": 1.8181818,
    "cost_before": 0.9272727,
    "cost_after": 0.9172727,
    "break_even_wage": 1.0555556,
    "new_labor_value_1": 0.5511364,
    "new_labor_value_2": 0.4797078,
    "new_labor_value_3": 0.5752165,
    "price_intercept_1": 1.0555556,
    "price_intercept_2": 1.1611111,
    "price_intercept_3": 0.9675926,
    "value_intercept_1": 1.0368189,
    "value_intercept_2": 1.1912014,
    "value_intercept_3": 0.9934149,
    "new_bundle_value": 0.5714286,
    "new_exploitation": 0.75,
    "new_profit_rate": 0.1604551,
    "new_price_1": 0.9288424,
    "new_price_2": 0.8398318,
    "new_price_3": 0.9956171,
    "new_max_price_value_ratio": 1.7507170,
}


def economy() -> tuple[Technology, WageBundle]:
    return Technology(np.array(_INPUTS), np.array(_LABOR)), WageBundle(np.array(_BUNDLE))


def change() -> TechChange:
    return TechChange(sector=2, new_column=np.array(_NEW_COLUMN), new_labor=_NEW_LABOR)


def printed_bundle() -> WageBundle:
    """The replacement bundle exactly as printed in the reference run."""
    return WageBundle(np.array(_PRINTED_BUNDLE))


@dataclass(frozen=True)
class Check:
    name: str
    expected: float
    actual: float
    ok: bool


@dataclass(frozen=True)
class ReplayReport:
    checks: tuple
    elapsed: float

    @property
    def passed(self) -> bool:
        return all(check.ok for check in self.checks)


def replay(perturb: bool = False) -> ReplayReport:
    """Recompute every reference figure and compare at REPLAY_TOL.

    ``perturb`` nudges one input coefficient before solving; it exists as
    a negative control, making the comparison fail on purpose.
    """
    start = time.perf_counter()
    tech, bundle = economy()
    if perturb:
        inputs = tech.inputs.copy()
        inputs[0, 0] += 0.01
        tech = Technology(inputs, tech.labor)
    equilibrium = uniform_profit_rate(tech, bundle)
    analysis = analyze_change(tech, bundle, equilibrium, change())
    values, bundle_value = analysis.values.values, analysis.values.bundle_value
    flags = admissibility(equilibrium.prices, values, bundle_value)
    classification, new_values = analysis.classification, analysis.new_values
    region = analysis.region
    new_bundle = printed_bundle()
    post = uniform_profit_rate(analysis.patched, new_bundle)
    new_bundle_value = value_of_bundle(new_values, new_bundle)
    post_flags = admissibility(post.prices, new_values, new_bundle_value)

    actual = {
        "profit_rate": equilibrium.profit_rate,
        "price_1": equilibrium.prices[0],
        "price_2": equilibrium.prices[1],
        "price_3": equilibrium.prices[2],
        "labor_value_1": values[0],
        "labor_value_2": values[1],
        "labor_value_3": values[2],
        "bundle_value": bundle_value,
        "exploitation": analysis.values.exploitation,
        "max_price_value_ratio": flags.max_ratio,
        "cost_before": classification.cost_pre,
        "cost_after": classification.cost_post,
        "break_even_wage": classification.break_even_wage,
        "new_labor_value_1": new_values[0],
        "new_labor_value_2": new_values[1],
        "new_labor_value_3": new_values[2],
        "price_intercept_1": region.price_plane_intercepts[0],
        "price_intercept_2": region.price_plane_intercepts[1],
        "price_intercept_3": region.price_plane_intercepts[2],
        "value_intercept_1": region.value_plane_intercepts[0],
        "value_intercept_2": region.value_plane_intercepts[1],
        "value_intercept_3": region.value_plane_intercepts[2],
        "new_bundle_value": new_bundle_value,
        "new_exploitation": exploitation_rate(new_bundle_value),
        "new_profit_rate": post.profit_rate,
        "new_price_1": post.prices[0],
        "new_price_2": post.prices[1],
        "new_price_3": post.prices[2],
        "new_max_price_value_ratio": post_flags.max_ratio,
    }
    checks = tuple(
        Check(
            name=name,
            expected=expected,
            actual=float(actual[name]),
            ok=matches(float(actual[name]), expected, REPLAY_TOL),
        )
        for name, expected in REFERENCE.items()
    )
    return ReplayReport(checks=checks, elapsed=time.perf_counter() - start)
