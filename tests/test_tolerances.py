"""The tolerance ledger is the one place a tolerance is defined.

Every other module reads its tolerances from ``okishio_lab.tolerances``:
none writes a small float literal or defines a module-level ``*_TOL`` or
``*_MARGIN`` of its own.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import okishio_lab
from okishio_lab import tolerances

LEDGER = "tolerances.py"
MODULES = sorted(Path(okishio_lab.__file__).parent.glob("*.py"))


def _tolerances_outside_ledger(source: str) -> list[str]:
    """Each float literal with ``0 < |x| < 1e-6``, and each module-level
    assignment to a ``*_TOL`` or ``*_MARGIN`` name, as ``line: what``."""
    tree = ast.parse(source)
    found = [
        f"{node.lineno}: literal {node.value!r}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and type(node.value) is float
        and 0.0 < abs(node.value) < 1e-6
    ]
    assignments = (ast.Assign, ast.AnnAssign, ast.AugAssign)
    found += [
        f"{node.lineno}: defines {node.id}"
        for statement in tree.body if isinstance(statement, assignments)
        for node in ast.walk(statement)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
        and node.id.endswith(("_TOL", "_MARGIN"))
    ]
    return found


def test_the_walk_sees_the_whole_package():
    assert LEDGER in {path.name for path in MODULES} and len(MODULES) > 5


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != LEDGER], ids=lambda p: p.name)
def test_no_tolerance_outside_the_ledger(path):
    assert _tolerances_outside_ledger(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source", [
    "x = a > b + 1e-12\n",
    "x = delta < -1e-12\n",
    "SOME_TOL = 0.5\n",
    "A_MARGIN: float = 2.0\n",
    "LO_TOL, HI = 1, 2\n",
])
def test_the_walk_finds_a_tolerance(source):
    assert len(_tolerances_outside_ledger(source)) == 1


def test_a_sampled_bundle_is_held_ten_times_tighter_than_a_match():
    assert tolerances.ON_PLANE_TOL == tolerances.MATCH_TOL / 10 == 1e-10


def test_each_rule_is_its_expression():
    a, b = np.array([1.0, 1.0 + 2e-12, 2.0, np.nan]), np.array([1.0, 1.0, 1.0 + 1e-9, 1.0])
    margin = tolerances.STRICT_MARGIN
    assert np.array_equal(tolerances.strictly_above(a, b), a > b + margin)
    assert np.array_equal(tolerances.strictly_below(b, a), b < a - margin)
    assert np.array_equal(tolerances.strict_gain(a - b, b), a - b > margin * b)
    assert np.array_equal(tolerances.matches(a, b), np.abs(a - b) <= tolerances.MATCH_TOL)
    assert tolerances.matches(1.0, 1.0 + 1e-6, tolerances.REPLAY_TOL) is True
