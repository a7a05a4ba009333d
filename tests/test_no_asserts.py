"""Lint: no ``assert`` statement in the package.

``python -O`` strips assert statements, so a runtime invariant written as
one silently stops being checked.  Every invariant raises an exception
instead.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qcongest"
MODULES = sorted(PACKAGE.rglob("*.py"))


def test_the_package_is_found():
    assert PACKAGE / "engine.py" in MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(PACKAGE).as_posix())
def test_module_has_no_assert(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name}: assert statements on lines {lines}"
