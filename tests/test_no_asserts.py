"""Lint: no ``assert`` statement and no ``raise AssertionError`` in the package.

``python -O`` strips assert statements, so a runtime invariant written as
one silently stops being checked.  A raised ``AssertionError`` survives
``-O`` but reads as a failed test, not as the package's own error type.
Every invariant raises one of the package's exceptions instead.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qcongest"
MODULES = sorted(PACKAGE.rglob("*.py"))


def _asserts(node: ast.AST) -> bool:
    """An assert statement, or a raise of ``AssertionError`` or a call of it."""
    if isinstance(node, ast.Raise) and node.exc is not None:
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        return isinstance(exc, ast.Name) and exc.id == "AssertionError"
    return isinstance(node, ast.Assert)


def test_the_package_is_found():
    assert PACKAGE / "engine.py" in MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(PACKAGE).as_posix())
def test_module_has_no_assert(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if _asserts(node)]
    assert not lines, f"{path.name}: assert statements or raised AssertionErrors on lines {lines}"
