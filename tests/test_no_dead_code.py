"""Lint: every top-level function and class in the package has a use.

A definition counts as used when another top-level statement of the
package names it, as a name or an attribute, or when ``__init__.py``
imports it.  Names that only the tests or the benchmark call are dead code
to the package and are listed in ``ALLOWED`` with their reason.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qcongest"

ALLOWED = {
    # the test reference of the window table: the tests check every row of
    # evaluation's closed-form table against this walk
    "_walk_positions",
    # the two-party cost of the reduction, waiting for a caller that
    # charges a lower-bound protocol (ROADMAP item 10)
    "reduction_protocol_cost",
}


def _named(node: ast.AST) -> set[str]:
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def _definitions_and_uses() -> tuple[dict[str, str], set[str]]:
    defined: dict[str, str] = {}
    uses: set[str] = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        module = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for stmt in module.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined[stmt.name] = path.name
                uses |= _named(stmt) - {stmt.name}
            elif path.name == "__init__.py" and isinstance(stmt, ast.ImportFrom):
                uses |= {alias.name for alias in stmt.names}
            else:
                uses |= _named(stmt)
    return defined, uses


def test_the_scan_sees_the_package():
    defined, uses = _definitions_and_uses()
    assert defined["exact_diameter"] == "diameter.py"
    assert "exact_diameter" in uses  # imported by __init__.py and the harness
    assert ALLOWED <= defined.keys()


def test_every_top_level_definition_is_used():
    defined, uses = _definitions_and_uses()
    unused = sorted(f"{defined[name]}:{name}" for name in defined.keys() - uses - ALLOWED)
    assert not unused, f"top-level definitions named nowhere else in the package: {unused}"


def test_every_allowed_name_is_still_unused():
    defined, uses = _definitions_and_uses()
    assert not ALLOWED & uses, f"allowed names that now have a use: {sorted(ALLOWED & uses)}"
