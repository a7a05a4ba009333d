"""Lint: every module of the package and the tests parses as Python 3.10.

``pyproject.toml`` declares ``requires-python >= 3.10``, so syntax new in a
later release (``except*``, type parameter lists, ...) must not slip in
unseen where the suite runs on a newer interpreter.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "qcongest").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))


def test_the_sources_are_found():
    assert ROOT / "src" / "qcongest" / "engine.py" in SOURCES
    assert Path(__file__).resolve() in SOURCES


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def test_the_check_refuses_later_syntax():
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
