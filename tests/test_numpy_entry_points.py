"""Lint: the run path calls NumPy's C entry points, not its Python-level wrappers.

A run's cost at bench sizes is its fixed per-graph path, and that path is
timed right after a cache-evicting calibration unit, between pure-Python
graph generation and the oracle.  In that cold state NumPy's module-level
wrappers, which run Python code before they reach C, cost 3-6x the C
entry point that computes the same array (single calls, median of 30;
NumPy 2.4 on Python 3.11, a shared 2-core x86-64 host):

    np.tile         44 us    np.array(list * reps)          9 us
    ndarray.clip    50 us    np.minimum(np.maximum(...))   12 us
    np.flatnonzero  21 us    .nonzero()[0]                  6 us
    np.cumsum       28 us    .cumsum()                     13 us
    np.sum          40 us    np.add.reduce              16-20 us
    np.ones         23 us    np.empty                       6 us
    np.argsort      22 us    .argsort()                     8 us
    np.iinfo        26 us    a module constant              0

The modules below therefore use ndarray methods, ufuncs and their
``reduce``, ``np.empty``/``np.zeros`` given a shape and dtype, and a list
product in place of ``np.tile``: the same C loops on the same inputs, so
every value and every draw of the search is unchanged.

``np.count_nonzero`` is allowed: it reaches C after one dispatch, and the
alternative ``.any()`` forwards through ``numpy._core._methods`` and costs
more cold (16 us against 9 us).  The ndarray reductions ``.sum()``,
``.max()``, ``.min()`` and ``.any()`` are allowed as well; they read better
and cost about 4 us more than ``ufunc.reduce``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qcongest"
RUN_PATH = ("procedures.py", "evaluation.py", "qsearch.py", "diameter.py")
WRAPPERS = frozenset({
    "flatnonzero", "tile", "cumsum", "repeat", "full", "ones", "zeros_like", "iinfo",
    "sum", "argsort", "argmax", "searchsorted", "take_along_axis", "nonzero",
})


def _wrapper_call(node: ast.AST) -> str | None:
    """The name of a banned call: ``np.<wrapper>(...)`` or any ``.clip(...)``."""
    if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
        return None
    func = node.func
    if func.attr == "clip":
        return ".clip"
    if isinstance(func.value, ast.Name) and func.value.id == "np" and func.attr in WRAPPERS:
        return f"np.{func.attr}"
    return None


def test_the_lint_catches_each_wrapper():
    calls = [f"np.{name}(x)" for name in sorted(WRAPPERS)] + ["x.clip(1, k)"]
    tree = ast.parse("\n".join(calls))
    assert [_wrapper_call(node) for node in ast.walk(tree) if _wrapper_call(node)] == [
        f"np.{name}" for name in sorted(WRAPPERS)
    ] + [".clip"]
    allowed = ast.parse("x.nonzero()[0]; x.cumsum(); np.count_nonzero(x); np.add.reduce(x)")
    assert not any(_wrapper_call(node) for node in ast.walk(allowed))


@pytest.mark.parametrize("name", RUN_PATH)
def test_module_calls_no_numpy_wrapper(name):
    path = PACKAGE / name
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    calls = sorted(
        (node.lineno, call) for node in ast.walk(tree) if (call := _wrapper_call(node))
    )
    assert not calls, f"{name} calls Python-level NumPy wrappers: {calls}"
