"""Span tracing of qcongest's layers from outside the package.

A traced pass replaces selected public functions of the ``qcongest`` modules
with wrappers that record one span per call: name, layer, start, end, the
enclosing span and the algorithm run the call belongs to.  Functions are
patched where their callers look them up (``qcongest.diameter`` imports
``evaluation_procedure`` by name, so the wrapper goes on
``qcongest.diameter.evaluation_procedure``), and every patched attribute is
restored when the ``patched`` context ends.  Spans stay in memory until the
benchmark writes them out.

A layer's self time is the summed duration of its spans minus the part of
each span's interval that its child spans cover.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from qcongest import diameter, evaluation, graphs, harness, procedures, qsearch

BENCH_LAYER = "bench"


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    run_id: int
    notes: dict = field(default_factory=dict)


class Recorder:
    """In-memory span store with a stack of open spans."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._run_depth = 0
        self._runs = 0

    def call(
        self,
        name: str,
        layer: str,
        fn: Callable,
        args: tuple,
        kwargs: dict,
        note: Callable | None = None,
        starts_run: bool = False,
    ):
        """Run ``fn(*args, **kwargs)`` inside a span; ``note(args, result)``
        may attach counts read from the call's arguments and result.  A span
        that ``starts_run`` outside any run opens a new algorithm run; spans
        outside every run get run id 0."""
        if starts_run and self._run_depth == 0:
            self._runs += 1
        self._run_depth += starts_run
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        run_id = self._runs if self._run_depth else 0
        span = Span(name, layer, time.perf_counter(), 0.0, parent, run_id)
        self.spans.append(span)
        self._stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            self._run_depth -= starts_run
        if note is not None:
            span.notes = note(args, result)
        return result


def self_times(spans: list[Span]) -> list[float]:
    """Per span: its duration minus the union of its children's intervals
    (clipped to the span)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        covered, cursor = 0.0, span.start
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        out.append((span.end - span.start) - covered)
    return out


def layer_self_times(spans: list[Span]) -> dict[str, float]:
    totals: dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        totals[span.layer] = totals.get(span.layer, 0.0) + own
    return totals


# ---------------------------------------------------------------------------
# The wrapped functions, one line per (module, attribute) where callers look
# them up.
# ---------------------------------------------------------------------------


def _note_engine(args, result) -> dict:
    report = result[1]
    return {"rounds": report.rounds, "words": report.total_words}


def _note_maximize(args, result) -> dict:
    cost = result[1]
    return {
        "support": int(np.count_nonzero(args[1].setup_amps)),
        "calls": cost.total_calls,
        "setup_calls": cost.setup_calls,
        "inverse_calls": cost.inverse_calls,
    }


def _note_decide(args, result) -> dict:
    return {"found": result[0] is not None}


# (module, attribute, span name, layer, note, starts a run)
WRAPPED = (
    (graphs, "generate", "graphs.generate", "graphs", None, False),
    (graphs, "diameter_bruteforce", "graphs.oracle", "graphs", None, False),
    (graphs, "eccentricity", "graphs.eccentricity", "graphs", None, False),
    (procedures, "run", "engine.run", "engine", _note_engine, False),
    (evaluation, "run", "engine.run", "engine", _note_engine, False),
    (diameter, "elect_leader_and_ecc", "procedures.elect", "procedures", None, False),
    (diameter, "build_bfs_tree", "procedures.bfs_tree", "procedures", None, False),
    (diameter, "eccentricity_simple_eval", "procedures.simple_eval", "procedures", None, False),
    (diameter, "multi_source_bfs", "procedures.multi_source_bfs", "procedures", None, False),
    (diameter, "argmax_convergecast", "procedures.argmax", "procedures", None, False),
    (diameter, "make_eval_context", "evaluation.context", "evaluation", None, False),
    (diameter, "evaluation_procedure", "evaluation.branch", "evaluation", None, False),
    (diameter, "quantum_maximize", "qsearch.maximize", "qsearch", _note_maximize, False),
    (qsearch, "amplitude_amplify_decide", "qsearch.decide", "qsearch", _note_decide, False),
    (diameter, "exact_diameter", "diameter.exact", "diameter", None, True),
    (diameter, "exact_diameter_simple", "diameter.simple", "diameter", None, True),
    (diameter, "approx_diameter", "diameter.approx", "diameter", None, True),
    (harness, "exact_diameter", "diameter.exact", "diameter", None, True),
    (harness, "exact_diameter_simple", "diameter.simple", "diameter", None, True),
    (harness, "approx_diameter", "diameter.approx", "diameter", None, True),
    (harness, "run_grid", "harness.run_grid", "harness", None, False),
    (harness, "run_one", "harness.run_one", "harness", None, True),
    (harness, "rows_to_csv", "harness.rows_to_csv", "harness", None, False),
)


@contextmanager
def patched(replacements) -> Iterator[None]:
    """Set ``(obj, attr, value)`` attributes, restoring the originals on exit."""
    saved = []
    try:
        for obj, attr, value in replacements:
            saved.append((obj, attr, getattr(obj, attr)))
            setattr(obj, attr, value)
        yield
    finally:
        for obj, attr, original in reversed(saved):
            setattr(obj, attr, original)


def _span_wrapper(recorder: Recorder, fn, name, layer, note, starts_run):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return recorder.call(name, layer, fn, args, kwargs, note, starts_run)

    return wrapper


@contextmanager
def tracing(recorder: Recorder) -> Iterator[None]:
    """Record spans of every function in ``WRAPPED`` while the block runs."""
    with patched(
        (module, attr, _span_wrapper(recorder, getattr(module, attr), name, layer, note, run))
        for module, attr, name, layer, note, run in WRAPPED
    ):
        yield


# ---------------------------------------------------------------------------
# Per-layer metrics of one traced pass.
# ---------------------------------------------------------------------------

LAYER_METRICS = (
    ("graphs.generate_s", "s"),
    ("graphs.oracle_s", "s"),
    ("graphs.self_s", "s"),
    ("engine.run_calls", "count"),
    ("engine.run_s", "s"),
    ("engine.rounds", "count"),
    ("engine.words", "count"),
    ("engine.rounds_per_s", "1/s"),
    ("engine.words_per_s", "1/s"),
    ("procedures.elect_ms", "ms"),
    ("procedures.bfs_tree_ms", "ms"),
    ("procedures.simple_eval_ms", "ms"),
    ("procedures.simple_eval_calls", "count"),
    ("procedures.multi_source_bfs_ms", "ms"),
    ("procedures.argmax_ms", "ms"),
    ("procedures.self_s", "s"),
    ("evaluation.branch_ms", "ms"),
    ("evaluation.branches", "count"),
    ("evaluation.branches_per_candidate", "ratio"),
    ("evaluation.context_ms", "ms"),
    ("evaluation.self_s", "s"),
    ("qsearch.self_s", "s"),
    ("qsearch.decisions", "count"),
    ("qsearch.decide_ms", "ms"),
    ("qsearch.grover_iterations", "count"),
    ("qsearch.tries", "count"),
    ("qsearch.found_ratio", "ratio"),
    ("qsearch.oracle_calls", "count"),
    ("diameter.self_s", "s"),
    ("harness.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.outside_s", "s"),
    ("trace.overhead_s", "s"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def pass_metrics(spans: list[Span], factor: float = 1.0) -> dict[str, float]:
    """Per-layer metrics of one traced pass whose timed calls are the
    ``bench`` layer's root spans, with times multiplied by the host speed
    ``factor``.  ``graphs.generate_s`` and ``trace.overhead_s`` need figures
    from outside the pass and are left to the caller."""
    metrics = _raw_pass_metrics(spans)
    units = dict(LAYER_METRICS)
    for key, value in metrics.items():
        if units[key] in ("s", "ms"):
            metrics[key] = value * factor
        elif units[key] == "1/s":
            metrics[key] = value / factor
    return metrics


def _raw_pass_metrics(spans: list[Span]) -> dict[str, float]:
    own = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span.name, []).append(i)

    def total(name: str) -> float:
        return sum(spans[i].end - spans[i].start for i in by_name.get(name, ()))

    def count(name: str) -> int:
        return len(by_name.get(name, ()))

    def mean_ms(name: str) -> float:
        return 1e3 * _ratio(total(name), count(name))

    def notes(name: str, key: str) -> int:
        return sum(spans[i].notes[key] for i in by_name.get(name, ()))

    layers = layer_self_times(spans)
    wall = sum(s.end - s.start for s in spans if s.layer == BENCH_LAYER and s.parent is None)
    engine_s = total("engine.run")
    decisions = count("qsearch.decide")
    decide_self = sum(own[i] for i in by_name.get("qsearch.decide", ()))
    iterations = notes("qsearch.maximize", "inverse_calls") // 2
    return {
        "graphs.oracle_s": total("graphs.oracle"),
        "graphs.self_s": layers.get("graphs", 0.0),
        "engine.run_calls": count("engine.run"),
        "engine.run_s": engine_s,
        "engine.rounds": notes("engine.run", "rounds"),
        "engine.words": notes("engine.run", "words"),
        "engine.rounds_per_s": _ratio(notes("engine.run", "rounds"), engine_s),
        "engine.words_per_s": _ratio(notes("engine.run", "words"), engine_s),
        "procedures.elect_ms": mean_ms("procedures.elect"),
        "procedures.bfs_tree_ms": mean_ms("procedures.bfs_tree"),
        "procedures.simple_eval_ms": mean_ms("procedures.simple_eval"),
        "procedures.simple_eval_calls": count("procedures.simple_eval"),
        "procedures.multi_source_bfs_ms": mean_ms("procedures.multi_source_bfs"),
        "procedures.argmax_ms": mean_ms("procedures.argmax"),
        "procedures.self_s": layers.get("procedures", 0.0),
        "evaluation.branch_ms": mean_ms("evaluation.branch"),
        "evaluation.branches": count("evaluation.branch"),
        "evaluation.branches_per_candidate": _ratio(
            count("evaluation.branch"),
            sum(
                spans[i].notes["support"]
                for i in by_name.get("qsearch.maximize", ())
                if spans[i].parent is not None
                and spans[spans[i].parent].name in ("diameter.exact", "diameter.approx")
            ),
        ),
        "evaluation.context_ms": mean_ms("evaluation.context"),
        "evaluation.self_s": layers.get("evaluation", 0.0),
        "qsearch.self_s": layers.get("qsearch", 0.0),
        "qsearch.decisions": decisions,
        "qsearch.decide_ms": 1e3 * _ratio(decide_self, decisions),
        "qsearch.grover_iterations": iterations,
        "qsearch.tries": notes("qsearch.maximize", "setup_calls") - iterations,
        "qsearch.found_ratio": _ratio(
            sum(spans[i].notes["found"] for i in by_name.get("qsearch.decide", ())), decisions
        ),
        "qsearch.oracle_calls": notes("qsearch.maximize", "calls"),
        "diameter.self_s": layers.get("diameter", 0.0),
        "harness.self_s": layers.get("harness", 0.0),
        "trace.wall_s": wall,
        "trace.outside_s": layers.get(BENCH_LAYER, 0.0),
    }
