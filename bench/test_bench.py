"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest bench -q
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from qcongest import diameter, evaluation, graphs, harness, procedures, qsearch  # noqa: E402

SMOKE = {
    "exact-longpath": dict(families=("path", "cycle", "lollipop"), sizes=(10,), graphs_per_size=1),
    "dense-grid": dict(families=("random:0.3",), sizes=(12,), graphs_per_size=2),
    "simple-engine": dict(families=("path", "random:0.3"), sizes=(10,), graphs_per_size=1),
}


def smoke(name: str, seed: int = 1) -> workloads.Workload:
    spec = dataclasses.replace(workloads.WORKLOADS[name], **SMOKE[name])
    return workloads.build(name, seed, spec)


def test_benchmark_json_names_what_the_runs_print():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(spans.LAYER_METRICS)


def test_own_eccentricities_match_a_path():
    # path 0-1-2-3-4: eccentricities 4 3 2 3 4
    assert checks.eccentricities(5, [(0, 1), (1, 2), (2, 3), (3, 4)]) == [4, 3, 2, 3, 4]
    with pytest.raises(ValueError):
        checks.eccentricities(3, [(0, 1)])


def test_wrong_diameter_and_broken_accounting_count_as_failures(monkeypatch):
    real = diameter.exact_diameter
    doctored = []

    def faulty(g, seed=0, **kwargs):
        result = real(g, seed=seed, **kwargs)
        if len(doctored) == 0:
            result.d_out += 1  # wrong diameter
        elif len(doctored) == 1:
            result.report.rounds += 1  # accounting identity broken
        doctored.append(result)
        return result

    monkeypatch.setattr(diameter, "exact_diameter", faulty)
    passed = smoke("exact-longpath").run_pass()
    attempted, failed, steady = run._failures([passed])
    assert (attempted, failed, steady) == (3, 2, True)
    first, second, third = passed.outcomes
    assert any("diameter is" in f for f in first.failures)
    assert any("charged rounds" in f for f in second.failures)
    assert third.failures == []


def test_each_property_check_fires():
    g = graphs.generate("random", 14, seed=2, p=0.3)
    ecc = checks.eccentricities(g.n, g.edges())
    result = diameter.approx_diameter(g, seed=5)
    assert checks.check_result("approx", g.n, result, ecc) == []
    result.t_eval = 18 * ecc[result.report.leader] + 9
    result.report.per_node_peak_qubits[result.report.leader] = 10**6
    result.search.setup_calls += 10**7
    text = " ".join(checks.check_result("approx", g.n, result, ecc))
    for needle in ("t_eval", "qubits", "budget", "charged rounds"):
        assert needle in text


def test_self_times_on_a_synthetic_span_tree():
    S = spans.Span
    tree = [
        S("bench.timed", "bench", 0.0, 10.0, None, 0),
        S("diameter.exact", "diameter", 1.0, 9.0, 0, 1),
        S("qsearch.maximize", "qsearch", 2.0, 5.0, 1, 1),
        S("evaluation.branch", "evaluation", 3.0, 4.0, 2, 1),
        S("evaluation.branch", "evaluation", 6.0, 8.0, 1, 1),
        # a child reaching past its parent's end only covers up to that end
        S("engine.run", "engine", 7.5, 8.5, 4, 1),
    ]
    assert spans.self_times(tree) == pytest.approx([2.0, 3.0, 2.0, 1.0, 1.5, 1.0])
    layers = spans.layer_self_times(tree)
    assert layers == pytest.approx(
        {"bench": 2.0, "diameter": 3.0, "qsearch": 2.0, "evaluation": 2.5, "engine": 1.0}
    )


def _attributes():
    return {
        (module.__name__, name): value
        for module in (diameter, evaluation, graphs, harness, procedures, qsearch)
        for name, value in vars(module).items()
    }


def test_traced_pass_restores_module_attributes():
    before = _attributes()
    workload = smoke("dense-grid")
    recorder = spans.Recorder()
    with spans.tracing(recorder):
        assert harness.run_one is not before[("qcongest.harness", "run_one")]
        workload.run_pass(recorder)
    with pytest.raises(RuntimeError):
        with spans.tracing(spans.Recorder()):
            raise RuntimeError("a failing traced block")
    after = _attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_smoke_configuration_of_each_workload(name):
    workload = smoke(name)
    untraced = [workload.run_pass()]
    recorder = spans.Recorder()
    with spans.tracing(recorder):
        traced = [(workload.run_pass(recorder), recorder)]
    attempted, failed, steady = run._failures(untraced + [traced[0][0]])
    assert attempted == 2 * len(untraced[0].outcomes) > 0
    assert (failed, steady) == (0, True)

    e2e = run.end_to_end(untraced, [0.1])
    assert set(e2e) == set(run.END_TO_END_UNITS)
    assert all(value > 0 for value in e2e.values())

    layer = run.per_layer(workload, untraced, traced)
    assert [key for key, _ in spans.LAYER_METRICS] == list(layer)
    self_sum = sum(value for key, value in layer.items() if key.endswith(".self_s"))
    self_sum += layer["engine.run_s"] + layer["trace.outside_s"]
    assert self_sum == pytest.approx(layer["trace.wall_s"], rel=1e-9)
    assert layer["qsearch.oracle_calls"] > 0
    runs = {s.run_id for s in recorder.spans if s.layer == "diameter"}
    assert len(runs) == len(traced[0][0].outcomes) and 0 not in runs
    assert all(s.run_id > 0 for s in recorder.spans if s.layer == "evaluation")
    if name == "simple-engine":
        assert layer["evaluation.branches"] == 0
        assert layer["procedures.simple_eval_calls"] > 0
    else:
        assert layer["evaluation.branches_per_candidate"] == 1.0


def test_missing_sources_exit_nonzero(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path)
    assert run.main(["--workload", "simple-engine", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
