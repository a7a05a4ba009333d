"""Every producer of a CostReport stores its per-node peaks as NodePeaks, a
list with one entry per node that each report owns.  An evaluation branch
is a row with no peaks; its engine reference checks that each node held the
registers the search charges."""

from __future__ import annotations

import dataclasses

import pytest

from qcongest import diameter, evaluation, graphs, procedures
from qcongest.engine import CostReport, EngineError, EngineTimeout, NodePeaks, RegisterSchema, run
from qcongest.evaluation import evaluate_on_engine, evaluation_procedure, make_eval_context
from qcongest.procedures import (
    ElectionProgram,
    SimpleEvalProgram,
    all_sources_distances,
    argmax_convergecast,
    build_bfs_tree,
    eccentricity_simple_eval,
    elect_leader_and_ecc,
    id_bits,
    multi_source_bfs,
    simple_eval_on_engine,
    simple_eval_table,
)
from qcongest.qsearch import SearchCost, distributed_cost


def assert_peaks(report: CostReport, n: int) -> None:
    for peaks in (report.per_node_peak_bits, report.per_node_peak_qubits):
        assert type(peaks) is NodePeaks
        assert len(peaks) == n
        assert [peaks.get(v) for v in range(n)] == peaks
        assert peaks.get(n, "absent") == "absent" and peaks.get(-1) is None
    assert report.per_node_peak_bits is not report.per_node_peak_qubits


@pytest.fixture(scope="module")
def prepared():
    g = graphs.generate("lollipop", 11, seed=5)
    dist = all_sources_distances(g)
    leader, _, _ = elect_leader_and_ecc(g, dist)
    tree, _ = build_bfs_tree(g, leader, dist)
    return g, dist, tree


def test_engine_runs_report_compact_peaks(prepared):
    g, _, tree = prepared
    _, report = run(g, ElectionProgram(g.n))
    assert_peaks(report, g.n)
    with pytest.raises(EngineTimeout) as timeout:
        run(g, ElectionProgram(g.n), max_rounds=3)
    assert_peaks(timeout.value.report, g.n)
    assert_peaks(run(g, SimpleEvalProgram(g.n, 3, tree))[1], g.n)


def test_closed_forms_report_compact_peaks(prepared):
    g, dist, tree = prepared
    L = id_bits(g.n)
    _, _, election = elect_leader_and_ecc(g, dist)
    assert_peaks(election, g.n)
    assert election.per_node_peak_bits == [8 * L + 1] + [9 * L + 1] * (g.n - 1)
    assert_peaks(build_bfs_tree(g, tree.leader, dist)[1], g.n)
    assert_peaks(multi_source_bfs(g, [1, 4], dist)[1], g.n)
    assert_peaks(argmax_convergecast(g, tree, dict.fromkeys(range(g.n), 1), dist)[2], g.n)


def test_reports_sharing_values_stay_independent(prepared):
    g, dist, tree = prepared
    _, first = build_bfs_tree(g, tree.leader, dist)
    report = distributed_cost(first, 0, 1, 1, 1, SearchCost(1, 1, 1), [4] * g.n, 0.5, 0)
    report.per_node_peak_bits[1] = 10**6
    assert first.per_node_peak_bits[1] == 2 * id_bits(g.n)


def test_references_check_the_charged_branch_registers(prepared, monkeypatch):
    g, dist, tree = prepared
    ectx = make_eval_context(g, tree, dist)
    assert evaluate_on_engine(ectx, 3) == evaluation_procedure(ectx, 3)
    for shift in (-1, 1):
        charged = list(ectx.quantum_bits)
        charged[5] += shift
        off = dataclasses.replace(ectx, quantum_bits=tuple(charged))
        message = f"node 5 held {ectx.quantum_bits[5]} bits in the branch; {charged[5]} are charged"
        with pytest.raises(EngineError, match=message):
            evaluate_on_engine(off, 3)
    table = simple_eval_table(g, tree, dist)
    assert simple_eval_on_engine(g, tree, 3) == eccentricity_simple_eval(g, tree, 3, table)
    declared = procedures.simple_eval_register_bits(g.n)
    for shift in (-1, 1):
        with monkeypatch.context() as patch:
            patch.setattr(procedures, "simple_eval_register_bits", lambda n: declared + shift)
            message = f"node 0 held {declared} bits in the branch; {declared + shift} are charged"
            with pytest.raises(EngineError, match=message):
                simple_eval_on_engine(g, tree, 3)


def test_the_evaluation_reference_checks_its_qubits_apart_from_its_bits(prepared, monkeypatch):
    # a branch register declared classical: the bits still match, the qubits do not
    g, dist, tree = prepared
    ectx = make_eval_context(g, tree, dist)
    schema = evaluation.EvaluationProgram.schema

    def classical_hold(self, ctx):
        fields = schema(self, ctx).fields
        return RegisterSchema(tuple(dataclasses.replace(f, quantum=f.name != "hold") for f in fields))

    monkeypatch.setattr(evaluation.EvaluationProgram, "schema", classical_hold)
    charged = ectx.quantum_bits[0]
    message = f"node 0 held {charged - 2} qubits in the branch; {charged} are charged"
    with pytest.raises(EngineError, match=message):
        evaluate_on_engine(ectx, 3)


def test_merge_and_distributed_cost_report_compact_peaks():
    a = CostReport(1, 2, NodePeaks([3, 1, 4]), NodePeaks([0, 5, 0]))
    b = CostReport(1, 2, NodePeaks([2, 7]), NodePeaks([1, 1, 1]), leader=1)
    merged = a.merge(b)
    assert_peaks(merged, 3)
    assert merged.per_node_peak_bits == [3, 7, 4]
    assert merged.per_node_peak_qubits == [1, 5, 1]
    assert b.merge(a).per_node_peak_bits == [3, 7, 4]
    assert a.merge(CostReport()).per_node_peak_bits == a.per_node_peak_bits
    report = distributed_cost(merged, 0, 1, 1, 1, SearchCost(1, 1, 1), [4, 5, 6], 0.5, 2)
    assert_peaks(report, 3)
    assert report.per_node_peak_bits == merged.per_node_peak_bits
    assert report.per_node_peak_qubits == [4, 5, (6 + 2) * 1]


def test_algorithm_results_report_compact_peaks():
    for n in (1, 2):
        report = diameter._trivial_result(graphs.path_graph(n)).report
        assert type(report.per_node_peak_bits) is NodePeaks
        assert type(report.per_node_peak_qubits) is NodePeaks
        assert len(report.per_node_peak_qubits) == 0
        assert report.per_node_peak_qubits.get(report.leader, 0) == 0
    g = graphs.generate("random", 16, seed=3, p=0.3)
    for algorithm in (diameter.exact_diameter, diameter.exact_diameter_simple, diameter.approx_diameter):
        assert_peaks(algorithm(g, seed=1).report, g.n)
