"""Every producer of a CostReport stores its per-node peaks as NodePeaks, a
list with one entry per node that each report owns."""

from __future__ import annotations

import pytest

from qcongest import diameter, graphs
from qcongest.engine import CostReport, EngineTimeout, NodePeaks, run
from qcongest.evaluation import evaluate_on_engine, evaluation_procedure, make_eval_context
from qcongest.procedures import (
    ElectionProgram,
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
    assert_peaks(simple_eval_on_engine(g, tree, 3)[1], g.n)


def test_closed_forms_report_compact_peaks(prepared):
    g, dist, tree = prepared
    L = id_bits(g.n)
    _, _, election = elect_leader_and_ecc(g, dist)
    assert_peaks(election, g.n)
    assert election.per_node_peak_bits == [8 * L + 1] + [9 * L + 1] * (g.n - 1)
    assert_peaks(build_bfs_tree(g, tree.leader, dist)[1], g.n)
    assert_peaks(multi_source_bfs(g, [1, 4], dist)[1], g.n)
    assert_peaks(argmax_convergecast(g, tree, dict.fromkeys(range(g.n), 1), dist)[2], g.n)
    table = simple_eval_table(g, tree, dist)
    assert_peaks(eccentricity_simple_eval(g, tree, 3, table)[1], g.n)
    ectx = make_eval_context(g, tree, dist)
    for evaluate in (evaluation_procedure, evaluate_on_engine):
        assert_peaks(evaluate(ectx, 3)[1], g.n)


def test_reports_sharing_values_stay_independent(prepared):
    g, dist, tree = prepared
    ectx = make_eval_context(g, tree, dist)
    _, first = evaluation_procedure(ectx, 1)
    _, second = evaluation_procedure(ectx, 2)
    first.per_node_peak_qubits[0] = 10**6
    assert second.per_node_peak_qubits[0] == ectx.quantum_bits[0]
    assert first.per_node_peak_bits[0] == ectx.quantum_bits[0]
    table = simple_eval_table(g, tree, dist)
    _, simple = eccentricity_simple_eval(g, tree, 3, table)
    simple.per_node_peak_bits[0] = 10**6
    assert simple.per_node_peak_qubits[0] != 10**6
    report = distributed_cost(first, 0, 1, 1, 1, SearchCost(1, 1, 1), [4] * g.n, 0.5, 0)
    report.per_node_peak_bits[1] = 10**6
    assert first.per_node_peak_bits[1] == ectx.quantum_bits[1]


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
