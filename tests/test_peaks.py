"""Every producer of a CostReport stores its per-node peaks as NodePeaks,
which reads like the n-entry dict the reports used to carry."""

from __future__ import annotations

import pytest

from qcongest import diameter, graphs, procedures
from qcongest.engine import CostReport, EngineError, EngineTimeout, NodePeaks, run
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
    simple_eval_table,
)
from qcongest.qsearch import SearchCost, distributed_cost


def assert_compact(report: CostReport, n: int) -> None:
    for peaks in (report.per_node_peak_bits, report.per_node_peak_qubits):
        assert type(peaks) is NodePeaks
        old = {v: peaks[v] for v in range(n)}  # the dict form of before
        assert len(peaks) == n
        assert peaks == old and old == peaks
        assert list(peaks) == list(range(n)) and dict(peaks.items()) == old
        assert all(peaks.get(v) == old[v] for v in range(n))
        assert peaks.get(n, "absent") == "absent" and peaks.get(-1) is None
        with pytest.raises(KeyError):
            peaks[n]
        # an assigned entry changes this object only, as in a dict copy
        mine = peaks.copy()
        mine[n - 1] = 10**6
        old[n - 1] = 10**6
        assert mine == old and peaks != old
        with pytest.raises(KeyError):
            mine[n] = 1


@pytest.fixture(scope="module")
def prepared():
    g = graphs.generate("lollipop", 11, seed=5)
    dist = all_sources_distances(g)
    leader, _, _ = elect_leader_and_ecc(g, dist)
    tree, _ = build_bfs_tree(g, leader, dist)
    return g, dist, tree


def test_engine_runs_report_compact_peaks(prepared):
    g, _, _ = prepared
    _, report = run(g, ElectionProgram(g.n))
    assert_compact(report, g.n)
    with pytest.raises(EngineTimeout) as timeout:
        run(g, ElectionProgram(g.n), max_rounds=3)
    assert_compact(timeout.value.report, g.n)


def test_closed_forms_report_compact_peaks(prepared, monkeypatch):
    g, dist, tree = prepared
    L = id_bits(g.n)
    _, _, election = elect_leader_and_ecc(g, dist)
    assert_compact(election, g.n)
    assert election.per_node_peak_bits == {v: 9 * L + 1 if v else 8 * L + 1 for v in range(g.n)}
    assert_compact(build_bfs_tree(g, tree.leader, dist)[1], g.n)
    assert_compact(multi_source_bfs(g, [1, 4], dist)[1], g.n)
    assert_compact(argmax_convergecast(g, tree, dict.fromkeys(range(g.n), 1), dist)[2], g.n)
    table = simple_eval_table(g, tree, dist)
    assert_compact(eccentricity_simple_eval(g, tree, 3, table)[1], g.n)
    ectx = make_eval_context(g, tree, dist)
    for evaluate in (evaluation_procedure, evaluate_on_engine):
        assert_compact(evaluate(ectx, 3)[1], g.n)
    monkeypatch.setattr(procedures, "_simple_round_limit", lambda n: 3)
    with pytest.raises(EngineTimeout) as timeout:
        simple_eval_table(g, tree, dist)
    assert_compact(timeout.value.report, g.n)


def test_reports_sharing_values_stay_independent(prepared):
    g, dist, tree = prepared
    ectx = make_eval_context(g, tree, dist)
    _, first = evaluation_procedure(ectx, 1)
    _, second = evaluation_procedure(ectx, 2)
    first.per_node_peak_qubits[0] = 10**6
    assert second.per_node_peak_qubits[0] == ectx.quantum_bits[0]
    assert first.per_node_peak_bits[0] == ectx.quantum_bits[0]


def test_merge_and_distributed_cost_report_compact_peaks():
    a = CostReport(1, 2, NodePeaks([3, 1, 4]), NodePeaks([0, 5, 0]))
    b = CostReport(1, 2, NodePeaks([2, 7]), NodePeaks([1, 1, 1]), leader=1)
    merged = a.merge(b)
    assert_compact(merged, 3)
    assert merged.per_node_peak_bits == {0: 3, 1: 7, 2: 4}
    assert merged.per_node_peak_qubits == {0: 1, 1: 5, 2: 1}
    assert a.merge(CostReport()).per_node_peak_bits == a.per_node_peak_bits
    report = distributed_cost(merged, 0, 1, 1, 1, SearchCost(1, 1, 1), [4, 5, 6], 0.5, 2)
    assert_compact(report, 3)
    assert report.per_node_peak_bits == merged.per_node_peak_bits
    assert report.per_node_peak_qubits == {0: 4, 1: 5, 2: (6 + 2) * 1}


def test_algorithm_results_report_compact_peaks():
    for n in (1, 2):
        report = diameter._trivial_result(graphs.path_graph(n)).report
        assert type(report.per_node_peak_bits) is NodePeaks
        assert type(report.per_node_peak_qubits) is NodePeaks
        assert len(report.per_node_peak_qubits) == 0
        assert report.per_node_peak_qubits.get(report.leader, 0) == 0
    g = graphs.generate("random", 16, seed=3, p=0.3)
    for algorithm in (diameter.exact_diameter, diameter.exact_diameter_simple, diameter.approx_diameter):
        assert_compact(algorithm(g, seed=1).report, g.n)


def test_dict_peaks_are_stored_compactly():
    report = CostReport(per_node_peak_bits={1: 6, 0: 5}, per_node_peak_qubits={0: 2, 1: 0})
    assert_compact(report, 2)
    assert report.per_node_peak_bits.values() == (5, 6)
    with pytest.raises(EngineError):
        CostReport(per_node_peak_bits={0: 5, 2: 6})
