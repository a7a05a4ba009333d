from __future__ import annotations

import copy
import dataclasses
import gc
import itertools
import math
import weakref

import pytest

from qcongest import diameter, evaluation, graphs, procedures
from qcongest.diameter import (
    LEADER_QUBIT_C2,
    AlgorithmError,
    approx_diameter,
    approx_guarantee_holds,
    exact_diameter,
    exact_diameter_simple,
)
from qcongest.engine import CostReport
from qcongest.graphs import generate
from qcongest.procedures import id_bits


def test_exact_on_clique():
    g = generate("random", 4, seed=0, p=1.0)
    assert exact_diameter(g, seed=1).d_out == 1
    assert exact_diameter_simple(g, seed=1).d_out == 1


def test_exact_on_path_p10():
    g = graphs.path_graph(10)
    assert exact_diameter(g, seed=2).d_out == 9
    assert exact_diameter_simple(g, seed=2).d_out == 9


@pytest.mark.parametrize("seed", range(10))
def test_exact_matches_bruteforce_random(seed):
    g = generate("random", 18, seed=seed, p=0.2)
    d_true = graphs.diameter_bruteforce(g)
    assert exact_diameter(g, seed=seed).d_out == d_true
    assert exact_diameter_simple(g, seed=seed).d_out == d_true


def on_engine(algorithm, g, seed, monkeypatch):
    """A run whose every evaluation branch runs on the word-level engine."""
    with monkeypatch.context() as patch:
        patch.setattr(diameter, "evaluation_procedure", evaluation.evaluate_on_engine)
        return algorithm(g, seed=seed)


def test_exact_engine_backend_agrees(monkeypatch):
    g = generate("lollipop", 11, seed=3)
    d_true = graphs.diameter_bruteforce(g)
    res_fast = exact_diameter(g, seed=5)
    res_engine = on_engine(exact_diameter, g, 5, monkeypatch)
    assert res_fast.d_out == res_engine.d_out == d_true
    assert res_fast.report.rounds == res_engine.report.rounds


def test_exact_engine_backend_agrees_at_n4(monkeypatch):
    # at n=4 a wave word is 2 + 2*3 bits, exactly the 8-bit bandwidth
    g = generate("path", 4, seed=0)
    fast = exact_diameter(g, seed=1)
    engine = on_engine(exact_diameter, g, 1, monkeypatch)
    assert (engine.d_out, engine.report, engine.search, engine.t_eval) == (
        fast.d_out,
        fast.report,
        fast.search,
        fast.t_eval,
    )


def test_approx_guarantee_small_diameter():
    for seed in range(5):
        g = generate("random", 16, seed=seed, p=0.45)
        d_true = graphs.diameter_bruteforce(g)
        assert d_true <= 3
        res = approx_diameter(g, seed=seed)
        assert res.d_out <= d_true <= math.ceil(3 * res.d_out / 2)


def test_approx_on_path_p30():
    g = graphs.path_graph(30)
    res = approx_diameter(g, seed=4)
    assert res.d_out <= 29 <= math.ceil(3 * res.d_out / 2)


@pytest.mark.parametrize("seed", range(8))
def test_approx_guarantee_random(seed):
    g = generate("random", 24, seed=seed, p=0.15)
    d_true = graphs.diameter_bruteforce(g)
    res = approx_diameter(g, seed=seed)
    assert approx_guarantee_holds(res.d_out, d_true)
    assert res.d_out <= d_true  # a true max of true eccentricities


def test_cost_identity_rounds():
    g = generate("cycle", 20, seed=6)
    res = exact_diameter(g, seed=6)
    per_call = max(res.t_setup, res.t_eval)
    assert res.report.rounds == res.t0 + res.search.total_calls * per_call


def test_leader_memory_within_declared_constant():
    for fam, n, p in [("path", 32, None), ("random", 32, 0.2), ("lollipop", 21, None)]:
        g = generate(fam, n, seed=1, p=p)
        res = exact_diameter(g, seed=1)
        leader = res.report.leader
        peak = res.report.per_node_peak_qubits[leader]
        assert peak <= LEADER_QUBIT_C2 * id_bits(n) ** 2


def test_node_memory_smaller_than_leader():
    g = generate("random", 24, seed=2, p=0.2)
    res = exact_diameter(g, seed=2)
    leader = res.report.leader
    qubits = res.report.per_node_peak_qubits
    assert all(qubits[v] <= qubits[leader] for v in range(g.n))


def test_trivial_sizes():
    one = graphs.Graph.from_edges(1, [])
    two = graphs.path_graph(2)
    assert exact_diameter(one).d_out == 0
    assert exact_diameter(two).d_out == 1
    assert approx_diameter(two).d_out == 1


def test_determinism_same_seed():
    g = generate("grid", 20, seed=7)
    a = exact_diameter(g, seed=9)
    b = exact_diameter(g, seed=9)
    assert (a.d_out, a.report.rounds, a.search.total_calls) == (
        b.d_out,
        b.report.rounds,
        b.search.total_calls,
    )


def test_approx_engine_backend_agrees_when_the_walk_wraps(monkeypatch):
    # |R| <= d here: the engine's token walk revisits nodes of the tour
    g = generate("path", 12, seed=0)
    fast = approx_diameter(g, seed=1)
    engine = on_engine(approx_diameter, g, 1, monkeypatch)
    assert fast.details["r_size"] <= fast.d
    assert (engine.d_out, engine.report, engine.search, engine.t_eval) == (
        fast.d_out,
        fast.report,
        fast.search,
        fast.t_eval,
    )


@pytest.mark.parametrize("algo", [exact_diameter, exact_diameter_simple, approx_diameter])
def test_leader_memory_bound_is_checked(algo, monkeypatch):
    monkeypatch.setattr(diameter, "LEADER_QUBIT_C2", 1)
    with pytest.raises(AlgorithmError, match="leader peak"):
        algo(generate("random", 16, seed=3, p=0.3), seed=3)


def _evaluation_with_rounds(monkeypatch, rounds_of):
    """Patch the windowed search's reader so that its k-th call reports
    ``rounds_of(ectx, k)`` rounds."""
    calls = itertools.count()

    def reader(ectx, u0):
        branch = evaluation.evaluation_procedure(ectx, u0)
        return branch._replace(rounds=rounds_of(ectx, next(calls)))

    monkeypatch.setattr(diameter, "evaluation_procedure", reader)


@pytest.mark.parametrize("algo", [exact_diameter, approx_diameter])
def test_branch_dependent_evaluation_cost_is_refused(algo, monkeypatch):
    g = generate("path", 30, seed=2)
    assert algo(g, seed=1).details.get("r_size", g.n) >= 2
    _evaluation_with_rounds(monkeypatch, lambda ectx, k: ectx.total_rounds + (k == 0))
    with pytest.raises(AlgorithmError, match="evaluation cost must be branch-uniform"):
        algo(g, seed=1)


@pytest.mark.parametrize("algo", [exact_diameter, approx_diameter])
def test_evaluation_cost_beyond_the_declared_bound_is_refused(algo, monkeypatch):
    g = generate("path", 30, seed=2)
    # a call is charged twice the row's forward rounds; the bound is even
    bound = lambda ectx: 18 * ectx.tree.ecc_leader + diameter.EVAL_ROUND_SLACK
    _evaluation_with_rounds(monkeypatch, lambda ectx, k: bound(ectx) // 2)
    algo(g, seed=1)  # the bound itself is allowed
    _evaluation_with_rounds(monkeypatch, lambda ectx, k: bound(ectx) // 2 + 1)
    with pytest.raises(AlgorithmError, match=r"rounds, exceeding 18\*\d+\+8"):
        algo(g, seed=1)


def test_consecutive_runs_on_one_graph_share_one_preparation(monkeypatch):
    built = []

    def counting(g):
        built.append(g)
        return procedures.all_sources_distances(g)

    monkeypatch.setattr(diameter, "all_sources_distances", counting)
    algos = (exact_diameter, approx_diameter, exact_diameter_simple)
    g = generate("random", 24, seed=1, p=0.2)
    prep = diameter.prepare(g)
    shared = [algo(prep, seed=1) for algo in algos]
    assert built == [g]
    # a graph is prepared inside each run, for that run alone
    assert [algo(g, seed=1) for algo in algos] == shared
    assert built == [g] * 4
    other = diameter.prepare(generate("random", 24, seed=2, p=0.2))
    assert len(built) == 5 and built[4] is other.g and other.g != g
    # the results, still held, keep neither the preparation nor its matrix
    matrix = weakref.ref(prep.dist)
    del prep
    gc.collect()
    assert matrix() is None and len(shared) == 3


def test_runs_on_one_graph_build_its_adjacency_arrays_once(monkeypatch):
    built = []

    def counting(g):
        built.append(g)
        return csr(g)

    csr = procedures._csr
    monkeypatch.setattr(procedures, "_csr", counting)
    g = generate("random", 24, seed=3, p=0.2)
    # the matrix, the election, the leader tree and approx's tree of w, in
    # runs that share one preparation and in runs that each prepare the graph
    prep = diameter.prepare(g)
    for network in (prep, g):
        for algo in (exact_diameter, exact_diameter_simple, approx_diameter):
            algo(network, seed=1)
    assert len(built) == 1 and built[0] is g
    arrays = procedures._adjacency(g)
    for got, expected in zip(arrays, csr(g)):
        assert got.tolist() == expected.tolist()
        with pytest.raises(ValueError, match="read-only"):
            got[0] = 0
    # the arrays are keyed by the graph object: an equal graph builds its own
    procedures._adjacency(generate("random", 24, seed=3, p=0.2))
    assert len(built) == 2


@pytest.mark.parametrize("algo", [exact_diameter, exact_diameter_simple, approx_diameter])
def test_a_run_cannot_change_the_shared_preparation(algo):
    g = generate("random", 24, seed=4, p=0.2)
    prep = diameter.prepare(g)
    report = copy.deepcopy(prep.report)
    first = algo(prep, seed=2)
    with pytest.raises(ValueError, match="read-only"):
        prep.dist[0, 1] = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        prep.report = CostReport()
    leader = first.report.leader
    first.report.rounds += 100
    first.report.total_words += 100
    first.report.per_node_peak_bits[leader] += 100
    first.report.per_node_peak_qubits[leader] += 100
    assert prep.report == report
    assert algo(prep, seed=2) == algo(g, seed=2)


def _recording(patch, name):
    """Wrap ``diameter.<name>`` so that each call's arguments are recorded."""
    calls = []
    inner = getattr(diameter, name)
    patch.setattr(diameter, name, lambda *args: calls.append(args) or inner(*args))
    return calls


@pytest.mark.parametrize("family, n, p", [("random", 40, 0.15), ("lollipop", 23, None)])
def test_each_run_reads_every_candidate_once_in_ascending_order(family, n, p, monkeypatch):
    g = generate(family, n, seed=3, p=p)
    for algo in (exact_diameter, exact_diameter_simple, approx_diameter):
        with monkeypatch.context() as patch:
            windowed = _recording(patch, "evaluation_procedure")
            simple = _recording(patch, "eccentricity_simple_eval")
            searches = _recording(patch, "quantum_maximize")
            result = algo(g, seed=5)
        candidates = list(range(g.n))
        if algo is approx_diameter:
            dist = graphs.bfs_distances(g, result.details["w"])
            candidates = sorted(sorted(candidates, key=lambda v: (dist[v], v))[: result.details["s"]])
            assert len(candidates) == result.details["r_size"] < g.n
        # evaluation_procedure(ectx, u0) and eccentricity_simple_eval(g, tree, u0, table)
        reads = [args[1] for args in windowed] + [args[2] for args in simple]
        assert reads == candidates
        assert bool(simple) == (algo is exact_diameter_simple)
        assert len(searches) == 1


@pytest.mark.parametrize("algo", [exact_diameter, exact_diameter_simple, approx_diameter])
def test_each_call_is_charged_its_cleanup_reversal_once(algo, monkeypatch):
    # rows are forward passes; the search alone charges the reversal that
    # mirrors each one
    corpus = [
        generate("path", 12, seed=0),
        generate("cycle", 9, seed=2),
        generate("star", 8, seed=3),
        generate("lollipop", 11, seed=5),
        generate("random", 16, seed=4, p=0.3),
    ]
    for g in corpus:
        rows = []

        def recording(read):
            return lambda *args: rows.append(read(*args)) or rows[-1]

        with monkeypatch.context() as patch:
            for name in ("evaluation_procedure", "eccentricity_simple_eval"):
                patch.setattr(diameter, name, recording(getattr(diameter, name)))
            charged = _recording(patch, "distributed_cost")
            result = algo(g, seed=1)
        ((prep, *_),) = charged
        assert rows and result.t_eval == 2 * max(row.rounds for row in rows)
        words = result.search.total_calls * 2 * max(row.words for row in rows)
        assert result.report.total_words == prep.total_words + words


def test_procedure_reports_name_no_leader():
    g = generate("random", 20, seed=2, p=0.25)
    dist = procedures.all_sources_distances(g)
    tree, _ = procedures.build_bfs_tree(g, 0, dist)
    values = {v: v % 3 for v in range(g.n)}
    reports = [
        procedures.elect_leader_and_ecc(g, dist)[2],
        procedures.elect_on_engine(g)[2],
        procedures.build_bfs_tree(g, 5, dist)[1],
        procedures.bfs_tree_on_engine(g, 0, tree.ecc_leader)[1],
        procedures.multi_source_bfs(g, [1, 7], dist)[1],
        procedures.multi_source_bfs_on_engine(g, [1, 7])[1],
        procedures.argmax_convergecast(g, tree, values, dist)[2],
        procedures.argmax_on_engine(g, tree, values)[2],
    ]
    assert [r.leader for r in reports] == [None] * len(reports)
    run_report = exact_diameter(g, seed=1).report
    assert run_report.leader == 0
    assert run_report.merge(run_report).leader is None


def test_a_runs_report_names_its_coordinator():
    g = generate("random", 48, seed=6, p=0.1)
    for algo in (exact_diameter, exact_diameter_simple):
        result = algo(g, seed=3)
        assert result.report.leader == result.details["leader"] == 0
    result = approx_diameter(g, seed=3)
    assert result.details["leader"] == 0
    assert result.report.leader == result.details["w"]
