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
    AlgorithmError,
    approx_diameter,
    approx_guarantee_holds,
    exact_diameter,
    exact_diameter_simple,
)
from qcongest.engine import CostReport
from qcongest.graphs import generate
from qcongest.procedures import Branch, id_bits
from qcongest.qsearch import SearchCost, SearchError


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


def _calls(k):
    return SearchCost(setup_calls=k, eval_calls=k, inverse_calls=k)


def _search_over_every_node(prep, tree, rows, node_qubits, epsilon):
    """``diameter._search`` coordinated by the root of ``tree``, reading
    ``rows[u0]`` for every node u0, after the preparation ``prep``."""
    return diameter._search(
        tree, range(prep.n), rows.__getitem__, node_qubits, prep.report,
        epsilon=epsilon, delta=None, seed=1, details={},
    )


@pytest.mark.parametrize("k", [0, 4])
def test_the_search_charges_each_call_at_the_slower_of_setup_and_evaluation(k, monkeypatch):
    # rows of 0 rounds, so T_setup = d wins the max; with 0 calls the run
    # costs its preparation alone
    prep = diameter.prepare(generate("lollipop", 11, seed=5))
    d = prep.tree.ecc_leader
    monkeypatch.setattr(diameter, "quantum_maximize", lambda values, state, config: (0, _calls(k)))
    rows = [Branch(u0 % 3, 0, 9 - u0 % 4) for u0 in range(prep.n)]
    result = _search_over_every_node(prep, prep.tree, rows, [4] * prep.n, 0.5)
    assert (result.t0, result.t_setup, result.t_eval) == (prep.report.rounds, d, 0) and d > 0
    assert result.report.rounds == prep.report.rounds + 3 * k * d
    assert result.report.total_words == prep.report.total_words + 3 * k * 2 * 9
    assert result.report.per_node_peak_bits == prep.report.per_node_peak_bits
    assert result.search == _calls(k)  # the call counts are not touched


def test_the_search_charges_its_coordinator_every_threshold_phase():
    g = generate("random", 128, seed=1, p=0.1)
    prep = diameter.prepare(g)
    tree, _ = procedures.build_bfs_tree(g, 3, prep.dist)  # coordinated by node 3
    node_qubits = [20 - v % 3 for v in range(g.n)]
    rows = [Branch(0, 1, 1)] * g.n
    report = _search_over_every_node(prep, tree, rows, node_qubits, 1 / 64).report
    # the coordinator: (max node qubits + 7 index bits) * log2(64)
    assert report.per_node_peak_qubits == node_qubits[:3] + [20 * 6 + 7 * 6] + node_qubits[4:]
    assert report.leader == 3


def node_qubit_bound(n):
    """(6L + 9)(L + 1), the qubits the register formulas allow any node."""
    L = id_bits(n)
    return (6 * L + 9) * (L + 1)


def test_leader_memory_within_declared_constant():
    for fam, n, p in [("path", 32, None), ("random", 32, 0.2), ("lollipop", 21, None)]:
        g = generate(fam, n, seed=1, p=p)
        for algo in (exact_diameter, exact_diameter_simple, approx_diameter):
            assert max(algo(g, seed=1).report.per_node_peak_qubits) <= node_qubit_bound(n)


def test_node_memory_bound_is_reached_at_n4():
    # a star centred on the coordinator, L = 2 and eps = 1/8: its branch
    # register is 5L + 9 = 19 qubits, held with its index L + 1 = 3 times
    res = exact_diameter(generate("random", 4, seed=2, p=0.05), seed=2)
    assert list(res.report.per_node_peak_qubits) == [63, 18, 18, 18]
    assert node_qubit_bound(4) == 63


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


@pytest.mark.parametrize("algo", [exact_diameter, exact_diameter_simple, approx_diameter])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_a_bad_delta_is_refused_before_any_work(algo, n, monkeypatch):
    g = graphs.path_graph(n) if n > 1 else graphs.Graph.from_edges(1, [])
    assert algo(g, delta=0.5).d_out == n - 1
    monkeypatch.setattr(diameter, "all_sources_distances", None)  # no matrix is built
    for delta in (5.0, 1.0, 0.0, 1e-320):
        refused = rf"^delta must be in \(0, 1\) with 1/delta finite, got {delta}$"
        with pytest.raises(SearchError, match=refused):
            algo(g, delta=delta)


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
    assert fast.details["r_size"] <= fast.t_setup
    assert (engine.d_out, engine.report, engine.search, engine.t_eval) == (
        fast.d_out,
        fast.report,
        fast.search,
        fast.t_eval,
    )


def widen_registers(monkeypatch, extra):
    """Every branch register of a run, windowed or simple, holds ``extra(n)``
    more qubits than its formula."""
    field, simple = evaluation._eval_field_bits, procedures.simple_eval_register_bits
    monkeypatch.setattr(evaluation, "_eval_field_bits", lambda n, deg: field(n, deg) + extra(n))
    monkeypatch.setattr(diameter, "simple_eval_register_bits", lambda n: simple(n) + extra(n))


@pytest.mark.parametrize("algo", [exact_diameter, exact_diameter_simple, approx_diameter])
def test_leader_memory_bound_is_checked(algo, monkeypatch):
    # 2n more qubits per register: only the coordinator, which holds its
    # register ceil(log2(1/eps)) >= 3 times, exceeds (6L + 9)(L + 1) = 165
    g = generate("random", 16, seed=3, p=0.3)
    coordinator = algo(g, seed=3).report.leader
    widen_registers(monkeypatch, lambda n: 2 * n)
    with pytest.raises(AlgorithmError, match=rf"^node {coordinator} peak \d+ qubits exceeds 165 "):
        algo(g, seed=3)


@pytest.mark.parametrize("algo", [exact_diameter, exact_diameter_simple, approx_diameter])
def test_every_nodes_memory_bound_is_checked(algo, monkeypatch):
    # n^2 more qubits per register: every node exceeds the bound, node 0 first,
    # also where the coordinator is another node
    g = generate("random", 16, seed=3, p=0.3)
    assert (algo is approx_diameter) == (algo(g, seed=3).report.leader != 0)
    widen_registers(monkeypatch, lambda n: n * n)
    with pytest.raises(AlgorithmError, match=r"^node 0 peak \d+ qubits exceeds 165 "):
        algo(g, seed=3)


def _evaluation_with_rounds(monkeypatch, rounds_of):
    """Patch the windowed search's reader so that its k-th call reports
    ``rounds_of(ectx, k)`` rounds; returns the list of the u0 it reads."""
    calls = itertools.count()
    read = []

    def reader(ectx, u0):
        read.append(u0)
        branch = evaluation.evaluation_procedure(ectx, u0)
        return branch._replace(rounds=rounds_of(ectx, next(calls)))

    monkeypatch.setattr(diameter, "evaluation_procedure", reader)
    return read


@pytest.mark.parametrize("algo", [exact_diameter, approx_diameter])
@pytest.mark.parametrize(
    "off_schedule",
    [
        lambda ectx, k: ectx.total_rounds + (k == 0),  # one row, one round late
        lambda ectx, k: 9 * ectx.d + 4,  # every row at the former 18d + 8 bound
    ],
    ids=["one-row", "every-row"],
)
def test_evaluation_off_the_schedule_is_refused(algo, off_schedule, monkeypatch):
    g = generate("path", 30, seed=2)
    assert algo(g, seed=1).details.get("r_size", g.n) >= 2
    _evaluation_with_rounds(monkeypatch, lambda ectx, k: ectx.total_rounds)
    algo(g, seed=1)  # the schedule itself is allowed
    read = _evaluation_with_rounds(monkeypatch, off_schedule)
    with pytest.raises(AlgorithmError, match=r"rounds, off the 9d\+1 schedule$") as refused:
        algo(g, seed=1)
    assert str(refused.value).startswith(f"evaluation of u0={read[0]} ran ")


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
    patch.setattr(
        diameter, name, lambda *args, **kwargs: calls.append(args) or inner(*args, **kwargs)
    )
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
            searches = _recording(patch, "_search")
            result = algo(g, seed=1)
        ((*_, prep),) = searches  # _search(tree, candidates, read, node_qubits, prep, ...)
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
