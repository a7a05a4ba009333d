from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from qcongest import graphs, procedures
from qcongest.engine import EngineError, EngineTimeout, SchemaViolationError
from qcongest.graphs import generate
from qcongest.procedures import (
    BfsTreeState,
    build_bfs_tree,
    dfs_numbering,
    eccentricity_simple_eval,
    elect_leader_and_ecc,
    multi_source_bfs,
    argmax_convergecast,
    set_S,
    simple_eval_table,
)

CORPUS = [
    ("path", 6, 1, None),
    ("cycle", 9, 2, None),
    ("star", 7, 3, None),
    ("grid", 12, 4, None),
    ("lollipop", 11, 5, None),
    ("random", 14, 6, 0.25),
    ("random", 18, 7, 0.15),
]


def corpus():
    return [generate(f, n, seed=s, p=p) for f, n, s, p in CORPUS]


def make_tree(g) -> BfsTreeState:
    leader, ecc, _ = elect_leader_and_ecc(g)
    tree, _ = build_bfs_tree(g, leader, ecc)
    return tree


# -- leader election ---------------------------------------------------------


def test_election_on_cycle_c4():
    leader, ecc, _ = elect_leader_and_ecc(graphs.cycle_graph(4))
    assert (leader, ecc) == (0, 2)


def test_election_on_k3():
    leader, ecc, _ = elect_leader_and_ecc(graphs.complete_graph(3))
    assert (leader, ecc) == (0, 1)


def test_election_matches_oracle_and_round_bound():
    for g in corpus():
        leader, ecc, report = elect_leader_and_ecc(g)
        assert leader == 0
        assert ecc == graphs.eccentricity(g, 0)
        assert report.rounds <= 3 * ecc + 4


def test_election_single_node():
    g = graphs.Graph.from_edges(1, [])
    leader, ecc, report = elect_leader_and_ecc(g)
    assert (leader, ecc, report.rounds) == (0, 0, 0)


# -- BFS tree construction ----------------------------------------------------


def test_bfs_tree_hand_simulation_on_path():
    g = graphs.path_graph(3)
    tree, report = build_bfs_tree(g, 0, 2)
    assert tree.parent == (0, 0, 1)
    assert tree.dist == (0, 1, 2)
    assert report.rounds == 2  # path of length L with the root at one end


def test_bfs_tree_star_one_round():
    g = graphs.star_graph(6)
    tree, report = build_bfs_tree(g, 0, 1)
    assert all(p == 0 for p in tree.parent)
    assert report.rounds == 1


def test_bfs_tree_matches_oracle():
    for g in corpus():
        tree = make_tree(g)
        oracle = graphs.bfs_distances(g, tree.leader)
        assert all(tree.dist[v] == oracle[v] for v in range(g.n))


def test_bfs_tree_parent_is_min_id_sender():
    # C4: node 2 is reached simultaneously from 1 and 3; parent must be 1
    g = graphs.cycle_graph(4)
    tree, _ = build_bfs_tree(g, 0, 2)
    assert tree.parent[2] == 1


def test_bfs_tree_state_validates():
    with pytest.raises(Exception):
        BfsTreeState(leader=0, ecc_leader=1, parent=(0, 0), dist=(0, 2))


# -- DFS numbering and window sets ---------------------------------------------


def test_dfs_numbering_path():
    tree, _ = build_bfs_tree(graphs.path_graph(3), 0, 2)
    num = dfs_numbering(tree)
    assert num.tau == {0: 0, 1: 1, 2: 2}
    assert num.index_space == 6


def test_dfs_numbering_star_leaf_positions():
    # center 0, leaves 1..3 visited in id order: tau(leaf k) = 2k - 1
    tree, _ = build_bfs_tree(graphs.star_graph(4), 0, 1)
    num = dfs_numbering(tree)
    for k in (1, 2, 3):
        assert num.tau[k] == 2 * k - 1


def test_dfs_traversal_is_closed_walk_of_right_length():
    for g in corpus():
        tree = make_tree(g)
        num = dfs_numbering(tree)
        walk = num.traversal
        assert len(walk) == 2 * (g.n - 1) + 1
        assert walk[0] == walk[-1] == tree.leader
        for a, b in zip(walk, walk[1:]):
            assert tree.parent[a] == b or tree.parent[b] == a
        assert max(num.tau.values()) <= 2 * (g.n - 1)
        assert len(set(num.tau.values())) == g.n  # injective first visits


def test_set_s_covers_everything_for_large_d():
    for g in corpus():
        tree = make_tree(g)
        num = dfs_numbering(tree)
        for u0 in range(g.n):
            assert set_S(u0, g.n, num) == frozenset(range(g.n))
        # at d = n-1 the window misses at most the predecessor index, and
        # never misses anything when u0 is the root
        assert set_S(tree.leader, g.n - 1, num) == frozenset(range(g.n))


def test_set_s_on_path():
    tree, _ = build_bfs_tree(graphs.path_graph(3), 0, 2)
    num = dfs_numbering(tree)
    assert set_S(0, 2, num) == frozenset({0, 1, 2})


def test_set_s_window_coverage_bound():
    # every node appears in at least ceil(d/2) of the n windows
    for g in corpus():
        tree = make_tree(g)
        d = tree.ecc_leader
        num = dfs_numbering(tree)
        members = {v: 0 for v in range(g.n)}
        for u0 in range(g.n):
            for v in set_S(u0, d, num):
                members[v] += 1
        assert min(members.values()) >= math.ceil(d / 2)


def test_set_s_contains_u0_and_respects_oracle_window():
    for g in corpus():
        tree = make_tree(g)
        num = dfs_numbering(tree)
        for d in (1, 2, tree.ecc_leader):
            for u0 in range(g.n):
                s = set_S(u0, d, num)
                assert u0 in s
                for v in s:
                    assert (num.tau[v] - num.tau[u0]) % num.index_space <= 2 * d


def test_restricted_numbering():
    g = generate("random", 12, seed=11, p=0.3)
    tree = make_tree(g)
    order = sorted(range(g.n), key=lambda v: (tree.dist[v], v))
    r = frozenset(order[:5])
    num = dfs_numbering(tree, r)
    assert set(num.tau) == set(r)
    assert num.index_space == 10


# -- simple evaluation ---------------------------------------------------------


def test_simple_eval_path():
    g = graphs.path_graph(4)
    tree, _ = build_bfs_tree(g, 0, 3)
    for u0 in range(4):
        val, _ = eccentricity_simple_eval(g, tree, u0)
        assert val == graphs.eccentricity(g, u0)


def test_simple_eval_star():
    g = graphs.star_graph(5)
    tree, _ = build_bfs_tree(g, 0, 1)
    assert eccentricity_simple_eval(g, tree, 0)[0] == 1
    assert eccentricity_simple_eval(g, tree, 3)[0] == 2


def test_simple_eval_matches_oracle_with_round_bound():
    for g in corpus():
        tree = make_tree(g)
        d = tree.ecc_leader
        for u0 in range(g.n):
            val, report = eccentricity_simple_eval(g, tree, u0)
            ecc = graphs.eccentricity(g, u0)
            assert val == ecc
            assert report.rounds <= 2 * (2 * ecc + d + 4)  # doubled for reversal


def assert_table_matches_engine(g, tree):
    table = simple_eval_table(g, tree)
    for u0 in range(g.n):
        assert eccentricity_simple_eval(g, tree, u0, table) == eccentricity_simple_eval(
            g, tree, u0
        ), u0


def test_simple_eval_table_matches_engine():
    # the 3-node path from its middle node: the leader is ready in its own
    # activation round, so its flood costs one more delivery round
    for g in corpus() + [generate("path", 3, seed=0)]:
        assert_table_matches_engine(g, make_tree(g))


@given(
    st.integers(3, 24),
    st.floats(0.0, 0.5),
    st.integers(0, 10**6),
    st.integers(0, 23),
)
def test_simple_eval_table_matches_engine_on_random_graphs(n, p, seed, root):
    g = generate("random", n, seed=seed, p=p)
    tree, _ = build_bfs_tree(g, root % n)
    assert_table_matches_engine(g, tree)


@pytest.mark.parametrize("limit", [1, 3, 6, 9])
def test_simple_eval_table_times_out_like_the_engine(monkeypatch, limit):
    monkeypatch.setattr(procedures, "_simple_round_limit", lambda n: limit)
    g = generate("lollipop", 11, seed=5)
    tree = make_tree(g)
    with pytest.raises(EngineTimeout) as batched:
        simple_eval_table(g, tree)
    for u0 in range(g.n):
        try:
            eccentricity_simple_eval(g, tree, u0)
        except EngineTimeout as engine:
            assert batched.value.report == engine.report
            assert len(engine.report.per_node_peak_qubits) == g.n
            break
    else:
        pytest.fail("the engine did not time out")


def test_simple_eval_table_checks_register_width(monkeypatch):
    g = graphs.path_graph(5)
    tree, _ = build_bfs_tree(g, 0, 4)
    monkeypatch.setattr(procedures, "id_bits", lambda n: 2)  # distance 4 needs 3
    with pytest.raises(SchemaViolationError):
        simple_eval_table(g, tree)


def test_simple_eval_checks_the_declared_round_bound():
    g = graphs.path_graph(4)
    tree, _ = build_bfs_tree(g, 0, 3)
    table = list(simple_eval_table(g, tree))
    ecc, _, words = table[0]
    table[0] = (ecc, 2 * ecc + tree.ecc_leader + 5, words)
    with pytest.raises(EngineError, match="forward rounds"):
        eccentricity_simple_eval(g, tree, 0, table)


# -- approx-preparation helpers -------------------------------------------------


def test_multi_source_bfs_matches_oracle():
    for g in corpus():
        sources = {0, g.n // 2}
        result, _ = multi_source_bfs(g, sources)
        for v in range(g.n):
            best = min(
                (graphs.bfs_distances(g, s)[v], s) for s in sources
            )
            assert result[v] == best


def test_argmax_convergecast_with_ties():
    for g in corpus():
        tree = make_tree(g)
        values = {v: (v * 7) % 5 for v in range(g.n)}
        best_val, best_node, _ = argmax_convergecast(g, tree, values)
        expect = max(values.values())
        assert best_val == expect
        assert best_node == min(v for v in values if values[v] == expect)
