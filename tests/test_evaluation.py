from __future__ import annotations

import itertools

import pytest

from qcongest import evaluation, graphs
from qcongest.evaluation import (
    EvaluationInvariantError,
    _evaluate_engine,
    evaluation_procedure,
    make_eval_context,
)
from qcongest.graphs import generate
from qcongest.procedures import build_bfs_tree, dfs_numbering, elect_leader_and_ecc, set_S

CORPUS = [
    ("path", 6, 1, None),
    ("cycle", 10, 2, None),
    ("star", 7, 3, None),
    ("grid", 12, 4, None),
    ("lollipop", 11, 5, None),
    ("random", 15, 6, 0.25),
    ("random", 20, 7, 0.15),
]


def prepared(spec):
    fam, n, seed, p = spec
    g = generate(fam, n, seed=seed, p=p)
    leader, ecc, _ = elect_leader_and_ecc(g)
    tree, _ = build_bfs_tree(g, leader, ecc)
    return g, tree


def window_max_oracle(g, tree, u0, d, restrict=None):
    num = dfs_numbering(tree, restrict)
    return max(graphs.eccentricity(g, v) for v in set_S(u0, d, num))


def test_path_hand_example():
    # 0-1-2 with the root at node 0 and u0 = 2: window {2, 0}, both ecc 2
    g = graphs.path_graph(3)
    tree, _ = build_bfs_tree(g, 0, 2)
    f, _ = evaluation_procedure(g, tree, 2)
    assert f == 2
    assert f == window_max_oracle(g, tree, 2, 2)


def test_f_equals_diameter_when_window_covers_all():
    # ecc(leader) >= n/2 on a cycle makes 2d >= 2n - 2: the window is V
    g = graphs.cycle_graph(8)
    tree, _ = build_bfs_tree(g, 0, 4)
    d_true = graphs.diameter_bruteforce(g)
    for u0 in range(g.n):
        f, _ = evaluation_procedure(g, tree, u0)
        assert f == d_true


@pytest.mark.parametrize("spec", CORPUS, ids=[f"{s[0]}-{s[1]}" for s in CORPUS])
def test_matches_oracle_both_backends(spec):
    g, tree = prepared(spec)
    d = tree.ecc_leader
    ectx = make_eval_context(g, tree)
    for u0 in range(g.n):
        expected = window_max_oracle(g, tree, u0, d)
        f_fast, rep_fast = evaluation_procedure(g, tree, u0, backend="fast", ectx=ectx)
        f_eng, rep_eng = evaluation_procedure(g, tree, u0, backend="engine", ectx=ectx)
        assert f_fast == expected
        assert f_eng == expected
        assert rep_fast.rounds == rep_eng.rounds
        assert rep_fast.total_words == rep_eng.total_words


@pytest.mark.parametrize("spec", CORPUS[:4], ids=[f"{s[0]}-{s[1]}" for s in CORPUS[:4]])
def test_round_cost_is_branch_uniform_and_bounded(spec):
    g, tree = prepared(spec)
    d = tree.ecc_leader
    ectx = make_eval_context(g, tree)
    rounds = set()
    for u0 in range(g.n):
        _, rep = evaluation_procedure(g, tree, u0, ectx=ectx)
        rounds.add(rep.rounds)
    assert len(rounds) == 1
    assert rounds.pop() <= 18 * d + 8


def test_window_distance_bound_on_offsets():
    # offsets are walk positions: d(v, w) <= tau'(w) - tau'(v) inside a window
    g, tree = prepared(("random", 15, 6, 0.25))
    num = dfs_numbering(tree)
    d = tree.ecc_leader
    for u0 in range(g.n):
        s = set_S(u0, d, num)
        taup = {v: (num.tau[v] - num.tau[u0]) % num.index_space for v in s}
        for v, w in itertools.combinations(sorted(s, key=taup.get), 2):
            assert graphs.bfs_distances(g, v)[w] <= taup[w] - taup[v]


def test_restricted_window_evaluation():
    g, tree_l = prepared(("random", 16, 9, 0.25))
    # rebuild the tree from an arbitrary non-leader root, as the
    # approximation algorithm does
    w = max(range(g.n), key=lambda v: (graphs.eccentricity(g, v), -v))
    tree, _ = build_bfs_tree(g, w)
    order = sorted(range(g.n), key=lambda v: (tree.dist[v], v))
    for size in (1, 3, 7):
        restrict = frozenset(order[:size])
        ectx = make_eval_context(g, tree, restrict)
        for u0 in sorted(restrict):
            expected = window_max_oracle(g, tree, u0, tree.ecc_leader, restrict)
            f, _ = evaluation_procedure(
                g, tree, u0, restrict=restrict, ectx=ectx
            )
            assert f == expected


def test_quantum_register_footprint_is_logarithmic():
    g, tree = prepared(("random", 20, 7, 0.15))
    ectx = make_eval_context(g, tree)
    L = (g.n - 1).bit_length()
    assert max(ectx.quantum_bits) <= 8 * L + 16


def test_eval_context_rejects_outside_candidates():
    g, tree = prepared(("path", 6, 1, None))
    restrict = frozenset({tree.leader})
    with pytest.raises(Exception):
        bad = next(v for v in range(g.n) if v not in restrict)
        evaluation_procedure(g, tree, bad, restrict=restrict)


def _contexts(spec):
    """The leader's context over all nodes, plus restricted ones: the s
    nodes closest to the leader or to the farthest node, as the
    approximation algorithm picks them.  Sets with s <= d are included: on
    those the window is wider than the tour, and the token walk revisits
    nodes."""
    g, tree = prepared(spec)
    contexts = [make_eval_context(g, tree)]
    w = max(range(g.n), key=lambda v: (graphs.eccentricity(g, v), -v))
    for root in (tree.leader, w):
        tree_r, _ = build_bfs_tree(g, root)
        order = sorted(range(g.n), key=lambda v: (tree_r.dist[v], v))
        d = tree_r.ecc_leader
        for size in sorted({1, (d + 1) // 2, d, d + 1, g.n - 1}):
            if 0 < size < g.n:
                contexts.append(make_eval_context(g, tree_r, frozenset(order[:size])))
    return contexts


@pytest.mark.parametrize("spec", CORPUS, ids=[f"{s[0]}-{s[1]}" for s in CORPUS])
def test_batched_table_matches_engine_per_branch(spec, monkeypatch):
    for ectx in _contexts(spec):
        # three branches per chunk, so every candidate set spans several chunks
        monkeypatch.setattr(evaluation, "_ROUND_DELIVERY_CAP", 3 * int(ectx.indptr[-1]))
        candidates = sorted(ectx.restrict or range(ectx.g.n))
        assert sorted(ectx.branches) == candidates
        for u0 in candidates:
            f, rounds, words, taup = _evaluate_engine(ectx, u0)
            assert ectx.branches[u0] == (f, words, frozenset(taup))
            assert rounds == ectx.total_rounds


# (u0, node, shift of its offset tau', the invariant error), on the path
# 0-1-...-5 rooted at 0.  Node 2 sits at offset 2 from u0 = 0; offset 1
# starts its wave in the round u0's wave reaches it.
CORRUPTIONS = [
    (0, 2, -1, "node 2 on branch u0=0 keeps a foreign wave in its own start round"),
    (0, 4, -3, "non-identical surviving messages at node 3 on branch u0=0"),
    (2, 5, 5, "wave order violated at node 1 on branch u0=2"),
    (2, 5, 3, "wave order violated at the own start of node 0 on branch u0=2"),
]


@pytest.mark.parametrize("u0, v, shift, message", CORRUPTIONS)
def test_batch_rejects_a_corrupted_branch(u0, v, shift, message, monkeypatch):
    g = graphs.path_graph(6)
    tree, _ = build_bfs_tree(g, 0, 5)
    walk = evaluation._walk_positions

    def shifted(ectx, x):
        taup, sends = walk(ectx, x)
        if x == u0:
            taup = {**taup, v: taup[v] + shift}
        return taup, sends

    monkeypatch.setattr(evaluation, "_walk_positions", shifted)
    with pytest.raises(EvaluationInvariantError, match=message):
        make_eval_context(g, tree).branches
