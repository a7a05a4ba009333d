from __future__ import annotations

import itertools
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qcongest import evaluation, graphs, verify
from qcongest.diameter import approx_diameter, approx_guarantee_holds, exact_diameter
from qcongest.engine import EngineError, id_bits
from qcongest.evaluation import (
    EvaluationInvariantError,
    evaluate_on_engine,
    evaluation_procedure,
    make_eval_context,
)
from qcongest.graphs import generate
from qcongest.procedures import (
    BfsTreeState,
    all_sources_distances,
    build_bfs_tree,
    dfs_numbering,
    set_S,
)

CORPUS = [
    ("path", 6, 1, None),
    ("cycle", 10, 2, None),
    ("star", 7, 3, None),
    ("grid", 12, 4, None),
    ("lollipop", 11, 5, None),
    ("random", 15, 6, 0.25),
    ("random", 20, 7, 0.15),
]


def tree_at(g, root):
    return build_bfs_tree(g, root, all_sources_distances(g))[0]


def context(g, tree, restrict=None):
    return make_eval_context(g, tree, all_sources_distances(g), restrict)


def prepared(spec):
    fam, n, seed, p = spec
    g = generate(fam, n, seed=seed, p=p)
    return g, tree_at(g, 0)  # the elected leader is node 0


def window_max_oracle(g, tree, u0, d, restrict=None):
    num = dfs_numbering(tree, restrict)
    return max(graphs.eccentricity(g, v) for v in set_S(u0, d, num))


def test_context_rejects_networks_below_three_nodes():
    # the closed form alone would answer n = 2, which its engine reference
    # cannot: both share the context, which refuses it
    for n in (1, 2):
        g = graphs.path_graph(n)
        tree = BfsTreeState(0, n - 1, (0,) * n, tuple(range(n)))
        with pytest.raises(EngineError, match=f"require n >= 3, got {n}"):
            make_eval_context(g, tree, all_sources_distances(g))


def test_path_hand_example():
    # 0-1-2 with the root at node 0 and u0 = 2: window {2, 0}, both ecc 2
    g = graphs.path_graph(3)
    tree = tree_at(g, 0)
    f = evaluation_procedure(context(g, tree), 2).value
    assert f == 2
    assert f == window_max_oracle(g, tree, 2, 2)


def test_f_equals_diameter_when_window_covers_all():
    # ecc(leader) >= n/2 on a cycle makes 2d >= 2n - 2: the window is V
    g = graphs.cycle_graph(8)
    ectx = context(g, tree_at(g, 0))
    d_true = graphs.diameter_bruteforce(g)
    for u0 in range(g.n):
        assert evaluation_procedure(ectx, u0).value == d_true


@pytest.mark.parametrize("spec", CORPUS, ids=[f"{s[0]}-{s[1]}" for s in CORPUS])
def test_matches_oracle_both_backends(spec):
    g, tree = prepared(spec)
    d = tree.ecc_leader
    ectx = context(g, tree)
    for u0 in range(g.n):
        expected = window_max_oracle(g, tree, u0, d)
        table = evaluation_procedure(ectx, u0)
        assert table.value == expected
        assert table == evaluate_on_engine(ectx, u0)


@pytest.mark.parametrize("spec", CORPUS[:4], ids=[f"{s[0]}-{s[1]}" for s in CORPUS[:4]])
def test_round_cost_is_branch_uniform_and_bounded(spec):
    # every row runs the schedule, so a call is charged 2(9d + 1) with the reversal
    g, tree = prepared(spec)
    ectx = context(g, tree)
    rounds = {2 * evaluation_procedure(ectx, u0).rounds for u0 in range(g.n)}
    assert rounds == {2 * ectx.total_rounds} == {2 * (9 * tree.ecc_leader + 1)}


@pytest.mark.parametrize("late, verdict", [(0, "PASS"), (1, "FAIL")])
def test_verify_checks_the_charged_evaluation_rounds(late, verdict, monkeypatch, capsys):
    # row u0 = 1 runs ``late`` rounds past the schedule, on the table and the
    # engine alike, so only the schedule check can tell
    def off_schedule(read):
        def row(ectx, u0):
            branch = read(ectx, u0)
            return branch._replace(rounds=branch.rounds + late * (u0 == 1))

        return row

    for name in ("evaluation_procedure", "evaluate_on_engine"):
        monkeypatch.setattr(verify, name, off_schedule(getattr(verify, name)))
    monkeypatch.setattr(verify, "CHECKS", [c for c in verify.CHECKS if c[0] == "evaluation"])
    assert verify.run_all() == (verdict == "PASS")
    (line,) = capsys.readouterr().out.splitlines()
    assert line.startswith(f"{verdict}  evaluation")
    assert ("evaluation(1) ran" in line and "off the schedule" in line) == (verdict == "FAIL")


def test_eval_field_bits_are_at_most_5L_plus_9():
    # (2n).bit_length() <= L + 2 and (deg + 1).bit_length() <= L + 1
    for n in range(3, 4097):
        for deg in (1, n - 1):
            assert evaluation._eval_field_bits(n, deg) <= 5 * id_bits(n) + 9, (n, deg)
    assert evaluation._eval_field_bits(4, 3) == 5 * id_bits(4) + 9


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
    tree = tree_at(g, w)
    order = sorted(range(g.n), key=lambda v: (tree.dist[v], v))
    for size in (1, 3, 7):
        restrict = frozenset(order[:size])
        ectx = context(g, tree, restrict)
        for u0 in sorted(restrict):
            expected = window_max_oracle(g, tree, u0, tree.ecc_leader, restrict)
            assert evaluation_procedure(ectx, u0).value == expected


def test_quantum_register_footprint_is_logarithmic():
    g, tree = prepared(("random", 20, 7, 0.15))
    ectx = context(g, tree)
    L = (g.n - 1).bit_length()
    assert max(ectx.quantum_bits) <= 8 * L + 16


@pytest.mark.parametrize("spec", CORPUS + [("star", 40, 1, None), ("random", 60, 2, 0.3)])
def test_quantum_bits_are_each_nodes_field_widths(spec):
    # the context computes one width per distinct degree and shares it
    g, tree = prepared(spec)
    expected = tuple(evaluation._eval_field_bits(g.n, g.degree(v)) for v in range(g.n))
    assert context(g, tree).quantum_bits == expected


def test_eval_context_rejects_outside_candidates():
    g, tree = prepared(("path", 6, 1, None))
    ectx = context(g, tree, frozenset({tree.leader}))
    bad = next(v for v in range(g.n) if v != tree.leader)
    for evaluate in (evaluation_procedure, evaluate_on_engine):
        with pytest.raises(EngineError, match=f"u0={bad} is not a candidate"):
            evaluate(ectx, bad)


@pytest.mark.parametrize("u0", [-1, 8])
def test_evaluation_rejects_a_node_outside_the_graph(u0):
    g = graphs.path_graph(8)
    ectx = context(g, tree_at(g, 0))
    for evaluate in (evaluation_procedure, evaluate_on_engine):
        with pytest.raises(EngineError, match=rf"u0={u0} is not a candidate"):
            evaluate(ectx, u0)


def _contexts(spec):
    """The leader's context over all nodes, plus restricted ones: the s
    nodes closest to the leader or to the farthest node, as the
    approximation algorithm picks them.  Sets with s <= d are included: on
    those the window is wider than the tour, and the token walk revisits
    nodes."""
    g, tree = prepared(spec)
    contexts = [context(g, tree)]
    w = max(range(g.n), key=lambda v: (graphs.eccentricity(g, v), -v))
    for root in (tree.leader, w):
        tree_r = tree_at(g, root)
        order = sorted(range(g.n), key=lambda v: (tree_r.dist[v], v))
        d = tree_r.ecc_leader
        for size in sorted({1, (d + 1) // 2, d, d + 1, g.n - 1}):
            if 0 < size < g.n:
                contexts.append(context(g, tree_r, frozenset(order[:size])))
    return contexts


def assert_table_matches_engine(ectx):
    # the engine checks each walked window against set_S and the table each
    # row's window when it is built, so equal rows (values and words) mean
    # equal branches
    candidates = sorted(ectx.numbering.tau)
    assert sorted(ectx.branches) == candidates
    for u0 in candidates:
        engine = evaluate_on_engine(ectx, u0)
        assert evaluation_procedure(ectx, u0) == engine
        assert engine.rounds == ectx.total_rounds


@pytest.mark.parametrize("spec", CORPUS, ids=[f"{s[0]}-{s[1]}" for s in CORPUS])
def test_batched_table_matches_engine_per_branch(spec):
    for ectx in _contexts(spec):
        assert_table_matches_engine(ectx)


@given(
    st.integers(3, 14),
    st.floats(0.0, 0.4),
    st.integers(0, 10**6),
    st.integers(0, 13),
    st.integers(1, 14),
)
def test_closed_form_matches_engine_on_random_graphs(n, p, seed, root, size):
    # the full context, and the `size` nodes closest to the root capped at
    # d, so the window is wider than the restricted tour and the walk wraps
    g = generate("random", n, seed=seed, p=p)
    tree = tree_at(g, root % n)
    assert_table_matches_engine(context(g, tree))
    order = sorted(range(n), key=lambda v: (tree.dist[v], v))
    restrict = frozenset(order[: min(size, tree.ecc_leader)])
    assert_table_matches_engine(context(g, tree, restrict))


def _replayed(ectx, u0):
    """A branch through the per-branch replay: the token walk stepped as the
    engine does, whose first visits must be the oracle's window, then the
    full arrival matrix of its waves."""
    taup, sends = evaluation._walk_positions(ectx, u0)
    assert set(taup) == set_S(u0, ectx.d, ectx.numbering)
    return evaluation._replay(ectx, u0, taup, sends)


@pytest.mark.parametrize("family, n", [("path", 300), ("lollipop", 200)])
def test_table_matches_the_replay_beyond_engine_sizes(family, n):
    g = generate(family, n, seed=1)
    dist = all_sources_distances(g)
    ectx = make_eval_context(g, build_bfs_tree(g, 0, dist)[0], dist)
    assert sorted(ectx.branches) == list(range(n))
    for u0 in range(n):
        assert ectx.branches[u0] == _replayed(ectx, u0)


def test_table_matches_the_replay_on_the_approximations_r_set():
    g = generate("grid", 256, seed=1)
    details = approx_diameter(g, seed=1).details
    tree = tree_at(g, details["w"])
    order = sorted(range(g.n), key=lambda v: (tree.dist[v], v))
    restrict = frozenset(order[: details["s"]])
    assert 1 < len(restrict) < g.n
    ectx = context(g, tree, restrict)
    assert sorted(ectx.branches) == sorted(restrict)
    for u0 in sorted(restrict):
        assert ectx.branches[u0] == _replayed(ectx, u0)


# (u0, node, shift of its offset tau', the invariant error), on the path
# 0-1-...-5 rooted at 0.  Node 2 sits at offset 2 from u0 = 0; offset 1
# starts its wave in the round u0's wave reaches it.
CORRUPTIONS = [
    (0, 2, -1, "node 2 on branch u0=0 keeps a foreign wave in its own start round"),
    (0, 4, -3, "non-identical surviving messages at node 3 on branch u0=0"),
    (2, 5, 5, "wave order violated at node 1 on branch u0=2"),
    (2, 5, 3, "wave order violated at the own start of node 0 on branch u0=2"),
    # wave 5 reaches node 2 a round after node 2 starts its own wave at
    # offset 6; a lockstep simulation drops it there without an error
    (0, 2, 4, "wave overtaken at node 2 on branch u0=0: a later wave arrived first"),
    (0, 5, 6, "node 5 on branch u0=0 starts its wave after the walk's 2d steps"),
]


@pytest.mark.parametrize("u0, v, shift, message", CORRUPTIONS)
def test_batch_rejects_a_corrupted_branch(u0, v, shift, message):
    g = graphs.path_graph(6)
    ectx = context(g, tree_at(g, 0))
    taup, sends = evaluation._walk_positions(ectx, u0)
    taup[v] += shift
    with pytest.raises(EvaluationInvariantError, match=message):
        evaluation._replay(ectx, u0, taup, sends)


def test_batch_replays_the_first_branch_with_a_late_pair():
    # nodes 0 and 3 made adjacent in the distance matrix: waves 2 and 3,
    # consecutive on the walks from 0, 1 and 2, reach node 0 in the same
    # round, and only the pair check flags them; u0 = 0 fails first
    g = graphs.path_graph(6)
    tree = tree_at(g, 0)
    dist = all_sources_distances(g)
    dist[3, 0] = dist[0, 3] = 0
    message = "non-identical surviving messages at node 0 on branch u0=0"
    with pytest.raises(EvaluationInvariantError, match=message):
        make_eval_context(g, tree, dist).branches


def test_batch_rejects_a_wave_still_in_flight():
    # node 5's row of the distance matrix inflated by 16: on branch u0 = 0
    # its wave starts at offset 5 and reaches node 0 in round
    # 2d + 2*5 + 21 = 41 > 8d, while every pair of waves stays in order
    g = graphs.path_graph(6)
    tree = tree_at(g, 0)
    dist = all_sources_distances(g)
    dist[5] += 16
    message = "wave still in flight at node 0 on branch u0=0 after the 6d-round window"
    with pytest.raises(EvaluationInvariantError, match=message):
        make_eval_context(g, tree, dist).branches


def test_production_runs_build_no_window(monkeypatch):
    # the table checks its windows by their offsets; only a failing row
    # would build one and ask the oracle
    def no_window(*args):
        raise AssertionError("set_S called")

    monkeypatch.setattr(evaluation, "set_S", no_window)
    for fam, n, seed, p in CORPUS + [("path", 40, 1, None)]:
        g = generate(fam, n, seed=seed, p=p)
        d_true = graphs.diameter_bruteforce(g)
        assert exact_diameter(g, seed=seed).d_out == d_true
        assert approx_guarantee_holds(approx_diameter(g, seed=seed).d_out, d_true)


def _window_sizes(ectx):
    """Each row's window size, in first-visit order, from the oracle."""
    num = ectx.numbering
    return np.array([len(set_S(u0, ectx.d, num)) for u0 in num.first_visits])


@pytest.mark.parametrize("spec", CORPUS, ids=[f"{s[0]}-{s[1]}" for s in CORPUS])
def test_window_check_rejects_a_row_one_short_or_one_long(spec):
    for ectx in _contexts(spec):
        count = _window_sizes(ectx)
        pos = np.asarray(ectx.numbering.positions, dtype=np.int64)
        unrolled = np.concatenate((pos, pos + ectx.base))
        evaluation._check_windows(ectx, pos, unrolled, count)
        nodes = ectx.numbering.first_visits
        k = len(nodes)
        for i in range(k):
            order = nodes[i:] + nodes[:i]
            u0, size = order[0], int(count[i])
            oracle = f"computed S differs from the window oracle for u0={u0}: "
            cases = []
            if size > 1:
                cases.append((-1, oracle + f"extra=[] missing=[{order[size - 1]}]"))
            if size < k:
                cases.append((1, oracle + f"extra=[{order[size]}] missing=[]"))
            else:  # the window holds every first visit; one more repeats one
                cases.append((1, f"window of u0={u0} has {k + 1} first visits, not 1 to {k}"))
            for shift, message in cases:
                corrupted = count.copy()
                corrupted[i] += shift
                with pytest.raises(EvaluationInvariantError, match=re.escape(message)):
                    evaluation._check_windows(ectx, pos, unrolled, corrupted)
