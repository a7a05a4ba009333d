from __future__ import annotations

import dataclasses
import inspect
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qcongest import diameter, engine, evaluation, graphs, procedures
from qcongest.diameter import (
    approx_diameter,
    approx_guarantee_holds,
    exact_diameter,
    exact_diameter_simple,
)
from qcongest.engine import (
    EngineError,
    EngineTimeout,
    OversizedWordError,
    SchemaViolationError,
)
from qcongest.graphs import generate
from qcongest.harness import parse_family
from qcongest.procedures import (
    BfsTreeState,
    all_sources_distances,
    argmax_convergecast,
    argmax_on_engine,
    bfs_tree_on_engine,
    build_bfs_tree,
    dfs_numbering,
    eccentricity_simple_eval,
    elect_leader_and_ecc,
    elect_on_engine,
    multi_source_bfs,
    multi_source_bfs_on_engine,
    pipelined_arrivals,
    set_S,
    simple_eval_on_engine,
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


def tree_at(g, root) -> BfsTreeState:
    return build_bfs_tree(g, root, all_sources_distances(g))[0]


def make_tree(g) -> BfsTreeState:
    return tree_at(g, 0)  # the elected leader is node 0


def elect(g):
    return elect_leader_and_ecc(g, all_sources_distances(g))


def simple_table(g, tree):
    return simple_eval_table(g, tree, all_sources_distances(g))


# -- leader election ---------------------------------------------------------


def test_election_on_cycle_c4():
    for election in (elect, elect_on_engine):
        leader, ecc, _ = election(graphs.cycle_graph(4))
        assert (leader, ecc) == (0, 2)


def test_election_on_k3():
    for election in (elect, elect_on_engine):
        leader, ecc, _ = election(generate("random", 3, seed=0, p=1.0))
        assert (leader, ecc) == (0, 1)


def test_election_matches_oracle_and_round_bound():
    for g in corpus():
        leader, ecc, report = elect(g)
        assert leader == 0
        assert ecc == graphs.eccentricity(g, 0)
        assert report.rounds <= 3 * ecc + 4


def test_closed_forms_reject_networks_below_three_nodes():
    for n in (1, 2):
        g = graphs.path_graph(n)
        dist = all_sources_distances(g)
        tree = BfsTreeState(0, n - 1, (0,) * n, tuple(range(n)))
        closed_forms = [
            lambda: elect_leader_and_ecc(g, dist),
            lambda: build_bfs_tree(g, 0, dist),
            lambda: multi_source_bfs(g, [0], dist),
            lambda: argmax_convergecast(g, tree, dict.fromkeys(range(n), 0), dist),
            lambda: simple_eval_table(g, tree, dist),
        ]
        for closed_form in closed_forms:
            with pytest.raises(EngineError, match="require n >= 3"):
                closed_form()


# -- BFS tree construction ----------------------------------------------------


def test_bfs_tree_hand_simulation_on_path():
    g = graphs.path_graph(3)
    for tree, report in (build_bfs_tree(g, 0, all_sources_distances(g)), bfs_tree_on_engine(g, 0, 2)):
        assert tree.parent == (0, 0, 1)
        assert tree.dist == (0, 1, 2)
        assert report.rounds == 2  # path of length L with the root at one end


def test_bfs_tree_star_one_round():
    g = graphs.star_graph(6)
    for tree, report in (build_bfs_tree(g, 0, all_sources_distances(g)), bfs_tree_on_engine(g, 0, 1)):
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
    assert make_tree(g).parent[2] == 1
    assert bfs_tree_on_engine(g, 0, 2)[0].parent[2] == 1


def test_bfs_tree_state_validates():
    with pytest.raises(Exception):
        BfsTreeState(leader=0, ecc_leader=1, parent=(0, 0), dist=(0, 2))


# -- DFS numbering and window sets ---------------------------------------------


def test_dfs_numbering_path():
    num = dfs_numbering(make_tree(graphs.path_graph(3)))
    assert num.tau == {0: 0, 1: 1, 2: 2}
    assert num.index_space == 6


def test_dfs_numbering_star_leaf_positions():
    # center 0, leaves 1..3 visited in id order: tau(leaf k) = 2k - 1
    num = dfs_numbering(make_tree(graphs.star_graph(4)))
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
    num = dfs_numbering(make_tree(graphs.path_graph(3)))
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


@given(
    st.integers(3, 24),
    st.floats(0.0, 0.5),
    st.integers(0, 10**6),
    st.integers(0, 23),
    st.integers(1, 24),
    st.integers(0, 60),
)
def test_set_s_matches_its_definition(n, p, seed, root, size, d):
    # restricted to the `size` nodes closest to the root; d up to 60 makes
    # windows wider than the tour (2d >= 2k - 1)
    g = generate("random", n, seed=seed, p=p)
    tree = tree_at(g, root % n)
    order = sorted(range(n), key=lambda v: (tree.dist[v], v))
    for restrict in (None, frozenset(order[: min(size, n)])):
        num = dfs_numbering(tree, restrict)
        for u0, t0 in num.tau.items():
            expected = frozenset(
                v for v, t in num.tau.items() if (t - t0) % num.index_space <= 2 * d
            )
            assert set_S(u0, d, num) == expected


@given(
    st.integers(3, 24),
    st.floats(0.0, 0.5),
    st.integers(0, 10**6),
    st.integers(0, 23),
    st.integers(0, 24),
)
def test_closed_form_numbering_matches_the_stepped_walk(n, p, seed, root, picks):
    # a tree built directly, with any parent one level up rather than the
    # smallest, and the parent-closure of `picks` random nodes
    g = generate("random", n, seed=seed, p=p)
    root %= n
    depth = graphs.bfs_distances(g, root)
    rng = random.Random(seed)
    parent = tuple(
        v if v == root else rng.choice([u for u in g.adj[v] if depth[u] == depth[v] - 1])
        for v in range(n)
    )
    tree = BfsTreeState(root, max(depth.values()), parent, tuple(depth[v] for v in range(n)))
    for v, kids in enumerate(tree.children):
        assert kids == tuple(c for c in range(n) if c != root and parent[c] == v)
    closed = {root}
    for v in rng.sample(range(n), min(picks, n)):
        while v not in closed:
            closed.add(v)
            v = parent[v]
    for restrict in (None, frozenset(closed)):
        num = dfs_numbering(tree, restrict)
        covered = range(n) if restrict is None else restrict
        assert num.children == tuple(
            tuple(c for c in kids if c in covered) for kids in tree.children
        )
        first = {}  # each node's first step on the stepped tour, in order
        for t, v in enumerate(num.traversal):
            first.setdefault(v, t)
        assert num.tau == first
        assert num.first_visits == tuple(first)
        assert num.positions == tuple(first.values())


def test_verify_checks_the_dfs_numbering(monkeypatch):
    from qcongest import verify

    ok, detail = verify.check_dfs_numbering()
    assert ok and "first visits" in detail

    def one_late(tree, restrict=None):
        num = dfs_numbering(tree, restrict)
        last = num.first_visits[-1]
        return dataclasses.replace(num, tau={**num.tau, last: num.tau[last] + 1})

    monkeypatch.setattr(verify, "dfs_numbering", one_late)
    ok, detail = verify.check_dfs_numbering()
    assert not ok and "closed-form numbering differs from the walked tour" in detail


def test_restricted_numbering():
    g = generate("random", 12, seed=11, p=0.3)
    tree = make_tree(g)
    order = sorted(range(g.n), key=lambda v: (tree.dist[v], v))
    r = frozenset(order[:5])
    num = dfs_numbering(tree, r)
    assert set(num.tau) == set(r)
    assert num.index_space == 10
    assert dfs_numbering(tree, range(g.n)) == dfs_numbering(tree)
    with pytest.raises(EngineError, match="must contain the root"):
        dfs_numbering(tree, r - {tree.leader})
    deep = next(v for v in order if tree.dist[v] == 2)
    with pytest.raises(EngineError, match="not parent-closed"):
        dfs_numbering(tree, {tree.leader, deep})


def test_restricted_numbering_refuses_a_node_id_outside_the_graph():
    # 5 would index past the parent array; -4 would read node 1's parent
    g = graphs.path_graph(5)
    tree = make_tree(g)
    dist = all_sources_distances(g)
    for restrict, bad in (({0, 1, 5}, 5), ({0, 1, -4}, -4)):
        message = f"restricted node {bad} is not a node id in 0..4"
        with pytest.raises(EngineError, match=message):
            dfs_numbering(tree, restrict)
        with pytest.raises(EngineError, match=message):
            evaluation.make_eval_context(g, tree, dist, frozenset(restrict))


# -- pipelined arrivals --------------------------------------------------------


def assert_arrivals_match_the_matrix(dist, waves, offsets):
    """``pipelined_arrivals`` against its definition on the full arrival
    matrix 2*offsets + dist[waves]; returns the late flags."""
    late, last = pipelined_arrivals(dist, waves, offsets)
    offsets = np.asarray(offsets)
    arrival = 2 * offsets[:, None] + dist[list(waves)]
    spacing = np.maximum(np.diff(offsets), 1)[:, None]
    assert late.tolist() == (np.diff(arrival, axis=0) < spacing).any(axis=1).tolist()
    assert last.tolist() == arrival.max(axis=1).tolist()
    return late


def full_tour(g, root=0):
    """The first visits of BFS(root)'s tour at their positions, then the
    root again one tour later, as the window table lists them."""
    num = dfs_numbering(tree_at(g, root))
    return num.first_visits + num.first_visits[:1], num.positions + (num.index_space,)


@pytest.mark.parametrize("elements", [1, 1 << 16])
def test_pipelined_arrivals_on_the_verify_corpus_full_tours(monkeypatch, elements):
    # one row per block, or the whole tour in one; no pair of a tour is late
    from qcongest import verify

    monkeypatch.setattr(procedures, "_ROWS_ELEMENTS", elements)
    for g in verify._corpus():
        dist = all_sources_distances(g)
        for root in range(g.n):
            assert not assert_arrivals_match_the_matrix(dist, *full_tour(g, root)).any()


def test_pipelined_arrivals_on_path_300():
    # 301 waves of 300 entries span two blocks of 1 << 16
    g = graphs.path_graph(300)
    assert not assert_arrivals_match_the_matrix(all_sources_distances(g), *full_tour(g)).any()


def test_pipelined_arrivals_flag_the_late_pair_of_a_corrupted_matrix():
    # nodes 0 and 3 made adjacent, as in the window table's late-pair test:
    # waves 2 and 3 reach node 0 in the same round
    g = graphs.path_graph(6)
    dist = all_sources_distances(g)
    dist[3, 0] = dist[0, 3] = 0
    late = assert_arrivals_match_the_matrix(dist, *full_tour(g))
    assert late.tolist() == [False, False, True, False, False, False]


@given(st.integers(3, 20), st.floats(0.0, 0.5), st.integers(0, 10**6), st.data())
def test_pipelined_arrivals_match_the_matrix_on_any_offsets(n, p, seed, data):
    g = generate("random", n, seed=seed, p=p)
    # any waves, repeats included, at ascending offsets, ties included
    waves = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n))
    offsets = data.draw(st.lists(st.integers(0, 4 * n), min_size=len(waves), max_size=len(waves)))
    assert_arrivals_match_the_matrix(all_sources_distances(g), waves, sorted(offsets))


# -- simple evaluation ---------------------------------------------------------


def simple_evals(g, tree):
    """The production read of the table, and the engine reference."""
    table = simple_table(g, tree)
    return (lambda u0: eccentricity_simple_eval(g, tree, u0, table),
            lambda u0: simple_eval_on_engine(g, tree, u0))


def test_simple_eval_path():
    g = graphs.path_graph(4)
    for simple_eval in simple_evals(g, make_tree(g)):
        for u0 in range(4):
            assert simple_eval(u0).value == graphs.eccentricity(g, u0)


def test_simple_eval_star():
    g = graphs.star_graph(5)
    for simple_eval in simple_evals(g, make_tree(g)):
        assert simple_eval(0).value == 1
        assert simple_eval(3).value == 2


@pytest.mark.parametrize("u0", [-1, 8])
def test_simple_eval_rejects_a_node_outside_the_graph(u0):
    # -1 would read node 7's row through a negative index, 8 past the end
    g = graphs.path_graph(8)
    for simple_eval in simple_evals(g, make_tree(g)):
        with pytest.raises(EngineError, match=rf"u0={u0} is not a candidate"):
            simple_eval(u0)


def test_simple_eval_matches_oracle_with_round_bound():
    for g in corpus():
        tree = make_tree(g)
        d = tree.ecc_leader
        table = simple_table(g, tree)
        for u0 in range(g.n):
            branch = eccentricity_simple_eval(g, tree, u0, table)
            ecc = graphs.eccentricity(g, u0)
            assert branch.value == ecc
            assert branch.rounds <= 2 * ecc + d + 4


def assert_matrix_matches_bfs(g):
    dist = all_sources_distances(g)
    assert dist.shape == (g.n, g.n)
    assert dist.dtype == np.int32 and dist.flags.c_contiguous
    for s in range(g.n):
        bfs = graphs.bfs_distances(g, s)
        assert dist[s].tolist() == [bfs[v] for v in range(g.n)], s
        assert dist[:, s].tolist() == dist[s].tolist(), s


@pytest.mark.parametrize("n", [1, 2, 3])
def test_all_sources_distances_of_the_smallest_paths(n):
    dist = all_sources_distances(graphs.path_graph(n))
    assert dist.shape == (n, n)
    assert dist.max(axis=1).tolist() == graphs.all_eccentricities(graphs.path_graph(n))


def test_all_sources_distances_match_bfs():
    # 65 and 130 nodes: the bit rows span more than one 64-bit word
    extra = [generate("path", 65, seed=1), generate("random", 130, seed=2, p=0.03)]
    for g in corpus() + extra + [graphs.path_graph(2)]:
        assert_matrix_matches_bfs(g)


@given(st.integers(2, 80), st.floats(0.0, 0.5), st.integers(0, 10**6))
def test_all_sources_distances_match_bfs_on_random_graphs(n, p, seed):
    assert_matrix_matches_bfs(generate("random", n, seed=seed, p=p))


# D crosses every power of two up to 128, so the distances take 1 to 8 bit
# planes, and rows span 1 to 3 words
@pytest.mark.parametrize("n", [*range(2, 10), 16, 17, 32, 33, 64, 65, 128, 129])
def test_all_sources_distances_on_paths_across_plane_counts(n):
    assert_matrix_matches_bfs(graphs.path_graph(n))


@pytest.mark.parametrize(
    "family,n", [("cycle", 130), ("star", 70), ("grid", 144), ("lollipop", 100), ("cycle", 300)]
)
def test_all_sources_distances_on_multi_word_families(family, n):
    # cycle-300: the matrix is assembled in two row blocks, the last partial
    assert_matrix_matches_bfs(generate(family, n, seed=1))


@pytest.mark.parametrize("elements", [1, 700])
def test_all_sources_distances_assemble_across_row_blocks(monkeypatch, elements):
    # one row per block, or 7 rows per block with a partial last block
    monkeypatch.setattr(procedures, "_ROWS_ELEMENTS", elements)
    for g in (graphs.path_graph(129), generate("lollipop", 100, seed=1)):
        assert_matrix_matches_bfs(g)


@settings(max_examples=30)
@given(st.integers(2, 150), st.floats(0.0, 0.5), st.integers(0, 10**6))
def test_all_sources_distances_match_bfs_on_random_graphs_up_to_150(n, p, seed):
    assert_matrix_matches_bfs(generate("random", n, seed=seed, p=p))


def assert_table_matches_engine(g, tree):
    table = simple_table(g, tree)
    for u0 in range(g.n):
        assert eccentricity_simple_eval(g, tree, u0, table) == simple_eval_on_engine(
            g, tree, u0
        ), u0


def test_simple_eval_table_matches_engine():
    # the 3-node path from its middle node: the leader is ready in its own
    # activation round, so its flood costs one more delivery round
    for g in corpus() + [generate("path", 3, seed=0)]:
        assert_table_matches_engine(g, make_tree(g))


# random graphs are shallow; paths, lollipops and grids rooted away from
# their ends give deep trees, whose fold runs over many levels
@given(
    st.one_of(
        st.tuples(st.just("random"), st.integers(3, 24)),
        st.tuples(st.sampled_from(["path", "lollipop", "grid"]), st.integers(3, 60)),
    ),
    st.floats(0.0, 0.5),
    st.integers(0, 10**6),
    st.integers(0, 59),
)
def test_simple_eval_table_matches_engine_on_random_graphs(family_n, p, seed, root):
    family, n = family_n
    g = generate(family, n, seed=seed, p=p if family == "random" else None)
    assert_table_matches_engine(g, tree_at(g, root % n))


def test_simple_eval_table_checks_register_width(monkeypatch):
    g = graphs.path_graph(5)
    tree = make_tree(g)
    monkeypatch.setattr(procedures, "id_bits", lambda n: 2)  # distance 4 needs 3
    with pytest.raises(SchemaViolationError):
        simple_table(g, tree)


def test_simple_eval_checks_the_declared_round_bound():
    g = graphs.path_graph(4)
    tree = make_tree(g)
    table = list(simple_table(g, tree))
    table[0] = table[0]._replace(rounds=2 * table[0].value + tree.ecc_leader + 5)
    with pytest.raises(EngineError, match="forward rounds"):
        eccentricity_simple_eval(g, tree, 0, table)


# -- approx-preparation helpers -------------------------------------------------


def test_multi_source_bfs_matches_oracle():
    for g in corpus():
        sources = {0, g.n // 2}
        result, _ = multi_source_bfs(g, sources, all_sources_distances(g))
        for v in range(g.n):
            best = min(
                (graphs.bfs_distances(g, s)[v], s) for s in sources
            )
            assert result[v] == best


def test_argmax_convergecast_with_ties():
    for g in corpus():
        tree = make_tree(g)
        values = {v: (v * 7) % 5 for v in range(g.n)}
        best_val, best_node, _ = argmax_convergecast(g, tree, values, all_sources_distances(g))
        expect = max(values.values())
        assert best_val == expect
        assert best_node == min(v for v in values if values[v] == expect)


# -- closed forms against their engine programs ----------------------------------


def outcome(call):
    """A call's result, or the type of the engine error it raises."""
    try:
        return call()
    except EngineError as exc:
        return type(exc)


def assert_closed_forms_match_engine(g, root, seed):
    dist = all_sources_distances(g)
    assert elect_leader_and_ecc(g, dist) == elect_on_engine(g)
    assert build_bfs_tree(g, root, dist) == bfs_tree_on_engine(g, root, int(dist[root].max()))
    tree, _ = build_bfs_tree(g, root, dist)
    rng = random.Random(seed)
    sources = rng.sample(range(g.n), rng.randint(1, g.n))
    assert multi_source_bfs(g, sources, dist) == multi_source_bfs_on_engine(g, sources)
    # a narrow range of values makes ties, broken to the smallest id
    top = rng.choice([2, 1 << procedures.id_bits(g.n)])
    values = {v: rng.randrange(top) for v in range(g.n)}
    assert argmax_convergecast(g, tree, values, dist) == argmax_on_engine(g, tree, values)


def test_closed_forms_match_engine_on_corpus():
    for g in corpus() + [generate("path", 3, seed=0), generate("random", 5, seed=0, p=1.0)]:
        for root in (0, g.n // 2, g.n - 1):
            assert_closed_forms_match_engine(g, root, seed=root)


@given(
    st.integers(3, 40),
    st.floats(0.0, 0.9),
    st.integers(0, 10**6),
    st.integers(0, 39),
)
def test_closed_forms_match_engine_on_random_graphs(n, p, seed, root):
    assert_closed_forms_match_engine(generate("random", n, seed=seed, p=p), root % n, seed)


# depths on both sides of 4, 8, 16, 32 and 64, where the closed form's
# pointer doubling takes one step more; and dense graphs, whose records
# have many neighbor pairs, on both sides of 64 nodes, where a row of the
# matrix's bit frontier takes a second word
DEEP = [("path", n) for n in (*range(3, 10), 16, 17, 18, 33, 34, 65, 66)] + [
    ("cycle", 33),
    ("cycle", 66),
    ("lollipop", 64),
    ("lollipop", 65),
    ("random:0.5", 64),
    ("random:0.5", 65),
    ("random:0.9", 63),
    ("random:0.9", 64),
    ("random:0.9", 65),
]


@pytest.mark.parametrize("family,n", DEEP)
def test_election_matches_engine_across_doubling_steps(family, n):
    name, p = parse_family(family)
    g = generate(name, n, seed=n, p=p)
    assert elect_leader_and_ecc(g, all_sources_distances(g)) == elect_on_engine(g)


@settings(max_examples=20)
@given(st.sampled_from(["path", "lollipop"]), st.integers(3, 80), st.integers(0, 10**6))
def test_election_matches_engine_on_deep_graphs(family, n, seed):
    g = generate(family, n, seed=seed)
    assert elect_leader_and_ecc(g, all_sources_distances(g)) == elect_on_engine(g)


@pytest.mark.parametrize("family", ["path", "lollipop", "grid", "random"])
def test_engine_election_times_out_before_its_last_round(family):
    g = generate(family, 20, seed=4, p=0.2 if family == "random" else None)
    dist = all_sources_distances(g)
    rounds = elect_leader_and_ecc(g, dist)[2].rounds
    for limit in (1, rounds // 2, rounds - 2):
        with pytest.raises(EngineTimeout) as timeout:
            elect_on_engine(g, max_rounds=limit)
        assert timeout.value.report.rounds == limit
    # the last round only delivers DONE words and does not count, so this
    # limit holds
    assert elect_on_engine(g, max_rounds=rounds - 1) == elect_leader_and_ecc(g, dist)


# only the engine reference takes a round limit
@pytest.mark.parametrize("election", [elect_on_engine], ids=["engine"])
@pytest.mark.parametrize("limit", [0, -3])
def test_election_rejects_an_explicit_non_positive_round_limit(election, limit):
    # an explicit limit of 0 is an error as in engine.run, not the default
    g = generate("path", 10, seed=1)
    with pytest.raises(EngineError, match="max_rounds must be positive"):
        election(g, max_rounds=limit)


def test_engine_bfs_tree_fails_off_budget():
    g = generate("lollipop", 15, seed=2)
    dist = all_sources_distances(g)
    ecc = graphs.eccentricity(g, 4)
    assert bfs_tree_on_engine(g, 4, ecc) == build_bfs_tree(g, 4, dist)
    assert outcome(lambda: bfs_tree_on_engine(g, 4, ecc - 1)) is EngineTimeout
    assert outcome(lambda: bfs_tree_on_engine(g, 4, ecc + 1)) is EngineError


@pytest.mark.parametrize("sources", [[0, 16], [-1], [3, 100]])
def test_multi_source_bfs_rejects_sources_outside_the_graph(sources):
    g = generate("random", 16, seed=1, p=0.2)
    for bfs in (lambda: multi_source_bfs(g, sources, all_sources_distances(g)),
                lambda: multi_source_bfs_on_engine(g, sources)):
        with pytest.raises(EngineError, match="outside 0..15"):
            bfs()


def test_closed_form_argmax_checks_inputs_and_bandwidth_like_the_engine(monkeypatch):
    g = generate("random", 16, seed=1, p=0.2)
    dist = all_sources_distances(g)
    tree = make_tree(g)
    wide = {v: v % 3 for v in range(g.n)}
    wide[5] = 1 << 4  # does not fit id_bits(16) = 4
    assert outcome(lambda: argmax_convergecast(g, tree, wide, dist)) is SchemaViolationError
    assert outcome(lambda: argmax_on_engine(g, tree, wide)) is SchemaViolationError
    # a report word, 2 + 2 * id_bits bits, exceeds a bandwidth of 2 * id_bits
    def narrow(n):
        return 2 * procedures.id_bits(n)

    monkeypatch.setattr(procedures, "default_bandwidth", narrow)
    monkeypatch.setattr(engine, "default_bandwidth", narrow)
    values = {v: 0 for v in range(g.n)}
    assert outcome(lambda: argmax_convergecast(g, tree, values, dist)) is OversizedWordError
    assert outcome(lambda: argmax_on_engine(g, tree, values)) is OversizedWordError


ENTRY_POINTS = {
    procedures.elect_leader_and_ecc: (),
    procedures.build_bfs_tree: (),
    procedures.multi_source_bfs: (),
    procedures.argmax_convergecast: (),
    procedures.argmax_on_engine: (),
    procedures.simple_eval_table: (),
    procedures.eccentricity_simple_eval: (),
    evaluation.make_eval_context: ("restrict",),
    evaluation.evaluation_procedure: (),
    diameter.exact_diameter: ("seed", "delta"),
    diameter.exact_diameter_simple: ("seed", "delta"),
    diameter.approx_diameter: ("seed", "delta"),
}


def test_entry_points_have_one_path():
    # no optional parameter selects the engine or makes the run's distance
    # matrix optional
    for fn, optional in ENTRY_POINTS.items():
        params = inspect.signature(fn).parameters.values()
        assert tuple(p.name for p in params if p.default is not p.empty) == optional, fn


def test_production_path_makes_no_engine_call(monkeypatch):
    def engine_run(*args, **kwargs):
        raise AssertionError("the word-level engine ran")

    monkeypatch.setattr(procedures, "run", engine_run)
    monkeypatch.setattr(evaluation, "run", engine_run)
    g = generate("random", 20, seed=3, p=0.15)
    d = graphs.diameter_bruteforce(g)
    assert exact_diameter(g, seed=1).d_out == d
    assert exact_diameter_simple(g, seed=1).d_out == d
    assert approx_guarantee_holds(approx_diameter(g, seed=1).d_out, d)


def test_verify_compares_the_all_sources_matrix_entry_by_entry(monkeypatch):
    from qcongest import verify

    ok, detail = verify.check_bfs_oracle()
    assert ok and "all-sources matrix" in detail

    def off_at_2_5(g):
        dist = all_sources_distances(g)
        dist[2, 5] += 1
        return dist

    monkeypatch.setattr(verify, "all_sources_distances", off_at_2_5)
    ok, detail = verify.check_bfs_oracle()
    assert not ok and "(u, v) = (2, 5)" in detail


def test_verify_checks_the_closed_forms():
    from qcongest.verify import check_closed_forms

    ok, detail = check_closed_forms()
    assert ok, detail


@pytest.mark.parametrize("family,n", [("path", 33), ("lollipop", 40)])
def test_verify_names_the_deep_graph_whose_election_differs(monkeypatch, family, n):
    from qcongest import verify

    def off_on(g, dist):
        leader, ecc, report = elect_leader_and_ecc(g, dist)
        if g.n == n:
            report.rounds += 1
        return leader, ecc, report

    monkeypatch.setattr(verify, "elect_leader_and_ecc", off_on)
    ok, detail = verify.check_closed_forms()
    assert not ok and f"on {family}-{n}" in detail
