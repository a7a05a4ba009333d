from __future__ import annotations

import ast
import hashlib
import random
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from qcongest import graphs, procedures, qsearch
from qcongest.graphs import (
    Graph,
    GraphError,
    all_eccentricities,
    bfs_distances,
    diameter_bruteforce,
    eccentricity,
    generate,
    relabel,
)


def floyd_warshall(g: Graph) -> list[list[int]]:
    inf = 10**9
    dist = [[inf] * g.n for _ in range(g.n)]
    for v in range(g.n):
        dist[v][v] = 0
    for u, v in g.edges():
        dist[u][v] = dist[v][u] = 1
    for k in range(g.n):
        for i in range(g.n):
            for j in range(g.n):
                if dist[i][k] + dist[k][j] < dist[i][j]:
                    dist[i][j] = dist[i][k] + dist[k][j]
    return dist


def matrix_power_distances(g: Graph, source: int) -> dict[int, int]:
    """Boolean adjacency powers: dist = first power reaching the node."""
    reach = {source}
    dist = {source: 0}
    for k in range(1, g.n):
        new = {v for u in reach for v in g.adj[u]} - reach
        if not new:
            break
        for v in new:
            dist[v] = k
        reach |= new
    return dist


seeded_graph = st.builds(
    lambda fam, n, seed: generate(fam, n, seed=seed, p=0.3 if fam == "random" else None),
    st.sampled_from(["path", "cycle", "grid", "lollipop", "random"]),
    st.integers(4, 24),
    st.integers(0, 50),
)


def test_bfs_on_small_path():
    g = graphs.path_graph(3)
    assert bfs_distances(g, 0) == {0: 0, 1: 1, 2: 2}


def test_bfs_distance_to_self_is_zero():
    g = generate("random", 10, seed=3, p=0.4)
    for u in range(g.n):
        assert bfs_distances(g, u)[u] == 0


@given(seeded_graph)
def test_bfs_matches_matrix_powers(g):
    for u in range(g.n):
        assert bfs_distances(g, u) == matrix_power_distances(g, u)


def test_star_eccentricities():
    g = graphs.star_graph(5)  # K_{1,4}
    assert eccentricity(g, 0) == 1
    assert all(eccentricity(g, leaf) == 2 for leaf in range(1, 5))


@given(seeded_graph)
def test_eccentricity_matches_floyd_warshall(g):
    dist = floyd_warshall(g)
    for u in range(g.n):
        assert eccentricity(g, u) == max(dist[u])


def test_diameter_trivia():
    assert diameter_bruteforce(graphs.cycle_graph(6)) == 3
    assert diameter_bruteforce(graphs.generate("random", 5, seed=0, p=1.0)) == 1


@given(seeded_graph)
def test_ecc_diameter_sandwich(g):
    d = diameter_bruteforce(g)
    for u in range(g.n):
        e = eccentricity(g, u)
        assert e <= d <= 2 * e


@given(seeded_graph, st.randoms(use_true_random=False))
def test_triangle_inequality_on_sampled_triples(g, rnd):
    dist = {u: bfs_distances(g, u) for u in range(g.n)}
    for _ in range(10):
        a, b, c = (rnd.randrange(g.n) for _ in range(3))
        assert dist[a][c] <= dist[a][b] + dist[b][c]


def test_graph_invariants_enforced():
    with pytest.raises(GraphError):
        Graph.from_edges(3, [(0, 0)])  # self loop
    with pytest.raises(GraphError):
        Graph.from_edges(3, [(0, 3)])  # out of range
    with pytest.raises(GraphError, match="unreachable"):
        Graph.from_edges(4, [(0, 1), (2, 3)])  # disconnected


def test_adjacency_sorted_and_symmetric():
    g = generate("random", 15, seed=9, p=0.3)
    for u in range(g.n):
        assert list(g.adj[u]) == sorted(set(g.adj[u]))
        assert u not in g.adj[u]
        for v in g.adj[u]:
            assert u in g.adj[v]


@pytest.mark.parametrize("family", graphs.FAMILIES)
def test_generators_connected_and_deterministic(family):
    p = 0.2 if family == "random" else None
    a = generate(family, 13, seed=7, p=p)
    b = generate(family, 13, seed=7, p=p)
    assert a == b
    bfs_distances(a, 0)  # connected or raises


def test_generate_random_needs_p():
    with pytest.raises(GraphError):
        generate("random", 10, seed=0)


@pytest.mark.parametrize("family", [f for f in graphs.FAMILIES if f != "random"])
def test_generate_refuses_p_for_a_family_without_one(family):
    with pytest.raises(GraphError, match=f"family {family!r} takes no edge probability"):
        generate(family, 16, seed=0, p=0.3)


def test_generate_seeds_differ():
    assert generate("random", 20, seed=0, p=0.2) != generate("random", 20, seed=1, p=0.2)


def test_bipartite_delta_definition():
    from qcongest.gadgets import DisjInput, build_reduction_instance, gadget_build, gadget_apply_inputs
    from qcongest.graphs import bipartite_delta

    gad = gadget_build(10)
    inp = DisjInput(4, "1111", "1111")
    g = gadget_apply_inputs(gad, inp)
    delta = bipartite_delta(g, gad.left, gad.right)
    assert delta == build_reduction_instance(10, inp).delta
    dist = floyd_warshall(g)
    assert delta == max(dist[u][v] for u in gad.left for v in gad.right)
    assert delta == 3  # some x_ij = y_ij = 1 forces a cross distance of 3
    assert delta <= diameter_bruteforce(g)


def test_edge_count_is_cached_without_changing_equality_hash_or_pickles():
    import pickle

    g = graphs.generate("random", 20, seed=1, p=0.2)
    before = pickle.dumps(g)
    same = graphs.generate("random", 20, seed=1, p=0.2)
    assert g.m == len(list(g.edges()))
    assert "m" in vars(g)  # computed once, then read from the instance
    assert g == same and hash(g) == hash(same)
    assert pickle.dumps(g) == before
    assert pickle.loads(before).m == g.m


def _family_graphs(sizes, seeds):
    """Every family at every size it accepts, under each seed's labelling."""
    for family in graphs.FAMILIES:
        p = 0.1 if family == "random" else None
        for n in sizes:
            for seed in seeds:
                try:
                    yield generate(family, n, seed=seed, p=p)
                except GraphError:
                    break  # size below the family's minimum


@st.composite
def connected_graphs(draw):
    """A random tree (each node hangs off an earlier one) plus extra edges."""
    n = draw(st.integers(1, 40))
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    if n > 1:
        node = st.integers(0, n - 1)
        extra = draw(st.lists(st.tuples(node, node), max_size=2 * n))
        edges += [(u, v) for u, v in extra if u != v]
    return Graph.from_edges(n, edges)


def test_all_eccentricities_match_single_source_bfs_on_every_family():
    count = 0
    for g in _family_graphs((1, 2, 3, 5, 16, 33, 64), seeds=(0, 1, 2)):
        eccs = all_eccentricities(g)
        assert eccs == [eccentricity(g, u) for u in range(g.n)]
        assert diameter_bruteforce(g) == max(eccs)
        count += 1
    assert count > 80  # every family contributed its sizes


@given(connected_graphs())
def test_all_eccentricities_match_single_source_bfs_on_random_graphs(g):
    eccs = all_eccentricities(g)
    assert eccs == [eccentricity(g, u) for u in range(g.n)]
    assert diameter_bruteforce(g) == max(eccs)


def test_all_eccentricities_reject_a_disconnected_graph():
    g = Graph(5, ((1,), (0,), (3,), (2, 4), (3,)))  # edges 0-1, 2-3, 3-4
    with pytest.raises(GraphError, match=r"graph disconnected: node 2 unreachable from 0"):
        all_eccentricities(g)
    with pytest.raises(GraphError, match="unreachable"):
        diameter_bruteforce(Graph(2, ((), ())))


def _imported_names(module):
    """Every dotted name a module's source imports, split into its parts."""
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            names.add(node.module or "")
            names |= {f"{node.module or ''}.{alias.name}" for alias in node.names}
    return [name.split(".") for name in names]


def test_oracles_import_neither_numpy_nor_the_procedures():
    for parts in _imported_names(graphs):
        assert "numpy" not in parts and "procedures" not in parts, parts


def test_the_search_layer_imports_nothing_from_the_engine():
    # qsearch holds the search law and its call budgets; the network cost
    # of a call is charged by the algorithms
    for parts in _imported_names(qsearch):
        assert "engine" not in parts, parts


def test_procedures_import_neither_the_evaluation_nor_the_algorithms():
    # the landmark BFS and a classical baseline can then call
    # `pipelined_arrivals` from the modules that import `procedures`
    for parts in _imported_names(procedures):
        assert "evaluation" not in parts and "diameter" not in parts, parts


@pytest.mark.parametrize(
    ("family", "p"),
    [(family, None) for family in graphs.FAMILIES if family != "random"]
    + [("random", p) for p in (0, 0.05, 0.2, 1)],
)
def test_generated_adjacency_is_what_the_checked_build_makes_of_its_edges(family, p):
    # from_edges checks range and loops, drops repeats and sorts each list:
    # a generated graph equal to its rebuild is sorted, symmetric, loop-free
    # and repeats no neighbour
    for n in (3, 10, 48, 80, 128, 256):
        for seed in range(3):
            g = generate(family, n, seed, p)
            assert g == Graph.from_edges(n, g.edges())


@pytest.mark.parametrize("family", graphs.FAMILIES)
def test_relabel_equals_rebuilding_from_the_edges(family):
    p = 0.2 if family == "random" else None
    for n in (3, 8, 21, 256):
        g = generate(family, n, seed=5, p=p)
        perm = list(range(n))
        random.Random(n).shuffle(perm)
        rebuilt = Graph.from_edges(n, [(perm[u], perm[v]) for u, v in g.edges()])
        assert relabel(g, perm) == rebuilt


# sha256 of repr(sorted(edges)), first 16 hex digits, of generate("random",
# n, seed, p) for seeds 0, 1, 2.  A generator that skipped a draw, even one
# that p = 0 always rejects, would shift the label shuffle that follows.
RANDOM_GRAPH_DIGESTS = {
    (3, 0): ("d38dbf4bcc2b286c", "d38dbf4bcc2b286c", "71ffd244a7b9a07a"),
    (3, 0.05): ("d38dbf4bcc2b286c", "d38dbf4bcc2b286c", "71ffd244a7b9a07a"),
    (3, 0.2): ("d38dbf4bcc2b286c", "d38dbf4bcc2b286c", "71ffd244a7b9a07a"),
    (3, 1): ("5b88a470c3dc1111", "5b88a470c3dc1111", "5b88a470c3dc1111"),
    (10, 0): ("3701ac36d32a258a", "756f998a39d7e15c", "efa01f4dcb05363d"),
    (10, 0.05): ("bc999edfdf7062ed", "747d309dd44667b6", "2f900962b09223f8"),
    (10, 0.2): ("eb458e10dc471854", "ebd8cbc8a34951eb", "d1ffd9c15fe3c6a1"),
    (10, 1): ("2a881430eadb7ed6", "2a881430eadb7ed6", "2a881430eadb7ed6"),
    (80, 0): ("9da3d76a8e8ccfe1", "ea844f808a1bc269", "1c61322e588977be"),
    (80, 0.05): ("e44f4dcf2b21a2f6", "2bfa3aa7981dd8e5", "fc5f52d1b0449779"),
    (80, 0.2): ("ad27660228994c50", "6875801196e26e61", "a48250afa0a0c316"),
    (80, 1): ("003015c252003994", "003015c252003994", "003015c252003994"),
    (128, 0): ("b709d145bba1bf96", "a7383ca0693a7e1f", "e87c33281ecc7211"),
    (128, 0.05): ("a44f88c8922aad77", "dfe7e023f3fcfe55", "5f6bb52de79bf432"),
    (128, 0.2): ("8b3c6fabd7921529", "dba4347c855edbac", "ca241366a0703d3f"),
    (128, 1): ("c487d3fd7e244811", "c487d3fd7e244811", "c487d3fd7e244811"),
    (256, 0): ("4dbb609d25d3a8be", "dbdcfe41ab1d2a7e", "ef9997a60c4b09fb"),
    (256, 0.05): ("f459eb0c67fbcba8", "8d927003efcad534", "cb71f27b170e8f88"),
    (256, 0.2): ("d043a470cf3b3b03", "86e7e3a2df24c2fc", "be773fc10226672a"),
    (256, 1): ("d180284abfed3454", "d180284abfed3454", "d180284abfed3454"),
}


@pytest.mark.parametrize(("n", "p"), sorted(RANDOM_GRAPH_DIGESTS))
def test_random_graphs_are_pinned(n, p):
    digests = tuple(
        hashlib.sha256(repr(sorted(generate("random", n, seed, p).edges())).encode())
        .hexdigest()[:16]
        for seed in range(3)
    )
    assert digests == RANDOM_GRAPH_DIGESTS[n, p]


@pytest.mark.parametrize("perm", [[0, 0, 2], [0, 1], [0, 1, 2, 3], [1, 2, 3], [-3, 1, 2]])
def test_relabel_rejects_a_non_permutation(perm):
    with pytest.raises(GraphError, match="not a permutation"):
        relabel(graphs.path_graph(3), perm)


def test_verify_compares_the_all_sources_oracle_node_by_node(monkeypatch):
    from qcongest import verify

    ok, detail = verify.check_ecc_relations()
    assert ok and "all-sources oracle equals per-node BFS" in detail

    def off_at_node_3(g):
        eccs = all_eccentricities(g)
        eccs[3] += 1
        return eccs

    monkeypatch.setattr(graphs, "all_eccentricities", off_at_node_3)
    ok, detail = verify.check_ecc_relations()
    assert not ok and "at node 3" in detail
