"""Undirected graph core: representation, generators, and brute-force oracles.

Every distributed algorithm in this repo is checked against the oracles
defined here: a single-source BFS (`bfs_distances`, `eccentricity`) and an
all-sources ball-growing pass over integer bitsets (`all_eccentricities`,
`diameter_bruteforce`).  The module is pure Python over the adjacency
tuples and shares no code with the procedures it checks.  Node ids are
dense integers in [0, n) and neighbor lists are sorted, which makes all
traversals deterministic.
"""

from __future__ import annotations

import heapq
import random
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence


class GraphError(ValueError):
    """Raised for malformed, disconnected, or otherwise unusable graphs."""


@dataclass(frozen=True)
class Graph:
    """Simple undirected connected graph with sorted adjacency lists."""

    n: int
    adj: tuple[tuple[int, ...], ...]

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        if n <= 0:
            raise GraphError("graph must have at least one node")
        neigh: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise GraphError(f"self-loop at node {u}")
            neigh[u].add(v)
            neigh[v].add(u)
        g = Graph(n, tuple(tuple(sorted(s)) for s in neigh))
        bfs_distances(g, 0)  # raises naming the unreachable node
        return g

    @cached_property
    def m(self) -> int:
        return sum(len(a) for a in self.adj) // 2

    def __getstate__(self) -> dict:
        # pickles carry the fields only, whether or not m is cached
        return {"n": self.n, "adj": self.adj}

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in self.adj[u]:
                if u < v:
                    yield (u, v)


@dataclass(frozen=True)
class BipartiteGadget:
    """Two-sided gadget graph: a cut of tracked edges between a left and right part.

    ``cut_edges`` are only the left-right edges; edges inside each part live in
    ``graph`` like any other edge.  ``roles`` maps structural labels such as
    ``"a"``, ``"b"``, ``"l3"``, ``"lp0"``, ``"r2"``, ``"rp1"`` to node ids.
    """

    graph: Graph
    left: frozenset[int]
    right: frozenset[int]
    cut_edges: tuple[tuple[int, int], ...]
    roles: dict[str, int]

    def __post_init__(self) -> None:
        if self.left & self.right:
            raise GraphError("left and right parts overlap")
        if self.left | self.right != set(range(self.graph.n)):
            raise GraphError("left and right do not partition the node set")
        for u, v in self.cut_edges:
            if not (u in self.left and v in self.right):
                raise GraphError(f"cut edge ({u}, {v}) does not cross the partition")


def bfs_distances(g: Graph, source: int) -> dict[int, int]:
    """Exact hop distances from ``source``; raises if any node is unreachable."""
    if not (0 <= source < g.n):
        raise GraphError(f"source {source} out of range")
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in g.adj[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    if len(dist) < g.n:
        missing = min(v for v in range(g.n) if v not in dist)
        raise GraphError(f"graph disconnected: node {missing} unreachable from {source}")
    return dist


def eccentricity(g: Graph, u: int) -> int:
    return max(bfs_distances(g, u).values())


def all_eccentricities(g: Graph) -> list[int]:
    """Every node's eccentricity from one all-sources ball-growing pass.

    ``ball[v]`` is the bitset of nodes within distance k of v.  Level k + 1
    ORs into each open ball its neighbours' balls of level k (read from the
    previous level's list only), and ecc(v) is the first level at which
    ``ball[v]`` holds every node.  A ball that stops growing before it is
    full means the graph is disconnected.
    """
    n, adj = g.n, g.adj
    full = (1 << n) - 1
    ball = [1 << v for v in range(n)]
    ecc = [0] * n
    open_nodes = [v for v in range(n) if ball[v] != full]
    level = 0
    while open_nodes:
        level += 1
        grown = ball[:]
        still_open = []
        for v in open_nodes:
            b = ball[v]
            for u in adj[v]:
                b |= ball[u]
            grown[v] = b
            if b == full:
                ecc[v] = level
            elif b == ball[v]:
                missing = ~b & full
                raise GraphError(
                    f"graph disconnected: node {(missing & -missing).bit_length() - 1}"
                    f" unreachable from {v}"
                )
            else:
                still_open.append(v)
        ball, open_nodes = grown, still_open
    return ecc


def diameter_bruteforce(g: Graph) -> int:
    return max(all_eccentricities(g))


def bipartite_delta(graph: Graph, left: frozenset[int], right: frozenset[int]) -> int:
    """Largest distance in ``graph`` between a ``left`` and a ``right`` vertex."""
    return max(max(bfs_distances(graph, u)[v] for v in right) for u in left)


# ---------------------------------------------------------------------------
# Generators.  All are deterministic for a fixed seed.  Structural builders
# below assign canonical labels; generate() shuffles labels with the seed so
# the min-id leader is not structurally biased.
# ---------------------------------------------------------------------------

FAMILIES = ("path", "cycle", "star", "grid", "random", "lollipop")


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise GraphError("cycle needs n >= 3")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(n: int) -> Graph:
    if n < 2:
        raise GraphError("star needs n >= 2")
    return Graph.from_edges(n, [(0, i) for i in range(1, n)])


def grid_graph(n: int) -> Graph:
    """Row-major grid on n nodes, last row possibly partial."""
    cols = max(1, int(n**0.5))
    edges = []
    for k in range(n):
        if (k + 1) % cols != 0 and k + 1 < n:
            edges.append((k, k + 1))
        if k + cols < n:
            edges.append((k, k + cols))
    return Graph.from_edges(n, edges)


def lollipop_graph(n: int) -> Graph:
    """Clique on ceil(n/2) nodes with a path hanging off node m-1."""
    if n < 3:
        raise GraphError("lollipop needs n >= 3")
    m = (n + 1) // 2
    edges = [(i, j) for i in range(m) for j in range(i + 1, m)]
    edges += [(i, i + 1) for i in range(m - 1, n - 1)]
    return Graph.from_edges(n, edges)


def _random_connected_graph(n: int, p: float, rng: random.Random) -> Graph:
    """A uniform random spanning tree (Pruefer) plus a G(n, p) overlay, in
    canonical labels.  After the tree's draws, pair (i, j), i < j, draws one
    number in row-major order unless it is a tree edge, which draws none.

    Pure rejection-sampled G(n, p) is essentially never connected at the
    sparse densities used in the experiment grids, so connectivity is
    guaranteed by construction instead.  Every row is a filter of
    ``range(i + 1, n)`` visited once, so no edge is out of range, a loop or
    a repeat; row i gets its lower neighbours (appended as their rows are
    built) before its upper ones, so each list is ascending.
    """
    above: list[list[int]] = [[] for _ in range(n)]  # row i: tree neighbours j > i
    if n == 2:
        above[0].append(1)
    elif n > 2:
        pruefer = [rng.randrange(n) for _ in range(n - 2)]
        degree = [1] * n
        for x in pruefer:
            degree[x] += 1
        leaves = [v for v in range(n) if degree[v] == 1]
        heapq.heapify(leaves)
        for x in pruefer:
            leaf = heapq.heappop(leaves)
            above[min(leaf, x)].append(max(leaf, x))
            degree[x] -= 1
            if degree[x] == 1:
                heapq.heappush(leaves, x)
        u, v = sorted(leaves[:2])
        above[u].append(v)
    adj: list[list[int]] = [[] for _ in range(n)]
    draw = rng.random
    for i in range(n):
        row = adj[i]
        lower = len(row)
        start = i + 1
        for t in sorted(above[i]):
            row += [j for j in range(start, t) if draw() < p]
            row.append(t)
            start = t + 1
        row += [j for j in range(start, n) if draw() < p]
        for j in row[lower:]:
            adj[j].append(i)
    g = Graph(n, tuple(map(tuple, adj)))
    bfs_distances(g, 0)  # raises naming the unreachable node
    return g


def relabel(g: Graph, perm: Sequence[int]) -> Graph:
    """Return g with node i renamed to perm[i].

    Walking the new labels in ascending order and appending each to its
    neighbours' new rows leaves every row sorted without a sort.
    """
    n = g.n
    old = [-1] * n  # old[perm[i]] = i
    for u, a in enumerate(perm):
        if not (isinstance(a, int) and 0 <= a < n) or old[a] >= 0:
            break  # so some label stays unfilled, unless perm is too long
        old[a] = u
    if len(perm) != n or -1 in old:
        raise GraphError(f"relabelling is not a permutation of range({n})")
    rows: list[list[int]] = [[] for _ in range(n)]
    new_row = [rows[a] for a in perm]  # indexed by old label
    for a, u in enumerate(old):
        for v in g.adj[u]:
            new_row[v].append(a)
    return Graph(n, tuple(map(tuple, rows)))


def check_family(family: str, p: float | None) -> None:
    """Refuse a (family, edge probability p) pair ``generate`` cannot build:
    a family not in ``FAMILIES``, random without p in [0, 1], or p on another."""
    if family not in FAMILIES:
        raise GraphError(f"unknown family {family!r} (choose from {FAMILIES})")
    if family == "random":
        if p is None or not (0.0 <= p <= 1.0):
            raise GraphError(f"random needs an edge probability in [0, 1], got p={p}")
    elif p is not None:
        raise GraphError(f"family {family!r} takes no edge probability, got p={p}")


def generate(family: str, n: int, seed: int = 0, p: float | None = None) -> Graph:
    """Build a connected graph of the given family, deterministic per seed,
    once ``check_family`` has accepted (family, p)."""
    check_family(family, p)
    if n < 1:
        raise GraphError("n must be positive")
    rng = random.Random(f"qcongest-gen:{family}:{n}:{seed}")
    if family == "random":
        g = _random_connected_graph(n, p, rng)
    else:
        build = {"path": path_graph, "cycle": cycle_graph, "star": star_graph,
                 "grid": grid_graph, "lollipop": lollipop_graph}[family]
        g = build(n)
    perm = list(range(n))
    rng.shuffle(perm)
    return relabel(g, perm)

