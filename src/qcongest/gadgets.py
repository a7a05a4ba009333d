"""Reduction instances: disjointness gadget graphs and path stretching.

The gadget on n = 4s+2 nodes has four s-cliques L, L', R, R' plus apexes
a, b; the tracked cut consists of the 2s+1 edges l_i r_i, l'_i r'_i, and
ab.  Input bits disable intra-side edges: x_{i,j} = 0 adds l_i l'_j and
y_{i,j} = 0 adds r_i r'_j, so the left-right distance profile encodes
whether the two k = s^2 bit strings intersect: any shared 1 forces some
l_i to r'_j distance up to 3, otherwise every cross pair is within 2.

Path stretching replaces each cut edge by a path of d+1 edges (d fresh
nodes), pushing the distance gap up by d while keeping the cut width.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace

from .graphs import BipartiteGadget, Graph, GraphError, bipartite_delta, diameter_bruteforce


class GadgetError(GraphError):
    pass


@dataclass(frozen=True)
class DisjInput:
    """A pair of k-bit inputs for the set-disjointness function."""

    k: int
    x: str
    y: str

    def __post_init__(self) -> None:
        if len(self.x) != self.k or len(self.y) != self.k:
            raise GadgetError(f"inputs must be {self.k} bits")
        if (set(self.x) | set(self.y)) - {"0", "1"}:
            raise GadgetError("inputs must be 0/1 strings")

    def disj(self) -> int:
        """1 iff the supports are disjoint (no index with x_i = y_i = 1)."""
        return 0 if any(a == b == "1" for a, b in zip(self.x, self.y)) else 1

    @staticmethod
    def random(k: int, rng: random.Random) -> "DisjInput":
        bits = lambda: "".join(rng.choice("01") for _ in range(k))
        return DisjInput(k, bits(), bits())


def gadget_size(n: int) -> int:
    """Clique size s = (n-2)/4; rejects sizes the construction cannot take."""
    if n < 6 or n % 4 != 2:
        raise GadgetError(f"gadget needs n = 4s+2 with s >= 1, got n={n}")
    return (n - 2) // 4


def gadget_build(n: int) -> BipartiteGadget:
    """The cut-tracked gadget on n = 4s+2 nodes."""
    s = gadget_size(n)
    a = 0
    l = [1 + i for i in range(s)]
    lp = [1 + s + i for i in range(s)]
    b = 1 + 2 * s
    r = [2 + 2 * s + i for i in range(s)]
    rp = [2 + 3 * s + i for i in range(s)]

    edges: list[tuple[int, int]] = []
    for group in (l, lp, r, rp):
        edges += [(group[i], group[j]) for i in range(s) for j in range(i + 1, s)]
    cut = [(l[i], r[i]) for i in range(s)]
    cut += [(lp[i], rp[i]) for i in range(s)]
    cut.append((a, b))
    edges += cut
    edges += [(a, v) for v in l + lp]
    edges += [(b, v) for v in r + rp]

    roles: dict[str, int] = {"a": a, "b": b}
    for i in range(s):
        roles[f"l{i}"] = l[i]
        roles[f"lp{i}"] = lp[i]
        roles[f"r{i}"] = r[i]
        roles[f"rp{i}"] = rp[i]
    graph = Graph.from_edges(n, edges)
    return BipartiteGadget(
        graph=graph,
        left=frozenset([a, *l, *lp]),
        right=frozenset([b, *r, *rp]),
        cut_edges=tuple(cut),
        roles=roles,
    )


def gadget_apply_inputs(gad: BipartiteGadget, inp: DisjInput) -> Graph:
    """Add the input-dependent edges: l_i l'_j iff x_{i,j} = 0 (row-major),
    and r_i r'_j iff y_{i,j} = 0."""
    s = gadget_size(gad.graph.n)
    if inp.k != s * s:
        raise GadgetError(f"need k = s^2 = {s * s} bits, got {inp.k}")
    edges = list(gad.graph.edges())
    for i in range(s):
        for j in range(s):
            if inp.x[i * s + j] == "0":
                edges.append((gad.roles[f"l{i}"], gad.roles[f"lp{j}"]))
            if inp.y[i * s + j] == "0":
                edges.append((gad.roles[f"r{i}"], gad.roles[f"rp{j}"]))
    return Graph.from_edges(gad.graph.n, edges)


def stretch(
    gad: BipartiteGadget, d: int
) -> tuple[BipartiteGadget, dict[int, tuple[int, int]]]:
    """Replace each cut edge by a path of length d+1 through d fresh nodes.

    Returns the stretched gadget (cut_edges then lists the first hop of each
    path, kept for bookkeeping) and a map from each fresh node to its
    (cut edge index, position 1..d); position p belongs to vertical layer p.
    """
    if d < 0:
        raise GadgetError("stretch length must be nonnegative")
    if d == 0:
        return gad, {}
    n = gad.graph.n
    b = len(gad.cut_edges)
    cut_set = set(gad.cut_edges)
    edges = [
        (u, v)
        for u, v in gad.graph.edges()
        if (u, v) not in cut_set and (v, u) not in cut_set
    ]
    layer_map: dict[int, tuple[int, int]] = {}
    crossing: list[tuple[int, int]] = []
    for idx, (u, v) in enumerate(gad.cut_edges):
        chain = [u] + [n + idx * d + (p - 1) for p in range(1, d + 1)] + [v]
        for p in range(1, d + 1):
            layer_map[chain[p]] = (idx, p)
        edges += [(chain[i], chain[i + 1]) for i in range(len(chain) - 1)]
        crossing.append((chain[d // 2], chain[d // 2 + 1]))
    graph = Graph.from_edges(n + b * d, edges)
    stretched = BipartiteGadget(
        graph=graph,
        left=gad.left | frozenset(v for v, (_, p) in layer_map.items() if p <= d // 2),
        right=gad.right
        | frozenset(v for v, (_, p) in layer_map.items() if p > d // 2),
        cut_edges=tuple(crossing),
        roles=dict(gad.roles),
    )
    return stretched, layer_map


@dataclass(frozen=True)
class ReductionInstance:
    """A disjointness input pair, its gadget graph, and the verified gap."""

    inp: DisjInput
    gadget: BipartiteGadget
    graph: Graph
    stretch_d: int
    delta: int
    diameter: int

    @property
    def disj(self) -> int:
        return self.inp.disj()


def build_reduction_instance(
    n: int, inp: DisjInput, stretch_d: int = 0
) -> ReductionInstance:
    """Assemble G_n(x, y), optionally stretched, with measured gap values.

    ``delta`` is always measured between the two original sides (apexes plus
    cliques), ignoring any stretch dummies.
    """
    gad = gadget_build(n)
    stretched, _ = stretch(gad, stretch_d)
    # input edges are intra-side and unaffected by stretching
    extra = sorted(set(gadget_apply_inputs(gad, inp).edges()) - set(gad.graph.edges()))
    graph = Graph.from_edges(stretched.graph.n, list(stretched.graph.edges()) + extra)
    return ReductionInstance(
        inp=inp,
        gadget=replace(stretched, graph=graph),
        graph=graph,
        stretch_d=stretch_d,
        delta=bipartite_delta(graph, gad.left, gad.right),
        diameter=diameter_bruteforce(graph),
    )


def reduction_protocol_cost(gad: BipartiteGadget, r_rounds: int) -> tuple[int, int]:
    """Two-party cost of simulating r rounds across the cut: each round is
    replaced by one message in each direction carrying the cut traffic."""
    if r_rounds < 0:
        raise GadgetError("round count must be nonnegative")
    if r_rounds == 0:
        return 0, 0
    b = len(gad.cut_edges)
    log_n = max(1, math.ceil(math.log2(max(2, gad.graph.n))))
    return 2 * r_rounds, 2 * r_rounds * b * log_n
