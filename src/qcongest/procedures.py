"""Distributed classical subroutines: closed forms and their engine programs.

Provides min-id leader election with eccentricity computation, BFS tree
construction, the DFS numbering of the tree with its cyclic window sets,
plus the flood/convergecast building blocks used by the diameter
algorithms.

Each procedure has one production entry point, which requires the graph's
all-sources distance matrix (``all_sources_distances``) and derives its
outputs and exact ``CostReport`` in closed form from the program's event
times on it, keeping the engine's register-width and bandwidth checks:
``elect_leader_and_ecc``, ``build_bfs_tree``, ``multi_source_bfs``,
``argmax_convergecast``, and ``simple_eval_table`` (every branch u0 of the
simple evaluation at once), which ``eccentricity_simple_eval`` reads.

Every procedure, closed form and engine reference alike, requires
n >= ``MIN_PROCEDURE_N`` and raises ``EngineError`` below it: the message
layouts need ceil(log2 n) >= 2 bits per field.  The diameter algorithms
answer smaller networks without running any procedure.

Next to each program sits its reference, which runs it on the word-level
engine and is what the closed form is tested against: ``elect_on_engine``
(which also writes word traces), ``bfs_tree_on_engine``,
``multi_source_bfs_on_engine``, ``argmax_on_engine`` and
``simple_eval_on_engine``.  The programs are event-driven: they act on
message arrival, so the engine only steps nodes that have work.
``pipelined_arrivals`` states the pipelining lemma for waves from any start
set; the evaluation's window table checks its waves with it.

The DFS numbering numbers the tree's closed Euler tour in closed form: the
tour first visits v at position 2*pre(v) - depth(v), pre(v) being v's index
in preorder with children in ascending id order.  The tour occupies
positions 0 .. 2(k-1) of a cyclic index space of size 2k (k = number of
nodes covered); the one leftover position is an idle step at the root, which
keeps the distributed traversal aligned with the cyclic window definition.
The tour itself is stepped only on request, as the numbering's reference.
"""
from __future__ import annotations

import bisect
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Container, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .engine import (
    CostReport,
    EngineError,
    NodeContext,
    NodePeaks,
    NodeProgram,
    OversizedWordError,
    RegisterField,
    RegisterSchema,
    SchemaViolationError,
    Word,
    default_bandwidth,
    id_bits,
    pack_bits,
    run,
    unpack_bits,
)
from .graphs import Graph


MIN_PROCEDURE_N = 3  # message layouts need ceil(log2 n) >= 2 at bandwidth 4*ceil(log2 n)
_NEVER = 2**31 - 1  # a round later than any: int32's largest, the distance dtype


def _require_size(g: Graph) -> None:
    if g.n < MIN_PROCEDURE_N:
        raise EngineError(f"distributed procedures require n >= {MIN_PROCEDURE_N}, got {g.n}")


# ---------------------------------------------------------------------------
# The engine's checks, applied by the closed forms.
# ---------------------------------------------------------------------------


def _check_register(procedure: str, widest: int, bits: int) -> None:
    if widest >= 1 << bits:
        raise SchemaViolationError(
            f"{procedure} register value {widest} does not fit {bits} bits"
        )


def _check_word(node: int, size: int, n: int) -> None:
    """The engine's bandwidth check on the first word a procedure sends: by
    ``node`` in round 0."""
    if size > default_bandwidth(n):
        raise OversizedWordError(node, 0, size, default_bandwidth(n))


def _csr(g: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Degrees, the start of each node's slice of the flat neighbor array,
    and that array (ascending ids per node): ``g.adj`` in CSR form."""
    deg = np.fromiter(map(len, g.adj), dtype=np.intp, count=g.n)
    neighbors = np.fromiter(chain.from_iterable(g.adj), dtype=np.intp, count=int(deg.sum()))
    return deg, deg.cumsum() - deg, neighbors


# One-slot memo of _adjacency: [graph, its read-only CSR arrays] for the
# last graph read, or empty; O(n + m), so the next graph's arrays replace it.
_adjacency_memo: list = []


def _adjacency(g: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_csr(g)``, built once per graph: every procedure on one graph
    object (the matrix, the election and each BFS tree) reads the same
    arrays from a one-slot memo keyed by that object's identity.  The
    arrays are read-only, so no caller can change another's view."""
    if not _adjacency_memo or _adjacency_memo[0] is not g:
        arrays = _csr(g)
        for arr in arrays:
            arr.flags.writeable = False
        _adjacency_memo[:] = [g, arrays]
    return _adjacency_memo[1]


# ---------------------------------------------------------------------------
# Leader election with eccentricity (flood-min contest + echo convergecast).
# ---------------------------------------------------------------------------
#
# Every node floods its own id; smaller ids suppress larger ones, and the
# surviving wave's first arrivals form the BFS tree of the minimum-id node.
# Termination: each node echoes to its wave-parent once every non-parent
# neighbor has shown the same wave and every claimed child has echoed; the
# echo carries the subtree's maximum depth.  When the true root completes it
# knows its eccentricity and floods a DONE message.  A node whose echo is
# ready in its adoption round merges claim+confirm+echo into one message so
# no edge ever carries two words in a round.

_TAG_WAVE, _TAG_ECHO, _TAG_DONE = 0, 1, 2


class ElectionProgram(NodeProgram):
    def __init__(self, n: int):
        self.L = id_bits(n)

    def schema(self, ctx: NodeContext) -> RegisterSchema:
        L = self.L
        return RegisterSchema(
            (
                RegisterField("best", L),
                RegisterField("dist", L),
                RegisterField("parent", L),
                RegisterField("seen", L),     # non-parent neighbors that showed my wave
                RegisterField("claims", L),   # neighbors claiming me as parent
                RegisterField("echoes", L),   # children whose subtree finished
                RegisterField("maxdist", L),
                RegisterField("echo_sent", 1),
                RegisterField("leader", L),
                RegisterField("ecc", L),
            )
        )

    def init_state(self, ctx: NodeContext) -> dict:
        return {
            "best": ctx.node,
            "dist": 0,
            "parent": None,
            "seen": 0,
            "claims": 0,
            "echoes": 0,
            "maxdist": 0,
            "echo_sent": 0,
            "leader": None,
            "ecc": None,
        }

    def _wave(self, b: int, dist: int, pflag: int) -> Word:
        L = self.L
        return pack_bits([(_TAG_WAVE, 2), (b, L), (dist, L), (pflag, 1)])

    def _echo(self, b: int, maxdist: int, claim: int) -> Word:
        L = self.L
        return pack_bits([(_TAG_ECHO, 2), (b, L), (maxdist, L), (claim, 1)])

    def _done(self, leader: int, ecc: int) -> Word:
        L = self.L
        return pack_bits([(_TAG_DONE, 2), (leader, L), (ecc, L)])

    def step(self, ctx, state, inbox, round_no):
        L = self.L
        out: dict[int, Word] = {}
        if round_no == 0:
            return state, dict.fromkeys(ctx.neighbors, self._wave(ctx.node, 0, 0)), False

        waves: list[tuple[int, int, int, int]] = []  # (b, dist, pflag, sender)
        echoes: list[tuple[int, int, int, int]] = []  # (b, maxdist, claim, sender)
        done: tuple[int, int] | None = None
        for sender, word in inbox.items():
            tag = word.head(2)
            if tag == _TAG_WAVE:
                _, b, dist, pflag = unpack_bits(word, (2, L, L, 1))
                waves.append((b, dist, pflag, sender))
            elif tag == _TAG_ECHO:
                _, b, md, claim = unpack_bits(word, (2, L, L, 1))
                echoes.append((b, md, claim, sender))
            else:
                _, lead, ecc = unpack_bits(word, (2, L, L))
                done = (lead, ecc)

        if done is not None:
            state["leader"], state["ecc"] = done
            return state, dict.fromkeys(ctx.neighbors, self._done(*done)), True

        adopted = False
        cand = min((b for b, _, _, _ in waves), default=state["best"])
        if cand < state["best"]:
            arrivals = [(d, s) for b, d, _, s in waves if b == cand]
            dists = {d for d, _ in arrivals}
            if len(dists) != 1:
                raise EngineError("same-round arrivals of one wave must agree on dist")
            state["best"] = cand
            state["dist"] = dists.pop() + 1
            state["parent"] = min(s for _, s in arrivals)
            state["seen"] = state["claims"] = state["echoes"] = 0
            state["maxdist"] = 0
            state["echo_sent"] = 0
            adopted = True

        b = state["best"]
        for wb, _, pflag, sender in waves:
            if wb == b and sender != state["parent"]:
                state["seen"] += 1
                state["claims"] += pflag
        for eb, md, claim, _ in echoes:
            if eb == b:
                state["echoes"] += 1
                state["claims"] += claim
                state["seen"] += claim
                state["maxdist"] = max(state["maxdist"], md)

        if state["parent"] is None and b == ctx.node:
            # root of its own wave: completion means the wave covered the graph
            if state["seen"] == len(ctx.neighbors) and state["echoes"] == state["claims"]:
                ecc = state["maxdist"]
                state["leader"], state["ecc"] = ctx.node, ecc
                return state, dict.fromkeys(ctx.neighbors, self._done(ctx.node, ecc)), True
            return state, out, False

        echo_ready = (
            not state["echo_sent"]
            and state["seen"] == len(ctx.neighbors) - 1
            and state["echoes"] == state["claims"]
        )
        if adopted:
            out = dict.fromkeys(ctx.neighbors, self._wave(b, state["dist"], 0))
            if echo_ready:
                out[state["parent"]] = self._echo(
                    b, max(state["maxdist"], state["dist"]), 1
                )
                state["echo_sent"] = 1
            else:
                out[state["parent"]] = self._wave(b, state["dist"], 1)
        elif echo_ready:
            out[state["parent"]] = self._echo(b, max(state["maxdist"], state["dist"]), 0)
            state["echo_sent"] = 1
        return state, out, False

    def output(self, ctx, state):
        return {
            "leader": state["leader"],
            "ecc": state["ecc"],
            "dist": state["dist"],
            "parent": state["parent"] if state["parent"] is not None else ctx.node,
        }


def elect_leader_and_ecc(g: Graph, dist: np.ndarray) -> tuple[int, int, CostReport]:
    """Elect the minimum-id node and compute its eccentricity, known to all.

    Runs in at most 3*ecc(leader) + O(1) rounds; the result and report are
    derived in closed form from ``dist`` (``_election_report``).
    """
    _require_size(g)
    return 0, int(dist[0].max()), _election_report(g, dist)


def elect_on_engine(
    g: Graph, max_rounds: int | None = None, trace_path: str | None = None
) -> tuple[int, int, CostReport]:
    """``elect_leader_and_ecc``'s reference: ``ElectionProgram`` on the
    engine, stopped after ``max_rounds`` (a generous default) and writing
    its word trace to ``trace_path``.  The last round only delivers DONE
    words, so the engine never counts it against the limit."""
    max_rounds = 8 * g.n + 32 if max_rounds is None else max_rounds
    _require_size(g)
    outputs, report = run(
        g, ElectionProgram(g.n), max_rounds=max_rounds, trace_path=trace_path
    )
    leaders = {o["leader"] for o in outputs.values()}
    eccs = {o["ecc"] for o in outputs.values()}
    if leaders != {0} or len(eccs) != 1:
        raise EngineError("all nodes must agree on leader 0 and its eccentricity")
    return leaders.pop(), eccs.pop(), report


def _doubling_steps(up: np.ndarray, depth: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Pointer doubling over the forest ``up`` (roots point to themselves;
    ``depth`` counts the steps to the root): step j pairs every record that
    has a 2^j-th ancestor with that ancestor, ceil(log2(depth.max() + 1))
    steps in all."""
    steps = []
    anc = up
    live = (depth > 0).nonzero()[0]
    hop = 1
    while live.size:
        steps.append((live, anc[live]))
        anc = anc[anc]
        hop *= 2
        live = live[depth[live] >= hop]
    return steps


def _subtree_fold(
    ufunc: np.ufunc, values: np.ndarray, steps: list[tuple[np.ndarray, np.ndarray]]
) -> np.ndarray:
    """``ufunc`` of ``values`` over each record's subtree, folded into
    ``values`` in place along ``_doubling_steps``: after step j each record
    holds its subtree's first 2^(j+1) levels, its own first 2^j and those of
    its descendants 2^j levels down."""
    for live, anc in steps:
        ufunc.at(values, anc, values[live])
    return values


def _election_report(g: Graph, dist: np.ndarray) -> CostReport:
    """``ElectionProgram``'s report from its event times.

    Node v adopts wave b in round k = dist(b, v) exactly when b is smaller
    than every id closer to v (ties by id), and holds it until its next
    adoption.  Record (v, b) is keyed by its flat index v*n + b, and its
    pair with a neighbor w by w*n + b, which keys both dist(b, w) (the
    matrix is symmetric) and whether w adopts b (the flat adoption mask),
    so every pair is read with flat gathers.  v's parent for b is its
    smallest neighbor one level closer to b, which adopts b in round
    k - 1, and a search over the sorted record keys finds that adoption's
    record; these links make the adoption records a forest whose roots are
    the round-0 records, record 0 (node 0's) among them.  Two
    aggregates over each record's subtree give the echoes:
    - v's echo for b is ready in round E, the latest arrival of a non-parent
      neighbor's b-wave (dist(b, w) + 1) or of a child's echo (E_c + 1), so
      E + k is the largest E0 + k over the subtree, where E0 counts the
      waves alone and is at least k;
    - it is sent only if every non-parent neighbor adopts b, every child
      echoes and E comes before v's next adoption, so the subtree's records
      must all meet their own two conditions.
    E0 and the adoption test are taken over every neighbor, the parent
    included, and the parent changes neither: it adopts b, which the
    forest's link already reads, and its wave arrives in round
    dist(b, parent) + 1 = k, while every neighbor's arrival is at least k
    (neighbors differ by at most one level).  A round-0 record has no
    parent, and its node has a neighbor, so there E0 = 2.
    ``_subtree_fold`` folds both aggregates by pointer doubling.  An echo
    ready in the adoption round rides on the claim word; a later one costs
    a word of its own.  Round 0 and each adoption send deg(v) words.  Node 0
    completes in round R0 = max over its children of E + 1, and DONE floods
    2m words in ecc(0) rounds plus one that only delivers.
    """
    n, L = g.n, id_bits(g.n)
    _check_register("election", n - 1, L)
    _check_word(0, 2 * L + 3, n)
    deg, starts, neighbors = _adjacency(g)
    flat_dist = dist.ravel()
    # records (v, b) of v adopting b, round 0 counting as adopting v itself;
    # per v, b ascends and the adoption round descends
    closest = np.minimum.accumulate(dist, axis=1)
    adopts = np.empty((n, n), dtype=bool)
    adopts[:, 0] = True
    adopts[:, 1:] = dist[:, 1:] < closest[:, :-1]
    del closest
    adopts = adopts.ravel()
    key = adopts.nonzero()[0]
    rv, rb = np.divmod(key, n)
    rk = flat_dist.take(key)
    size = len(key)
    next_round = np.empty(size, dtype=rk.dtype)
    next_round.fill(_NEVER)
    same = rv[1:] == rv[:-1]
    next_round[1:][same] = rk[:-1][same]

    # one entry per (record, neighbor w of its node), keyed by w*n + b
    count = deg.take(rv)
    first = count.cumsum() - count
    slot = np.arange(int(count.sum())) - (first - starts.take(rv)).repeat(count)
    w = neighbors.take(slot)
    wb = w * n + rb.repeat(count)
    dw = flat_dist.take(wb)
    parent = np.minimum.reduceat(np.where(dw == (rk - 1).repeat(count), w, n), first)
    echoes = np.logical_and.reduceat(adopts.take(wb), first)
    ready = np.maximum.reduceat(dw, first) + 1
    adoption = rk > 0
    up = np.arange(size, dtype=np.int32)  # round-0 records are the roots
    up[adoption] = key.searchsorted(parent[adoption] * n + rb[adoption])

    # the two subtree aggregates (a root's own echo is never read)
    steps = _doubling_steps(up, rk)
    ready = _subtree_fold(np.maximum, ready + rk, steps) - rk
    # the AND of 0/1 bytes is their minimum, which ufunc.at folds on its fast
    # path (logical_and.at on bool does not)
    echoes = (echoes & (ready < next_round)).view(np.uint8)
    echoes = _subtree_fold(np.minimum, echoes, steps).view(bool)

    words = int(count.sum()) + 2 * g.m + int((echoes & adoption & (ready > rk)).sum())
    rounds = int(ready[0]) + int(dist[0].max()) + 1
    bits = NodePeaks((8 * L + 1,) + (9 * L + 1,) * (n - 1))  # the leader has no parent
    return CostReport(rounds, words, bits, NodePeaks.uniform(n, 0))


# ---------------------------------------------------------------------------
# BFS tree construction: the leader activates its neighbors, activation
# spreads one hop per round, each node keeps the smallest-id sender of its
# first activation as parent.  Runs for exactly the given round budget
# (the leader knows its eccentricity from the election).
# ---------------------------------------------------------------------------


class BfsTreeProgram(NodeProgram):
    def __init__(self, n: int, root: int, budget: int):
        self.L = id_bits(n)
        self.root = root
        self.budget = budget

    def schema(self, ctx: NodeContext) -> RegisterSchema:
        L = self.L
        return RegisterSchema((RegisterField("parent", L), RegisterField("dist", L)))

    def init_state(self, ctx: NodeContext) -> dict:
        return {"parent": None, "dist": None}

    def step(self, ctx, state, inbox, round_no):
        out: dict[int, Word] = {}
        if round_no == 0:
            if ctx.node != self.root:
                return state, out, False
            state["parent"], state["dist"] = ctx.node, 0
            if self.budget > 0:
                out = dict.fromkeys(ctx.neighbors, pack_bits([(0, self.L)]))
            return state, out, True
        if state["dist"] is not None or not inbox:
            return state, out, state["dist"] is not None
        dists = {unpack_bits(w, (self.L,))[0] for w in inbox.values()}
        if len(dists) != 1:
            raise EngineError("simultaneous activations must carry equal distance")
        state["dist"] = dists.pop() + 1
        state["parent"] = min(inbox)
        if round_no < self.budget:
            out = dict.fromkeys(ctx.neighbors, pack_bits([(state["dist"], self.L)]))
        return state, out, True

    def output(self, ctx, state):
        return {"parent": state["parent"], "dist": state["dist"]}


@dataclass(frozen=True)
class BfsTreeState:
    """Per-node parent/distance of BFS(leader); depth equals ecc(leader)."""

    leader: int
    ecc_leader: int
    parent: tuple[int, ...]
    dist: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.parent[self.leader] != self.leader or self.dist[self.leader] != 0:
            raise EngineError("leader must be its own parent at distance 0")
        for v, p in enumerate(self.parent):
            if v != self.leader and self.dist[p] != self.dist[v] - 1:
                raise EngineError(f"parent of {v} is not one level up")
        if max(self.dist) != self.ecc_leader:
            raise EngineError("tree depth must equal ecc(leader)")

    @cached_property
    def children(self) -> tuple[tuple[int, ...], ...]:
        """Each node's children, in ascending id order: v runs upward."""
        kids: list[list[int]] = [[] for _ in self.parent]
        for v, p in enumerate(self.parent):
            kids[p].append(v)
        kids[self.leader].remove(self.leader)  # its own parent
        return tuple(map(tuple, kids))

    @property
    def n(self) -> int:
        return len(self.parent)


def build_bfs_tree(
    g: Graph, leader: int, dist: np.ndarray
) -> tuple[BfsTreeState, CostReport]:
    """Construct BFS(leader) in exactly ecc(leader) rounds.

    The round budget is ecc(leader), which the leader knows from the
    election.  The tree and report are derived in closed form from
    ``dist``: the parent is the smallest neighbor one level up, and every
    node closer than the budget sends one word per edge.
    """
    _require_size(g)
    row = dist[leader]
    ecc_leader = int(row.max())
    L = id_bits(g.n)
    deg, starts, neighbors = _adjacency(g)
    below = (row - 1).repeat(deg) == row[neighbors]
    parent = np.minimum.reduceat(np.where(below, neighbors, g.n), starts)
    parent[leader] = leader
    _check_register("BFS tree", int(max(parent.max(), ecc_leader)), L)
    _check_word(leader, L, g.n)
    report = CostReport(
        ecc_leader, int(deg[row < ecc_leader].sum()),
        NodePeaks.uniform(g.n, 2 * L), NodePeaks.uniform(g.n, 0),
    )
    state = BfsTreeState(leader, ecc_leader, tuple(parent.tolist()), tuple(row.tolist()))
    return state, report


def bfs_tree_on_engine(
    g: Graph, leader: int, budget: int
) -> tuple[BfsTreeState, CostReport]:
    """``build_bfs_tree``'s reference: ``BfsTreeProgram`` on the engine for
    ``budget`` rounds.  A budget below ecc(leader) times out; one above it
    fails the tree's depth check."""
    _require_size(g)
    outputs, report = run(g, BfsTreeProgram(g.n, leader, budget), max_rounds=budget + 2)
    parent = tuple(outputs[v]["parent"] for v in range(g.n))
    dist = tuple(outputs[v]["dist"] for v in range(g.n))
    return BfsTreeState(leader, budget, parent, dist), report


# ---------------------------------------------------------------------------
# DFS numbering of the tree and the cyclic window sets built on it.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DfsNumbering:
    """First-visit step indices along the closed DFS walk of the tree.

    ``index_space`` is the cyclic index space 2k the windows live in.
    ``first_visits`` lists the covered nodes in preorder, which is ascending
    ``tau``, and ``positions`` their ``tau``.  ``children`` holds each
    node's children among the covered nodes in ascending id order (none for
    an uncovered node): the walk's moves.
    """

    tau: dict[int, int]
    index_space: int
    positions: tuple[int, ...]
    first_visits: tuple[int, ...]
    children: tuple[tuple[int, ...], ...]

    @cached_property
    def traversal(self) -> tuple[int, ...]:
        """The closed walk's node sequence (length 2(k-1)+1), stepped from
        the root: the reference the closed-form numbering is checked by."""
        root = self.first_visits[0]
        walk = [root]
        stack: list[tuple[int, int]] = [(root, 0)]
        while stack:
            v, ci = stack[-1]
            cs = self.children[v]
            if ci < len(cs):
                stack[-1] = (v, ci + 1)
                walk.append(cs[ci])
                stack.append((cs[ci], 0))
            else:
                stack.pop()
                if stack:
                    walk.append(stack[-1][0])
        if len(walk) != 2 * (len(self.tau) - 1) + 1:
            raise EngineError("DFS walk must visit every node and return to the root")
        return tuple(walk)


def dfs_numbering(
    tree: BfsTreeState, restrict: Iterable[int] | None = None
) -> DfsNumbering:
    """DFS-number the tree (children in ascending id order) in closed form.

    The walk enters each node before v in preorder once and climbs back
    pre(v) - depth(v) times before it first visits v, so
    tau(v) = 2*pre(v) - depth(v), and one preorder pass numbers the tree.
    With ``restrict`` the walk covers only that node set, which must hold
    node ids in 0..n-1, contain the root and be closed under taking parents.
    """
    children, k = tree.children, tree.n
    allowed = None if restrict is None else frozenset(restrict)
    # every node allowed: the whole tree, with no check or filter needed
    if allowed is not None and allowed != frozenset(range(k)):
        outside = sorted(v for v in allowed if not 0 <= v < k)
        if outside:
            raise EngineError(f"restricted node {outside[0]} is not a node id in 0..{k - 1}")
        if tree.leader not in allowed:
            raise EngineError("restricted DFS must contain the root")
        for v in allowed:
            if v != tree.leader and tree.parent[v] not in allowed:
                raise EngineError(f"restricted set not parent-closed at node {v}")
        k = len(allowed)
        kept: list[tuple[int, ...]] = [()] * tree.n
        for v in allowed:
            kept[v] = tuple(c for c in children[v] if c in allowed)
        children = tuple(kept)

    order: list[int] = []
    stack = [tree.leader]
    while stack:
        v = stack.pop()
        order.append(v)
        stack.extend(reversed(children[v]))
    if len(order) != k:
        raise EngineError("DFS must visit every covered node")
    depth = tree.dist
    positions = tuple([2 * i - depth[v] for i, v in enumerate(order)])
    return DfsNumbering(dict(zip(order, positions)), 2 * k, positions, tuple(order), children)


def set_S(u0: int, d: int, numbering: DfsNumbering) -> frozenset[int]:
    """Nodes whose DFS number lies in the cyclic window of width 2d from u0:
    every v with (tau(v) - tau(u0)) mod 2k <= 2d, found by bisecting the
    (tau, node) order in O(log k + |S|)."""
    if u0 not in numbering.tau:
        raise EngineError(f"node {u0} not covered by the numbering")
    t0 = numbering.tau[u0]
    space = numbering.index_space
    pos, nodes = numbering.positions, numbering.first_visits
    if 2 * d >= space - 1:  # every offset fits
        return frozenset(nodes)
    start, end = bisect.bisect_left(pos, t0), t0 + 2 * d
    if end < space:
        return frozenset(nodes[start : bisect.bisect_right(pos, end)])
    return frozenset(nodes[start:] + nodes[: bisect.bisect_right(pos, end - space)])


# ---------------------------------------------------------------------------
# Flood from one node plus max-convergecast up the leader tree: computes
# ecc(u0) at the leader.  This is the evaluation of the simple algorithm.
# ---------------------------------------------------------------------------

_SF_FLOOD, _SF_REPORT, _SF_BOTH = 0, 1, 2


class SimpleEvalProgram(NodeProgram):
    """All nodes know u0; the leader ends up with ecc(u0).

    The flood from u0 gives every node its distance to u0 (final on first
    arrival); each node reports the maximum distance in its leader-tree
    subtree to its tree parent once its own distance is known and all its
    children have reported.
    """

    def __init__(self, n: int, u0: int, tree: BfsTreeState):
        self.L = id_bits(n)
        self.u0 = u0
        self.tree = tree

    def schema(self, ctx: NodeContext) -> RegisterSchema:
        L = self.L
        return RegisterSchema(
            (
                RegisterField("u0", L, quantum=True),
                RegisterField("dist", L, quantum=True),
                RegisterField("reports", L, quantum=True),
                RegisterField("best", L, quantum=True),
            )
        )

    def init_state(self, ctx: NodeContext) -> dict:
        return {"u0": self.u0, "dist": None, "reports": 0, "best": 0}

    def _word(self, tag: int, a: int, b: int = 0) -> Word:
        if tag == _SF_BOTH:
            return pack_bits([(tag, 2), (a, self.L), (b, self.L)])
        return pack_bits([(tag, 2), (a, self.L)])

    def step(self, ctx, state, inbox, round_no):
        out: dict[int, Word] = {}
        tree = self.tree
        v = ctx.node
        activated_now = False
        if round_no == 0:
            if v == self.u0:
                state["dist"] = 0
                activated_now = True
        else:
            for sender, word in inbox.items():
                tag = word.head(2)
                if tag == _SF_FLOOD:
                    _, dist = unpack_bits(word, (2, self.L))
                    rep = None
                elif tag == _SF_REPORT:
                    _, rep = unpack_bits(word, (2, self.L))
                    dist = None
                else:
                    _, dist, rep = unpack_bits(word, (2, self.L, self.L))
                if dist is not None and state["dist"] is None:
                    state["dist"] = dist + 1
                    activated_now = True
                if rep is not None:
                    state["reports"] += 1
                    state["best"] = max(state["best"], rep)

        if activated_now:
            out = dict.fromkeys(ctx.neighbors, self._word(_SF_FLOOD, state["dist"]))
        ready = (
            state["dist"] is not None
            and state["reports"] == len(tree.children[v])
        )
        if v == tree.leader:
            if ready:
                state["best"] = max(state["best"], state["dist"])
            return state, out, ready
        if ready:
            report = max(state["best"], state["dist"])
            p = tree.parent[v]
            if activated_now:
                out[p] = self._word(_SF_BOTH, state["dist"], report)
            else:
                out[p] = self._word(_SF_REPORT, report)
            return state, out, True
        return state, out, False

    def output(self, ctx, state):
        return state["best"] if ctx.node == self.tree.leader else None


def simple_eval_register_bits(n: int) -> int:
    """Per-node register size of the simple evaluation: u0, dist, the report
    counter and the running max, all branch-dependent, each L bits.  Every
    node reaches it once the flood arrives."""
    return 4 * id_bits(n)


_ROWS_ELEMENTS = 1 << 16  # matrix entries per row block of a temporary


def all_sources_distances(g: Graph) -> np.ndarray:
    """``dist[v, s]`` for every node v and source s (symmetric) of a
    connected graph: a BFS from every source at once, one level per step.

    Row v of the frontier is a bit set of sources packed into 64-bit words;
    a level gathers the rows of v's neighbors with one ``take`` (2-D fancy
    indexing of short rows is NumPy's slow path) and ORs them with one
    ``reduceat`` over the neighbor lists.  The distances stay packed as
    well: bit plane k, shaped like the frontier, holds bit k of every
    distance, so a level ORs its frontier into the planes of its level
    number's set bits.  Once no frontier is left, the matrix is assembled
    from the planes by Horner's rule, ``_ROWS_ELEMENTS`` entries at a time.
    """
    n = g.n
    _, starts, neighbors = _adjacency(g)
    nodes = np.arange(n, dtype="<u8")
    frontier = np.zeros((n, (n + 63) // 64), dtype="<u8")
    frontier[nodes, nodes // 64] = np.left_shift(1, nodes % 64, dtype="<u8")
    unseen = ~frontier
    planes: list[np.ndarray] = []  # planes[k]: bit k of dist, packed like the frontier
    level = 0
    while g.m:  # a single node: reduceat rejects an empty neighbor array
        level += 1
        # row v: the sources whose frontier holds a neighbor of v
        frontier = np.bitwise_or.reduceat(frontier.take(neighbors, axis=0), starts, axis=0)
        frontier &= unseen
        if not np.count_nonzero(frontier):
            break
        unseen ^= frontier
        if level == 1 << len(planes):
            planes.append(np.zeros(frontier.shape, dtype=frontier.dtype))
        for k, plane in enumerate(planes):
            if level >> k & 1:
                plane |= frontier
    dist = np.zeros((n, n), dtype=np.int32)
    rows = max(1, _ROWS_ELEMENTS // n)
    for lo in range(0, n, rows):
        block = dist[lo : lo + rows]
        for plane in reversed(planes):
            block <<= 1
            block |= np.unpackbits(
                plane[lo : lo + rows].view(np.uint8), axis=1, count=n, bitorder="little"
            )
    return dist


def pipelined_arrivals(
    dist: np.ndarray, waves: Sequence[int], offsets: Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    """The pipelining lemma (Holzer-Wattenhofer, PODC 2012; Peleg-Roditty-Tal,
    ICALP 2012) for BFS waves from ``waves`` in ascending ``offsets``: wave
    i, started at relative round 2*offsets[i], reaches node v in round
    2*offsets[i] + dist(waves[i], v).  Returns each consecutive pair's late
    flag, set when wave i+1 reaches some node less than
    max(offsets[i+1] - offsets[i], 1) rounds after wave i, and each wave's
    last arrival, reading ``_ROWS_ELEMENTS`` matrix entries at a time."""
    waves, offsets = np.asarray(waves), np.asarray(offsets, dtype=np.int64)
    gap = np.empty(len(waves) - 1, dtype=np.int64)
    ecc = np.empty(len(waves), dtype=np.int64)
    rows = max(1, _ROWS_ELEMENTS // len(dist))
    for lo in range(0, len(waves), rows):
        hops = dist.take(waves[lo : lo + rows + 1], axis=0)
        ecc[lo : lo + rows] = hops[:rows].max(axis=1)
        gap[lo : lo + rows] = (hops[1:] - hops[:-1]).min(axis=1)
    delta = offsets[1:] - offsets[:-1]
    return 2 * delta + gap < np.maximum(delta, 1), 2 * offsets + ecc


def simple_eval_table(g: Graph, tree: BfsTreeState, dist: np.ndarray) -> tuple[Branch, ...]:
    """Every branch of the simple evaluation at once: row u0 is the
    ``Branch`` (ecc(u0), rounds, words) of ``SimpleEvalProgram(u0)``.

    The rows follow from the program's event times.  Node v learns its
    distance in round dist[v] and reports once that is known and every tree
    child has reported, so it is ready in round
    ready[v] = max(dist[v], max over children c of ready[c] + 1).  A child
    is one level deeper than v, so ready[v] + depth(v) is the largest
    dist[u] + depth(u) over v's subtree: one subtree-maximum fold of the
    rows of dist + depth, children into parents bottom-up, less depth,
    gives every node's ready round for every u0 at once.  The leader
    halts at ready[leader]; when that is also its activation round, its
    flood needs one more delivery round.  Every node floods each neighbor
    once and every non-leader reports once, except that a node ready in its
    activation round sends its flood and its report to the parent as one
    ``_SF_BOTH`` word.  ``simple_eval_on_engine`` is the reference these
    rows are tested against.

    No round limit applies: the leader halts by round
    ecc(u0) + ecc(leader) + 1, and every read of a row checks the stricter
    bound of ``_checked_simple_eval``.
    """
    _require_size(g)
    n, leader = g.n, tree.leader
    # registers: u0 < n, dist and best <= ecc(u0), reports <= #children
    widest = max(n - 1, int(dist.max()), max(len(c) for c in tree.children))
    _check_register("simple evaluation", widest, id_bits(n))
    depth = np.array(tree.dist, dtype=dist.dtype)[:, None]
    ready = dist + depth
    for v in sorted(range(n), key=tree.dist.__getitem__, reverse=True):
        if v != leader:
            p = tree.parent[v]
            np.maximum(ready[p], ready[v], out=ready[p])
    ready -= depth
    merged = ready == dist
    merged[leader] = False
    halt = ready[leader]
    rounds = halt + (halt == dist[leader])
    words = 2 * g.m + (n - 1) - merged.sum(axis=0)
    ecc = dist.max(axis=0)
    return tuple(map(Branch._make, zip(ecc.tolist(), rounds.tolist(), words.tolist())))


class Branch(NamedTuple):
    """An evaluation branch as the search reads it: the value at u0, and the
    rounds and words of the forward pass.  The search charges the cleanup
    reversal, which mirrors that pass.  Its registers do not depend on u0."""

    value: int
    rounds: int
    words: int


def _check_branch_peaks(report: CostReport, charged: Sequence[int]) -> None:
    """An engine reference's check that node v held the ``charged[v]`` bits, all qubits."""
    units = (("bits", report.per_node_peak_bits), ("qubits", report.per_node_peak_qubits))
    for unit, peaks in units:
        for v, (held, due) in enumerate(zip(peaks, charged)):
            if held != due:
                raise EngineError(f"node {v} held {held} {unit} in the branch; {due} are charged")


def _check_candidate(u0: int, candidates: Container[int]) -> None:
    """Both evaluations' check that ``u0`` is one of the searched nodes,
    made before any row or register is read."""
    if u0 not in candidates:
        raise EngineError(f"u0={u0} is not a candidate of this evaluation")


def eccentricity_simple_eval(
    g: Graph, tree: BfsTreeState, u0: int, table: Sequence[Branch]
) -> Branch:
    """Compute ecc(u0) at the leader: row u0 of ``table`` (from
    ``simple_eval_table``), on which the forward pass's bound of
    2*ecc(u0) + ecc(leader) + 4 rounds is checked on every call.
    """
    _check_candidate(u0, range(g.n))
    return _checked_simple_eval(tree, u0, table[u0])


def simple_eval_on_engine(g: Graph, tree: BfsTreeState, u0: int) -> Branch:
    """``eccentricity_simple_eval``'s reference: ``SimpleEvalProgram`` on
    the engine, with the same row."""
    _require_size(g)
    _check_candidate(u0, range(g.n))
    # the leader halts by forward round ecc(u0) + ecc(leader) + 1 <= 2n - 1
    outputs, report = run(g, SimpleEvalProgram(g.n, u0, tree), max_rounds=4 * g.n + 16)
    _check_branch_peaks(report, [simple_eval_register_bits(g.n)] * g.n)
    row = Branch(outputs[tree.leader], report.rounds, report.total_words)
    return _checked_simple_eval(tree, u0, row)


def _checked_simple_eval(tree: BfsTreeState, u0: int, row: Branch) -> Branch:
    """``row``, once its rounds are checked against the forward pass's bound
    of 2*ecc(u0) + ecc(leader) + 4."""
    if row.rounds > 2 * row.value + tree.ecc_leader + 4:
        raise EngineError(
            f"simple evaluation of {u0} took {row.rounds} forward rounds, "
            f"exceeding 2*{row.value}+{tree.ecc_leader}+4"
        )
    return row


# ---------------------------------------------------------------------------
# Multi-source BFS flood: every node learns its distance to the closest
# source and that source's id (ties to the smallest id).
# ---------------------------------------------------------------------------


class MultiSourceBfsProgram(NodeProgram):
    def __init__(self, n: int, sources: frozenset[int]):
        self.L = id_bits(n)
        self.sources = sources

    def schema(self, ctx: NodeContext) -> RegisterSchema:
        L = self.L
        return RegisterSchema((RegisterField("dist", L), RegisterField("src", L)))

    def init_state(self, ctx: NodeContext) -> dict:
        return {"dist": None, "src": None}

    def step(self, ctx, state, inbox, round_no):
        out: dict[int, Word] = {}
        if state["dist"] is not None:
            return state, out, True
        if round_no == 0:
            if ctx.node not in self.sources:
                return state, out, False
            state["dist"], state["src"] = 0, ctx.node
        elif inbox:
            arrivals = [unpack_bits(w, (self.L, self.L)) for w in inbox.values()]
            dists = {d for d, _ in arrivals}
            if len(dists) != 1:
                raise EngineError("simultaneous activations must carry equal distance")
            state["dist"] = dists.pop() + 1
            state["src"] = min(s for _, s in arrivals)
        else:
            return state, out, False
        word = pack_bits([(state["dist"], self.L), (state["src"], self.L)])
        return state, dict.fromkeys(ctx.neighbors, word), True

    def output(self, ctx, state):
        return {"dist": state["dist"], "src": state["src"]}


def _checked_sources(g: Graph, sources: Iterable[int]) -> frozenset[int]:
    _require_size(g)
    srcs = frozenset(sources)
    if not srcs:
        raise EngineError("multi-source BFS needs at least one source")
    if not srcs <= frozenset(range(g.n)):
        raise EngineError(f"multi-source BFS sources {sorted(srcs)} outside 0..{g.n - 1}")
    return srcs


def multi_source_bfs(
    g: Graph, sources: Iterable[int], dist: np.ndarray
) -> tuple[dict[int, tuple[int, int]], CostReport]:
    """Distance and closest source for every node: {v: (dist, source)}.

    The result and report are derived in closed form from ``dist``: node v
    is reached in round min over sources of dist(s, v), keeps the smallest
    of the nearest sources, and sends one word per edge; the words of the
    farthest nodes take one more round to deliver.
    """
    L = id_bits(g.n)
    cols = np.array(sorted(_checked_sources(g, sources)))
    near = dist[:, cols]
    hops = near.min(axis=1)
    _check_register("multi-source BFS", int(max(cols[-1], hops.max())), L)
    _check_word(int(cols[0]), 2 * L, g.n)
    closest = dict(enumerate(zip(hops.tolist(), cols[near.argmin(axis=1)].tolist())))
    report = CostReport(
        int(hops.max()) + 1, 2 * g.m,
        NodePeaks.uniform(g.n, 2 * L), NodePeaks.uniform(g.n, 0),
    )
    return closest, report


def multi_source_bfs_on_engine(
    g: Graph, sources: Iterable[int]
) -> tuple[dict[int, tuple[int, int]], CostReport]:
    """``multi_source_bfs``'s reference: ``MultiSourceBfsProgram`` on the
    engine."""
    srcs = _checked_sources(g, sources)
    outputs, report = run(g, MultiSourceBfsProgram(g.n, srcs), max_rounds=2 * g.n + 16)
    return {v: (o["dist"], o["src"]) for v, o in outputs.items()}, report


# ---------------------------------------------------------------------------
# Argmax convergecast over the leader tree: finds the node maximizing a
# per-node value (ties to the smallest id) and floods the result back down.
# ---------------------------------------------------------------------------

_AG_REPORT, _AG_RESULT = 0, 1


class ArgmaxConvergecastProgram(NodeProgram):
    def __init__(self, n: int, tree: BfsTreeState):
        self.L = id_bits(n)  # node ids, and the values: hop counts below n
        self.tree = tree

    def schema(self, ctx: NodeContext) -> RegisterSchema:
        L = self.L
        return RegisterSchema(
            (
                RegisterField("reports", L),
                RegisterField("best_val", L),
                RegisterField("best_node", L),
                RegisterField("sent", 1),
                RegisterField("out_val", L),
                RegisterField("out_node", L),
            )
        )

    def init_state(self, ctx: NodeContext) -> dict:
        return {
            "reports": 0,
            "best_val": ctx.input,
            "best_node": ctx.node,
            "sent": 0,
            "out_val": None,
            "out_node": None,
        }

    def _word(self, tag: int, val: int, node: int) -> Word:
        return pack_bits([(tag, 2), (val, self.L), (node, self.L)])

    def step(self, ctx, state, inbox, round_no):
        out: dict[int, Word] = {}
        tree = self.tree
        v = ctx.node
        for sender, word in inbox.items():
            tag, val, node = unpack_bits(word, (2, self.L, self.L))
            if tag == _AG_RESULT:
                state["out_val"], state["out_node"] = val, node
                out = dict.fromkeys(ctx.neighbors, word)
                del out[sender]
                return state, out, True
            state["reports"] += 1
            if val > state["best_val"] or (
                val == state["best_val"] and node < state["best_node"]
            ):
                state["best_val"], state["best_node"] = val, node

        if not state["sent"] and state["reports"] == len(tree.children[v]):
            state["sent"] = 1
            if v == tree.leader:
                state["out_val"], state["out_node"] = state["best_val"], state["best_node"]
                result = self._word(_AG_RESULT, state["best_val"], state["best_node"])
                return state, dict.fromkeys(ctx.neighbors, result), True
            out[tree.parent[v]] = self._word(
                _AG_REPORT, state["best_val"], state["best_node"]
            )
        return state, out, False

    def output(self, ctx, state):
        return (state["out_val"], state["out_node"])


def argmax_convergecast(
    g: Graph,
    tree: BfsTreeState,
    values: Mapping[int, int],
    dist: np.ndarray,
) -> tuple[int, int, CostReport]:
    """(best_value, best_node) over per-node values, known to all nodes.
    The values are hop counts below n, so each takes ``id_bits(n)`` bits.

    The result and report are derived in closed form from ``dist``: the
    reports reach the root after the tree's height in rounds, and the result
    floods from it in ecc(root) more, every edge carrying one word either
    way.  The farthest nodes forward the result to their other neighbors in
    one more round, which a farthest node of degree 1 does not need.
    """
    _require_size(g)
    L = id_bits(g.n)
    inputs = [values.get(v) for v in range(g.n)]
    if not all(isinstance(x, int) and 0 <= x < 1 << L for x in inputs):
        raise SchemaViolationError(f"argmax input does not fit {L} bits")
    _check_register("argmax", g.n - 1, L)
    _check_word(min(set(range(g.n)).difference(tree.parent)), 2 + 2 * L, g.n)  # smallest leaf
    node = inputs.index(max(inputs))  # the first maximum: ties to the smallest id
    row = dist[tree.leader]
    farthest = (row == row.max()).nonzero()[0].tolist()
    rounds = max(tree.dist) + int(row.max()) + int(any(g.degree(v) > 1 for v in farthest))
    report = CostReport(
        rounds, 2 * g.m, NodePeaks.uniform(g.n, 5 * L + 1), NodePeaks.uniform(g.n, 0)
    )
    return inputs[node], node, report


def argmax_on_engine(
    g: Graph, tree: BfsTreeState, values: Mapping[int, int]
) -> tuple[int, int, CostReport]:
    """``argmax_convergecast``'s reference: ``ArgmaxConvergecastProgram`` on
    the engine."""
    _require_size(g)
    program = ArgmaxConvergecastProgram(g.n, tree)
    outputs, report = run(g, program, inputs=dict(values), max_rounds=4 * g.n + 16)
    results = set(outputs.values())
    if len(results) != 1:
        raise EngineError("all nodes must agree on the argmax")
    val, node = results.pop()
    return val, node, report
