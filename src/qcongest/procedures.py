"""Distributed classical subroutines on the round-synchronous engine.

Provides min-id leader election with eccentricity computation, BFS tree
construction, the DFS numbering of the tree with its cyclic window sets,
plus the flood/convergecast building blocks used by the diameter
algorithms.  All programs are event-driven: they act on message arrival, so
the engine only steps nodes that have work.

The simple algorithm's evaluation has two paths.  ``simple_eval_table``
fills every branch u0 at once from the event times of ``SimpleEvalProgram``:
an all-sources BFS gives each node's activation round, one bottom-up pass
over the leader tree gives each node's report round, and rounds and words
follow from those, with the engine's register-width and round-limit checks
kept.  ``eccentricity_simple_eval`` reads a branch's row from that table,
or, without one, runs the program on the word-level engine, and checks the
declared round bound on either path; the engine run is the reference the
table is tested against.

The DFS numbering walks the tree as a closed Euler tour.  The tour occupies
positions 0 .. 2(k-1) of a cyclic index space of size 2k (k = number of
nodes covered); the one leftover position is an idle step at the root, which
keeps the distributed traversal aligned with the cyclic window definition.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import graphs
from .engine import (
    CostReport,
    EngineError,
    EngineTimeout,
    NodeContext,
    NodeProgram,
    RegisterField,
    RegisterSchema,
    SchemaViolationError,
    Word,
    pack_bits,
    run,
    unpack_bits,
)
from .graphs import Graph


def id_bits(n: int) -> int:
    """Bits needed for a node id in [0, n)."""
    return max(1, (max(n, 2) - 1).bit_length())


MIN_PROCEDURE_N = 3  # message layouts need ceil(log2 n) >= 2 at bandwidth 4*ceil(log2 n)


def _require_size(g: Graph) -> None:
    if g.n < MIN_PROCEDURE_N:
        raise EngineError(f"distributed procedures require n >= {MIN_PROCEDURE_N}, got {g.n}")


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
            if not ctx.neighbors:  # single-node network
                state["leader"], state["ecc"] = ctx.node, 0
                return state, out, True
            for u in ctx.neighbors:
                out[u] = self._wave(ctx.node, 0, 0)
            return state, out, False

        waves: list[tuple[int, int, int, int]] = []  # (b, dist, pflag, sender)
        echoes: list[tuple[int, int, int, int]] = []  # (b, maxdist, claim, sender)
        done: tuple[int, int] | None = None
        for sender, word in inbox.items():
            tag = int(word.bits[:2], 2)
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
            for u in ctx.neighbors:
                out[u] = self._done(*done)
            return state, out, True

        adopted = False
        cand = min((b for b, _, _, _ in waves), default=state["best"])
        if cand < state["best"]:
            arrivals = [(d, s) for b, d, _, s in waves if b == cand]
            dists = {d for d, _ in arrivals}
            assert len(dists) == 1, "same-round arrivals of one wave must agree on dist"
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
                for u in ctx.neighbors:
                    out[u] = self._done(ctx.node, ecc)
                return state, out, True
            return state, out, False

        echo_ready = (
            not state["echo_sent"]
            and state["seen"] == len(ctx.neighbors) - 1
            and state["echoes"] == state["claims"]
        )
        if adopted:
            for u in ctx.neighbors:
                if u != state["parent"]:
                    out[u] = self._wave(b, state["dist"], 0)
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


def elect_leader_and_ecc(
    g: Graph, max_rounds: int | None = None, trace_path: str | None = None
) -> tuple[int, int, CostReport]:
    """Elect the minimum-id node and compute its eccentricity, known to all.

    Runs in at most 3*ecc(leader) + O(1) rounds.
    """
    if g.n == 1:
        return 0, 0, CostReport(leader=0)
    _require_size(g)
    outputs, report = run(
        g,
        ElectionProgram(g.n),
        max_rounds=max_rounds or (8 * g.n + 32),
        trace_path=trace_path,
    )
    leaders = {o["leader"] for o in outputs.values()}
    eccs = {o["ecc"] for o in outputs.values()}
    assert leaders == {min(range(g.n))} and len(eccs) == 1
    report.leader = leaders.pop()
    return report.leader, eccs.pop(), report


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
                for u in ctx.neighbors:
                    out[u] = pack_bits([(0, self.L)])
            return state, out, True
        if state["dist"] is not None or not inbox:
            return state, out, state["dist"] is not None
        dists = {unpack_bits(w, (self.L,))[0] for w in inbox.values()}
        assert len(dists) == 1, "simultaneous activations must carry equal distance"
        state["dist"] = dists.pop() + 1
        state["parent"] = min(inbox)
        if round_no < self.budget:
            for u in ctx.neighbors:
                out[u] = pack_bits([(state["dist"], self.L)])
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
        kids: list[list[int]] = [[] for _ in self.parent]
        for v, p in enumerate(self.parent):
            if v != self.leader:
                kids[p].append(v)
        return tuple(tuple(sorted(c)) for c in kids)

    @property
    def n(self) -> int:
        return len(self.parent)


def build_bfs_tree(
    g: Graph, leader: int, ecc_leader: int | None = None
) -> tuple[BfsTreeState, CostReport]:
    """Construct BFS(leader) in exactly ecc(leader) rounds.

    ``ecc_leader`` is the round budget; the election normally supplies it,
    standalone callers may omit it and the oracle value is used.
    """
    if ecc_leader is None:
        ecc_leader = graphs.eccentricity(g, leader)
    if g.n == 1:
        return BfsTreeState(leader, 0, (leader,), (0,)), CostReport(leader=leader)
    _require_size(g)
    outputs, report = run(
        g, BfsTreeProgram(g.n, leader, ecc_leader), max_rounds=ecc_leader + 2
    )
    parent = tuple(outputs[v]["parent"] for v in range(g.n))
    dist = tuple(outputs[v]["dist"] for v in range(g.n))
    report.leader = leader
    return BfsTreeState(leader, ecc_leader, parent, dist), report


# ---------------------------------------------------------------------------
# DFS numbering of the tree and the cyclic window sets built on it.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DfsNumbering:
    """First-visit step indices along the closed DFS walk of the tree.

    ``traversal`` lists the walk's node sequence (length 2(k-1)+1) and
    ``index_space`` is the cyclic index space 2k the windows live in.
    """

    root: int
    tau: dict[int, int]
    traversal: tuple[int, ...]
    index_space: int


def dfs_numbering(
    tree: BfsTreeState, restrict: Iterable[int] | None = None
) -> DfsNumbering:
    """DFS-number the tree (children in ascending id order).

    With ``restrict`` the walk covers only that node set, which must contain
    the root and be closed under taking parents.
    """
    if restrict is None:
        allowed = None
        k = tree.n
    else:
        allowed = frozenset(restrict)
        if tree.leader not in allowed:
            raise EngineError("restricted DFS must contain the root")
        for v in allowed:
            if v != tree.leader and tree.parent[v] not in allowed:
                raise EngineError(f"restricted set not parent-closed at node {v}")
        k = len(allowed)

    def kids(v: int) -> tuple[int, ...]:
        cs = tree.children[v]
        if allowed is None:
            return cs
        return tuple(c for c in cs if c in allowed)

    root = tree.leader
    walk = [root]
    tau = {root: 0}
    stack: list[tuple[int, int]] = [(root, 0)]
    while stack:
        v, ci = stack[-1]
        cs = kids(v)
        if ci < len(cs):
            stack[-1] = (v, ci + 1)
            c = cs[ci]
            tau[c] = len(walk)
            walk.append(c)
            stack.append((c, 0))
        else:
            stack.pop()
            if stack:
                walk.append(stack[-1][0])
    assert len(walk) == 2 * (k - 1) + 1 and len(tau) == k
    return DfsNumbering(root, tau, tuple(walk), 2 * k)


def set_S(u0: int, d: int, numbering: DfsNumbering) -> frozenset[int]:
    """Nodes whose DFS number lies in the cyclic window of width 2d from u0."""
    if u0 not in numbering.tau:
        raise EngineError(f"node {u0} not covered by the numbering")
    t0 = numbering.tau[u0]
    space = numbering.index_space
    return frozenset(
        v for v, t in numbering.tau.items() if (t - t0) % space <= 2 * d
    )


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
                tag = int(word.bits[:2], 2)
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

        flood_to = list(ctx.neighbors) if activated_now else []
        ready = (
            state["dist"] is not None
            and state["reports"] == len(tree.children[v])
        )
        if v == tree.leader:
            if ready:
                state["best"] = max(state["best"], state["dist"])
                return state, {u: self._word(_SF_FLOOD, state["dist"]) for u in flood_to}, True
            for u in flood_to:
                out[u] = self._word(_SF_FLOOD, state["dist"])
            return state, out, False
        if ready:
            report = max(state["best"], state["dist"])
            p = tree.parent[v]
            for u in flood_to:
                if u != p:
                    out[u] = self._word(_SF_FLOOD, state["dist"])
            if p in flood_to:
                out[p] = self._word(_SF_BOTH, state["dist"], report)
            else:
                out[p] = self._word(_SF_REPORT, report)
            return state, out, True
        for u in flood_to:
            out[u] = self._word(_SF_FLOOD, state["dist"])
        return state, out, False

    def output(self, ctx, state):
        return state["best"] if ctx.node == self.tree.leader else None


def simple_eval_register_bits(n: int) -> int:
    """Per-node register size of the simple evaluation: u0, dist, the report
    counter and the running max, all branch-dependent, each L bits.  Every
    node reaches it once the flood arrives."""
    return 4 * id_bits(n)


def _simple_round_limit(n: int) -> int:
    """Forward rounds after which the simple evaluation is declared hung."""
    return 4 * n + 16


def _all_sources_distances(g: Graph) -> np.ndarray:
    """``dist[v, s]`` for every node v and source s: a BFS from every source
    at once, one level per step, over the neighbor lists."""
    deg = np.fromiter((len(a) for a in g.adj), dtype=np.intp, count=g.n)
    starts = np.concatenate(([0], np.cumsum(deg)[:-1]))
    neighbors = np.fromiter(
        (u for a in g.adj for u in a), dtype=np.intp, count=int(deg.sum())
    )
    dist = np.full((g.n, g.n), -1, dtype=np.int64)
    np.fill_diagonal(dist, 0)
    frontier = np.eye(g.n, dtype=bool)
    level = 0
    while frontier.any():
        level += 1
        # row v: the sources whose frontier holds a neighbor of v
        frontier = np.logical_or.reduceat(frontier[neighbors], starts, axis=0)
        frontier &= dist < 0
        dist[frontier] = level
    return dist


def simple_eval_table(g: Graph, tree: BfsTreeState) -> tuple[tuple[int, int, int], ...]:
    """Every branch of the simple evaluation at once: row u0 holds
    (ecc(u0), forward rounds, forward words) of ``SimpleEvalProgram(u0)``.

    The rows follow from the program's event times.  Node v learns its
    distance in round dist[v] and reports once that is known and every tree
    child has reported, so it is ready in round
    ready[v] = max(dist[v], max over children c of ready[c] + 1).  The leader
    halts at ready[leader]; when that is also its activation round, its
    flood needs one more delivery round.  Every node floods each neighbor
    once and every non-leader reports once, except that a node ready in its
    activation round sends its flood and its report to the parent as one
    ``_SF_BOTH`` word.  ``eccentricity_simple_eval`` on the engine is the
    reference these rows are tested against.
    """
    _require_size(g)
    n, leader = g.n, tree.leader
    dist = _all_sources_distances(g)  # rows: nodes, columns: u0
    # registers: u0 < n, dist and best <= ecc(u0), reports <= #children
    widest = max(n - 1, int(dist.max()), max(len(c) for c in tree.children))
    if widest >= 1 << id_bits(n):
        raise SchemaViolationError(
            f"simple evaluation register value {widest} does not fit {id_bits(n)} bits"
        )
    ready = dist.copy()
    for v in sorted(range(n), key=tree.dist.__getitem__, reverse=True):
        if v != leader:
            p = tree.parent[v]
            np.maximum(ready[p], ready[v] + 1, out=ready[p])
    merged = ready == dist
    merged[leader] = False
    halt = ready[leader]
    limit = _simple_round_limit(n)
    if (halt > limit).any():
        u0 = int(np.argmax(halt > limit))  # the first branch to time out
        raise EngineTimeout(
            limit,
            _simple_partial_report(g, leader, dist[:, u0], ready[:, u0], merged[:, u0], limit),
        )
    rounds = halt + (halt == dist[leader])
    words = 2 * g.m + (n - 1) - merged.sum(axis=0)
    ecc = dist.max(axis=0)
    return tuple(zip(ecc.tolist(), rounds.tolist(), words.tolist()))


def _simple_partial_report(
    g: Graph, leader: int, dist: np.ndarray, ready: np.ndarray, merged: np.ndarray, limit: int
) -> CostReport:
    """What the engine has charged one branch when round ``limit`` ends: the
    words delivered so far, and every register set at the nodes the flood
    has reached (all but ``dist`` elsewhere)."""
    reports = ~merged
    reports[leader] = False
    words = sum(g.degree(v) for v in range(g.n) if dist[v] < limit)
    words += int((reports & (ready < limit)).sum())
    full = simple_eval_register_bits(g.n)
    peaks = {v: full if dist[v] <= limit else full - id_bits(g.n) for v in range(g.n)}
    return CostReport(limit, words, peaks, dict(peaks))


def eccentricity_simple_eval(
    g: Graph,
    tree: BfsTreeState,
    u0: int,
    table: Sequence[tuple[int, int, int]] | None = None,
) -> tuple[int, CostReport]:
    """Compute ecc(u0) at the leader; cost doubled for the cleanup reversal.

    With ``table`` (from ``simple_eval_table``) the branch is read from its
    row; without, ``SimpleEvalProgram`` runs on the word-level engine, which
    is the reference the table is tested against.  Both give the same value
    and report.  The forward pass runs in at most 2*ecc(u0) + ecc(leader) + 4
    rounds, checked on every call.
    """
    if table is None:
        _require_size(g)
        outputs, report = run(
            g, SimpleEvalProgram(g.n, u0, tree), max_rounds=_simple_round_limit(g.n)
        )
        value = outputs[tree.leader]
    else:
        value, rounds, words = table[u0]
        peaks = dict.fromkeys(range(g.n), simple_eval_register_bits(g.n))
        report = CostReport(rounds, words, peaks, dict(peaks))
    if report.rounds > 2 * value + tree.ecc_leader + 4:
        raise EngineError(
            f"simple evaluation of {u0} took {report.rounds} forward rounds, "
            f"exceeding 2*{value}+{tree.ecc_leader}+4"
        )
    report.leader = tree.leader
    report.rounds = 2 * report.rounds
    report.total_words = 2 * report.total_words
    return value, report


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
            assert len(dists) == 1
            state["dist"] = dists.pop() + 1
            state["src"] = min(s for _, s in arrivals)
        else:
            return state, out, False
        for u in ctx.neighbors:
            out[u] = pack_bits([(state["dist"], self.L), (state["src"], self.L)])
        return state, out, True

    def output(self, ctx, state):
        return {"dist": state["dist"], "src": state["src"]}


def multi_source_bfs(
    g: Graph, sources: Iterable[int]
) -> tuple[dict[int, tuple[int, int]], CostReport]:
    """Distance and closest source for every node: {v: (dist, source)}."""
    _require_size(g)
    srcs = frozenset(sources)
    if not srcs:
        raise EngineError("multi-source BFS needs at least one source")
    outputs, report = run(
        g, MultiSourceBfsProgram(g.n, srcs), max_rounds=2 * g.n + 16
    )
    return {v: (o["dist"], o["src"]) for v, o in outputs.items()}, report


# ---------------------------------------------------------------------------
# Argmax convergecast over the leader tree: finds the node maximizing a
# per-node value (ties to the smallest id) and floods the result back down.
# ---------------------------------------------------------------------------

_AG_REPORT, _AG_RESULT = 0, 1


class ArgmaxConvergecastProgram(NodeProgram):
    def __init__(self, n: int, tree: BfsTreeState, value_bits: int):
        self.L = id_bits(n)
        self.VB = value_bits
        self.tree = tree

    def schema(self, ctx: NodeContext) -> RegisterSchema:
        L, VB = self.L, self.VB
        return RegisterSchema(
            (
                RegisterField("reports", L),
                RegisterField("best_val", VB),
                RegisterField("best_node", L),
                RegisterField("sent", 1),
                RegisterField("out_val", VB),
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
        return pack_bits([(tag, 2), (val, self.VB), (node, self.L)])

    def step(self, ctx, state, inbox, round_no):
        out: dict[int, Word] = {}
        tree = self.tree
        v = ctx.node
        for sender, word in inbox.items():
            tag = int(word.bits[:2], 2)
            _, val, node = unpack_bits(word, (2, self.VB, self.L))
            if tag == _AG_RESULT:
                state["out_val"], state["out_node"] = val, node
                for u in ctx.neighbors:
                    if u != sender:
                        out[u] = self._word(_AG_RESULT, val, node)
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
                for u in ctx.neighbors:
                    out[u] = self._word(_AG_RESULT, state["best_val"], state["best_node"])
                return state, out, True
            out[tree.parent[v]] = self._word(
                _AG_REPORT, state["best_val"], state["best_node"]
            )
        return state, out, False

    def output(self, ctx, state):
        return (state["out_val"], state["out_node"])


def argmax_convergecast(
    g: Graph, tree: BfsTreeState, values: Mapping[int, int], value_bits: int | None = None
) -> tuple[int, int, CostReport]:
    """(best_value, best_node) over per-node values, known to all nodes."""
    _require_size(g)
    vb = value_bits or id_bits(g.n)
    outputs, report = run(
        g,
        ArgmaxConvergecastProgram(g.n, tree, vb),
        inputs=dict(values),
        max_rounds=4 * g.n + 16,
    )
    results = set(outputs.values())
    assert len(results) == 1, "all nodes must agree on the argmax"
    val, node = results.pop()
    return val, node, report
