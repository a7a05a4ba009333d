"""The pipelined evaluation procedure: max eccentricity over a DFS window.

Given the BFS tree of a root whose eccentricity d satisfies d <= D <= 2d,
the procedure computes, for an input node u0 known to everyone,

    f(u0) = max { ecc(v) : v in S(u0) },

where S(u0) is the cyclic DFS-number window of width 2d starting at u0.
It runs in three budgeted phases plus a mirror-cost cleanup reversal:

  1. a token walks 2d steps of the DFS traversal starting at u0 (wrapping
     through one idle step at the root), assigning each first-visited node
     its walk offset tau'(v);
  2. for 6d+1 rounds every node relays distance waves: v in S starts its
     wave at relative round 2*tau'(v), and a node keeps an incoming wave
     (tau', delta) only if tau' exceeds the last kept tau', recording
     d_v = max(d_v, delta) and forwarding (tau', delta+1);
  3. the maximum d_v is aggregated up the tree to the root in d rounds.

Phase 2's budget is one round more than the 6d a naive count suggests: a
wave started at relative round 4d can take 2d further hops, so its last
delivery lands at relative round 6d.  Delivery completeness is asserted.

The wave discipline is self-synchronizing: first arrivals of wave types at
any node come in increasing tau' order (asserted, with the start of a
node's own wave counting as an event), and all messages surviving the
drop rule in one round at one node are identical (asserted).  The computed
S is checked against the central window oracle on every run.

Two backends produce identical values and identical cost accounting.  The
engine backend runs one branch as a word-level NodeProgram (traceable, and
the test oracle).  The fast backend reads the branch's row of a table that
an EvalContext fills on first use: one lockstep simulation of every
candidate's branch over a (branch x node) state, with every invariant
checked per branch.  This is the pipelined multi-source technique of
Peleg-Roditty-Tal (ICALP 2012) applied across the branches of the search.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .engine import (
    CostReport,
    EngineError,
    NodeContext,
    NodeProgram,
    RegisterField,
    RegisterSchema,
    Word,
    pack_bits,
    run,
    unpack_bits,
)
from .graphs import Graph
from .procedures import BfsTreeState, DfsNumbering, dfs_numbering, id_bits, set_S

_TAG_TOKEN, _TAG_EVAL, _TAG_UPCAST = 0, 1, 2


class EvaluationInvariantError(EngineError):
    """A runtime contract of the evaluation procedure was violated."""


@dataclass(frozen=True)
class EvalContext:
    """Branch-independent preprocessing shared by all u0 evaluations."""

    g: Graph
    tree: BfsTreeState
    restrict: frozenset[int] | None
    numbering: DfsNumbering
    children_r: tuple[tuple[int, ...], ...]
    first_visit: tuple[bool, ...]  # per tour position
    d: int
    base: int  # cyclic index space (2k)
    indptr: np.ndarray
    indices: np.ndarray
    quantum_bits: tuple[int, ...]  # per-node branch-dependent register size

    @property
    def s1_end(self) -> int:
        return 2 * self.d

    @property
    def s2_last_send(self) -> int:
        return 8 * self.d  # last round a wave may legally be kept/forwarded

    @property
    def s3_start(self) -> int:
        return 8 * self.d + 1

    @property
    def total_rounds(self) -> int:
        return 9 * self.d + 1

    @functools.cached_property
    def branches(self) -> dict[int, Branch]:
        """Every candidate's branch (``restrict``, or all nodes), simulated
        together on first use."""
        candidates = range(self.g.n) if self.restrict is None else sorted(self.restrict)
        chunk = max(1, _ROUND_DELIVERY_CAP // max(1, int(self.indptr[-1])))
        table: dict[int, Branch] = {}
        for i in range(0, len(candidates), chunk):
            table.update(_simulate_chunk(self, candidates[i : i + chunk]))
        return table


def _eval_field_bits(n: int, deg: int) -> int:
    L, L2 = id_bits(n), (2 * n).bit_length()
    # u0, tau'+1, t_v+1, d_v, walk cursor, wrap-hold phase
    return L + L2 + L2 + L2 + (deg + 1).bit_length() + 2


def make_eval_context(
    g: Graph, tree: BfsTreeState, restrict: frozenset[int] | None = None
) -> EvalContext:
    numbering = dfs_numbering(tree, restrict)
    allowed = None if restrict is None else frozenset(restrict)
    children_r = tuple(
        tree.children[v]
        if allowed is None
        else tuple(c for c in tree.children[v] if c in allowed)
        for v in range(g.n)
    )
    first_visit = tuple(
        numbering.tau[v] == p for p, v in enumerate(numbering.traversal)
    )
    indptr = np.zeros(g.n + 1, dtype=np.int64)
    for v in range(g.n):
        indptr[v + 1] = indptr[v] + g.degree(v)
    indices = np.fromiter(
        (u for v in range(g.n) for u in g.adj[v]), dtype=np.int64, count=int(indptr[-1])
    )
    qbits = tuple(_eval_field_bits(g.n, g.degree(v)) for v in range(g.n))
    return EvalContext(
        g=g,
        tree=tree,
        restrict=allowed,
        numbering=numbering,
        children_r=children_r,
        first_visit=first_visit,
        d=tree.ecc_leader,
        base=numbering.index_space,
        indptr=indptr,
        indices=indices,
        quantum_bits=qbits,
    )


def _walk_positions(ectx: EvalContext, u0: int) -> tuple[dict[int, int], int]:
    """Offsets tau' of first-visited nodes plus the number of token sends."""
    tour = ectx.numbering.traversal
    t0 = ectx.numbering.tau[u0]
    base = ectx.base
    taup: dict[int, int] = {}
    sends = 0
    prev_idle_or_wrap = False
    for j in range(2 * ectx.d + 1):
        p = (t0 + j) % base
        if p == base - 1:  # idle position at the root
            prev_idle_or_wrap = True
            continue
        v = tour[p]
        if j > 0 and not (p == 0 and prev_idle_or_wrap):
            sends += 1
        if p == 0 and prev_idle_or_wrap:
            prev_idle_or_wrap = False
        if ectx.first_visit[p] and v not in taup:
            taup[v] = j
    return taup, sends


# ---------------------------------------------------------------------------
# Engine backend
# ---------------------------------------------------------------------------


class EvaluationProgram(NodeProgram):
    """Word-level implementation of the three forward phases."""

    always_wake = True  # phases are clock-driven

    def __init__(self, ectx: EvalContext, u0: int):
        self.ectx = ectx
        self.u0 = u0
        n = ectx.g.n
        self.L = id_bits(n)
        self.L2 = (2 * n).bit_length()
        self._arrivals: dict[int, tuple[int, int]] = {}

    def schema(self, ctx: NodeContext) -> RegisterSchema:
        L, L2 = self.L, self.L2
        return RegisterSchema(
            (
                RegisterField("u0", L, quantum=True),
                RegisterField("taup1", L2, quantum=True),
                RegisterField("t1", L2, quantum=True),
                RegisterField("dv", L2, quantum=True),
                RegisterField("cursor", (len(ctx.neighbors) + 1).bit_length(), quantum=True),
                RegisterField("hold", 2, quantum=True),
            )
        )

    def init_state(self, ctx: NodeContext) -> dict:
        return {
            "u0": self.u0,
            "taup1": 0,
            "t1": 0,
            "dv": 0,
            "cursor": 0,
            "hold": 0,
        }

    # -- message helpers ----------------------------------------------------

    def _token(self, offset: int) -> Word:
        return pack_bits([(_TAG_TOKEN, 2), (offset, self.L2)])

    def _eval(self, taup: int, delta: int) -> Word:
        return pack_bits([(_TAG_EVAL, 2), (taup, self.L2), (delta, self.L2)])

    def _upcast(self, val: int) -> Word:
        return pack_bits([(_TAG_UPCAST, 2), (val, self.L2)])

    def _event(self, v: int, round_no: int, taup: int) -> None:
        prev = self._arrivals.get(v)
        if prev is not None:
            r1, t1 = prev
            if round_no - r1 < taup - t1:
                raise EvaluationInvariantError(
                    f"wave order violated at node {v}: rounds {r1}->{round_no} "
                    f"but tau' {t1}->{taup}"
                )
        self._arrivals[v] = (round_no, taup)

    def _advance_token(
        self, ctx: NodeContext, state: dict, out: dict[int, Word], round_no: int
    ) -> None:
        """Send the token onward (or begin the wrap hold at the root)."""
        ectx, v = self.ectx, ctx.node
        if round_no >= 2 * ectx.d:
            return
        kids = ectx.children_r[v]
        if state["cursor"] < len(kids):
            out[kids[state["cursor"]]] = self._token(round_no + 1)
        elif v != ectx.tree.leader:
            out[ectx.tree.parent[v]] = self._token(round_no + 1)
        else:
            state["hold"] = 1  # tour end: idle one position, then restart

    def step(self, ctx, state, inbox, round_no):
        ectx = self.ectx
        out: dict[int, Word] = {}
        v = ctx.node
        d = ectx.d

        token_offset = None
        kept: list[tuple[int, int]] = []
        up_vals: list[int] = []
        for sender, word in inbox.items():
            tag = int(word.bits[:2], 2)
            if tag == _TAG_TOKEN:
                _, offset = unpack_bits(word, (2, self.L2))
                assert offset == round_no, "token offset must equal the round index"
                token_offset = offset
                if sender == ectx.tree.parent[v]:
                    # top-down arrival: first visit on the master tour; a
                    # window wider than the tour revisits a node whole tours
                    # later, and the node keeps its first offset
                    if not state["taup1"]:
                        state["taup1"] = offset + 1
                    elif (offset - (state["taup1"] - 1)) % ectx.base != 0:
                        raise EvaluationInvariantError(
                            f"walk first-visited node {v} twice"
                        )
                    state["cursor"] = 0
                else:
                    state["cursor"] = ectx.children_r[v].index(sender) + 1
            elif tag == _TAG_EVAL:
                _, taup, delta = unpack_bits(word, (2, self.L2, self.L2))
                if taup + 1 > state["t1"]:
                    kept.append((taup, delta))
            else:
                _, val = unpack_bits(word, (2, self.L2))
                up_vals.append(val)

        if round_no == 0 and v == self.u0:
            state["taup1"] = 1  # tau'(u0) = 0
            state["cursor"] = 0
            self._advance_token(ctx, state, out, 0)
        elif token_offset is not None:
            self._advance_token(ctx, state, out, round_no)
        elif state["hold"] == 1:
            state["hold"] = 2
        elif state["hold"] == 2:
            state["hold"] = 0
            # wrap: the root is first-visited again at tour position 0
            if round_no <= 2 * d:
                if not state["taup1"]:
                    state["taup1"] = round_no + 1
                state["cursor"] = 0
                self._advance_token(ctx, state, out, round_no)

        if kept:
            if round_no > ectx.s2_last_send:
                raise EvaluationInvariantError(
                    f"wave still in flight at node {v} after the 6d-round window"
                )
            if len(set(kept)) > 1:
                raise EvaluationInvariantError(
                    f"non-identical surviving messages at node {v}: {sorted(set(kept))}"
                )
            taup, delta = kept[0]
            if state["taup1"] and 2 * d + 2 * (state["taup1"] - 1) == round_no:
                raise EvaluationInvariantError(
                    f"node {v} keeps a foreign wave in its own start round"
                )
            self._event(v, round_no, taup)
            # the wire carries hops-so-far minus one (origins send 0), so the
            # distance this wave traveled to reach us is delta + 1
            state["t1"] = taup + 1
            state["dv"] = max(state["dv"], delta + 1)
            for u in ctx.neighbors:
                out[u] = self._eval(taup, delta + 1)

        if state["taup1"] and round_no == 2 * d + 2 * (state["taup1"] - 1):
            taup = state["taup1"] - 1
            self._event(v, round_no, taup)
            state["t1"] = max(state["t1"], taup + 1)
            for u in ctx.neighbors:
                out[u] = self._eval(taup, 0)

        # phase 3: subtree maxima climb one level per round; children's
        # reports land exactly in the round their parent is scheduled to send
        if up_vals:
            state["dv"] = max(state["dv"], max(up_vals))
        depth = ectx.tree.dist[v]
        if v != ectx.tree.leader and round_no == ectx.s3_start + (d - depth):
            out[ectx.tree.parent[v]] = self._upcast(state["dv"])
            return state, out, True
        if v == ectx.tree.leader and round_no == ectx.total_rounds:
            return state, out, True
        return state, out, False

    def output(self, ctx, state):
        result = {"taup": state["taup1"] - 1 if state["taup1"] else None, "dv": state["dv"]}
        if ctx.node == self.ectx.tree.leader:
            result["f"] = state["dv"]
        return result


def _evaluate_engine(ectx: EvalContext, u0: int) -> tuple[int, int, int, dict[int, int]]:
    program = EvaluationProgram(ectx, u0)
    outputs, report = run(ectx.g, program, max_rounds=ectx.total_rounds + 2)
    taup = {v: o["taup"] for v, o in outputs.items() if o["taup"] is not None}
    return outputs[ectx.tree.leader]["f"], report.rounds, report.total_words, taup


# ---------------------------------------------------------------------------
# Batched backend: every branch of the candidate set in one lockstep run
# ---------------------------------------------------------------------------

# Word deliveries one round of the batched simulation may hold.  A branch
# delivers at most 2m words a round (each node sends once, to every
# neighbor), so this caps the branches simulated together and keeps memory
# flat on dense graphs.
_ROUND_DELIVERY_CAP = 1 << 15


class Branch(NamedTuple):
    """Outcome of one branch: f(u0), its forward-phase words, its window S."""

    f: int
    words: int
    window: frozenset[int]


def _simulate_chunk(ectx: EvalContext, chunk: Sequence[int]) -> dict[int, Branch]:
    """Run the three forward phases of every branch in ``chunk`` in lockstep.

    Node v of the b-th branch is the flat index b*n + v.  All branches share
    d, so their wave rounds 2d..8d+1 line up.  A wave (tau', delta) travels
    as the key tau'*K + delta, where K exceeds every hop count; a node's
    ``floor`` is K times its last kept tau' plus one, so a wave survives the
    drop rule exactly when its key reaches the floor.  Every invariant of
    the engine backend is checked per (branch, node).
    """
    d, n = ectx.d, ectx.g.n
    indptr, indices = ectx.indptr, ectx.indices
    degree = np.diff(indptr)
    K = ectx.total_rounds  # a hop count never reaches the round count
    span = K * (2 * d + 1)  # exceeds every key, as tau' <= 2d
    size = len(chunk) * n

    def where(flat: int) -> str:
        b, v = divmod(int(flat), n)
        return f"node {v} on branch u0={chunk[b]}"

    walks = [_walk_positions(ectx, u0) for u0 in chunk]
    starts = [(b * n + v, t) for b, (taup, _) in enumerate(walks) for v, t in taup.items()]
    starts.sort(key=lambda s: s[1])
    s_flat = np.array([v for v, _ in starts], dtype=np.int64)
    s_tau = np.array([t for _, t in starts], dtype=np.int64)
    s_bounds = np.searchsorted(s_tau, np.arange(2 * d + 2))
    start_round = np.full(size, -1, dtype=np.int64)
    start_round[s_flat] = 2 * d + 2 * s_tau

    floor = np.zeros(size, dtype=np.int64)
    lag = np.full(size, -(1 << 62), dtype=np.int64)  # round - tau' of the last event
    dv = np.zeros(size, dtype=np.int64)
    sent = np.zeros(size, dtype=np.int64)  # rounds in which the node sent
    src = key = np.empty(0, dtype=np.int64)  # waves in flight
    for r in range(2 * d, ectx.s3_start + 1):
        kept = kept_key = np.empty(0, dtype=np.int64)
        if src.size:
            node = src % n
            deg = degree[node]
            ends = np.cumsum(deg)
            offset = np.repeat(indptr[node] - (ends - deg), deg)
            recv = indices[np.arange(int(ends[-1])) + offset] + np.repeat(src - node, deg)
            rkey = np.repeat(key, deg)
            live = rkey >= floor[recv]
            recv, rkey = recv[live], rkey[live]
            if recv.size:
                if r > ectx.s2_last_send:
                    raise EvaluationInvariantError(
                        f"wave still in flight at {where(recv[0])} after the 6d-round window"
                    )
                pairs = recv * span + rkey
                pairs.sort()
                pairs = pairs[np.concatenate(([True], pairs[1:] != pairs[:-1]))]
                kept = pairs // span
                clash = np.flatnonzero(kept[1:] == kept[:-1])
                if clash.size:
                    raise EvaluationInvariantError(
                        f"non-identical surviving messages at {where(kept[clash[0]])}"
                    )
                kept_key = pairs - kept * span
                tau = kept_key // K
                bad = np.flatnonzero(start_round[kept] == r)
                if bad.size:
                    raise EvaluationInvariantError(
                        f"{where(kept[bad[0]])} keeps a foreign wave in its own start round"
                    )
                bad = np.flatnonzero(r - tau < lag[kept])
                if bad.size:
                    raise EvaluationInvariantError(f"wave order violated at {where(kept[bad[0]])}")
                lag[kept] = r - tau
                floor[kept] = (tau + 1) * K
                # the key carries hops-so-far minus one, as on the wire
                dv[kept] = np.maximum(dv[kept], kept_key - tau * K + 1)
        src, key = kept, kept_key + 1
        t, odd = divmod(r - 2 * d, 2)
        if not odd and t <= 2 * d:
            own = s_flat[s_bounds[t] : s_bounds[t + 1]]
            bad = np.flatnonzero(r - t < lag[own])
            if bad.size:
                raise EvaluationInvariantError(
                    f"wave order violated at the own start of {where(own[bad[0]])}"
                )
            lag[own] = r - t
            floor[own] = np.maximum(floor[own], (t + 1) * K)
            src = np.concatenate([src, own])
            key = np.concatenate([key, np.full(own.size, t * K, dtype=np.int64)])
        sent[src] += 1

    wave_words = sent.reshape(-1, n) @ degree
    f = dv.reshape(-1, n).max(axis=1)
    return {
        u0: Branch(
            int(f[b]),
            walks[b][1] + int(wave_words[b]) + n - 1,  # upcast: every non-root reports once
            frozenset(walks[b][0]),
        )
        for b, u0 in enumerate(chunk)
    }


# ---------------------------------------------------------------------------
# Public entry point
# ---------------------------------------------------------------------------


def evaluation_procedure(
    g: Graph,
    tree: BfsTreeState,
    u0: int,
    restrict: frozenset[int] | None = None,
    backend: str = "fast",
    ectx: EvalContext | None = None,
) -> tuple[int, CostReport]:
    """Compute f(u0) = max eccentricity over the DFS window of u0.

    Returns the value and a cost report whose rounds and words include the
    mirror-image cost of the cleanup reversal (phase costs doubled).
    """
    if ectx is None:
        ectx = make_eval_context(g, tree, restrict)
    if ectx.restrict is not None and u0 not in ectx.restrict:
        raise EngineError(f"u0={u0} outside the restricted candidate set")
    if backend == "fast":
        f, words, window = ectx.branches[u0]
        rounds = ectx.total_rounds
    elif backend == "engine":
        f, rounds, words, taup = _evaluate_engine(ectx, u0)
        window = frozenset(taup)
    else:
        raise EngineError(f"unknown backend {backend!r}")

    expected = set_S(u0, ectx.d, ectx.numbering)
    if window != expected:
        raise EvaluationInvariantError(
            f"computed S differs from the window oracle for u0={u0}: "
            f"extra={sorted(window - expected)} missing={sorted(expected - window)}"
        )
    report = CostReport(
        rounds=2 * rounds,
        total_words=2 * words,
        per_node_peak_bits={v: ectx.quantum_bits[v] for v in range(g.n)},
        per_node_peak_qubits={v: ectx.quantum_bits[v] for v in range(g.n)},
        leader=tree.leader,
    )
    return f, report
