"""The pipelined evaluation procedure: max eccentricity over a DFS window.

Given the BFS tree of a root whose eccentricity d satisfies d <= D <= 2d,
the procedure computes, for an input node u0 known to everyone,

    f(u0) = max { ecc(v) : v in S(u0) },

where S(u0) is the cyclic DFS-number window of width 2d starting at u0.
It runs in three budgeted phases, 9d+1 rounds in all; the cleanup
reversal that uncomputes them mirrors their cost, and the search
(``diameter._search``) charges it:

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
delivery lands at relative round 6d.

The wave discipline is self-synchronizing.  This is the pipelining lemma of
Holzer-Wattenhofer (PODC 2012) and Peleg-Roditty-Tal (ICALP 2012): two
window nodes u, w with tau'(u) < tau'(w) satisfy
dist(u, w) <= tau'(w) - tau'(u), so no wave overtakes or meets a later one,
and wave u reaches node v in round 2d + 2*tau'(u) + dist(u, v).  Every node
therefore keeps and forwards every wave of S exactly once, first arrivals
come in increasing tau' order (the start of a node's own wave counting as
an event), and surviving messages are identical.  Every computed S is
checked against the central window oracle: the engine's walked window on
every branch, and each row of the table once, when the table is built.

``evaluation_procedure`` reads one branch, a ``Branch`` row (value, rounds,
words), with one lookup in a table that an EvalContext fills on first use,
in closed form from the lemma, the tour positions and the graph's
all-sources distance matrix:

    S     = the first-visited nodes of the token walk,
    f     = max over u in S of ecc(u),
    words = walk sends + |S|*2m + (n - 1) in the 9d+1 forward rounds.

The lemma's consequences stay checked for every branch by
``procedures.pipelined_arrivals``, its one statement: no wave reaches a node
less than max(tau' gap, 1) rounds after the wave before it, and the last
arrival is at most 8d; the window check keeps every offset within 2d.  A
pair's flag does not depend on the branch, so the table flags each
consecutive pair of first-visit order once, and a branch fails iff a prefix
sum of the O(k) flags grows across its window.  A failing branch is replayed
from its full arrival matrix, and the violation names the earliest
offending node and branch.

``evaluate_on_engine`` runs one branch as the word-level ``EvaluationProgram``
instead, with the same arguments and row, and checks that node v held the
``quantum_bits[v]`` qubits the search charges; it is the reference the
table is tested against, and no production caller runs it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .engine import (
    EngineError,
    NodeContext,
    NodeProgram,
    RegisterField,
    RegisterSchema,
    Word,
    id_bits,
    pack_bits,
    run,
    unpack_bits,
)
from .graphs import Graph
from .procedures import (
    BfsTreeState,
    Branch,
    DfsNumbering,
    _adjacency,
    _check_branch_peaks,
    _check_candidate,
    _require_size,
    dfs_numbering,
    pipelined_arrivals,
    set_S,
)

_TAG_TOKEN, _TAG_EVAL, _TAG_UPCAST = 0, 1, 2


class EvaluationInvariantError(EngineError):
    """A runtime contract of the evaluation procedure was violated."""


@dataclass(frozen=True)
class EvalContext:
    """Branch-independent preprocessing shared by all u0 evaluations."""

    g: Graph
    tree: BfsTreeState
    numbering: DfsNumbering  # covers exactly the candidates
    d: int
    base: int  # cyclic index space (2k)
    dist: np.ndarray  # all-sources hop distances
    quantum_bits: tuple[int, ...]  # per-node branch-dependent register size

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
        """Every candidate's branch by u0, in closed form, filled on first
        use from the tour and the distance matrix; every row's window is
        checked when the table is built, so a read is one lookup."""
        return _window_table(self)


def _eval_field_bits(n: int, deg: int) -> int:
    L, L2 = id_bits(n), (2 * n).bit_length()
    # u0, tau'+1, t_v+1, d_v, walk cursor, wrap-hold phase
    return L + L2 + L2 + L2 + (deg + 1).bit_length() + 2


def make_eval_context(
    g: Graph,
    tree: BfsTreeState,
    dist: np.ndarray,
    restrict: frozenset[int] | None = None,
) -> EvalContext:
    """The branch-independent context over the candidates ``restrict`` (all
    nodes when None); ``dist`` is the graph's all-sources distance matrix.
    Like every procedure, the evaluation requires n >= 3, so neither the
    window table nor ``evaluate_on_engine`` runs on a smaller network."""
    _require_size(g)
    numbering = dfs_numbering(tree, restrict)
    degrees = _adjacency(g)[0].tolist()
    widths = {deg: _eval_field_bits(g.n, deg) for deg in set(degrees)}
    qbits = tuple(map(widths.__getitem__, degrees))
    return EvalContext(
        g=g,
        tree=tree,
        numbering=numbering,
        d=tree.ecc_leader,
        base=numbering.index_space,
        dist=dist,
        quantum_bits=qbits,
    )


def _walk_positions(ectx: EvalContext, u0: int) -> tuple[dict[int, int], int]:
    """Offsets tau' of first-visited nodes plus the number of token sends,
    stepping the token walk of one branch as the engine does; the reference
    for the offsets and sends the window table derives in closed form."""
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
        if ectx.numbering.tau[v] == p and v not in taup:
            taup[v] = j
    return taup, sends


# ---------------------------------------------------------------------------
# The engine program, the reference of the window table
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
        # registers hold tau'+1 and t_v+1, which reach 2n; every value on
        # the wire (offsets, tau', hop counts, maxima) stays below 2n, which
        # keeps the eval word within the bandwidth when n is a power of two
        self.M = (2 * n - 1).bit_length()
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
        return pack_bits([(_TAG_TOKEN, 2), (offset, self.M)])

    def _eval(self, taup: int, delta: int) -> Word:
        return pack_bits([(_TAG_EVAL, 2), (taup, self.M), (delta, self.M)])

    def _upcast(self, val: int) -> Word:
        return pack_bits([(_TAG_UPCAST, 2), (val, self.M)])

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
        kids = ectx.numbering.children[v]
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
            tag = word.head(2)
            if tag == _TAG_TOKEN:
                _, offset = unpack_bits(word, (2, self.M))
                if offset != round_no:
                    raise EvaluationInvariantError("token offset must equal the round index")
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
                    state["cursor"] = ectx.numbering.children[v].index(sender) + 1
            elif tag == _TAG_EVAL:
                _, taup, delta = unpack_bits(word, (2, self.M, self.M))
                if taup + 1 > state["t1"]:
                    kept.append((taup, delta))
            else:
                _, val = unpack_bits(word, (2, self.M))
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
            out.update(dict.fromkeys(ctx.neighbors, self._eval(taup, delta + 1)))

        if state["taup1"] and round_no == 2 * d + 2 * (state["taup1"] - 1):
            taup = state["taup1"] - 1
            self._event(v, round_no, taup)
            state["t1"] = max(state["t1"], taup + 1)
            out.update(dict.fromkeys(ctx.neighbors, self._eval(taup, 0)))

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


def evaluate_on_engine(ectx: EvalContext, u0: int) -> Branch:
    """``evaluation_procedure``'s reference: one branch as
    ``EvaluationProgram`` on the engine, with the same row."""
    _check_candidate(u0, ectx.numbering.tau)
    outputs, report = run(ectx.g, EvaluationProgram(ectx, u0), max_rounds=ectx.total_rounds + 2)
    _check_window(ectx, u0, frozenset(v for v, o in outputs.items() if o["taup"] is not None))
    _check_branch_peaks(report, ectx.quantum_bits)
    return Branch(outputs[ectx.tree.leader]["f"], report.rounds, report.total_words)


# ---------------------------------------------------------------------------
# The window table: every branch in closed form
# ---------------------------------------------------------------------------


def _window_table(ectx: EvalContext) -> dict[int, Branch]:
    """Every branch in closed form, from O(k) per-pair arrays.

    Index p runs over ``unrolled``, the first-visit tour positions listed
    twice over.  Row i's walk starts at index i; its window is the waves
    i..last whose offset tau' = unrolled[p] - unrolled[i] is at most 2d,
    checked by ``_check_windows``, and its token sends are the 2d steps less
    those that land on the root's idle position 2k-1 or on the restart at
    position 0.

    ``procedures.pipelined_arrivals`` on the first k+1 waves flags each
    consecutive pair that arrives late; the flag depends only on the pair,
    so a row fails iff the prefix sum of late pairs grows between i and
    last, or its last wave's last arrival exceeds 8d.  f is the largest
    eccentricity over [i, last].  Failing rows are replayed by ``_replay``,
    in candidate order, so the first failing branch raises the error
    ``_check_arrivals`` names.  A row's rounds and words are those of the
    forward pass.
    """
    num, d, base = ectx.numbering, ectx.d, ectx.base
    k = len(num.first_visits)
    pos = np.array(num.positions, dtype=np.int64)
    unrolled = np.concatenate((pos, pos + base))
    end = pos + 2 * d  # each walk's last tour position, unrolled
    first = np.arange(k)
    count = np.minimum(unrolled.searchsorted(end, side="right") - first, k)
    _check_windows(ectx, pos, unrolled, count)
    last = first + count - 1
    sends = 2 * d - end // base - (end + 1) // base
    words = sends + count * 2 * ectx.g.m + ectx.g.n - 1

    waves = num.first_visits + num.first_visits[:1]
    late, arrive = pipelined_arrivals(ectx.dist, waves, unrolled[: k + 1])
    ecc = arrive[:k] - 2 * pos  # each first visit's, in both copies of the tour
    ecc = np.concatenate((ecc, ecc))
    late_before = np.concatenate(([0], late, late)).cumsum()  # late pairs before index p
    bounds = np.empty(2 * k, dtype=np.intp)
    bounds[0::2], bounds[1::2] = first, last + 1
    f = np.maximum.reduceat(ecc, bounds)[::2]
    bad = (late_before[last] > late_before[:k]) | (
        2 * d + 2 * (unrolled[last] - pos) + ecc[last] > ectx.s2_last_send
    )

    for i in sorted(bad.nonzero()[0].tolist(), key=num.first_visits.__getitem__):
        taup = (unrolled[i : last[i] + 1] - pos[i]).tolist()
        order = num.first_visits[i:] + num.first_visits[:i]
        # raises: the replay sees the same consecutive pairs and 8d bound
        _replay(ectx, order[0], dict(zip(order, taup)), int(sends[i]))
    # tuple.__new__ skips Branch.__new__, a Python call per row
    rows = zip(f.tolist(), [ectx.total_rounds] * k, words.tolist())
    return dict(zip(num.first_visits, map(functools.partial(tuple.__new__, Branch), rows)))


def _check_windows(
    ectx: EvalContext, pos: np.ndarray, unrolled: np.ndarray, count: np.ndarray
) -> None:
    """Check every row's window once: row i's ``count[i]`` first visits from
    the i-th on, cyclically, must be all k of them or the longest run whose
    offsets tau' are all at most 2d.  A failing row, in candidate order,
    builds its own window and checks it against ``set_S``."""
    num, d, k = ectx.numbering, ectx.d, len(count)
    size = np.minimum(np.maximum(count, 1), k)
    last = np.arange(k) + size - 1
    fits = (
        (count == size)
        & (unrolled[last] - pos <= 2 * d)
        & ((count == k) | (unrolled[last + 1] - pos > 2 * d))
    )
    for i in sorted((~fits).nonzero()[0].tolist(), key=num.first_visits.__getitem__):
        order = num.first_visits[i:] + num.first_visits[:i]
        _check_window(ectx, order[0], frozenset(order[: count[i]]))
        raise EvaluationInvariantError(
            f"window of u0={order[0]} has {count[i]} first visits, not 1 to {len(order)}"
        )


def _replay(ectx: EvalContext, u0: int, taup: dict[int, int], sends: int) -> Branch:
    """One branch from its walk (offsets ``taup``, token ``sends``) by
    ``pipelined_arrivals`` on its waves alone; the table's reference.  A row
    with a late pair, an offset beyond 2d or an arrival after 8d goes to
    ``_check_arrivals``.  d_v ends at the largest distance from S."""
    waves = sorted(taup, key=taup.__getitem__)
    tau = np.fromiter((taup[u] for u in waves), dtype=np.int64, count=len(waves))
    late, arrive = pipelined_arrivals(ectx.dist, waves, tau)
    if late.any() or tau[-1] > 2 * ectx.d or 2 * ectx.d + arrive[-1] > ectx.s2_last_send:
        _check_arrivals(ectx, u0, waves, tau)
    # each wave crosses every edge once each way; every non-root reports once
    words = sends + len(waves) * 2 * ectx.g.m + ectx.g.n - 1
    return Branch(int((arrive - 2 * tau).max()), ectx.total_rounds, words)


def _check_arrivals(ectx: EvalContext, u0: int, waves: list[int], tau: np.ndarray) -> None:
    """Replay each node's arrivals of a flagged row in round order, from its
    full arrival matrix, as the engine sees them, and raise for the earliest
    violation."""
    arrival = 2 * ectx.d + 2 * tau[:, None] + ectx.dist[waves]
    nodes = np.arange(ectx.g.n)
    order = arrival.argsort(axis=0, kind="stable")
    rounds = arrival[order, nodes]
    taus = tau[order]
    own = np.asarray(waves)[order] == nodes
    ahead = np.maximum.accumulate(taus, axis=0)  # largest tau' seen so far
    overtaken = np.zeros(own.shape, dtype=bool)
    overtaken[1:] = ~own[1:] & (taus[1:] <= ahead[:-1])
    lag = rounds - taus
    late = np.zeros(own.shape, dtype=bool)
    late[1:] = ~overtaken[1:] & (lag[1:] < lag[:-1])
    clash = np.zeros(own.shape, dtype=bool)
    clash[1:] = rounds[1:] == rounds[:-1]
    own_clash = clash.copy()
    own_clash[1:] &= own[1:] | own[:-1]
    # (message, where it holds), in the engine's check order within a round
    kinds = (
        ("wave still in flight at {} after the 6d-round window", rounds > ectx.s2_last_send),
        ("non-identical surviving messages at {}", clash & ~own_clash),
        ("{} keeps a foreign wave in its own start round", own_clash),
        ("wave order violated at {}", late & ~own),
        ("wave order violated at the own start of {}", late & own),
        ("wave overtaken at {}: a later wave arrived first", overtaken),
        ("{} starts its wave after the walk's 2d steps", own & (taus > 2 * ectx.d)),
    )
    _, kind, v = min(
        (int(rounds[k, v]), kind, int(v))
        for kind, (_, mask) in enumerate(kinds)
        for k, v in zip(*mask.nonzero())
    )
    raise EvaluationInvariantError(kinds[kind][0].format(f"node {v} on branch u0={u0}"))


# ---------------------------------------------------------------------------
# Production entry point
# ---------------------------------------------------------------------------


def evaluation_procedure(ectx: EvalContext, u0: int) -> Branch:
    """Compute f(u0) = max eccentricity over the DFS window of u0: the
    branch's row in the context's window table, the forward pass's rounds
    and words."""
    _check_candidate(u0, ectx.numbering.tau)
    return ectx.branches[u0]


def _check_window(ectx: EvalContext, u0: int, window: frozenset[int]) -> None:
    """Check a computed window against the central oracle ``set_S``."""
    expected = set_S(u0, ectx.d, ectx.numbering)
    if window != expected:
        raise EvaluationInvariantError(
            f"computed S differs from the window oracle for u0={u0}: "
            f"extra={sorted(window - expected)} missing={sorted(expected - window)}"
        )
