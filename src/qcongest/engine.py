"""Deterministic round-synchronous execution of per-node programs.

The engine models a synchronous message-passing network: per round, each
directed edge carries at most one word of at most ``bw_bits`` bits (a silent
edge is an explicit empty word, which costs nothing).  Nodes run a step
function each round until every node has halted.  Two runs with identical
(graph, program, inputs, bandwidth) produce bit-identical transcripts.

Round counting: nodes first step at round 0 with empty inboxes; every
delivery phase afterwards increments the round counter.  A program that
halts everywhere in its very first step therefore costs 0 rounds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

from .graphs import Graph


class EngineError(RuntimeError):
    pass


class OversizedWordError(EngineError):
    def __init__(self, node: int, round_no: int, size: int, bw_bits: int):
        super().__init__(
            f"node {node} sent a {size}-bit word at round {round_no} (bandwidth {bw_bits})"
        )
        self.node = node
        self.round_no = round_no


class SchemaViolationError(EngineError):
    pass


class EngineTimeout(EngineError):
    """Run did not halt within max_rounds; carries the partial cost report."""

    def __init__(self, max_rounds: int, report: "CostReport"):
        super().__init__(f"run did not halt within {max_rounds} rounds")
        self.report = report


@dataclass(frozen=True)
class Word:
    """A single message: a bit string of bounded length."""

    bits: str = ""

    def __post_init__(self) -> None:
        if self.bits.strip("01"):
            raise EngineError(f"word bits must be 0/1, got {self.bits!r}")

    def __len__(self) -> int:
        return len(self.bits)

    @property
    def empty(self) -> bool:
        return not self.bits

    def hex(self) -> str:
        if not self.bits:
            return ""
        pad = (-len(self.bits)) % 4
        return format(int(self.bits + "0" * pad, 2), "x").zfill((len(self.bits) + pad) // 4)


EMPTY_WORD = Word("")


def pack_bits(fields: Sequence[tuple[int, int]]) -> Word:
    """Pack (value, width) pairs big-endian into one Word."""
    out = []
    for value, width in fields:
        if not (0 <= value < (1 << width)):
            raise EngineError(f"value {value} does not fit in {width} bits")
        out.append(format(value, "b").zfill(width))
    return Word("".join(out))


def unpack_bits(word: Word, widths: Sequence[int]) -> tuple[int, ...]:
    if len(word.bits) != sum(widths):
        raise EngineError(f"word of {len(word)} bits does not match widths {widths}")
    vals, pos = [], 0
    for w in widths:
        vals.append(int(word.bits[pos : pos + w], 2))
        pos += w
    return tuple(vals)


@dataclass(frozen=True)
class RegisterField:
    name: str
    bits: int
    quantum: bool = False  # True iff the content depends on the searched branch


@dataclass(frozen=True)
class RegisterSchema:
    fields: tuple[RegisterField, ...]

    def widths(self) -> dict[str, int]:
        return {f.name: f.bits for f in self.fields}

    def total_bits(self) -> int:
        return sum(f.bits for f in self.fields)

    def quantum_bits(self) -> int:
        return sum(f.bits for f in self.fields if f.quantum)


@dataclass(frozen=True)
class NodeContext:
    """Static per-node information available to a program."""

    node: int
    neighbors: tuple[int, ...]
    n: int
    bw_bits: int
    input: object = None


class NodeProgram:
    """Per-node synchronous program.

    Subclasses implement ``schema``, ``init_state``, ``step`` and ``output``.
    State is a flat dict of ints (or None for absent registers); each value
    must fit the declared field width.  ``step`` returns
    ``(new_state, outbox, halted)`` where outbox maps neighbor -> Word.  A
    node that halts stops stepping; its final outbox is still delivered.
    """

    # Step every round even with an empty inbox (needed by clock-driven
    # programs).  Event-driven programs leave this False and are only stepped
    # at round 0, on message arrival, or at rounds from wake_rounds().
    always_wake = False

    def schema(self, ctx: NodeContext) -> RegisterSchema:
        raise NotImplementedError

    def init_state(self, ctx: NodeContext) -> dict:
        raise NotImplementedError

    def step(
        self, ctx: NodeContext, state: dict, inbox: dict[int, Word], round_no: int
    ) -> tuple[dict, dict[int, Word], bool]:
        raise NotImplementedError

    def output(self, ctx: NodeContext, state: dict) -> object:
        return None

    def wake_rounds(self, ctx: NodeContext) -> frozenset[int]:
        return frozenset()


@dataclass
class CostReport:
    """Per-execution accounting of rounds, words, and per-node peak memory."""

    rounds: int = 0
    total_words: int = 0
    per_node_peak_bits: dict[int, int] = field(default_factory=dict)
    per_node_peak_qubits: dict[int, int] = field(default_factory=dict)
    leader: int | None = None

    def merge(self, other: "CostReport") -> "CostReport":
        """Sequential composition: rounds and words add, peaks take the max."""
        bits = dict(self.per_node_peak_bits)
        for k, v in other.per_node_peak_bits.items():
            bits[k] = max(bits.get(k, 0), v)
        qubits = dict(self.per_node_peak_qubits)
        for k, v in other.per_node_peak_qubits.items():
            qubits[k] = max(qubits.get(k, 0), v)
        return CostReport(
            rounds=self.rounds + other.rounds,
            total_words=self.total_words + other.total_words,
            per_node_peak_bits=bits,
            per_node_peak_qubits=qubits,
            leader=self.leader if self.leader is not None else other.leader,
        )


def default_bandwidth(n: int, c: int = 4) -> int:
    """Bandwidth c * ceil(log2 n) bits; c = 4 fits a 2-bit tag plus two
    counters below 2n, the widest message shape used by the procedures."""
    return c * max(1, (max(n, 2) - 1).bit_length())


def _check_state(
    node: int,
    round_no: int,
    state: dict,
    widths: dict[str, int],
    quantum: frozenset[str],
) -> tuple[int, int]:
    """Validate state against the schema; return (bits, quantum bits) in use."""
    bits = 0
    qbits = 0
    for name, value in state.items():
        if name not in widths:
            raise SchemaViolationError(
                f"node {node} round {round_no}: undeclared register {name!r}"
            )
        if value is None:
            continue
        w = widths[name]
        if not isinstance(value, int) or not (0 <= value < (1 << w)):
            raise SchemaViolationError(
                f"node {node} round {round_no}: register {name!r}={value!r} "
                f"does not fit {w} bits"
            )
        bits += w
        if name in quantum:
            qbits += w
    return bits, qbits


def run(
    g: Graph,
    program: NodeProgram,
    inputs: Mapping[int, object] | None = None,
    max_rounds: int = 10**6,
    bw_bits: int | None = None,
    trace_path: str | Path | None = None,
    full_step: bool = False,
) -> tuple[dict[int, object], CostReport]:
    """Execute ``program`` on every node of ``g`` until all nodes halt.

    Returns each node's declared output and the cost report.  ``full_step``
    forces stepping every live node every round regardless of wake hints
    (used to check that wake-filtered runs are transcript-identical).
    """
    if max_rounds <= 0:
        raise EngineError("max_rounds must be positive")
    bw = default_bandwidth(g.n) if bw_bits is None else bw_bits
    ctxs = [
        NodeContext(v, g.adj[v], g.n, bw, None if inputs is None else inputs.get(v))
        for v in range(g.n)
    ]
    schemas = [program.schema(c) for c in ctxs]
    widths = [s.widths() for s in schemas]
    quantum = [
        frozenset(f.name for f in s.fields if f.quantum) for s in schemas
    ]
    states = [program.init_state(c) for c in ctxs]
    halted = [False] * g.n
    peak_bits = [0] * g.n
    peak_qubits = [0] * g.n
    for v in range(g.n):
        peak_bits[v], peak_qubits[v] = _check_state(v, 0, states[v], widths[v], quantum[v])
    wake_sets = [program.wake_rounds(c) for c in ctxs]

    trace_fh = open(trace_path, "w", encoding="utf-8") if trace_path else None
    report = CostReport()
    # messages pending delivery: list of (src, dst, word)
    pending: list[tuple[int, int, Word]] = []
    round_no = 0

    def step_node(v: int, inbox: dict[int, Word]) -> None:
        nonlocal pending
        state, outbox, halt = program.step(ctxs[v], states[v], inbox, round_no)
        states[v] = state
        bits, qbits = _check_state(v, round_no, state, widths[v], quantum[v])
        peak_bits[v] = max(peak_bits[v], bits)
        peak_qubits[v] = max(peak_qubits[v], qbits)
        for dst, word in outbox.items():
            if dst not in ctxs[v].neighbors:
                raise EngineError(f"node {v} sent to non-neighbor {dst}")
            if len(word) > bw:
                raise OversizedWordError(v, round_no, len(word), bw)
            if not word.empty:
                pending.append((v, dst, word))
        if halt:
            halted[v] = True

    def deliver_and_trace() -> dict[int, dict[int, Word]]:
        nonlocal pending
        inboxes: dict[int, dict[int, Word]] = {}
        seen_edges: set[tuple[int, int]] = set()
        for src, dst, word in pending:
            if (src, dst) in seen_edges:
                raise EngineError(
                    f"two words on edge ({src}, {dst}) in round {round_no}"
                )
            seen_edges.add((src, dst))
            report.total_words += 1
            inboxes.setdefault(dst, {})[src] = word
        if trace_fh is not None:
            for src, dst, word in sorted(pending, key=lambda t: (t[0], t[1])):
                trace_fh.write(
                    json.dumps(
                        {
                            "round": round_no,
                            "edge": [src, dst],
                            "hex": word.hex(),
                            "bits": len(word),
                        }
                    )
                    + "\n"
                )
        pending = []
        return inboxes

    try:
        for v in range(g.n):
            step_node(v, {})
        while not all(halted):
            round_no += 1
            if round_no > max_rounds:
                report.rounds = round_no - 1
                report.per_node_peak_bits = {v: peak_bits[v] for v in range(g.n)}
                report.per_node_peak_qubits = {v: peak_qubits[v] for v in range(g.n)}
                raise EngineTimeout(max_rounds, report)
            inboxes = deliver_and_trace()
            for v in range(g.n):
                if halted[v]:
                    continue
                inbox = inboxes.get(v, {})
                if (
                    full_step
                    or program.always_wake
                    or inbox
                    or round_no in wake_sets[v]
                ):
                    step_node(v, inbox)
        if pending:
            # words sent by the last nodes to halt still occupy one round
            round_no += 1
            deliver_and_trace()
    finally:
        if trace_fh is not None:
            trace_fh.close()

    report.rounds = round_no
    report.per_node_peak_bits = {v: peak_bits[v] for v in range(g.n)}
    report.per_node_peak_qubits = {v: peak_qubits[v] for v in range(g.n)}
    outputs = {v: program.output(ctxs[v], states[v]) for v in range(g.n)}
    return outputs, report
