"""Deterministic round-synchronous execution of per-node programs.

The engine models a synchronous message-passing network: per round, each
directed edge carries at most one word, an unsigned integer of a declared
width of at most ``bw_bits`` bits (a silent edge is an explicit width-0
word, which costs nothing).  Nodes run a step function each round until
every node has halted.  Two runs with identical (graph, program, inputs,
bandwidth) produce bit-identical transcripts.

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


class Word:
    """A single message: an unsigned integer of a declared width in bits.

    Fields are packed big-endian, so the first field packed occupies the
    most significant bits.  A width-0 word is the explicit silent word.
    """

    __slots__ = ("value", "width")

    def __init__(self, value: int, width: int) -> None:
        if width < 0 or value < 0 or value >> width:
            raise EngineError(f"value {value} does not fit in {width} bits")
        self.value = value
        self.width = width

    def __len__(self) -> int:
        return self.width

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Word):
            return NotImplemented
        return (self.value, self.width) == (other.value, other.width)

    def __hash__(self) -> int:
        return hash((self.value, self.width))

    def __repr__(self) -> str:
        return f"Word({self.value}, {self.width})"

    def head(self, k: int) -> int:
        """The value of the word's k most significant bits."""
        return self.value >> (self.width - k)

    def hex(self) -> str:
        """Hex digits of the word right-padded with zero bits to a multiple
        of 4; the empty string for the silent word."""
        if not self.width:
            return ""
        pad = (-self.width) % 4
        return format(self.value << pad, "x").zfill((self.width + pad) // 4)


def pack_bits(fields: Sequence[tuple[int, int]]) -> Word:
    """Pack (value, width) pairs big-endian into one Word."""
    packed = total = 0
    for value, width in fields:
        if not (0 <= value < (1 << width)):
            raise EngineError(f"value {value} does not fit in {width} bits")
        packed = (packed << width) | value
        total += width
    return Word(packed, total)


def unpack_bits(word: Word, widths: Sequence[int]) -> tuple[int, ...]:
    """The fields of ``word`` packed with these widths, in packing order."""
    if word.width != sum(widths):
        raise EngineError(f"word of {word.width} bits does not match widths {widths}")
    value = word.value
    vals = []
    for w in reversed(widths):
        vals.append(value & ((1 << w) - 1))
        value >>= w
    vals.reverse()
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


@dataclass(frozen=True)
class NodeContext:
    """Static per-node information available to a program."""

    node: int
    neighbors: tuple[int, ...]
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
    # at round 0 and on message arrival.
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


class NodePeaks(list):
    """Per-node peak register sizes, entry v for node v of 0..n-1.

    Each report holds its own list, so assigning an entry changes that
    report only.
    """

    @classmethod
    def uniform(cls, n: int, value: int) -> "NodePeaks":
        return cls([value] * n)

    def get(self, v: int, default: int | None = None) -> int | None:
        return self[v] if 0 <= v < len(self) else default

    def merge(self, other: "NodePeaks") -> "NodePeaks":
        """The elementwise maximum; a node only one side covers keeps its value."""
        a, b = (self, other) if len(self) >= len(other) else (other, self)
        return NodePeaks([x if x >= y else y for x, y in zip(a, b)] + a[len(b) :])


@dataclass
class CostReport:
    """Per-execution accounting of rounds, words, and per-node peak memory.

    ``leader`` is the run's coordinator, the node that also holds the
    search's index and outcomes.  Only a run's report names one (built by
    ``diameter._search``, or by ``diameter._trivial_result`` below
    ``procedures.MIN_PROCEDURE_N`` nodes); a
    procedure's report, and a merge of reports, leaves it None.
    """

    rounds: int = 0
    total_words: int = 0
    per_node_peak_bits: NodePeaks = field(default_factory=NodePeaks)
    per_node_peak_qubits: NodePeaks = field(default_factory=NodePeaks)
    leader: int | None = None

    def merge(self, other: "CostReport") -> "CostReport":
        """Sequential composition: rounds and words add, peaks take the max."""
        return CostReport(
            rounds=self.rounds + other.rounds,
            total_words=self.total_words + other.total_words,
            per_node_peak_bits=self.per_node_peak_bits.merge(other.per_node_peak_bits),
            per_node_peak_qubits=self.per_node_peak_qubits.merge(other.per_node_peak_qubits),
        )


def id_bits(n: int) -> int:
    """Bits needed for a node id in [0, n)."""
    return max(1, (max(n, 2) - 1).bit_length())


def default_bandwidth(n: int) -> int:
    """Bandwidth 4 * ceil(log2 n) bits: a 2-bit tag plus two counters below
    2n, the widest message shape used by the procedures."""
    return 4 * id_bits(n)


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
) -> tuple[dict[int, object], CostReport]:
    """Execute ``program`` on every node of ``g`` until all nodes halt.

    Returns each node's declared output and the cost report.  Every node
    steps at round 0; after that a live node steps only in rounds that bring
    it mail, unless the program sets ``always_wake``.
    """
    if max_rounds <= 0:
        raise EngineError("max_rounds must be positive")
    bw = default_bandwidth(g.n) if bw_bits is None else bw_bits
    ctxs = [
        NodeContext(v, g.adj[v], None if inputs is None else inputs.get(v))
        for v in range(g.n)
    ]
    neighbor_sets = [frozenset(a) for a in g.adj]
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
    live = g.n

    trace_fh = open(trace_path, "w", encoding="utf-8") if trace_path else None
    report = CostReport()
    # messages pending delivery: list of (src, dst, word)
    pending: list[tuple[int, int, Word]] = []
    round_no = 0

    def step_node(v: int, inbox: dict[int, Word]) -> None:
        nonlocal live
        state, outbox, halt = program.step(ctxs[v], states[v], inbox, round_no)
        states[v] = state
        bits, qbits = _check_state(v, round_no, state, widths[v], quantum[v])
        peak_bits[v] = max(peak_bits[v], bits)
        peak_qubits[v] = max(peak_qubits[v], qbits)
        neighbors = neighbor_sets[v]
        for dst, word in outbox.items():
            if dst not in neighbors:
                raise EngineError(f"node {v} sent to non-neighbor {dst}")
            if word.width > bw:
                raise OversizedWordError(v, round_no, word.width, bw)
            if word.width:
                pending.append((v, dst, word))
        if halt:
            halted[v] = True
            live -= 1

    def deliver_and_trace() -> dict[int, dict[int, Word]]:
        nonlocal pending
        inboxes: dict[int, dict[int, Word]] = {}
        for src, dst, word in pending:
            inbox = inboxes.get(dst)
            if inbox is None:
                inbox = inboxes[dst] = {}
            elif src in inbox:
                raise EngineError(
                    f"two words on edge ({src}, {dst}) sent in round {round_no - 1}"
                )
            inbox[src] = word
        report.total_words += len(pending)
        if trace_fh is not None:
            for src, dst, word in sorted(pending, key=lambda t: (t[0], t[1])):
                trace_fh.write(
                    json.dumps(
                        {
                            "round": round_no,
                            "edge": [src, dst],
                            "hex": word.hex(),
                            "bits": word.width,
                        }
                    )
                    + "\n"
                )
        pending = []
        return inboxes

    try:
        for v in range(g.n):
            step_node(v, {})
        while live:
            round_no += 1
            if round_no > max_rounds:
                report.rounds = round_no - 1
                report.per_node_peak_bits = NodePeaks(peak_bits)
                report.per_node_peak_qubits = NodePeaks(peak_qubits)
                raise EngineTimeout(max_rounds, report)
            inboxes = deliver_and_trace()
            if program.always_wake:
                due = range(g.n)
            else:
                due = sorted(inboxes)
            for v in due:
                if not halted[v]:
                    step_node(v, inboxes.get(v, {}))
        if pending:
            # words sent by the last nodes to halt still occupy one round
            round_no += 1
            deliver_and_trace()
    finally:
        if trace_fh is not None:
            trace_fh.close()

    report.rounds = round_no
    report.per_node_peak_bits = NodePeaks(peak_bits)
    report.per_node_peak_qubits = NodePeaks(peak_qubits)
    outputs = {v: program.output(ctxs[v], states[v]) for v in range(g.n)}
    return outputs, report
