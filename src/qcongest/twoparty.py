"""Two-party simulation of path-network algorithms.

An r-round algorithm on the path A = P_0, P_1, ..., P_d, P_{d+1} = B in
alternating normal form (odd rounds send rightward, even rounds leftward)
can be simulated by two players exchanging one message per d rounds of the
original algorithm: the players alternately simulate diagonal areas of the
(node, time) grid and ship only the registers the other side needs next.

Register model: node i keeps a private register R_i; message register T_i
starts at P_i and shuttles between P_i and P_{i+1}.  The cell (i, t) is
P_i's computation at round t; it exists at odd t for i <= d and at even t
for i >= 1, reads (R_i, T_i) at odd t and (R_i, T_{i-1}) at even t, and
rewrites both.

Phase boundaries (s = 1, 2, ... with Bob taking odd phases):
  Bob   phase s: rows i in [2, d+1] up to t = (s-1)d + i - 1, ship the
                 message register of odd rows; rows i in [1, d] up to
                 t = (s-1)d + i, ship the message register of even rows;
                 finally ship R_1..R_d.
  Alice phase s: rows i in [0, d-1] up to t = sd - i, ship odd rows'
                 message registers; rows i in [1, d] up to t = sd - i + 1,
                 ship even rows'; finally ship R_1..R_d.
After ceil(r/d) message-bearing phases one more silent segment (the next
phase's cells, truncated at r) finishes the grid using registers already
received, and Alice sends the output: ceil(r/d) + 1 messages in total.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .engine import (
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
from .graphs import path_graph

ALICE = "alice"
BOB = "bob"

INIT = ("init",)  # version token of a never-touched register


@dataclass(frozen=True)
class ScheduleCell:
    i: int
    t: int
    owner: str
    phase: int


@dataclass(frozen=True)
class RegisterRef:
    """A physical register and the cell version being shipped."""

    kind: str  # "R" or "T"
    index: int
    version: tuple


@dataclass(frozen=True)
class PhaseMessage:
    sender: str
    phase: int
    registers: tuple[RegisterRef, ...]
    qubits: int


@dataclass
class TwoPartySchedule:
    r: int
    d: int
    cells: dict[tuple[int, int], ScheduleCell]
    order: list[tuple[int, int]]  # simulation order
    messages: list[PhaseMessage]
    bw_qubits: int = 1
    mem_qubits: int = 1


def cell_exists(i: int, t: int, d: int) -> bool:
    if t % 2 == 1:
        return 0 <= i <= d
    return 1 <= i <= d + 1


def t_register_of(i: int, t: int) -> int:
    """Physical message register touched by cell (i, t)."""
    return i if t % 2 == 1 else i - 1


def t_input_producer(i: int, t: int) -> tuple | None:
    """Cell that produced the message-register input of (i, t); None = init."""
    if t % 2 == 1:
        return (i + 1, t - 1) if t >= 2 else None
    return (i - 1, t - 1)


def _phase_rows(s: int, d: int) -> tuple[list[tuple[int, int]], list[tuple[int, int]], list[int], list[int]]:
    """(sub1 rows, sub2 rows) as (row, boundary) plus ship-row lists."""
    if s % 2 == 1:  # Bob
        sub1 = [(i, (s - 1) * d + i - 1) for i in range(2, d + 2)]
        sub2 = [(i, (s - 1) * d + i) for i in range(1, d + 1)]
        ship1 = [i for i in range(2, d + 2) if i % 2 == 1]
        ship2 = [i for i in range(1, d + 1) if i % 2 == 0]
    else:  # Alice
        sub1 = [(i, s * d - i) for i in range(0, d)]
        sub2 = [(i, s * d - i + 1) for i in range(1, d + 1)]
        ship1 = [i for i in range(0, d) if i % 2 == 1]
        ship2 = [i for i in range(1, d + 1) if i % 2 == 0]
    return sub1, sub2, ship1, ship2


def build_two_party_schedule(
    r: int, d: int, bw_qubits: int = 1, mem_qubits: int = 1
) -> TwoPartySchedule:
    """Assign every cell of an r-round run to a player and list the messages."""
    if r < 1 or d < 1:
        raise ValueError("need r >= 1 and d >= 1")
    frontier = [0] * (d + 2)
    cells: dict[tuple[int, int], ScheduleCell] = {}
    order: list[tuple[int, int]] = []
    messages: list[PhaseMessage] = []
    # tracked current version of each physical register
    t_ver: dict[int, tuple] = {i: INIT for i in range(d + 1)}
    r_ver: dict[int, tuple] = {i: INIT for i in range(d + 2)}
    last_cell_of_row: dict[int, tuple] = {}

    n_regular = math.ceil(r / d)
    for s in range(1, n_regular + 2):
        owner = BOB if s % 2 == 1 else ALICE
        sub1, sub2, ship1, ship2 = _phase_rows(s, d)
        pending_t: list[int] = []  # physical T registers to ship this phase

        def simulate(rows: list[tuple[int, int]]) -> None:
            new = []
            for i, bound in rows:
                for t in range(frontier[i] + 1, min(bound, r) + 1):
                    if cell_exists(i, t, d):
                        new.append((i, t))
                frontier[i] = max(frontier[i], min(bound, r))
            for i, t in sorted(new, key=lambda c: (c[1], c[0])):
                cells[(i, t)] = ScheduleCell(i, t, owner, s)
                order.append((i, t))
                t_ver[t_register_of(i, t)] = (i, t)
                r_ver[i] = (i, t)
                last_cell_of_row[i] = (i, t)

        def mark_ship(i: int) -> None:
            if i not in last_cell_of_row:
                return  # row never simulated: its message register is undefined
            li, lt = last_cell_of_row[i]
            reg = t_register_of(li, lt)
            if reg not in pending_t:
                pending_t.append(reg)

        simulate(sub1)
        if s <= n_regular:
            for i in ship1:
                mark_ship(i)
        simulate(sub2)
        if s <= n_regular:
            for i in ship2:
                mark_ship(i)
            refs = [RegisterRef("T", reg, t_ver[reg]) for reg in pending_t]
            refs += [RegisterRef("R", i, r_ver[i]) for i in range(1, d + 1)]
            qubits = sum(
                bw_qubits if ref.kind == "T" else mem_qubits for ref in refs
            )
            messages.append(PhaseMessage(owner, s, tuple(refs), qubits))

    uncovered = [
        (i, t)
        for t in range(1, r + 1)
        for i in range(d + 2)
        if cell_exists(i, t, d) and (i, t) not in cells
    ]
    if uncovered:
        raise EngineError(f"schedule left cells uncovered: {uncovered[:5]}")
    messages.append(PhaseMessage(ALICE, n_regular + 2, (RegisterRef("out", 0, ("output",)),), 1))
    return TwoPartySchedule(
        r=r, d=d, cells=cells, order=order, messages=messages,
        bw_qubits=bw_qubits, mem_qubits=mem_qubits,
    )


@dataclass
class ValidationReport:
    ok: bool
    violations: list[str]
    message_count: int
    max_phase_qubits: int


def validate_schedule(
    sched: TwoPartySchedule, r: int, d: int
) -> ValidationReport:
    """Replay the schedule and check every cell's inputs are available to its
    owner when simulated, messages carry only sender-held registers, the
    message count matches the closed form, and payloads fit the area bound."""
    violations: list[str] = []
    loc_t: dict[int, str | None] = {i: None for i in range(d + 1)}  # None = free
    loc_r: dict[int, str | None] = {i: None for i in range(d + 2)}
    loc_r[0] = ALICE
    loc_r[d + 1] = BOB
    ver_t: dict[int, tuple] = {i: INIT for i in range(d + 1)}
    ver_r: dict[int, tuple] = {i: INIT for i in range(d + 2)}

    phase_messages = {m.phase: m for m in sched.messages if m.registers and m.registers[0].kind != "out"}
    current_phase = 0

    def deliver(phase: int) -> None:
        msg = phase_messages.get(phase)
        if msg is None:
            return
        receiver = ALICE if msg.sender == BOB else BOB
        for ref in msg.registers:
            if ref.kind == "T":
                if ver_t[ref.index] != ref.version:
                    violations.append(
                        f"phase {phase}: shipping stale T{ref.index} version {ref.version}"
                    )
                if loc_t[ref.index] not in (msg.sender, None):
                    violations.append(
                        f"phase {phase}: {msg.sender} ships T{ref.index} it does not hold"
                    )
                loc_t[ref.index] = receiver
            elif ref.kind == "R":
                if ver_r[ref.index] != ref.version:
                    violations.append(
                        f"phase {phase}: shipping stale R{ref.index} version {ref.version}"
                    )
                if loc_r[ref.index] not in (msg.sender, None):
                    violations.append(
                        f"phase {phase}: {msg.sender} ships R{ref.index} it does not hold"
                    )
                loc_r[ref.index] = receiver

    for (i, t) in sched.order:
        cell = sched.cells[(i, t)]
        while current_phase < cell.phase - 1:
            current_phase += 1
            deliver(current_phase)
        owner = cell.owner
        treg = t_register_of(i, t)
        for kind, idx, loc_map in (("R", i, loc_r), ("T", treg, loc_t)):
            where = loc_map[idx]
            if where is None:
                loc_map[idx] = owner  # free |0...0> register, created locally
            elif where != owner:
                violations.append(
                    f"cell ({i},{t}) owned by {owner} needs {kind}{idx} held by {where}"
                )
                loc_map[idx] = owner  # continue the replay past the fault
        producer = t_input_producer(i, t)
        expected = INIT if producer is None or producer not in sched.cells else producer
        if ver_t[treg] != expected and producer is not None:
            if ver_t[treg] != producer:
                violations.append(
                    f"cell ({i},{t}) reads T{treg} version {ver_t[treg]}, expected {producer}"
                )
        ver_t[treg] = (i, t)
        ver_r[i] = (i, t)

    for phase in range(current_phase + 1, max(phase_messages, default=0) + 1):
        deliver(phase)

    closed_form = math.ceil(r / d) + 1
    if len(sched.messages) != closed_form:
        violations.append(
            f"message count {len(sched.messages)} != closed form {closed_form}"
        )
    bound = d * (sched.bw_qubits + sched.mem_qubits) + d * sched.bw_qubits
    max_q = max((m.qubits for m in sched.messages), default=0)
    if max_q > max(bound, 1):
        violations.append(f"phase payload {max_q} exceeds bound {bound}")
    return ValidationReport(
        ok=not violations,
        violations=violations,
        message_count=len(sched.messages),
        max_phase_qubits=max_q,
    )


# ---------------------------------------------------------------------------
# Classical execution: the same cell program run through the schedule and
# directly on the path network must agree bit for bit.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CellProgram:
    """Deterministic alternating-normal-form program on the path network.

    ``apply(i, t, r_val, t_val)`` is node i's update at round t on its
    private register and the message register it currently holds.
    """

    r_bits: int
    t_bits: int
    init_private: Callable[[int, int, int, int], int]  # (i, d, x, y) -> R_i
    apply: Callable[[int, int, int, int], tuple[int, int]]
    final: Callable[[int, int], int]  # (i, R_i) -> output


def make_random_cell_program(r_bits: int, t_bits: int, seed: int) -> CellProgram:
    """A seeded pseudo-random mixing program (same on both execution routes)."""

    rmask, tmask = (1 << r_bits) - 1, (1 << t_bits) - 1

    def mix(*vals: int) -> int:
        h = 0x9E3779B97F4A7C15 ^ (seed * 0xBF58476D1CE4E5B9 & (2**64 - 1))
        for v in vals:
            h ^= (v + 0x165667B19E3779F9) & (2**64 - 1)
            h = (h * 0xD6E8FEB86659FD93) & (2**64 - 1)
            h ^= h >> 29
        return h

    return CellProgram(
        r_bits=r_bits,
        t_bits=t_bits,
        init_private=lambda i, d, x, y: (x if i == 0 else y if i == d + 1 else 0) & rmask,
        apply=lambda i, t, rv, tv: (
            mix(1, i, t, rv, tv) & rmask,
            mix(2, i, t, rv, tv) & tmask,
        ),
        final=lambda i, rv: mix(3, i, rv) & rmask,
    )


def execute_schedule_classical(
    program: CellProgram, x: int, y: int, sched: TwoPartySchedule
) -> tuple[dict[int, int], dict[tuple[int, int], tuple[int, int]]]:
    """Run the program through the two-party schedule.

    Returns per-node outputs and the per-cell transcript of produced
    (private, message) register values.
    """
    d = sched.d
    r_val = {i: program.init_private(i, d, x, y) for i in range(d + 2)}
    t_val = {i: 0 for i in range(d + 1)}
    transcript: dict[tuple[int, int], tuple[int, int]] = {}
    for (i, t) in sched.order:
        treg = t_register_of(i, t)
        r_val[i], t_val[treg] = program.apply(i, t, r_val[i], t_val[treg])
        transcript[(i, t)] = (r_val[i], t_val[treg])
    outputs = {i: program.final(i, r_val[i]) for i in range(d + 2)}
    return outputs, transcript


class _PathProgram(NodeProgram):
    """Engine adapter: runs a CellProgram directly on the path network."""

    always_wake = True

    def __init__(self, program: CellProgram, d: int, r: int, x: int, y: int):
        self.p = program
        self.d, self.r = d, r
        self.x, self.y = x, y
        self.transcript: dict[tuple[int, int], tuple[int, int]] = {}

    def schema(self, ctx: NodeContext) -> RegisterSchema:
        return RegisterSchema(
            (
                RegisterField("r", self.p.r_bits),
                RegisterField("t", self.p.t_bits),
                RegisterField("has_t", 1),
            )
        )

    def init_state(self, ctx: NodeContext) -> dict:
        return {
            "r": self.p.init_private(ctx.node, self.d, self.x, self.y),
            "t": 0,
            "has_t": 1 if ctx.node <= self.d else 0,
        }

    def step(self, ctx, state, inbox, round_no):
        t = round_no + 1  # algorithm rounds are 1-based
        i = ctx.node
        out: dict[int, Word] = {}
        for _, word in inbox.items():
            (state["t"],) = unpack_bits(word, (self.p.t_bits,))
            state["has_t"] = 1
        acts = t <= self.r and (
            (t % 2 == 1 and i <= self.d) or (t % 2 == 0 and 1 <= i)
        )
        if acts:
            if not state["has_t"]:
                raise EngineError(f"node {i} acts at t={t} without its register")
            state["r"], state["t"] = self.p.apply(i, t, state["r"], state["t"])
            self.transcript[(i, t)] = (state["r"], state["t"])
            dest = i + 1 if t % 2 == 1 else i - 1
            out[dest] = pack_bits([(state["t"], self.p.t_bits)])
            state["has_t"] = 0
        last = self.r
        if i == 0 and self.r % 2 == 0:
            last = self.r - 1
        if i == self.d + 1 and self.r % 2 == 1:
            last = self.r - 1
        return state, out, t >= last

    def output(self, ctx, state):
        return self.p.final(ctx.node, state["r"])


def execute_direct(
    program: CellProgram, x: int, y: int, r: int, d: int
) -> tuple[dict[int, int], dict[tuple[int, int], tuple[int, int]]]:
    """Oracle route: run the same program on the path network in the engine."""
    g = path_graph(d + 2)
    prog = _PathProgram(program, d, r, x, y)
    outputs, _ = run(g, prog, max_rounds=r + 2, bw_bits=max(program.t_bits, 1))
    return outputs, prog.transcript
