from __future__ import annotations

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qcongest import graphs
from qcongest.engine import (
    EngineError,
    EngineTimeout,
    NodeProgram,
    OversizedWordError,
    RegisterField,
    RegisterSchema,
    SchemaViolationError,
    Word,
    default_bandwidth,
    pack_bits,
    run,
    unpack_bits,
)
from qcongest.procedures import ElectionProgram


class FloodMax(NodeProgram):
    """Every node learns the maximum id: rebroadcast on improvement, halt
    after a round budget of n-1."""

    always_wake = True  # the budget is clock-driven

    def __init__(self, n: int):
        self.L = max(1, (n - 1).bit_length())
        self.budget = n - 1

    def schema(self, ctx):
        return RegisterSchema((RegisterField("best", self.L),))

    def init_state(self, ctx):
        return {"best": ctx.node}

    def step(self, ctx, state, inbox, round_no):
        out = {}
        changed = round_no == 0
        for word in inbox.values():
            (val,) = unpack_bits(word, (self.L,))
            if val > state["best"]:
                state["best"] = val
                changed = True
        if changed and round_no < self.budget:
            out = {u: pack_bits([(state["best"], self.L)]) for u in ctx.neighbors}
        return state, out, round_no >= self.budget

    def output(self, ctx, state):
        return state["best"]


class HaltNow(NodeProgram):
    def schema(self, ctx):
        return RegisterSchema(())

    def init_state(self, ctx):
        return {}

    def step(self, ctx, state, inbox, round_no):
        return state, {}, True


class NeverHalt(NodeProgram):
    always_wake = True

    def schema(self, ctx):
        return RegisterSchema(())

    def init_state(self, ctx):
        return {}

    def step(self, ctx, state, inbox, round_no):
        return state, {}, False


def test_flood_max_on_cycle():
    g = graphs.cycle_graph(5)
    outputs, report = run(g, FloodMax(5))
    assert all(v == 4 for v in outputs.values())
    assert report.rounds <= 5


def test_single_node_halting_costs_zero_rounds():
    g = graphs.Graph.from_edges(1, [])
    _, report = run(g, HaltNow())
    assert report.rounds == 0
    assert report.total_words == 0


def test_timeout_carries_partial_report():
    g = graphs.path_graph(3)
    with pytest.raises(EngineTimeout) as exc:
        run(g, NeverHalt(), max_rounds=10)
    assert exc.value.report.rounds == 10


def test_timeout_report_lists_every_node_peak():
    g = graphs.generate("path", 32)
    with pytest.raises(EngineTimeout) as exc:
        run(g, ElectionProgram(32), max_rounds=3)
    report = exc.value.report
    assert len(report.per_node_peak_bits) == 32
    assert len(report.per_node_peak_qubits) == 32


def test_oversized_word_names_node_and_round():
    class TooBig(NodeProgram):
        def schema(self, ctx):
            return RegisterSchema(())

        def init_state(self, ctx):
            return {}

        def step(self, ctx, state, inbox, round_no):
            return state, {u: Word(0, 99) for u in ctx.neighbors}, True

    with pytest.raises(OversizedWordError) as exc:
        run(graphs.path_graph(2), TooBig())
    assert exc.value.node in (0, 1) and exc.value.round_no == 0


def test_schema_violation_detected():
    class Overflow(NodeProgram):
        def schema(self, ctx):
            return RegisterSchema((RegisterField("x", 2),))

        def init_state(self, ctx):
            return {"x": 0}

        def step(self, ctx, state, inbox, round_no):
            return {"x": 9}, {}, True

    with pytest.raises(SchemaViolationError):
        run(graphs.path_graph(2), Overflow())


def test_empty_words_are_free():
    class Pinger(NodeProgram):
        def schema(self, ctx):
            return RegisterSchema(())

        def init_state(self, ctx):
            return {}

        def step(self, ctx, state, inbox, round_no):
            if round_no == 0 and ctx.node == 0:
                return state, {1: Word(0, 0)}, True
            return state, {}, True

    _, report = run(graphs.path_graph(2), Pinger())
    assert report.total_words == 0


def test_default_bandwidth_formula():
    assert default_bandwidth(16) == 16  # 4 * ceil(log2 16)
    assert default_bandwidth(17) == 20
    assert default_bandwidth(2) == 4


def test_pack_unpack_roundtrip():
    word = pack_bits([(5, 4), (1, 1), (999, 12)])
    assert unpack_bits(word, (4, 1, 12)) == (5, 1, 999)
    assert len(word) == 17
    with pytest.raises(Exception):
        pack_bits([(4, 2)])  # does not fit


def test_word_hex_stable():
    assert Word(0b1111, 4).hex() == "f"
    assert Word(0b10000, 5).hex() == "80"
    assert Word(0, 0).hex() == ""


def test_word_rejects_a_value_wider_than_its_width():
    with pytest.raises(EngineError):
        Word(16, 4)
    with pytest.raises(EngineError):
        Word(-1, 4)


@st.composite
def _fields(draw):
    """(value, width) pairs whose widths sum to 0..64."""
    fields, total = [], 0
    for width in draw(st.lists(st.integers(1, 64), max_size=6)):
        if total + width > 64:
            break
        fields.append((draw(st.integers(0, (1 << width) - 1)), width))
        total += width
    return fields


@given(_fields())
def test_word_matches_the_bit_string_formula(fields):
    # the word as a '0'/'1' string: fields big-endian, hex right-padded to
    # whole nibbles
    bits = "".join(format(value, "b").zfill(width) for value, width in fields)
    pad = (-len(bits)) % 4
    expected_hex = (
        format(int(bits + "0" * pad, 2), "x").zfill((len(bits) + pad) // 4) if bits else ""
    )
    word = pack_bits(fields)
    assert len(word) == len(bits)
    assert word.hex() == expected_hex
    assert word.head(min(2, len(bits))) == int(bits[:2] or "0", 2)
    widths = [width for _, width in fields]
    ends = [sum(widths[: i + 1]) for i in range(len(widths))]
    assert unpack_bits(word, widths) == tuple(
        int(bits[end - width : end], 2) for width, end in zip(widths, ends)
    )


def test_send_to_non_neighbor_rejected():
    class Skip(NodeProgram):
        def schema(self, ctx):
            return RegisterSchema(())

        def init_state(self, ctx):
            return {}

        def step(self, ctx, state, inbox, round_no):
            if ctx.node == 0:
                return state, {2: pack_bits([(1, 1)])}, True
            return state, {}, True

    with pytest.raises(EngineError, match="node 0 sent to non-neighbor 2"):
        run(graphs.path_graph(3), Skip())


def test_two_words_on_one_edge_rejected():
    class Twice(dict):
        """An outbox whose items() yields one destination twice."""

        def items(self):
            return [*super().items(), *super().items()]

    class Double(NodeProgram):
        def schema(self, ctx):
            return RegisterSchema(())

        def init_state(self, ctx):
            return {}

        def step(self, ctx, state, inbox, round_no):
            if ctx.node == 0:
                return state, Twice({1: pack_bits([(1, 1)])}), True
            return state, {}, True

    # named by the send round, as an oversized word is
    with pytest.raises(EngineError, match=r"two words on edge \(0, 1\) sent in round 0"):
        run(graphs.path_graph(3), Double())


def _transcript(trace_path) -> list[dict]:
    with open(trace_path, encoding="utf-8") as f:
        return [json.loads(line) for line in f]


def test_determinism_bit_identical_transcripts(tmp_path):
    g = graphs.generate("random", 12, seed=5, p=0.3)
    t1, t2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    out1, rep1 = run(g, FloodMax(g.n), trace_path=t1)
    out2, rep2 = run(g, FloodMax(g.n), trace_path=t2)
    assert out1 == out2
    assert (rep1.rounds, rep1.total_words) == (rep2.rounds, rep2.total_words)
    assert t1.read_text() == t2.read_text()


def test_trace_ordering_by_round_then_edge(tmp_path):
    g = graphs.generate("random", 10, seed=2, p=0.3)
    trace = tmp_path / "t.jsonl"
    run(g, FloodMax(g.n), trace_path=trace)
    rows = _transcript(trace)
    keys = [(r["round"], tuple(r["edge"])) for r in rows]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)  # at most one word per edge per round


def test_wake_filtering_matches_full_stepping():
    for seed in range(4):
        g = graphs.generate("random", 11, seed=seed, p=0.3)
        out_sparse, rep_sparse = run(g, ElectionProgram(g.n))
        full = ElectionProgram(g.n)
        full.always_wake = True  # step every live node every round
        out_full, rep_full = run(g, full)
        assert out_sparse == out_full
        assert rep_sparse.total_words == rep_full.total_words
        assert rep_sparse.rounds == rep_full.rounds


def test_peak_bits_within_schema():
    g = graphs.cycle_graph(6)
    _, report = run(g, FloodMax(6))
    L = (5).bit_length()
    assert report.per_node_peak_bits == [L] * 6
