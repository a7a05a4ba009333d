from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, strategies as st

from qcongest.engine import run
from qcongest.gadgets import (
    DisjInput,
    GadgetError,
    build_reduction_instance,
    gadget_apply_inputs,
    gadget_build,
    gadget_size,
    reduction_protocol_cost,
    stretch,
)


def brute_disj(x: str, y: str) -> int:
    return 0 if any(a == "1" and b == "1" for a, b in zip(x, y)) else 1


def test_gadget_n10_shape():
    gad = gadget_build(10)
    assert gad.graph.n == 10
    assert len(gad.cut_edges) == 5  # 2s + 1 with s = 2
    assert len(gad.left) == len(gad.right) == 5


def test_gadget_n6_degenerate_cliques():
    gad = gadget_build(6)
    assert gadget_size(6) == 1
    # single-node "cliques": the only intra-side edges touch the apexes
    a, b = gad.roles["a"], gad.roles["b"]
    for u, v in gad.graph.edges():
        same_side = (u in gad.left) == (v in gad.left)
        if same_side:
            assert a in (u, v) or b in (u, v)


def test_gadget_apex_adjacency():
    gad = gadget_build(14)
    a, b = gad.roles["a"], gad.roles["b"]
    s = gadget_size(14)
    for i in range(s):
        assert gad.roles[f"l{i}"] in gad.graph.adj[a]
        assert gad.roles[f"lp{i}"] in gad.graph.adj[a]
        assert gad.roles[f"r{i}"] in gad.graph.adj[b]
        assert gad.roles[f"rp{i}"] in gad.graph.adj[b]
    assert b in gad.graph.adj[a]


def test_gadget_rejects_bad_sizes():
    for n in (5, 8, 12, 4, 2):
        with pytest.raises(GadgetError):
            gadget_build(n)


def test_apply_inputs_edges():
    gad = gadget_build(10)
    g = gadget_apply_inputs(gad, DisjInput(4, "0110", "1001"))
    # x indexed row-major: x_{0,0}=0 adds l0-lp0; x_{0,1}=1 does not
    assert gad.roles["lp0"] in g.adj[gad.roles["l0"]]
    assert gad.roles["lp1"] not in g.adj[gad.roles["l0"]]
    assert gad.roles["rp0"] not in g.adj[gad.roles["r0"]]
    assert gad.roles["rp1"] in g.adj[gad.roles["r0"]]


def test_apply_inputs_requires_s_squared_bits():
    with pytest.raises(GadgetError):
        gadget_apply_inputs(gadget_build(10), DisjInput(5, "00000", "00000"))


def test_extreme_inputs():
    zeros = build_reduction_instance(10, DisjInput(4, "0000", "0000"))
    assert zeros.delta == 2 and zeros.disj == 1
    ones = build_reduction_instance(10, DisjInput(4, "1111", "1111"))
    assert ones.delta == 3 and ones.disj == 0


def test_gap_exhaustive_n10():
    for xb, yb in itertools.product(itertools.product("01", repeat=4), repeat=2):
        inp = DisjInput(4, "".join(xb), "".join(yb))
        inst = build_reduction_instance(10, inp)
        assert (inst.delta <= 2) == (brute_disj(inp.x, inp.y) == 1)
        assert inst.gap_holds


def test_gap_random_n14():
    rng = random.Random(5)
    for _ in range(200):
        inp = DisjInput.random(9, rng)
        inst = build_reduction_instance(14, inp)
        assert (inst.delta <= 2) == (inp.disj() == 1)


def test_stretch_identity():
    gad = gadget_build(10)
    st_gad, layer_map = stretch(gad, 0)
    assert st_gad is gad and layer_map == {}


def test_stretch_arithmetic():
    gad = gadget_build(10)  # b = 5 cut edges
    st_gad, layer_map = stretch(gad, 3)
    assert st_gad.graph.n == 10 + 5 * 3
    assert len(layer_map) == 15
    layers = {}
    for node, (edge_idx, pos) in layer_map.items():
        layers.setdefault(pos, set()).add(node)
    assert set(layers) == {1, 2, 3}
    assert all(len(nodes) == 5 for nodes in layers.values())
    # each original cut edge is now a 4-edge path
    for idx, (u, v) in enumerate(gad.cut_edges):
        chain = [u] + [n for n, (e, _) in sorted(layer_map.items(), key=lambda kv: kv[1]) if e == idx] + [v]
        for a, b in zip(chain, chain[1:]):
            assert b in st_gad.graph.adj[a]


def test_stretch_monotone_and_gap_preserved():
    rng = random.Random(11)
    pairs = [DisjInput(4, "1111", "1111"), DisjInput(4, "0000", "0000")] + [
        DisjInput.random(4, rng) for _ in range(6)
    ]
    for inp in pairs:
        prev = -1
        base_delta = 3 if inp.disj() == 0 else 2
        for d in range(0, 5):
            inst = build_reduction_instance(10, inp, stretch_d=d)
            assert inst.diameter >= prev
            prev = inst.diameter
            # measured shape at n=10: stretching shifts both classes by d
            assert inst.delta == d + base_delta
            assert inst.diameter == inst.delta
            assert inst.gap_holds


def test_reduction_protocol_cost_formula():
    gad = gadget_build(10)
    assert reduction_protocol_cost(gad, 1) == (2, 40)
    assert reduction_protocol_cost(gad, 0) == (0, 0)
    assert reduction_protocol_cost(gad, 7) == (14, 7 * 2 * 5 * 4)


def test_reduction_cost_dominates_engine_cut_traffic(tmp_path):
    """Transcript cross-check: words over the cut never exceed 2 r b."""
    import json

    from tests.test_engine import FloodMax

    inst = build_reduction_instance(10, DisjInput(4, "0101", "1010"))
    trace = tmp_path / "gadget.jsonl"
    _, report = run(inst.graph, FloodMax(inst.graph.n), trace_path=trace)
    cut = {tuple(e) for e in inst.gadget.cut_edges}
    cut |= {(v, u) for u, v in cut}
    by_round: dict[int, int] = {}
    for line in trace.read_text().splitlines():
        row = json.loads(line)
        if tuple(row["edge"]) in cut:
            by_round[row["round"]] = by_round.get(row["round"], 0) + 1
    r = report.rounds
    messages, qubits = reduction_protocol_cost(inst.gadget, r)
    total_cut_words = sum(by_round.values())
    assert total_cut_words <= r * 2 * len(inst.gadget.cut_edges)
    assert messages == 2 * r
    assert qubits >= total_cut_words  # each cut word is at most b log n qubits worth


@given(st.integers(0, 200))
def test_gap_soundness_random_property(seed):
    rng = random.Random(seed)
    inp = DisjInput.random(4, rng)
    inst = build_reduction_instance(10, inp)
    if inp.disj() == 1:
        assert inst.delta <= 2
    else:
        assert inst.delta >= 3
