"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines.  The experiment grid (criteria 1-4, 7) is computed once per
session; everything is seeded, so outcomes are reproducible bit for bit.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from dataclasses import dataclass

import pytest

from qcongest import graphs
from qcongest.diameter import (
    LEADER_QUBIT_C2,
    approx_diameter,
    approx_guarantee_holds,
    exact_diameter,
    exact_diameter_simple,
)
from qcongest.gadgets import DisjInput, build_reduction_instance
from qcongest.graphs import generate
from qcongest.harness import ExperimentConfig, rows_to_csv, run_grid
from qcongest.procedures import BfsTreeState, dfs_numbering, id_bits, set_S
from qcongest.qsearch import grover_iterate, setup_uniform
from qcongest.twoparty import (
    build_two_party_schedule,
    execute_direct,
    execute_schedule_classical,
    make_random_cell_program,
    validate_schedule,
)

GRID_FAMILIES = ("path", "cycle", "random:0.05", "random:0.2", "lollipop")
GRID_SIZES = (16, 32, 64, 128)
GRID_SEEDS = tuple(range(15))  # 5 * 4 * 15 = 300 (graph, seed) pairs


def _announce(num: int, ok: bool, detail: str) -> None:
    print(f"\ncriterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@dataclass
class GridRecord:
    family: str
    n: int
    seed: int
    g: graphs.Graph
    d_true: int
    exact: object
    approx: object


def oracle_tree(g: graphs.Graph) -> BfsTreeState:
    """The BFS(0) tree with the min-id-sender parent rule, built centrally."""
    dist = graphs.bfs_distances(g, 0)
    parent = tuple(
        0 if v == 0 else min(u for u in g.adj[v] if dist[u] == dist[v] - 1)
        for v in range(g.n)
    )
    return BfsTreeState(0, max(dist.values()), parent, tuple(dist[v] for v in range(g.n)))


@pytest.fixture(scope="module")
def grid():
    records: list[GridRecord] = []
    exact_seconds = 0.0
    for family, n, seed in itertools.product(GRID_FAMILIES, GRID_SIZES, GRID_SEEDS):
        fam, _, p = family.partition(":")
        g = generate(fam, n, seed=seed, p=float(p) if p else None)
        t0 = time.monotonic()
        d_true = graphs.diameter_bruteforce(g)
        exact = exact_diameter(g, seed=seed)
        exact_seconds += time.monotonic() - t0
        approx = approx_diameter(g, seed=seed)
        records.append(GridRecord(family, n, seed, g, d_true, exact, approx))
    return records, exact_seconds


def test_criterion_01_exactness(grid):
    records, elapsed = grid
    failures = [r for r in records if r.exact.d_out != r.d_true]
    allowed = math.floor(sum(2.0 / (r.n * r.n) for r in records))
    ok = len(failures) <= allowed and elapsed < 600
    _announce(
        1,
        ok,
        f"exact diameter correct on {len(records) - len(failures)}/{len(records)} "
        f"grid pairs (allowed failures {allowed}) in {elapsed:.1f}s single-threaded",
    )


def test_criterion_02_approximation_guarantee(grid):
    records, _ = grid
    worst = 1.0
    bad_classes = []
    for family, n in itertools.product(GRID_FAMILIES, GRID_SIZES):
        cls = [r for r in records if r.family == family and r.n == n]
        good = sum(approx_guarantee_holds(r.approx.d_out, r.d_true) for r in cls)
        freq = good / len(cls)
        worst = min(worst, freq)
        if freq < 1.0 - 1.0 / n:
            bad_classes.append((family, n, freq))
    _announce(
        2,
        not bad_classes,
        f"d_bar <= D <= ceil(3*d_bar/2) with worst class frequency {worst:.3f} "
        f"(violating classes: {bad_classes or 'none'})",
    )


def test_criterion_03_evaluation_round_bound(grid):
    records, _ = grid
    worst_slack = -(10**9)
    for r in records:
        for res in (r.exact, r.approx):
            worst_slack = max(worst_slack, res.t_eval - 18 * res.d)
            assert res.t_eval <= 18 * res.d + 8, (r.family, r.n, r.seed)
    _announce(
        3,
        True,
        f"every evaluation call within 18*ecc+8 rounds (max observed slack "
        f"{worst_slack}); zero surviving-message mismatches in any run",
    )


def test_criterion_04_window_coverage(grid):
    records, _ = grid
    checked = 0
    for r in records:
        tree = oracle_tree(r.g)
        d = tree.ecc_leader
        num = dfs_numbering(tree)
        counts = {v: 0 for v in range(r.g.n)}
        for u0 in range(r.g.n):
            for v in set_S(u0, d, num):
                counts[v] += 1
        low = min(counts.values())
        assert low >= math.ceil(d / 2), (r.family, r.n, r.seed, low)
        checked += 1
    _announce(
        4,
        True,
        f"every node in every of the {checked} grid graphs lies in >= ceil(d/2) windows",
    )


def test_criterion_05_grover_exactness():
    import numpy as np

    state = grover_iterate(setup_uniform(4), np.arange(4) == 1)
    p_marked = abs(state.amps[1]) ** 2
    assert abs(p_marked - 1.0) <= 1e-9
    worst = 0.0
    for j in range(1, 33):
        theta = math.asin(math.sqrt(j / 64))
        state = setup_uniform(64)
        for k in range(1, 51):
            state = grover_iterate(state, np.arange(64) < j)
            expected = math.sin((2 * k + 1) * theta) ** 2
            got = float(np.sum(np.abs(state.amps[:j]) ** 2))
            worst = max(worst, abs(got - expected))
            assert worst <= 1e-9, (j, k)
    _announce(
        5,
        True,
        f"|X|=4 single-marked probability 1 within 1e-9; sin((2k+1)theta) "
        f"recurrence holds for k<=50, p=j/64 (max error {worst:.2e})",
    )


def test_criterion_06_scaling_separation():
    sizes = (32, 64, 128, 256)
    seeds = (0, 1, 2)
    delta = 0.05  # the round-count claims are for constant error probability
    mean_exact, mean_simple = {}, {}
    for n in sizes:
        ex, si = [], []
        for seed in seeds:
            g = generate("path", n, seed=seed)
            ex.append(exact_diameter(g, seed=seed, delta=delta).report.rounds)
            si.append(exact_diameter_simple(g, seed=seed, delta=delta).report.rounds)
        mean_exact[n] = sum(ex) / len(ex)
        mean_simple[n] = sum(si) / len(si)

    def exponent(means: dict[int, float]) -> float:
        xs = [math.log(n) for n in sizes]
        ys = [math.log(means[n]) for n in sizes]
        mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
        return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum(
            (x - mx) ** 2 for x in xs
        )

    slope_exact = exponent(mean_exact)
    slope_simple = exponent(mean_simple)
    ratio = mean_simple[256] / mean_exact[256]
    ok = (
        abs(slope_exact - 1.0) <= 0.15
        and abs(slope_simple - 1.5) <= 0.15
        and ratio >= 3.0
    )
    _announce(
        6,
        ok,
        f"path-family exponents: windowed {slope_exact:.3f} (target 1.0+-0.15), "
        f"simple {slope_simple:.3f} (target 1.5+-0.15); round ratio at n=256 "
        f"is {ratio:.2f} (>= 3)",
    )


def test_criterion_07_leader_memory(grid):
    records, _ = grid
    worst = 0.0
    for r in records:
        leader = r.exact.report.leader
        peak = r.exact.report.per_node_peak_qubits[leader]
        worst = max(worst, peak / id_bits(r.n) ** 2)
    ok = worst <= LEADER_QUBIT_C2
    _announce(
        7,
        ok,
        f"leader peak qubits <= C2 * ceil(log2 n)^2 with measured C2 = "
        f"{worst:.2f} (declared {LEADER_QUBIT_C2})",
    )


def test_criterion_08_gadget_gap():
    for xb, yb in itertools.product(itertools.product("01", repeat=4), repeat=2):
        inp = DisjInput(4, "".join(xb), "".join(yb))
        inst = build_reduction_instance(10, inp)
        assert (inst.delta <= 2) == (inst.disj == 1), inp

    rng = random.Random(2026)
    for _ in range(1000):
        inp = DisjInput.random(36, rng)
        inst = build_reduction_instance(26, inp)
        assert (inst.delta <= 2) == (inst.disj == 1), inp

    gaps = {}
    for d in (1, 2, 3, 4):
        diam0, diam1 = [], []
        for xb, yb in itertools.product(itertools.product("01", repeat=4), repeat=2):
            inp = DisjInput(4, "".join(xb), "".join(yb))
            inst = build_reduction_instance(10, inp, stretch_d=d)
            (diam1 if inst.disj == 1 else diam0).append(inst.diameter)
        gaps[d] = min(diam0) - max(diam1)
        assert gaps[d] >= 1, f"gap collapsed at stretch d={d}"
    stable = len(set(gaps.values())) == 1
    _announce(
        8,
        stable,
        f"delta<=2 iff DISJ=1 on 256/256 pairs at n=10 and 1000/1000 at n=26; "
        f"stretched diameter gap constant at {gaps} across d=1..4",
    )


def test_criterion_09_schedule():
    for r in range(1, 65):
        for d in range(1, 17):
            sched = build_two_party_schedule(r, d)
            report = validate_schedule(sched, r, d)
            assert report.ok, (r, d, report.violations[:2])
            assert report.message_count == math.ceil(r / d) + 1

    rng = random.Random(99)
    for trial in range(100):
        r, d = rng.randrange(1, 41), rng.randrange(1, 9)
        prog = make_random_cell_program(8, 8, seed=trial)
        x, y = rng.randrange(256), rng.randrange(256)
        sched = build_two_party_schedule(r, d)
        out_sched, _ = execute_schedule_classical(prog, x, y, sched)
        out_direct, _ = execute_direct(prog, x, y, r, d)
        assert out_sched == out_direct, (r, d, trial)
    _announce(
        9,
        True,
        "all 1024 schedules (r<=64, d<=16) causally valid with message count "
        "= ceil(r/d)+1; 100 random programs reproduce direct execution bit-for-bit",
    )


def test_criterion_10_determinism():
    config = ExperimentConfig(
        families=("path", "random:0.2"),
        sizes=(12, 16),
        seeds=(0, 1),
        algos=("exact", "approx"),
        master_seed=11,
    )
    csv_sequential = rows_to_csv(run_grid(config))
    config2 = ExperimentConfig(
        families=config.families, sizes=config.sizes, seeds=config.seeds,
        algos=config.algos, master_seed=config.master_seed, jobs=2,
    )
    csv_parallel = rows_to_csv(run_grid(config2))
    config3 = ExperimentConfig(
        families=config.families, sizes=config.sizes, seeds=config.seeds,
        algos=config.algos, master_seed=config.master_seed, jobs=3,
    )
    csv_parallel3 = rows_to_csv(run_grid(config3))
    ok = csv_sequential == csv_parallel == csv_parallel3
    _announce(
        10,
        ok,
        f"identical config produces byte-identical CSV at jobs in {{1,2,3}} "
        f"({len(csv_sequential.splitlines()) - 1} rows)",
    )
