"""Invariant suite behind the ``verify`` CLI command.

Each check returns (ok, detail).  The suite covers the oracle cross-checks,
the engine programs of the election and BFS tree against the BFS oracle,
every closed form against its engine reference (the classical procedures,
the simple evaluation's table and the windowed evaluation), the closed-form
DFS numbering against the walked tour, the window and wave invariants,
the search decision's success and pick laws against ``grover_iterate``, the
one reference that steps the amplitude vector, the gadget gap, and the
two-party schedule grid, at sizes small enough to run in about a second.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from typing import Callable

import numpy as np

from . import diameter, graphs
from .evaluation import evaluate_on_engine, evaluation_procedure, make_eval_context
from .gadgets import DisjInput, build_reduction_instance
from .procedures import (
    all_sources_distances,
    argmax_convergecast,
    argmax_on_engine,
    bfs_tree_on_engine,
    build_bfs_tree,
    dfs_numbering,
    eccentricity_simple_eval,
    elect_leader_and_ecc,
    elect_on_engine,
    multi_source_bfs,
    multi_source_bfs_on_engine,
    set_S,
    simple_eval_on_engine,
    simple_eval_table,
)
from .qsearch import grover_iterate, setup_uniform
from .twoparty import (
    build_two_party_schedule,
    execute_direct,
    execute_schedule_classical,
    make_random_cell_program,
    validate_schedule,
)

Check = Callable[[], tuple[bool, str]]


def _corpus() -> list[graphs.Graph]:
    specs = [
        ("path", 7, 1, None),
        ("cycle", 9, 2, None),
        ("star", 6, 3, None),
        ("grid", 12, 4, None),
        ("lollipop", 11, 5, None),
        ("random", 14, 6, 0.25),
        ("random", 10, 7, 0.4),
    ]
    return [graphs.generate(f, n, seed=s, p=p) for f, n, s, p in specs]


def check_bfs_oracle() -> tuple[bool, str]:
    for g in _corpus():
        reach = np.eye(g.n, dtype=bool)
        adj = np.zeros((g.n, g.n), dtype=bool)
        for u, v in g.edges():
            adj[u, v] = adj[v, u] = True
        frontier = np.eye(g.n, dtype=bool)
        dist = np.full((g.n, g.n), -1)
        np.fill_diagonal(dist, 0)
        for k in range(1, g.n):
            frontier = (frontier @ adj) & ~reach
            if not frontier.any():
                break
            dist[frontier] = k
            reach |= frontier
        for u in range(g.n):
            got = graphs.bfs_distances(g, u)
            if any(got[v] != dist[u, v] for v in range(g.n)):
                return False, f"BFS mismatch vs matrix powers at node {u}"
        differ = np.argwhere(all_sources_distances(g) != dist)
        if differ.size:
            u, v = differ[0].tolist()
            return False, (
                f"all-sources matrix differs from matrix powers at (u, v) = ({u}, {v}), n={g.n}"
            )
    return True, "BFS distances and the all-sources matrix match boolean matrix-power reachability"


def check_ecc_relations() -> tuple[bool, str]:
    for g in _corpus():
        eccs = graphs.all_eccentricities(g)
        d = graphs.diameter_bruteforce(g)
        for u in range(g.n):
            e = graphs.eccentricity(g, u)
            if eccs[u] != e:
                return False, (
                    f"all-sources oracle gives ecc {eccs[u]} at node {u} (n={g.n}), "
                    f"BFS gives {e}"
                )
            if not (e <= d <= 2 * e):
                return False, f"ecc relation broken at node {u}"
    return True, "all-sources oracle equals per-node BFS; ecc(v) <= D <= 2*ecc(v) on the corpus"


def check_election() -> tuple[bool, str]:
    for g in _corpus():
        leader, ecc, rep = elect_on_engine(g)
        true_ecc = graphs.eccentricity(g, 0)
        if leader != 0 or ecc != true_ecc:
            return False, f"election wrong: leader={leader} ecc={ecc}"
        if rep.rounds > 3 * true_ecc + 4:
            return False, f"election used {rep.rounds} > 3*ecc+4 rounds"
    return True, "min-id election and eccentricity in <= 3*ecc + 4 rounds"


def check_bfs_tree() -> tuple[bool, str]:
    for g in _corpus():
        leader, ecc, _ = elect_on_engine(g)
        tree, rep = bfs_tree_on_engine(g, leader, ecc)
        oracle = graphs.bfs_distances(g, leader)
        if any(tree.dist[v] != oracle[v] for v in range(g.n)):
            return False, "tree distances differ from the BFS oracle"
        if rep.rounds != ecc:
            return False, f"tree build took {rep.rounds} rounds, expected {ecc}"
    return True, "tree construction matches the BFS oracle in exactly ecc rounds"


def check_closed_forms() -> tuple[bool, str]:
    for g in _corpus():
        dist = all_sources_distances(g)
        elected = elect_on_engine(g)
        if elect_leader_and_ecc(g, dist) != elected:
            return False, f"closed-form election differs from the engine at n={g.n}"
        leader, ecc, _ = elected
        built = bfs_tree_on_engine(g, leader, ecc)
        if build_bfs_tree(g, leader, dist) != built:
            return False, f"closed-form BFS tree differs from the engine at n={g.n}"
        sources = range(0, g.n, 3)
        closest = multi_source_bfs_on_engine(g, sources)
        if multi_source_bfs(g, sources, dist) != closest:
            return False, f"closed-form multi-source BFS differs from the engine at n={g.n}"
        values = {v: hops for v, (hops, _) in closest[0].items()}
        tree = built[0]
        if argmax_convergecast(g, tree, values, dist) != argmax_on_engine(g, tree, values):
            return False, f"closed-form argmax differs from the engine at n={g.n}"
        table = simple_eval_table(g, tree, dist)
        for u0 in range(g.n):
            if eccentricity_simple_eval(g, tree, u0, table) != simple_eval_on_engine(g, tree, u0):
                return False, f"simple evaluation table differs from the engine at u0={u0}, n={g.n}"
    # the corpus is shallow; the election's fold takes more doubling steps here
    for family, n in (("path", 33), ("lollipop", 40)):
        g = graphs.generate(family, n, seed=1)
        if elect_leader_and_ecc(g, all_sources_distances(g)) != elect_on_engine(g):
            return False, f"closed-form election differs from the engine on {family}-{n}"
    return True, (
        "election (also on path-33 and lollipop-40), BFS tree, multi-source BFS, "
        "argmax and simple evaluation closed forms equal the engine"
    )


def check_dfs_numbering() -> tuple[bool, str]:
    for g in _corpus():
        tree = diameter.prepare(g).tree
        closest = sorted(range(g.n), key=lambda v: (tree.dist[v], v))
        # the full tree, and the parent-closed set of the closest half
        for restrict in (None, frozenset(closest[: (g.n + 1) // 2])):
            num = dfs_numbering(tree, restrict)
            walk = num.traversal
            scope = f"n={g.n}" + ("" if restrict is None else f" restricted to {len(restrict)}")
            if walk[0] != tree.leader or walk[-1] != tree.leader or any(
                tree.parent[a] != b and tree.parent[b] != a for a, b in zip(walk, walk[1:])
            ):
                return False, f"walked tour is not a closed walk along tree edges at {scope}"
            first: dict[int, int] = {}
            for t, v in enumerate(walk):
                first.setdefault(v, t)
            if (num.tau, num.first_visits, num.positions) != (
                first, tuple(first), tuple(first.values())
            ):
                return False, f"closed-form numbering differs from the walked tour at {scope}"
    return True, "tau = 2*pre - depth equals the walked tour's first visits, full and restricted"


def check_window_coverage() -> tuple[bool, str]:
    for g in _corpus():
        tree = diameter.prepare(g).tree
        d = tree.ecc_leader
        num = dfs_numbering(tree)
        for v in range(g.n):
            count = sum(1 for u0 in range(g.n) if v in set_S(u0, d, num))
            if count < math.ceil(d / 2):
                return False, f"node {v} covered by {count} < ceil(d/2) windows"
    return True, "every node lies in >= ceil(d/2) of the n windows"


def check_evaluation() -> tuple[bool, str]:
    for g in _corpus():
        prep = diameter.prepare(g)
        tree = prep.tree
        d = tree.ecc_leader
        num = dfs_numbering(tree)
        eccs = graphs.all_eccentricities(g)
        ectx = make_eval_context(g, tree, prep.dist)
        for u0 in range(g.n):
            expected = max(eccs[v] for v in set_S(u0, d, num))
            table = evaluation_procedure(ectx, u0)
            if table != evaluate_on_engine(ectx, u0):
                return False, f"table and engine rows differ at u0={u0}"
            if table.value != expected:
                return False, f"evaluation({u0}) = {table.value}, oracle {expected}"
            if table.rounds != ectx.total_rounds:
                return False, f"evaluation({u0}) ran {table.rounds} rounds, off the schedule's 9d+1"
    return True, "window table and engine equal the window-max oracle on the 9d+1 schedule"


def check_window_distances() -> tuple[bool, str]:
    for g in _corpus():
        tree = diameter.prepare(g).tree
        d = tree.ecc_leader
        num = dfs_numbering(tree)
        for u0 in range(0, g.n, 2):
            s = sorted(set_S(u0, d, num), key=lambda v: (num.tau[v] - num.tau[u0]) % num.index_space)
            taup = {v: (num.tau[v] - num.tau[u0]) % num.index_space for v in s}
            for v, w in itertools.combinations(s, 2):
                lo, hi = (v, w) if taup[v] < taup[w] else (w, v)
                if graphs.bfs_distances(g, lo)[hi] > taup[hi] - taup[lo]:
                    return False, f"window distance bound broken for {lo},{hi}"
    return True, "d(v,w) <= tau'(w) - tau'(v) inside every sampled window"


def check_grover() -> tuple[bool, str]:
    state = setup_uniform(4)
    state = grover_iterate(state, np.arange(4) == 2)
    p = abs(state.amps[2]) ** 2
    if abs(p - 1.0) > 1e-9:
        return False, f"recurrence broken: one iteration on |X|=4 gave p={p}"
    for frac in (1, 2, 4, 8, 16, 32):
        state = setup_uniform(64)
        marked = np.arange(64) < frac
        w = np.abs(state.setup_amps[marked]) ** 2
        mass = float(w.sum())
        theta = math.asin(math.sqrt(mass))
        for k in range(1, 21):
            state = grover_iterate(state, marked)
            expect = math.sin((2 * k + 1) * theta) ** 2
            on_marked = np.abs(state.amps[marked]) ** 2
            got = float(on_marked.sum())
            if abs(got - expect) > 1e-9:
                return False, f"recurrence broken at k={k}, p={frac}/64"
            # a hit lands on x with probability w_x / P: compared as products,
            # so a marked mass near 0 divides nothing
            if np.max(np.abs(on_marked * mass - got * w)) > 1e-9:
                return False, f"pick law off the steps at k={k}, p={frac}/64"
    return True, (
        "single-marked exactness, sin((2k+1)theta) recurrence and the "
        "decision's pick law w_x/P hold"
    )


def check_gadget_gap() -> tuple[bool, str]:
    for xb, yb in itertools.product(itertools.product("01", repeat=4), repeat=2):
        inst = build_reduction_instance(10, DisjInput(4, "".join(xb), "".join(yb)))
        if not inst.gap_holds:
            return False, f"gap broken at x={inst.inp.x} y={inst.inp.y}"
    return True, "delta <= 2 iff DISJ = 1, exhaustively at n=10"


def check_schedule_grid() -> tuple[bool, str]:
    for r in range(1, 33):
        for d in range(1, 9):
            rep = validate_schedule(build_two_party_schedule(r, d), r, d)
            if not rep.ok:
                return False, f"schedule invalid at r={r} d={d}: {rep.violations[0]}"
    rng = random.Random(7)
    for trial in range(20):
        r, d = rng.randrange(1, 33), rng.randrange(1, 9)
        prog = make_random_cell_program(8, 8, seed=trial)
        x, y = rng.randrange(256), rng.randrange(256)
        sched = build_two_party_schedule(r, d)
        if execute_schedule_classical(prog, x, y, sched)[0] != execute_direct(prog, x, y, r, d)[0]:
            return False, f"two-party execution diverges at r={r} d={d}"
    return True, "schedule grid causal, executions bit-identical"


CHECKS: list[tuple[str, Check]] = [
    ("bfs-oracle", check_bfs_oracle),
    ("ecc-relations", check_ecc_relations),
    ("leader-election", check_election),
    ("bfs-tree", check_bfs_tree),
    ("closed-forms", check_closed_forms),
    ("dfs-numbering", check_dfs_numbering),
    ("window-coverage", check_window_coverage),
    ("window-distances", check_window_distances),
    ("evaluation", check_evaluation),
    ("grover-exactness", check_grover),
    ("gadget-gap", check_gadget_gap),
    ("two-party-schedule", check_schedule_grid),
]


def run_all() -> bool:
    """Run every check, printing one line each: PASS or FAIL, the check's
    name, its elapsed seconds and its detail."""
    all_ok = True
    for name, fn in CHECKS:
        start = time.perf_counter()
        try:
            ok, detail = fn()
        except Exception as exc:  # surfaced as a failure, not a crash
            ok, detail = False, f"exception: {exc}"
        elapsed = time.perf_counter() - start
        all_ok &= ok
        print(f"{'PASS' if ok else 'FAIL'}  {name:22s} {elapsed:6.2f}s  {detail}")
    return all_ok
