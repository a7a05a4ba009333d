"""End-to-end diameter algorithms: simple exact, windowed exact, and the
3/2-approximation.

All three elect the minimum-id leader, build its BFS tree, then maximize an
eccentricity-style function with the amplitude-level search layer.  The
searched value vector is filled by running the corresponding distributed
procedure once per support candidate, each run read from a table that
simulates all candidates together; ``distributed_cost`` charges each oracle
call at the (branch-uniform) network cost of one such run and builds the
run's report.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from . import graphs
from .engine import CostReport, EngineError
from .evaluation import evaluation_procedure, make_eval_context
from .graphs import Graph
from .procedures import (
    BfsTreeState,
    argmax_convergecast,
    build_bfs_tree,
    eccentricity_simple_eval,
    elect_leader_and_ecc,
    id_bits,
    multi_source_bfs,
    simple_eval_register_bits,
    simple_eval_table,
)
from .qsearch import QOptConfig, SearchCost, distributed_cost, quantum_maximize, setup_subset, setup_uniform

# Declared bound constants, asserted on every run (see acceptance suite):
# an evaluation call costs at most 18*ecc(leader) + EVAL_ROUND_SLACK rounds,
# and the coordinator's peak quantum memory stays below
# LEADER_QUBIT_C2 * ceil(log2 n)^2.
EVAL_ROUND_SLACK = 8
LEADER_QUBIT_C2 = 16

APPROX_MAX_RETRIES = 20


class AlgorithmError(EngineError):
    pass


@dataclass
class DiameterResult:
    """Outcome of one algorithm run plus its accounting."""

    d_out: int
    report: CostReport
    search: SearchCost
    t0: int
    t_setup: int
    t_eval: int
    d: int
    epsilon: float
    details: dict = field(default_factory=dict)


def _poly_delta(n: int) -> float:
    return 1.0 / max(4, n * n)


def _init_phases(
    g: Graph, seed: int
) -> tuple[int, int, BfsTreeState, CostReport]:
    leader, ecc_leader, rep_elect = elect_leader_and_ecc(g)
    tree, rep_bfs = build_bfs_tree(g, leader, ecc_leader)
    return leader, ecc_leader, tree, rep_elect.merge(rep_bfs)


def _trivial_result(g: Graph) -> DiameterResult:
    d = 0 if g.n == 1 else 1
    report = CostReport(rounds=0, leader=0)
    return DiameterResult(
        d_out=d, report=report, search=SearchCost(), t0=0, t_setup=0, t_eval=0,
        d=d, epsilon=1.0,
    )


def _check_leader_memory(report: CostReport) -> None:
    leader_qubits = report.per_node_peak_qubits[report.leader]
    limit = LEADER_QUBIT_C2 * id_bits(len(report.per_node_peak_qubits)) ** 2
    if leader_qubits > limit:
        raise AlgorithmError(
            f"leader peak {leader_qubits} qubits exceeds {limit} = C2*log2(n)^2"
        )


def exact_diameter_simple(
    g: Graph, seed: int = 0, delta: float | None = None
) -> DiameterResult:
    """Maximize plain eccentricity over all nodes: O(sqrt(n) * D) rounds."""
    if g.n <= 2:
        return _trivial_result(g)
    delta = _poly_delta(g.n) if delta is None else delta
    leader, d, tree, rep0 = _init_phases(g, seed)

    table = simple_eval_table(g, tree)
    values, reports = zip(
        *(eccentricity_simple_eval(g, tree, u0, table) for u0 in range(g.n))
    )
    epsilon = 1.0 / g.n
    best, cost = quantum_maximize(
        values, setup_uniform(range(g.n)), QOptConfig(epsilon, delta, seed)
    )
    t_eval = max(rep.rounds for rep in reports)
    words_eval = max(rep.total_words for rep in reports)
    qubits = [simple_eval_register_bits(g.n)] * g.n
    report = distributed_cost(
        rep0, rep0.rounds, d, t_eval, words_eval, cost, qubits, epsilon, leader
    )
    _check_leader_memory(report)
    return DiameterResult(
        values[best], report, cost, rep0.rounds, d, t_eval, d, epsilon,
        details={"leader": leader},
    )


def _windowed_maximize(
    g: Graph,
    tree: BfsTreeState,
    support: frozenset[int] | None,
    epsilon: float,
    delta: float,
    seed: int,
    backend: str,
) -> tuple[int, int, SearchCost, int, tuple[int, ...]]:
    """Shared quantum phase of the exact and approximate algorithms: the
    maximum found, T_eval, the call counts, the words of one evaluation and
    the evaluation's qubits per node."""
    ectx = make_eval_context(g, tree, support)
    values = [0] * g.n  # entries outside the support are never read
    reports = []
    for u0 in range(g.n) if support is None else sorted(support):
        values[u0], rep = evaluation_procedure(
            g, tree, u0, restrict=support, backend=backend, ectx=ectx
        )
        reports.append(rep)
    if support is None:
        state0 = setup_uniform(range(g.n))
    else:
        state0 = setup_subset(range(g.n), support)
    best, cost = quantum_maximize(values, state0, QOptConfig(epsilon, delta, seed))

    rounds = {rep.rounds for rep in reports}
    if len(rounds) != 1:
        raise AlgorithmError(f"evaluation cost must be branch-uniform, got {rounds}")
    t_eval = rounds.pop()
    if t_eval > 18 * tree.ecc_leader + EVAL_ROUND_SLACK:
        raise AlgorithmError(
            f"evaluation took {t_eval} rounds, exceeding 18*{tree.ecc_leader}+{EVAL_ROUND_SLACK}"
        )
    words_eval = max(rep.total_words for rep in reports)
    return values[best], t_eval, cost, words_eval, ectx.quantum_bits


def exact_diameter(
    g: Graph, seed: int = 0, delta: float | None = None, backend: str = "fast"
) -> DiameterResult:
    """Exact diameter in O(sqrt(n*D)) charged rounds.

    Maximizes f(u0) = max eccentricity over the DFS window of u0; the window
    width 2*ecc(leader) puts probability mass at least d/2n on maximizing
    candidates, which sets the amplification schedule.
    """
    if g.n <= 2:
        return _trivial_result(g)
    delta = _poly_delta(g.n) if delta is None else delta
    leader, d, tree, rep0 = _init_phases(g, seed)
    epsilon = min(1.0, d / (2.0 * g.n))
    d_out, t_eval, cost, words_eval, qubits = _windowed_maximize(
        g, tree, None, epsilon, delta, seed, backend
    )
    report = distributed_cost(
        rep0, rep0.rounds, d, t_eval, words_eval, cost, qubits, epsilon, leader
    )
    _check_leader_memory(report)
    return DiameterResult(
        d_out, report, cost, rep0.rounds, d, t_eval, d, epsilon,
        details={"leader": leader},
    )


def _sample_landmarks(n: int, s: int, rng: random.Random) -> list[int]:
    p = min(1.0, math.log2(max(n, 2)) / s)
    return [v for v in range(n) if rng.random() < p]


def approx_diameter(
    g: Graph, seed: int = 0, delta: float | None = None, backend: str = "fast"
) -> DiameterResult:
    """3/2-approximation: returns D_bar with D_bar <= D <= ceil(3*D_bar/2).

    Classical preparation (landmark sampling, landmark BFS trees with their
    eccentricities as byproducts, the farthest-from-landmarks node w, the
    BFS tree of w, the |R| nodes closest to w) followed by the windowed
    maximization restricted to R with windows modulo 2|R|.  The answer is
    the maximum eccentricity computed anywhere: over the landmarks, at w,
    and by the quantum phase over R.
    """
    if g.n <= 2:
        return _trivial_result(g)
    n = g.n
    delta = _poly_delta(n) if delta is None else delta
    leader, d_leader, tree_leader, rep0 = _init_phases(g, seed)

    s = max(1, min(n, math.ceil(n ** (2 / 3) / max(1, d_leader) ** (1 / 3))))
    rng = random.Random(f"qcongest-approx:{seed}")
    landmarks: list[int] = []
    for attempt in range(APPROX_MAX_RETRIES + 1):
        if attempt == APPROX_MAX_RETRIES:
            raise AlgorithmError(
                f"landmark sampling failed {APPROX_MAX_RETRIES} times"
            )
        landmarks = _sample_landmarks(n, s, rng)
        if landmarks and len(landmarks) <= n * math.log2(max(n, 2)) ** 2 / s:
            break

    closest, rep_ms = multi_source_bfs(g, landmarks)
    values = {v: closest[v][0] for v in range(n)}
    _, w, rep_ag = argmax_convergecast(g, tree_leader, values)

    # the landmark BFS trees give every landmark its eccentricity; their
    # pipelined cost is |S| + 2*ecc(leader) rounds on top of the flood above
    ecc_landmarks = max(graphs.eccentricity(g, u) for u in landmarks)

    tree_w, rep_w = build_bfs_tree(g, w)
    d = tree_w.ecc_leader
    order = sorted(range(n), key=lambda v: (tree_w.dist[v], v))
    r_set = frozenset(order[:s])
    # the |R| closest nodes form a parent-closed subtree: a parent is
    # strictly closer to w, hence ranked strictly earlier
    prep = rep0.merge(rep_ms).merge(rep_ag).merge(rep_w)
    t0 = prep.rounds + (len(landmarks) + 2 * d_leader) + (s + d)

    epsilon = min(1.0, d / (2.0 * len(r_set)))
    d_quantum, t_eval, cost, words_eval, qubits = _windowed_maximize(
        g, tree_w, r_set, epsilon, delta, seed, backend
    )
    d_bar = max(d_quantum, ecc_landmarks, d)
    report = distributed_cost(prep, t0, d, t_eval, words_eval, cost, qubits, epsilon, w)
    _check_leader_memory(report)
    return DiameterResult(
        d_bar, report, cost, t0, d, t_eval, d, epsilon,
        details={
            "leader": leader,
            "w": w,
            "s": s,
            "r_size": len(r_set),
            "landmarks": len(landmarks),
            "d_quantum": d_quantum,
        },
    )


def approx_guarantee_holds(d_bar: int, d_true: int) -> bool:
    return d_bar <= d_true <= math.ceil(3 * d_bar / 2)
