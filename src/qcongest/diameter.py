"""End-to-end diameter algorithms: simple exact, windowed exact, and the
3/2-approximation.

All three elect the minimum-id leader and build its BFS tree, then end in
one search phase, ``_search``: it reads every candidate's branch once, in
ascending order, as a ``Branch`` row (value, rounds, words) of the forward
pass from a table that fills all candidates together; maximizes over those
values with the amplitude-level search layer (Durr-Hoyer maximum finding);
and charges each oracle call, through ``distributed_cost``, at the network
cost of one branch: its forward pass and the cleanup reversal that mirrors
it, twice the row's rounds and words, the one place the reversal is
charged.  That call builds the run's report, the only one that names a
``leader``: the search's coordinator, which is the elected leader for the
exact algorithms and the node w for the approximation.

Every phase reads one all-sources distance matrix, held with the election
and the leader tree by the graph's ``Prepared`` value: ``prepare(g)`` builds
it, and each algorithm takes either a ``Prepared``, which runs on one graph
share, or a ``Graph``, which it prepares for that run alone.  The classical
procedures (election, BFS trees, and the approximation's multi-source BFS
and argmax) take their results and cost reports in closed form from the
matrix, the evaluation tables are filled from it, and the approximation
reads the landmark eccentricities and ecc(w) off it.
A run makes no word-level engine call: the engine programs behind those
closed forms are the references they are tested against.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Collection, Sequence

import numpy as np

from .engine import CostReport, EngineError, id_bits
from .evaluation import evaluation_procedure, make_eval_context
from .graphs import Graph
from .procedures import (
    BfsTreeState,
    Branch,
    all_sources_distances,
    argmax_convergecast,
    build_bfs_tree,
    eccentricity_simple_eval,
    elect_leader_and_ecc,
    multi_source_bfs,
    simple_eval_register_bits,
    simple_eval_table,
)
from .qsearch import QOptConfig, SearchCost, distributed_cost, quantum_maximize, setup_subset

# Declared bound constants, asserted on every run (see acceptance suite):
# a windowed evaluation call, reversal included, costs at most 18*ecc(leader)
# + EVAL_ROUND_SLACK rounds, and the coordinator's peak quantum memory stays
# below LEADER_QUBIT_C2 * ceil(log2 n)^2.
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


@dataclass(frozen=True, eq=False)
class Prepared:
    """A graph's classical preparation, which every algorithm starts with:
    its all-sources distance matrix ``dist`` (read-only), which every later
    phase reads, the elected leader's BFS tree ``tree`` (the leader and its
    eccentricity are ``tree.leader`` and ``tree.ecc_leader``), and
    ``report``, the cost of the election and the tree.  Runs on one
    ``Prepared`` share it; none changes it or keeps a reference to it."""

    g: Graph
    dist: np.ndarray
    tree: BfsTreeState
    report: CostReport

    @property
    def n(self) -> int:
        return self.g.n


def prepare(g: Graph) -> Prepared:
    """Elect the minimum-id leader with its eccentricity and build its BFS
    tree, on the graph's distance matrix."""
    dist = all_sources_distances(g)
    dist.flags.writeable = False
    leader, _, rep_elect = elect_leader_and_ecc(g, dist)
    tree, rep_bfs = build_bfs_tree(g, leader, dist)
    return Prepared(g, dist, tree, rep_elect.merge(rep_bfs))


def _preparation(network: Graph | Prepared) -> Prepared:
    return network if isinstance(network, Prepared) else prepare(network)


def _trivial_result(n: int) -> DiameterResult:
    d = 0 if n == 1 else 1
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


def _search(
    tree: BfsTreeState,
    candidates: Collection[int],
    read: Callable[[int], Branch],
    t_eval_of: Callable[[set[int]], int],
    node_qubits: Sequence[int],
    prep: CostReport,
    t0: int,
    epsilon: float,
    delta: float | None,
    seed: int,
    details: dict,
) -> DiameterResult:
    """The search phase every algorithm ends in, coordinated by the root of
    ``tree``: read each candidate's branch row once, in ascending order,
    with ``read``, maximize over the candidates, charge each oracle call
    its forward pass and the cleanup reversal that mirrors it, T_eval =
    ``t_eval_of`` of the rows' doubled rounds and twice their most words,
    and check the coordinator's memory.  Node v holds ``node_qubits[v]``
    qubits in a branch; ``prep`` is the preparation, ending at round ``t0``."""
    n, d = tree.n, tree.ecc_leader
    rows = {u0: read(u0) for u0 in sorted(candidates)}
    values = [0] * n  # entries outside the candidates are never read
    for u0, row in rows.items():
        values[u0] = row.value
    delta = _poly_delta(n) if delta is None else delta
    best, cost = quantum_maximize(
        values, setup_subset(n, candidates), QOptConfig(epsilon, delta, seed)
    )
    t_eval = t_eval_of({2 * row.rounds for row in rows.values()})
    words_eval = 2 * max(row.words for row in rows.values())
    report = distributed_cost(
        prep, t0, d, t_eval, words_eval, cost, node_qubits, epsilon, tree.leader
    )
    _check_leader_memory(report)
    return DiameterResult(
        values[best], report, cost, t0, d, t_eval, d, epsilon, details=details
    )


def _windowed_evaluation(
    g: Graph, tree: BfsTreeState, dist: np.ndarray, support: frozenset[int]
) -> tuple[Callable[[int], Branch], Callable[[set[int]], int], tuple[int, ...]]:
    """The windowed evaluation over ``support`` as ``_search`` reads it: the
    branch reader, T_eval of the charged rounds, which must be branch-uniform
    and at most 18*ecc(root) + EVAL_ROUND_SLACK, and the qubits per node."""
    ectx = make_eval_context(g, tree, dist, support)

    def t_eval_of(rounds: set[int]) -> int:
        if len(rounds) != 1:
            raise AlgorithmError(f"evaluation cost must be branch-uniform, got {rounds}")
        t_eval = rounds.pop()
        if t_eval > 18 * tree.ecc_leader + EVAL_ROUND_SLACK:
            raise AlgorithmError(
                f"evaluation took {t_eval} rounds, exceeding 18*{tree.ecc_leader}+{EVAL_ROUND_SLACK}"
            )
        return t_eval

    return (lambda u0: evaluation_procedure(ectx, u0)), t_eval_of, ectx.quantum_bits


def exact_diameter_simple(
    network: Graph | Prepared, seed: int = 0, delta: float | None = None
) -> DiameterResult:
    """Maximize plain eccentricity over all nodes: O(sqrt(n) * D) rounds."""
    if network.n <= 2:
        return _trivial_result(network.n)
    prep = _preparation(network)
    g, tree = prep.g, prep.tree
    table = simple_eval_table(g, tree, prep.dist)
    return _search(
        tree, range(g.n), lambda u0: eccentricity_simple_eval(g, tree, u0, table), max,
        [simple_eval_register_bits(g.n)] * g.n, prep.report, prep.report.rounds,
        epsilon=1.0 / g.n, delta=delta, seed=seed, details={"leader": tree.leader},
    )


def exact_diameter(
    network: Graph | Prepared, seed: int = 0, delta: float | None = None
) -> DiameterResult:
    """Exact diameter in O(sqrt(n*D)) charged rounds.

    Maximizes f(u0) = max eccentricity over the DFS window of u0; the window
    width 2*ecc(leader) puts probability mass at least d/2n on maximizing
    candidates, which sets the amplification schedule.
    """
    if network.n <= 2:
        return _trivial_result(network.n)
    prep = _preparation(network)
    tree, support = prep.tree, frozenset(range(prep.n))
    return _search(
        tree, support, *_windowed_evaluation(prep.g, tree, prep.dist, support),
        prep.report, prep.report.rounds,
        epsilon=min(1.0, tree.ecc_leader / (2.0 * prep.n)), delta=delta, seed=seed,
        details={"leader": tree.leader},
    )


def _sample_landmarks(n: int, s: int, rng: random.Random) -> list[int]:
    p = min(1.0, math.log2(max(n, 2)) / s)
    return [v for v in range(n) if rng.random() < p]


def approx_diameter(
    network: Graph | Prepared, seed: int = 0, delta: float | None = None
) -> DiameterResult:
    """3/2-approximation: returns D_bar with D_bar <= D <= ceil(3*D_bar/2).

    Classical preparation (landmark sampling, landmark BFS trees with their
    eccentricities as byproducts, the farthest-from-landmarks node w, the
    BFS tree of w, the |R| nodes closest to w) followed by the windowed
    maximization restricted to R with windows modulo 2|R|.  The answer is
    the maximum eccentricity computed anywhere: over the landmarks, at w,
    and by the quantum phase over R.
    """
    if network.n <= 2:
        return _trivial_result(network.n)
    prep = _preparation(network)
    g, dist, tree_leader, n = prep.g, prep.dist, prep.tree, prep.n
    d_leader = tree_leader.ecc_leader

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

    closest, rep_ms = multi_source_bfs(g, landmarks, dist)
    values = {v: closest[v][0] for v in range(n)}
    _, w, rep_ag = argmax_convergecast(g, tree_leader, values, dist)

    # the landmark BFS trees give every landmark its eccentricity; their
    # pipelined cost is |S| + 2*ecc(leader) rounds on top of the flood above
    ecc_landmarks = int(dist[landmarks].max())

    tree_w, rep_w = build_bfs_tree(g, w, dist)
    d = tree_w.ecc_leader
    r_set = frozenset(dist[w].argsort(kind="stable")[:s].tolist())
    # the |R| closest nodes form a parent-closed subtree: a parent is
    # strictly closer to w, hence ranked strictly earlier
    report = prep.report.merge(rep_ms).merge(rep_ag).merge(rep_w)
    t0 = report.rounds + (len(landmarks) + 2 * d_leader) + (s + d)

    result = _search(
        tree_w, r_set, *_windowed_evaluation(g, tree_w, dist, r_set), report, t0,
        epsilon=min(1.0, d / (2.0 * len(r_set))), delta=delta, seed=seed,
        details={
            "leader": tree_leader.leader,
            "w": w,
            "s": s,
            "r_size": len(r_set),
            "landmarks": len(landmarks),
        },
    )
    result.details["d_quantum"] = result.d_out
    result.d_out = max(result.d_out, ecc_landmarks, d)
    return result


def approx_guarantee_holds(d_bar: int, d_true: int) -> bool:
    return d_bar <= d_true <= math.ceil(3 * d_bar / 2)
