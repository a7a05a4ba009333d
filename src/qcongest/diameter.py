"""End-to-end diameter algorithms: simple exact, windowed exact, and the
3/2-approximation.

All three elect the minimum-id leader and build its BFS tree, then end in
one search phase, ``_search``: it reads every candidate's branch once, in
ascending order, as a ``Branch`` row (value, rounds, words) of the forward
pass from a table that fills all candidates together, and maximizes over
those values with the amplitude-level search layer (Durr-Hoyer maximum
finding).  ``_search`` is the one place that charges a run.  Branches share
rounds (they run in superposition), so after the preparation's T0 rounds
each oracle call is charged once at max(T_setup, T_eval): T_setup = d, the
coordinator's eccentricity, and T_eval the network cost of one branch, its
forward pass and the cleanup reversal that mirrors it, twice the rows' most
rounds; each call sends twice the rows' most words.  Its report is the only
one that names a ``leader``: the search's coordinator, which is the elected
leader for the exact algorithms and the node w for the approximation.

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

from .engine import CostReport, EngineError, NodePeaks, id_bits
from .evaluation import evaluation_procedure, make_eval_context
from .graphs import Graph
from .procedures import (
    MIN_PROCEDURE_N,
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
from .qsearch import (
    QOptConfig,
    SearchCost,
    check_delta,
    quantum_maximize,
    setup_subset,
)

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
    epsilon: float
    details: dict = field(default_factory=dict)


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
        epsilon=1.0,
    )


def _check_node_memory(report: CostReport) -> None:
    """Every node's peak qubits against (6L + 9)(L + 1), L = ceil(log2 n),
    the bound the register formulas imply: a node's branch register is at
    most 5L + 9 qubits (``_eval_field_bits``; the simple evaluation's is
    4L), and the coordinator holds it and its L-qubit index once per
    threshold phase, ceil(log2(1/eps)) <= L + 1 times, since every
    algorithm searches with eps >= 1/(2n)."""
    qubits = report.per_node_peak_qubits
    L = id_bits(len(qubits))
    limit = (6 * L + 9) * (L + 1)
    if max(qubits) > limit:
        v = next(v for v, held in enumerate(qubits) if held > limit)
        raise AlgorithmError(f"node {v} peak {qubits[v]} qubits exceeds {limit} = (6L+9)(L+1)")


def _search(
    tree: BfsTreeState,
    candidates: Collection[int],
    read: Callable[[int], Branch],
    node_qubits: Sequence[int],
    prep: CostReport,
    epsilon: float,
    delta: float | None,
    seed: int,
    details: dict,
) -> DiameterResult:
    """The search phase every algorithm ends in, coordinated by the root of
    ``tree``, and the run's report: read each candidate's branch row once,
    in ascending order, with ``read``, maximize over the candidates, and
    charge the run after the preparation ``prep`` as the module docstring
    states, over the rows read.  Node v holds ``node_qubits[v]`` qubits in a
    branch; the coordinator also stores one amplification outcome per
    threshold phase, so its peak is (max(node_qubits) + log|X|) * log(1/eps);
    no lemma is cited yet for charging its whole register ceil(log2(1/eps))
    times.  Classical peaks are copies of ``prep``'s.  Every node's memory
    is then checked."""
    n, d, leader = tree.n, tree.ecc_leader, tree.leader
    rows = {u0: read(u0) for u0 in sorted(candidates)}
    values = [0] * n  # entries outside the candidates are never read
    for u0, row in rows.items():
        values[u0] = row.value
    delta = 1.0 / max(4, n * n) if delta is None else delta  # 1/n^2, at most 1/4
    best, cost = quantum_maximize(
        values, setup_subset(n, candidates), QOptConfig(epsilon, delta, seed)
    )
    t_eval = 2 * max(row.rounds for row in rows.values())
    words_per_call = 2 * max(row.words for row in rows.values())
    qubits = NodePeaks(node_qubits)
    qubits[leader] = (max(node_qubits) + id_bits(n)) * max(1, math.ceil(math.log2(1.0 / epsilon)))
    report = CostReport(
        rounds=prep.rounds + cost.total_calls * max(d, t_eval),
        total_words=prep.total_words + cost.total_calls * words_per_call,
        per_node_peak_bits=NodePeaks(prep.per_node_peak_bits),
        per_node_peak_qubits=qubits,
        leader=leader,
    )
    _check_node_memory(report)
    return DiameterResult(
        values[best], report, cost, prep.rounds, d, t_eval, epsilon, details=details
    )


def _windowed_evaluation(
    g: Graph, tree: BfsTreeState, dist: np.ndarray, support: frozenset[int]
) -> tuple[Callable[[int], Branch], tuple[int, ...]]:
    """The windowed evaluation over ``support`` as ``_search`` reads it: the
    branch reader, which refuses a row off the 9d + 1 forward rounds of the
    schedule, and the qubits per node."""
    ectx = make_eval_context(g, tree, dist, support)
    schedule = ectx.total_rounds

    def read(u0: int) -> Branch:
        row = evaluation_procedure(ectx, u0)
        if row.rounds != schedule:
            raise AlgorithmError(
                f"evaluation of u0={u0} ran {row.rounds} rounds, off the 9d+1 schedule"
            )
        return row

    return read, ectx.quantum_bits


def exact_diameter_simple(
    network: Graph | Prepared, seed: int = 0, delta: float | None = None
) -> DiameterResult:
    """Maximize plain eccentricity over all nodes: O(sqrt(n) * D) rounds."""
    if delta is not None:
        check_delta(delta)  # before any work
    if network.n < MIN_PROCEDURE_N:
        return _trivial_result(network.n)
    prep = _preparation(network)
    g, tree = prep.g, prep.tree
    table = simple_eval_table(g, tree, prep.dist)
    return _search(
        tree, range(g.n), lambda u0: eccentricity_simple_eval(g, tree, u0, table),
        [simple_eval_register_bits(g.n)] * g.n, prep.report,
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
    if delta is not None:
        check_delta(delta)  # before any work
    if network.n < MIN_PROCEDURE_N:
        return _trivial_result(network.n)
    prep = _preparation(network)
    tree, support = prep.tree, frozenset(range(prep.n))
    return _search(
        tree, support, *_windowed_evaluation(prep.g, tree, prep.dist, support), prep.report,
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
    if delta is not None:
        check_delta(delta)  # before any work
    if network.n < MIN_PROCEDURE_N:
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
    rep_landmarks = CostReport(rounds=len(landmarks) + 2 * d_leader)

    tree_w, rep_w = build_bfs_tree(g, w, dist)
    d = tree_w.ecc_leader
    r_set = frozenset(dist[w].argsort(kind="stable")[:s].tolist())
    # the |R| closest nodes form a parent-closed subtree: a parent is
    # strictly closer to w, hence ranked strictly earlier; selecting them
    # costs s + d rounds
    rep_r = CostReport(rounds=s + d)
    report = prep.report.merge(rep_ms).merge(rep_ag).merge(rep_landmarks).merge(rep_w).merge(rep_r)

    result = _search(
        tree_w, r_set, *_windowed_evaluation(g, tree_w, dist, r_set), report,
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
