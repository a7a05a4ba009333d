"""Output checks of the benchmark, independent of qcongest's own oracles.

Eccentricities come from the benchmark's own breadth-first search over the
graph's edge list (level-synchronous, as boolean reachability products), not
from ``qcongest.graphs``.  Every algorithm run is checked against them and
against the method's declared properties:

* exact and simple runs return the diameter; approximate runs return a
  ``d_bar`` with ``d_bar <= D <= ceil(3 * d_bar / 2)``;
* a windowed run (exact, approx) spends ``t_eval <= 18 * ecc(root) + 8``
  rounds per evaluation, where ``root`` is the tree root of its search phase;
* the search coordinator's peak qubits stay within ``16 * ceil(log2 n)**2``;
* the charged rounds equal ``t0 + calls * max(t_setup, t_eval)``;
* the oracle calls stay within ``maximize_call_budget(eps, delta)`` plus one
  ``decide_call_budget(eps, delta)``.
"""

from __future__ import annotations

import math

import numpy as np

from qcongest.harness import CSV_COLUMNS
from qcongest.qsearch import decide_call_budget, maximize_call_budget

EVAL_ROUNDS_PER_ECC = 18
EVAL_ROUND_SLACK = 8
LEADER_QUBIT_C2 = 16


def eccentricities(n: int, edges) -> list[int]:
    """Eccentricity of every node of a connected graph on ``range(n)``."""
    adj = np.zeros((n, n), dtype=np.float64)
    for u, v in edges:
        adj[u, v] = adj[v, u] = 1.0
    reach = np.eye(n, dtype=bool)
    ecc = [0] * n
    done = reach.all(axis=1)
    level = 0
    while not done.all():
        grown = reach | ((reach.astype(np.float64) @ adj) > 0.0)
        if np.array_equal(grown, reach):
            raise ValueError("graph is disconnected")
        level += 1
        reach = grown
        now_done = reach.all(axis=1)
        for v in np.flatnonzero(now_done & ~done):
            ecc[int(v)] = level
        done = now_done
    return ecc


def eccentricity(n: int, edges, source: int) -> int:
    """Eccentricity of ``source`` in a connected graph on ``range(n)``."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    dist = {source: 0}
    frontier = [source]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    if len(dist) != n:
        raise ValueError("graph is disconnected")
    return max(dist.values())


def default_delta(n: int) -> float:
    """The failure probability the algorithms use when none is given: 1/n^2."""
    return 1.0 / max(4, n * n)


def check_result(algo: str, n: int, result, ecc: list[int]) -> list[str]:
    """Every property of one algorithm run that does not hold, as text."""
    fails = []
    diam = max(ecc)
    if algo == "approx":
        if not (result.d_out <= diam <= math.ceil(3 * result.d_out / 2)):
            fails.append(f"approx d_bar={result.d_out} outside [2D/3, D] for D={diam}")
    elif result.d_out != diam:
        fails.append(f"{algo} returned {result.d_out}, diameter is {diam}")
    report = result.report
    root = report.leader
    if algo != "simple":
        limit = EVAL_ROUNDS_PER_ECC * ecc[root] + EVAL_ROUND_SLACK
        if result.t_eval > limit:
            fails.append(f"t_eval={result.t_eval} exceeds 18*ecc(root)+8={limit}")
    qubits = report.per_node_peak_qubits.get(root, 0)
    qubit_limit = LEADER_QUBIT_C2 * math.ceil(math.log2(n)) ** 2
    if qubits > qubit_limit:
        fails.append(f"leader holds {qubits} qubits, bound {qubit_limit}")
    calls = result.search.total_calls
    charged = result.t0 + calls * max(result.t_setup, result.t_eval)
    if report.rounds != charged:
        fails.append(f"charged rounds {report.rounds} != t0 + calls*max(t_setup, t_eval) = {charged}")
    delta = default_delta(n)
    budget = maximize_call_budget(result.epsilon, delta) + decide_call_budget(result.epsilon, delta)
    if calls > budget:
        fails.append(f"{calls} oracle calls exceed the budget {budget}")
    return fails


def check_row(row: dict, csv_line: str, result, ecc: list[int]) -> list[str]:
    """A harness row agrees with the run behind it and with the benchmark's
    own diameter, and its CSV line carries the row field by field."""
    leader = result.report.leader
    expected = {
        "D_true": max(ecc),
        "D_out": result.d_out,
        "rounds": result.report.rounds,
        "words": result.report.total_words,
        "leader_qubits": result.report.per_node_peak_qubits.get(leader, 0),
        "ok": 1,
    }
    fails = [
        f"row {key}={row[key]}, expected {value}"
        for key, value in expected.items()
        if row[key] != value
    ]
    if csv_line.split(",") != [str(row[key]) for key in CSV_COLUMNS]:
        fails.append(f"CSV line {csv_line!r} does not carry the row")
    return fails
