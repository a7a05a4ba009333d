"""Exact simulation of the search layer: amplitude amplification, maximum
finding, and the distributed round/memory accounting that goes with them.

Exactness argument, stated once here: in every algorithm of this repo the
registers outside the coordinator's index register hold a fixed classical
function of the searched index x (the same deterministic procedure runs on
every branch), so the joint state is always sum_x alpha_x |x>|data(x)> and
a complex amplitude per branch is a lossless representation.  No
inter-branch entanglement beyond the index register can arise, hence the
whole quantum layer reduces to bookkeeping on an amplitude map.

Cost accounting: one amplification iteration applies the evaluation (the
marking oracle), its inverse, and the setup reflection (setup + inverse
setup); measuring restarts from a fresh setup.  Branches share rounds, so a
run over the network charges T0 + (#calls) * max(T_setup, T_eval) rounds.
The iteration schedule is the randomized growing-threshold one (counts
uniform in [0, m), m growing by 6/5 up to ceil(1/sqrt(eps))), repeated
ceil(log2(1/delta)) times per decision, which meets the declared worst-case
call budget CALL_BUDGET_C1 * sqrt(ln(1/delta)/eps) per decision.

Maximum finding follows Durr-Hoyer: per threshold a it runs one decision at
the target eps for {x : f(x) > a}, raises a to the value found on success,
and stops at the first failure.  The decision's promise (marked mass 0 or
at least eps) holds at every step: while a is below the maximum every
maximizer is marked, and eps lower-bounds the setup mass on maximizers.  A
run therefore pays O(sqrt(1/eps)) expected calls per threshold raise and
exactly one failing decision, at the end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .engine import CostReport

# Declared engineering constants (empirically validated, see tests):
# worst-case Setup+Evaluation+inverse calls per amplification decision is
# CALL_BUDGET_C1 * sqrt(ln(1/delta)/eps); a maximization run aborts once
# CALL_BUDGET_C1 * sqrt(ln(1/delta)/eps) * (ceil(log2(1/eps)) + 2) calls
# have been spent and returns its current threshold; the log factor covers
# the expected O(log(1/eps)) threshold raises of a run.  The constant absorbs
# the ceil(log2(1/delta)) repetition overhead of the randomized iteration
# schedule at desk scales (delta >= 1/n^2 for n up to a few hundred).
CALL_BUDGET_C1 = 128.0

MAX_BRANCHES = 1 << 20
_NORM_TOL = 1e-9


class SearchError(ValueError):
    pass


@dataclass
class AmplitudeState:
    """Normalized complex amplitude per candidate plus the setup reference."""

    candidates: tuple[int, ...]
    amps: np.ndarray
    setup_amps: np.ndarray

    def __post_init__(self) -> None:
        if len(self.candidates) == 0:
            raise SearchError("empty candidate set")
        if len(self.candidates) > MAX_BRANCHES:
            raise SearchError(f"more than {MAX_BRANCHES} branches")
        for arr in (self.amps, self.setup_amps):
            norm = float(np.sum(np.abs(arr) ** 2))
            if abs(norm - 1.0) > _NORM_TOL:
                raise SearchError(f"state not normalized: |psi|^2 = {norm}")

    def probability(self, mask: np.ndarray) -> float:
        return float(np.sum(np.abs(self.amps[mask]) ** 2))

    def measure(self, rng: np.random.Generator) -> int:
        p = np.abs(self.amps) ** 2
        p = p / p.sum()
        return int(rng.choice(len(self.candidates), p=p))


def setup_uniform(candidates: Sequence[int]) -> AmplitudeState:
    xs = tuple(candidates)
    amps = np.full(len(xs), 1.0 / math.sqrt(len(xs)), dtype=complex)
    return AmplitudeState(xs, amps.copy(), amps.copy())


def setup_subset(candidates: Sequence[int], support: Iterable[int]) -> AmplitudeState:
    """Uniform over ``support``, zero elsewhere."""
    xs = tuple(candidates)
    sup = frozenset(support)
    if not sup:
        raise SearchError("empty support")
    if not sup <= set(xs):
        raise SearchError("support not contained in the candidate set")
    amps = np.zeros(len(xs), dtype=complex)
    for i, x in enumerate(xs):
        if x in sup:
            amps[i] = 1.0 / math.sqrt(len(sup))
    return AmplitudeState(xs, amps.copy(), amps.copy())


def _marked_mask(state: AmplitudeState, marked: Callable[[int], bool]) -> np.ndarray:
    """Mark bits per branch; branches outside the setup support carry zero
    amplitude forever, so the oracle is never consulted there."""
    support = np.abs(state.setup_amps) > 0.0
    mask = np.zeros(len(state.candidates), dtype=bool)
    for i, x in enumerate(state.candidates):
        if support[i]:
            mask[i] = bool(marked(x))
    return mask


def grover_iterate(
    state: AmplitudeState, marked: Callable[[int], bool]
) -> AmplitudeState:
    """One amplification iteration: flip marked branches, reflect about setup."""
    return _grover_step(state, _marked_mask(state, marked))


def _grover_step(state: AmplitudeState, mask: np.ndarray) -> AmplitudeState:
    amps = state.amps.copy()
    amps[mask] = -amps[mask]
    overlap = np.vdot(state.setup_amps, amps)
    amps = 2.0 * overlap * state.setup_amps - amps
    return AmplitudeState(state.candidates, amps, state.setup_amps)


@dataclass
class SearchCost:
    """Oracle-call counts and the derived distributed costs."""

    setup_calls: int = 0
    eval_calls: int = 0
    inverse_calls: int = 0
    rounds_charged: int = 0
    leader_qubits_peak: int = 0
    node_qubits_peak: int = 0

    @property
    def total_calls(self) -> int:
        return self.setup_calls + self.eval_calls + self.inverse_calls

    def add(self, other: "SearchCost") -> None:
        self.setup_calls += other.setup_calls
        self.eval_calls += other.eval_calls
        self.inverse_calls += other.inverse_calls


@dataclass(frozen=True)
class QOptConfig:
    """Parameters of a maximization run.

    ``epsilon`` lower-bounds the setup probability mass on maximizing
    candidates; ``delta`` is the admissible failure probability.
    """

    epsilon: float
    delta: float
    seed: int = 0
    max_phases: int = 10_000

    def __post_init__(self) -> None:
        if not (0.0 < self.epsilon <= 1.0):
            raise SearchError(f"epsilon must be in (0, 1], got {self.epsilon}")
        if not (0.0 < self.delta < 1.0):
            raise SearchError(f"delta must be in (0, 1), got {self.delta}")


def decide_call_budget(epsilon: float, delta: float) -> int:
    return math.ceil(CALL_BUDGET_C1 * math.sqrt(math.log(1.0 / delta) / epsilon))


def maximize_call_budget(epsilon: float, delta: float) -> int:
    return decide_call_budget(epsilon, delta) * (
        math.ceil(math.log2(1.0 / epsilon)) + 2
    )


def amplitude_amplify_decide(
    state0: AmplitudeState,
    marked: Callable[[int], bool],
    epsilon: float,
    delta: float,
    rng: np.random.Generator | int,
) -> tuple[int | None, SearchCost]:
    """Decide whether any branch is marked, under the promise that the marked
    probability mass is 0 or at least ``epsilon``.

    Returns a sampled marked candidate (branch x with conditional probability
    |alpha_x|^2 / P_M) or None, plus the oracle-call counts.  Measurement is
    simulated by seeded sampling from the exact final amplitudes.
    """
    if not (0.0 < epsilon <= 1.0) or not (0.0 < delta < 1.0):
        raise SearchError("invalid epsilon or delta")
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(int(rng))
    cost = SearchCost()
    mask = _marked_mask(state0, marked)
    m_cap = max(1.0, math.ceil(1.0 / math.sqrt(epsilon)))
    reps = max(1, math.ceil(math.log2(1.0 / delta)))
    for _ in range(reps):
        m = 1.0
        while True:
            j = int(rng.integers(0, max(1, int(m))))
            state = AmplitudeState(
                state0.candidates, state0.setup_amps.copy(), state0.setup_amps
            )
            cost.setup_calls += 1
            for _ in range(j):
                state = _grover_step(state, mask)
                cost.eval_calls += 1
                cost.setup_calls += 1
                cost.inverse_calls += 2
            i = state.measure(rng)
            cost.eval_calls += 1  # classical check of the measured branch
            if mask[i]:
                return state.candidates[i], cost
            if m >= m_cap:
                break
            m = min(m * 6.0 / 5.0, m_cap)
    return None, cost


def quantum_maximize(
    f_oracle: Callable[[int], int],
    state0: AmplitudeState,
    config: QOptConfig,
) -> tuple[int, SearchCost]:
    """Return an argmax of f over the setup support, w.p. >= 1 - delta.

    Runs the Durr-Hoyer threshold loop: per threshold a, one decision at
    ``config.epsilon`` for {x : f(x) > a}; raise a to the value found on
    success and stop at the first failure.  While a is below the maximum
    every maximizer is marked, so the marked mass is at least epsilon and
    the decision's promise holds.  The computation aborts with the current
    threshold element once the worst-case call budget is spent.  f is
    evaluated once per distinct branch (cached).
    """
    rng = np.random.default_rng(config.seed)
    cost = SearchCost()
    cache: dict[int, int] = {}

    def f(x: int) -> int:
        if x not in cache:
            cache[x] = int(f_oracle(x))
        return cache[x]

    support = [
        x for x, a in zip(state0.candidates, state0.setup_amps) if abs(a) > 0.0
    ]
    if not support:
        raise SearchError("setup state has empty support")
    best = min(support)  # fixed deterministic starting element
    best_val = f(best)
    cost.eval_calls += 1
    budget = maximize_call_budget(config.epsilon, config.delta)
    for _ in range(config.max_phases):
        found, sub = amplitude_amplify_decide(
            state0,
            lambda x: f(x) > best_val,
            config.epsilon,
            config.delta,
            rng,
        )
        cost.add(sub)
        if found is None:
            break
        best, best_val = found, f(found)
        if cost.total_calls > budget:
            break  # abort: too many resources used, output the current value
    return best, cost


def distributed_cost(
    t0: int,
    t_setup: int,
    t_eval: int,
    calls: SearchCost,
    s_node_qubits: int,
    epsilon: float,
    n_candidates: int,
    leader: int | None = None,
) -> CostReport:
    """Network cost of a maximization run.

    Branches share rounds (they run in superposition), so each oracle call
    is charged once at the slower of setup and evaluation.  The coordinator
    additionally stores one amplification outcome per threshold phase,
    costing a log(1/eps) factor on top of its log|X| index register.
    """
    per_call = max(t_setup, t_eval)
    rounds = t0 + calls.total_calls * per_call
    log_eps = max(1, math.ceil(math.log2(1.0 / epsilon)))
    index_bits = max(1, (max(n_candidates, 2) - 1).bit_length())
    leader_qubits = s_node_qubits * log_eps + index_bits * log_eps
    calls.rounds_charged = rounds
    calls.leader_qubits_peak = leader_qubits
    calls.node_qubits_peak = s_node_qubits
    report = CostReport(rounds=rounds, leader=leader)
    if leader is not None:
        report.per_node_peak_qubits = {leader: leader_qubits}
    return report
