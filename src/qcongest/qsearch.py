"""Exact simulation of the search layer: amplitude amplification, maximum
finding, and the distributed round/memory accounting that goes with them.

Exactness argument, stated once here: in every algorithm of this repo the
registers outside the coordinator's index register hold a fixed classical
function of the searched index x (the same deterministic procedure runs on
every branch), so the joint state is always sum_x alpha_x |x>|data(x)> and
a complex amplitude per branch is a lossless representation.  No
inter-branch entanglement beyond the index register can arise, hence the
whole quantum layer reduces to bookkeeping on an amplitude vector, indexed
by the branch x in 0..N-1 (a node id), as are the values and the marks.

A decision does not step that vector.  Flipping the marked branches and
reflecting about the setup state both keep the state in the plane of the
setup's marked and unmarked parts, where one iteration is a rotation by
2*theta, sin^2(theta) being the marked setup mass (Boyer-Brassard-Hoyer-Tapp
1998).  So a try after j iterations succeeds with probability
sin^2((2j+1)theta), and a success lands on marked branch x with probability
|alpha_x|^2 / sin^2(theta), whatever j is; a failure needs no branch.  A
decision draws all its tries' j in one ``Generator.integers`` call and their
outcomes in one ``Generator.random`` call, charges the tries up to the first
success, and on a success draws one more value on the cumulative marked
setup mass to pick the branch.  ``grover_iterate`` (the two reflections
applied to the amplitude vector) is the one reference that law is tested and
verified against.

Cost accounting: one amplification iteration applies the evaluation (the
marking oracle), its inverse, and the setup reflection (setup + inverse
setup); measuring restarts from a fresh setup.  Branches share rounds, so a
run over the network charges T0 + (#calls) * max(T_setup, T_eval) rounds,
T_eval being a branch's forward pass and its reversal (``diameter._search``).
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
from typing import Iterable, Sequence

import numpy as np

from .engine import CostReport, NodePeaks, id_bits

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

_TWO32 = 1 << 32


class SearchError(ValueError):
    pass


@dataclass
class AmplitudeState:
    """Normalized complex amplitude per branch 0..N-1 plus the setup reference."""

    amps: np.ndarray
    setup_amps: np.ndarray

    def __post_init__(self) -> None:
        if len(self.setup_amps) > MAX_BRANCHES:
            raise SearchError(f"more than {MAX_BRANCHES} branches")
        if self.amps.shape != self.setup_amps.shape:
            raise SearchError(
                f"amplitudes of shape {self.amps.shape} do not match the setup's {self.setup_amps.shape}"
            )
        for arr in (self.amps, self.setup_amps):
            norm = float(np.add.reduce(np.abs(arr) ** 2, axis=None))
            if not abs(norm - 1.0) <= _NORM_TOL:
                raise SearchError(f"state not normalized: |psi|^2 = {norm}")


def setup_uniform(n: int) -> AmplitudeState:
    """Uniform over the branches 0..n-1."""
    return setup_subset(n, range(n))


def setup_subset(n: int, support: Iterable[int]) -> AmplitudeState:
    """Uniform over the branches in ``support``, zero on the rest of 0..n-1."""
    sup = np.array(sorted(set(support)))
    if sup.size == 0:
        raise SearchError("empty support")
    if sup.dtype.kind not in "iu" or sup[0] < 0 or sup[-1] >= n:
        raise SearchError(f"support not within the branches 0..{n - 1}")
    amps = np.zeros(n, dtype=complex)
    amps[sup] = 1.0 / math.sqrt(sup.size)
    return AmplitudeState(amps, amps.copy())


def grover_iterate(state: AmplitudeState, marked: np.ndarray) -> AmplitudeState:
    """One amplification iteration: flip the marked branches, then reflect
    about the setup state.

    ``marked`` holds one bool per branch, as in ``amplitude_amplify_decide``;
    on a state reached from the setup, a mark outside its support flips a
    zero amplitude."""
    mask = _marks(state, marked)
    amps = state.amps.copy()
    amps[mask] = -amps[mask]
    overlap = np.vdot(state.setup_amps, amps)
    amps = 2.0 * overlap * state.setup_amps - amps
    return AmplitudeState(amps, state.setup_amps)


@dataclass
class SearchCost:
    """Oracle-call counts of a search."""

    setup_calls: int = 0
    eval_calls: int = 0
    inverse_calls: int = 0

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
    branches; ``delta`` is the admissible failure probability.
    """

    epsilon: float
    delta: float
    seed: int = 0

    def __post_init__(self) -> None:
        if not (0.0 < self.epsilon <= 1.0):
            raise SearchError(f"epsilon must be in (0, 1], got {self.epsilon}")
        if not valid_delta(self.delta):
            raise SearchError(f"delta must be in (0, 1) with 1/delta finite, got {self.delta}")


def valid_delta(delta: float) -> bool:
    """Whether a search can be run at failure probability ``delta``: it must
    lie in (0, 1), and 1/delta must be finite, since the call budget and the
    repetition count grow with log(1/delta)."""
    return 0.0 < delta < 1.0 and math.isfinite(1.0 / delta)


def decide_call_budget(epsilon: float, delta: float) -> int:
    return math.ceil(CALL_BUDGET_C1 * math.sqrt(math.log(1.0 / delta) / epsilon))


def maximize_call_budget(epsilon: float, delta: float) -> int:
    return decide_call_budget(epsilon, delta) * (
        math.ceil(math.log2(1.0 / epsilon)) + 2
    )


def _per_branch(state: AmplitudeState, arr, what: str) -> np.ndarray:
    out = np.asarray(arr)
    if out.shape != state.setup_amps.shape:
        raise SearchError(
            f"{what} needs one entry per branch ({len(state.setup_amps)}), "
            f"got shape {out.shape}"
        )
    return out


def _marks(state: AmplitudeState, marked) -> np.ndarray:
    mask = _per_branch(state, marked, "marked")
    if mask.dtype != bool:
        raise SearchError(f"marked must be a bool array, got {mask.dtype}")
    return mask


def _generator(rng) -> np.random.Generator:
    """``rng`` itself if it is a ``Generator``, ``default_rng(rng)`` if it
    is an int seed; anything else is refused."""
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, (int, np.integer)):
        return np.random.default_rng(int(rng))
    raise SearchError(
        f"a search needs a numpy Generator or an int seed, got {type(rng).__name__}"
    )


def amplitude_amplify_decide(
    state0: AmplitudeState,
    marked: np.ndarray,
    epsilon: float,
    delta: float,
    rng: np.random.Generator | int,
) -> tuple[int | None, SearchCost]:
    """Decide whether any branch is marked, under the promise that the marked
    probability mass is 0 or at least ``epsilon``.

    ``marked`` holds one bool per branch.  Returns the index of a sampled
    marked branch (x with conditional probability |alpha_x|^2 / P_M) or
    None, plus the oracle-call counts.  Try t draws j_t uniformly below its
    bound and succeeds iff its uniform draw u_t < sin^2((2 j_t + 1) theta),
    the marked mass after j_t steps of ``grover_iterate``, where
    sin^2(theta) = P_M.  ``rng`` is a ``Generator`` or an int seed.  The
    decision makes one ``integers`` call that draws every try's j, one
    ``random`` call that draws every outcome and, on a success, one
    ``random()`` that picks the branch.
    """
    mask = _marks(state0, marked)
    if not (0.0 < epsilon <= 1.0) or not valid_delta(delta):
        raise SearchError("invalid epsilon or delta")
    m_cap = max(1.0, math.ceil(1.0 / math.sqrt(epsilon)))
    if m_cap > _TWO32:
        raise SearchError(f"epsilon {epsilon} needs more than 2^32 iterations")
    rng = _generator(rng)
    w = np.abs(state0.setup_amps) ** 2
    marked_mass = float(w[mask].sum())
    unmarked_mass = float(w[~mask].sum())
    total = marked_mass + unmarked_mass
    if not abs(total - 1.0) <= _NORM_TOL:
        raise SearchError(f"state not normalized: |psi|^2 = {total}")
    theta = math.atan2(math.sqrt(marked_mass), math.sqrt(unmarked_mass))
    # one repetition's iteration bounds: m grows by 6/5 up to m_cap
    bounds = [1]
    m = 1.0
    while m < m_cap:
        m = min(m * 6.0 / 5.0, m_cap)
        bounds.append(int(m))
    reps = max(1, math.ceil(math.log2(1.0 / delta)))
    js = rng.integers(0, np.array(bounds * reps))
    hits = (rng.random(js.size) < np.sin((2 * js + 1) * theta) ** 2).nonzero()[0]
    if hits.size == 0:
        return None, _decision_cost(js.size, int(js.sum()))
    tries = int(hits[0]) + 1
    branches = mask.nonzero()[0]
    cdf = w[branches].cumsum()
    cdf /= cdf[-1]
    found = int(branches[cdf.searchsorted(rng.random(), side="right")])
    return found, _decision_cost(tries, int(js[:tries].sum()))


def _decision_cost(tries: int, iterations: int) -> SearchCost:
    """Each try makes one setup, its j iterations of eval + setup + two
    inverses, and the classical check of the measured branch."""
    return SearchCost(
        setup_calls=tries + iterations,
        eval_calls=tries + iterations,
        inverse_calls=2 * iterations,
    )


def quantum_maximize(
    values: Sequence[int] | np.ndarray,
    state0: AmplitudeState,
    config: QOptConfig,
) -> tuple[int, SearchCost]:
    """Return an argmax of f over the setup support, w.p. >= 1 - delta.

    ``values`` holds f per branch; entries outside the setup support are
    never read.  Runs the Durr-Hoyer threshold loop from the first support
    index: per threshold a, one decision at ``config.epsilon`` on the mark
    support & (values > a); raise a to the value found on success and stop
    at the first failure.  While a is below the maximum every maximizer is
    marked, so the marked mass is at least epsilon and the decision's
    promise holds.  The computation aborts with the current threshold
    element once the worst-case call budget is spent.  The decisions share
    one generator made from ``config.seed``: each draws on where the
    previous one stopped.
    """
    vals = _per_branch(state0, values, "values")
    rng = _generator(config.seed)
    cost = SearchCost()
    support = np.abs(state0.setup_amps) > 0.0
    best = int(support.nonzero()[0][0])  # fixed start: the first support index
    cost.eval_calls += 1
    budget = maximize_call_budget(config.epsilon, config.delta)
    while True:
        found, sub = amplitude_amplify_decide(
            state0, support & (vals > vals[best]), config.epsilon, config.delta, rng
        )
        cost.add(sub)
        if found is None:
            break
        best = found
        if cost.total_calls > budget:
            break  # abort: too many resources used, output the current value
    return best, cost


def distributed_cost(
    prep: CostReport,
    t0: int,
    t_setup: int,
    t_eval: int,
    words_per_call: int,
    calls: SearchCost,
    node_qubits: Sequence[int],
    epsilon: float,
    leader: int,
) -> CostReport:
    """The complete network cost of a run: classical preparation ``prep``
    (ending at round ``t0``) followed by a maximization over one candidate
    per node.

    Branches share rounds (they run in superposition), so each oracle call
    is charged once at the slower of setup and evaluation, and sends
    ``words_per_call`` words.  Node v holds ``node_qubits[v]`` qubits; the
    coordinator additionally stores one amplification outcome per threshold
    phase, so its peak is (max(node_qubits) + log|X|) * log(1/eps).
    Classical peaks are those of ``prep``.  The report names ``leader`` as
    the run's coordinator.
    """
    log_eps = max(1, math.ceil(math.log2(1.0 / epsilon)))
    qubits = NodePeaks(node_qubits)
    qubits[leader] = (max(node_qubits) + id_bits(len(node_qubits))) * log_eps
    return CostReport(
        rounds=t0 + calls.total_calls * max(t_setup, t_eval),
        total_words=prep.total_words + calls.total_calls * words_per_call,
        per_node_peak_bits=NodePeaks(prep.per_node_peak_bits),
        per_node_peak_qubits=qubits,
        leader=leader,
    )
