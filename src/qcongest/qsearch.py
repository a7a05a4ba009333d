"""Exact simulation of the search layer: amplitude amplification, maximum
finding, and their oracle-call budgets.  What a call costs the network is
charged by the caller (``diameter._search``).

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

Call accounting: one amplification iteration applies the evaluation (the
marking oracle), its inverse, and the setup reflection (setup + inverse
setup); measuring restarts from a fresh setup.  The iteration schedule is
the randomized growing-threshold one (counts uniform in [0, m), m growing
by 6/5 up to ceil(1/sqrt(eps))), repeated ceil(log2(1/delta)) times per
decision.  A failing decision's worst case, every try drawing m - 1
iterations, is ceil(log2(1/delta)) * sum over its bounds m of (2 + 4(m - 1))
calls.  At delta = 1/n^2 it stays within the declared budget
CALL_BUDGET_C1 * sqrt(ln(1/delta)/eps) for n <= 480 at eps = 1/(2n), the
exact algorithm's floor, and for n <= 676 at eps = 1/n, the simple
algorithm's, and exceeds it at many larger sizes (1.04x at n = 1024, 1/n).

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

# Declared engineering constant (empirically validated, see tests): a
# decision's Setup+Evaluation+inverse call budget is
# CALL_BUDGET_C1 * sqrt(ln(1/delta)/eps), which covers its worst case only at
# desk sizes ("Call accounting" above); a maximization run aborts once it
# has spent ceil(log2(1/eps)) + 2 decision budgets, which covers the
# expected O(log(1/eps)) threshold raises of a run.
CALL_BUDGET_C1 = 128.0

MAX_BRANCHES = 1 << 20
_NORM_TOL = 1e-9


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
    branches and ``delta`` is the admissible failure probability; both are
    checked when the config is built (``check_epsilon``, ``check_delta``).
    """

    epsilon: float
    delta: float
    seed: int = 0

    def __post_init__(self) -> None:
        check_epsilon(self.epsilon)
        check_delta(self.delta)


def check_epsilon(epsilon: float) -> int:
    """Refuse an ``epsilon`` outside (0, 1] or whose iteration cap
    ceil(1/sqrt(epsilon)) exceeds 2^32; return the cap."""
    if not (0.0 < epsilon <= 1.0):
        raise SearchError(f"epsilon must be in (0, 1], got {epsilon}")
    m_cap = math.ceil(1.0 / math.sqrt(epsilon))
    if m_cap > 1 << 32:
        raise SearchError(f"epsilon {epsilon} needs more than 2^32 iterations")
    return m_cap


def check_delta(delta: float) -> None:
    """Refuse a failure probability no search can run at: ``delta`` must
    lie in (0, 1), and 1/delta must be finite, since the call budget and the
    repetition count grow with log(1/delta)."""
    if not (0.0 < delta < 1.0 and math.isfinite(1.0 / delta)):
        raise SearchError(f"delta must be in (0, 1) with 1/delta finite, got {delta}")


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
    m_cap = check_epsilon(epsilon)
    check_delta(delta)
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
    never read.  Runs the Durr-Hoyer threshold loop (module docstring) from
    the first support index, on the marks support & (values > a), and
    aborts with the current threshold element once ``maximize_call_budget``
    is spent.  The decisions share one generator made from
    ``config.seed``: each draws on where the previous one stopped.
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
