from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qcongest import diameter, graphs, qsearch
from qcongest.qsearch import (
    AmplitudeState,
    QOptConfig,
    SearchCost,
    SearchError,
    amplitude_amplify_decide,
    decide_call_budget,
    grover_iterate,
    maximize_call_budget,
    quantum_maximize,
    setup_subset,
    setup_uniform,
)


def reflection_matrix_oracle(setup: np.ndarray, marked: np.ndarray) -> np.ndarray:
    """Independent route: the explicit product of the two reflections."""
    n = len(setup)
    flip = np.diag(np.where(marked, -1.0, 1.0).astype(complex))
    reflect = 2.0 * np.outer(setup, setup.conj()) - np.eye(n, dtype=complex)
    return reflect @ flip


def test_single_marked_of_four_is_exact():
    state = setup_uniform(4)
    state = grover_iterate(state, np.arange(4) == 3)
    assert abs(abs(state.amps[3]) ** 2 - 1.0) <= 1e-9


def test_empty_marked_fixes_the_start_state():
    state = setup_uniform(8)
    after = grover_iterate(state, np.zeros(8, bool))
    assert np.allclose(after.amps, state.amps, atol=1e-12)


def test_all_marked_keeps_success_probability_one():
    state = setup_uniform(8)
    for _ in range(5):
        state = grover_iterate(state, np.ones(8, bool))
        assert abs(np.sum(np.abs(state.amps) ** 2) - 1.0) <= 1e-9


@given(st.integers(2, 64), st.integers(0, 1000), st.integers(1, 4))
def test_iterate_equals_matrix_oracle(nx, seed, iters):
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=nx) + 1j * rng.normal(size=nx)
    setup = raw / np.linalg.norm(raw)
    marked = rng.random(nx) < 0.3
    state = AmplitudeState(setup.copy(), setup.copy())
    matrix = reflection_matrix_oracle(setup, marked)
    vec = setup.copy()
    for _ in range(iters):
        state = grover_iterate(state, marked)
        vec = matrix @ vec
    assert np.allclose(state.amps, vec, atol=1e-9)
    assert abs(np.sum(np.abs(state.amps) ** 2) - 1.0) <= 1e-9


def test_success_probability_recurrence():
    for j in range(1, 33):
        p = j / 64
        theta = math.asin(math.sqrt(p))
        state = setup_uniform(64)
        for k in range(1, 51):
            state = grover_iterate(state, np.arange(64) < j)
            expect = math.sin((2 * k + 1) * theta) ** 2
            got = float(np.sum(np.abs(state.amps[:j]) ** 2))
            assert abs(got - expect) <= 1e-9


def test_setup_states():
    assert np.allclose(setup_uniform(1).amps, [1.0])
    assert np.allclose(setup_uniform(4).amps, [0.5] * 4)
    state = setup_subset(10, {1, 4, 7})
    expect = np.zeros(10)
    expect[[1, 4, 7]] = 1 / math.sqrt(3)
    assert np.allclose(np.abs(state.amps), expect)


def test_setup_subset_rejects_bad_support():
    with pytest.raises(SearchError):
        setup_subset(4, set())
    for support in ({9}, {4}, {-1}, {0, -3}, {1.5}):
        with pytest.raises(SearchError, match="not within the branches 0..3"):
            setup_subset(4, support)


def test_setup_uniform_rejects_zero_branches():
    with pytest.raises(SearchError, match="empty support"):
        setup_uniform(0)


def test_decide_empty_marked_returns_none():
    state = setup_uniform(16)
    for seed in range(20):
        found, _ = amplitude_amplify_decide(state, np.zeros(16, bool), 0.25, 0.1, seed)
        assert found is None


def test_decide_success_rate():
    state = setup_uniform(16)
    marked = np.arange(16) < 4
    hits = sum(
        amplitude_amplify_decide(state, marked, 4 / 16, 0.1, seed)[0] is not None
        for seed in range(1000)
    )
    assert hits >= 900


def test_decide_output_distribution_uniform_over_marked():
    # conditional law over the marked set stays proportional to the setup
    state = setup_uniform(16)
    marked = np.arange(16) < 4
    counts = {x: 0 for x in range(4)}
    total = 0
    for seed in range(1000):
        found, _ = amplitude_amplify_decide(state, marked, 4 / 16, 0.1, seed)
        if found is not None:
            counts[found] += 1
            total += 1
    expect = total / 4
    sigma = math.sqrt(total * 0.25 * 0.75)
    for x, c in counts.items():
        assert abs(c - expect) <= 3 * sigma


def test_decide_call_budget_respected():
    state = setup_uniform(64)
    for eps, delta in [(1 / 64, 0.1), (0.25, 0.01), (1 / 32, 1 / 4096)]:
        _, cost = amplitude_amplify_decide(state, np.zeros(64, bool), eps, delta, 5)
        assert cost.total_calls <= decide_call_budget(eps, delta)


def test_maximize_constant_function():
    state = setup_uniform(8)
    best, _ = quantum_maximize([5] * 8, state, QOptConfig(0.5, 0.05, seed=3))
    assert best in range(8)


def test_maximize_small_instance():
    f = [3, 1, 4, 1]
    state = setup_uniform(4)
    wins = 0
    for seed in range(200):
        best, _ = quantum_maximize(f, state, QOptConfig(0.25, 0.05, seed=seed))
        wins += best == 2
    assert wins >= 190  # 1 - delta = 0.95


def test_maximize_restricted_support():
    f = [9, 1, 4, 1, 7, 2]
    state = setup_subset(6, {1, 2, 3})
    for seed in range(50):
        best, _ = quantum_maximize(f, state, QOptConfig(1 / 3, 0.05, seed=seed))
        assert best in {1, 2, 3}
    hits = sum(
        quantum_maximize(f, state, QOptConfig(1 / 3, 0.05, seed=s))[0] == 2
        for s in range(500)
    )
    assert hits >= 475


def test_maximize_empirical_success_many_instances():
    rng = np.random.default_rng(42)
    for trial in range(4):
        vals = rng.integers(0, 10, size=12)
        best_val = vals.max()
        p_opt = float(np.sum(vals == best_val)) / 12
        state = setup_uniform(12)
        good = sum(
            vals[quantum_maximize(vals, state, QOptConfig(p_opt, 0.1, seed=s))[0]]
            == best_val
            for s in range(500)
        )
        assert good >= 450  # 1 - delta


def test_maximize_cost_soundness():
    f = [0, 1, 2, 3, 4, 5, 6, 7]
    state = setup_uniform(8)
    for eps, delta in [(1 / 8, 0.05), (0.5, 0.01)]:
        _, cost = quantum_maximize(f, state, QOptConfig(eps, delta, seed=1))
        assert cost.total_calls <= maximize_call_budget(eps, delta)


def test_maximize_stops_after_one_decision_at_target_epsilon():
    # the start element min(support) = 0 is the maximum, so no threshold is
    # ever raised: the run is one f evaluation plus one failing decision at
    # config.epsilon, with the rng stream of that single decision
    f = [9, 3, 5, 1, 7, 2, 8, 4, 6, 0, 1, 2, 3, 4, 5, 6]
    state = setup_uniform(16)
    eps, delta, seed = 1 / 16, 0.05, 7
    best, cost = quantum_maximize(f, state, QOptConfig(eps, delta, seed=seed))
    found, decide = amplitude_amplify_decide(
        state, np.zeros(16, bool), eps, delta, np.random.default_rng(seed)
    )
    assert best == 0 and found is None
    assert cost.total_calls == 1 + decide.total_calls


def test_maximize_rejects_values_not_one_per_candidate():
    state = setup_uniform(4)
    for values in ([3, 1, 4], [[3, 1, 4, 1]], 5):
        with pytest.raises(SearchError):
            quantum_maximize(values, state, QOptConfig(0.25, 0.05))


def test_decide_rejects_marks_not_one_per_candidate():
    # the reference iteration takes and checks the same marks
    state = setup_uniform(4)
    for marked in (True, np.ones(3, bool), np.ones((4, 1), bool), np.array([0, 1, 0, 0])):
        with pytest.raises(SearchError):
            amplitude_amplify_decide(state, marked, 0.25, 0.1, 0)
        with pytest.raises(SearchError, match="marked"):
            grover_iterate(state, marked)


def test_config_validation():
    with pytest.raises(SearchError):
        QOptConfig(0.0, 0.1)
    with pytest.raises(SearchError):
        QOptConfig(0.5, 1.0)
    with pytest.raises(SearchError, match="1/delta finite"):
        QOptConfig(0.5, 1e-320)  # in (0, 1), but 1/delta overflows
    with pytest.raises(SearchError, match="1/delta finite"):
        amplitude_amplify_decide(setup_uniform(4), np.ones(4, bool), 0.5, 1e-320, 0)
    with pytest.raises(SearchError, match="2\\^32"):
        QOptConfig(2.0**-66, 0.5)  # no decision could run it
    QOptConfig(2.0**-64, 0.5)


@pytest.mark.parametrize("delta", [0.0, 1.0, 5.0, 1e-320, float("nan")])
def test_a_bad_delta_is_refused_with_one_text(delta):
    refused = rf"^delta must be in \(0, 1\) with 1/delta finite, got {delta}$"
    with pytest.raises(SearchError, match=refused):
        QOptConfig(0.5, delta)
    with pytest.raises(SearchError, match=refused):
        amplitude_amplify_decide(setup_uniform(4), np.ones(4, bool), 0.5, delta, 0)


class _LongestTries(np.random.Generator):
    """Draws every try's largest iteration count j = m - 1."""

    def integers(self, low, high):
        return np.asarray(high) - 1


@pytest.mark.parametrize("scale", [2, 1], ids=["eps=1/2n", "eps=1/n"])
def test_a_failing_decision_stays_within_its_budget_at_desk_sizes(scale):
    # the worst case of the decision's own schedule: every try draws m - 1
    # iterations and fails; the module docstring gives n = 480 as the last
    # size at which the exact algorithm's floor eps = 1/(2n) is covered
    state, unmarked = setup_uniform(4), np.zeros(4, bool)
    for n in range(3, 481):
        eps, delta = 1.0 / (scale * n), 1.0 / max(4, n * n)
        rng = _LongestTries(np.random.PCG64(0))
        found, cost = amplitude_amplify_decide(state, unmarked, eps, delta, rng)
        assert found is None
        assert cost.total_calls <= decide_call_budget(eps, delta), n


@given(st.integers(0, 500))
def test_determinism_per_seed(seed):
    f = [2, 7, 1, 8, 2, 8]
    state = setup_uniform(6)
    a = quantum_maximize(f, state, QOptConfig(1 / 3, 0.1, seed=seed))
    b = quantum_maximize(f, state, QOptConfig(1 / 3, 0.1, seed=seed))
    assert a[0] == b[0] and a[1].total_calls == b[1].total_calls


def _random_setup(rng: np.random.Generator, n: int, kind: str) -> np.ndarray:
    if kind == "uniform":
        return setup_uniform(n).setup_amps
    if kind == "subset":
        support = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
        return setup_subset(n, support.tolist()).setup_amps
    raw = rng.normal(size=n) + 1j * rng.normal(size=n)
    return raw / np.linalg.norm(raw)


def _random_mask(rng: np.random.Generator, n: int, kind: str) -> np.ndarray:
    if kind == "empty":
        return np.zeros(n, bool)
    if kind == "full":
        return np.ones(n, bool)
    return rng.random(n) < rng.random()


@given(
    st.integers(1, 64),
    st.integers(0, 10**6),
    st.sampled_from(["uniform", "subset", "general"]),
    st.sampled_from(["empty", "full", "random"]),
    st.integers(0, 60),
)
def test_grover_steps_follow_the_success_and_pick_laws(n, seed, setup_kind, mask_kind, j):
    rng = np.random.default_rng(seed)
    setup = _random_setup(rng, n, setup_kind)
    mask = _random_mask(rng, n, mask_kind)
    state = AmplitudeState(setup.copy(), setup.copy())
    for _ in range(j):
        state = grover_iterate(state, mask)
    on_marked = np.abs(state.amps[mask]) ** 2
    # the success law a decision draws its outcomes from
    w = np.abs(setup) ** 2
    mass = w[mask].sum()
    theta = math.atan2(math.sqrt(mass), math.sqrt(w[~mask].sum()))
    success = math.sin((2 * j + 1) * theta) ** 2
    assert abs(success - on_marked.sum()) <= 1e-12
    # the pick law: a success lands on x with probability w_x / P
    assert np.max(np.abs(on_marked * mass - success * w[mask]), initial=0.0) <= 1e-12


def _stepped_decide(state0, mask, epsilon, delta, rng):
    """Reference decision that steps the amplitude vector.  It makes the
    decision's generator calls: every try's j in one ``integers`` call, every
    outcome in one ``random`` call, and on a success one ``random()`` on the
    stepped vector's marked amplitudes.  Try t steps the vector j_t times
    with ``grover_iterate`` and succeeds iff u_t is below its marked mass."""
    m_cap = max(1.0, math.ceil(1.0 / math.sqrt(epsilon)))
    reps = max(1, math.ceil(math.log2(1.0 / delta)))
    bounds, m = [], 1.0
    while True:
        bounds.append(int(m))
        if m >= m_cap:
            break
        m = min(m * 6.0 / 5.0, m_cap)
    js = rng.integers(0, np.tile(bounds, reps))
    outcomes = rng.random(js.size)
    cost = SearchCost()
    for j, u in zip(js.tolist(), outcomes.tolist()):
        state = AmplitudeState(state0.setup_amps.copy(), state0.setup_amps)
        cost.setup_calls += 1
        for _ in range(j):
            state = grover_iterate(state, mask)
            cost.eval_calls += 1
            cost.setup_calls += 1
            cost.inverse_calls += 2
        cost.eval_calls += 1
        p = np.abs(state.amps[mask]) ** 2
        if u < p.sum():
            cdf = np.cumsum(p)
            i = np.searchsorted(cdf / cdf[-1], rng.random(), side="right")
            return int(np.flatnonzero(mask)[i]), cost
    return None, cost


def _decide_cases(count: int):
    """Seeded decisions: n in 1..64, marked mass 0, 1 or random, epsilon 1
    or at most the marked mass (often just below it), delta in (0, 1)."""
    rng = np.random.default_rng(2027)
    for case in range(count):
        n = int(rng.integers(1, 65))
        setup = _random_setup(rng, n, ("uniform", "subset", "general")[case % 3])
        mask_kind = ("empty", "full", "random", "random")[case % 4]
        mask = _random_mask(rng, n, mask_kind)
        marked_mass = float(np.sum(np.abs(setup[mask]) ** 2))
        if mask_kind != "random" or marked_mass == 0.0:
            epsilon = 1.0 if case % 3 else float(rng.uniform(0.01, 1.0))
        elif case % 2:
            epsilon = marked_mass * (1.0 - 1e-9)  # the mass is just above epsilon
        else:
            epsilon = marked_mass * float(rng.uniform(0.01, 1.0))
        delta = float(rng.uniform(0.001, 0.999))
        state = AmplitudeState(setup.copy(), setup.copy())
        yield state, mask, epsilon, delta, case


def test_decide_matches_the_stepped_reference():
    for state, mask, epsilon, delta, seed in _decide_cases(600):
        ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got = amplitude_amplify_decide(state, mask, epsilon, delta, ours)
        assert got == _stepped_decide(state, mask, epsilon, delta, ref), seed
        assert ours.bit_generator.state == ref.bit_generator.state


def _bench_size_cases():
    """Uniform decisions at bench scale: n in {80, 128, 256}, epsilon = 1/n
    and delta = 1/n^2, so a decision repeats each j many times; 0, 1 or a
    few marked branches."""
    rng = np.random.default_rng(14)
    for n in (80, 128, 256):
        state = setup_uniform(n)
        for marked_count in (0, 1, 3, 7):
            for _ in range(3):
                mask = np.zeros(n, bool)
                mask[rng.choice(n, size=marked_count, replace=False)] = True
                yield state, mask, 1.0 / n, 1.0 / n**2, int(rng.integers(2**32))


def test_decide_matches_the_stepped_reference_at_bench_size():
    for state, mask, epsilon, delta, seed in _bench_size_cases():
        ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got = amplitude_amplify_decide(state, mask, epsilon, delta, ours)
        assert got == _stepped_decide(state, mask, epsilon, delta, ref), seed
        assert ours.bit_generator.state == ref.bit_generator.state


def test_maximize_draws_every_decision_from_one_generator():
    # random values with ties, uniform, subset and general setups, epsilons
    # from 1 down to about 1/n, and deltas from 1/2 down to 1/n^2
    data = np.random.default_rng(21)
    for case in range(120):
        n = int(data.integers(2, 97))
        setup = _random_setup(data, n, ("uniform", "subset", "general")[case % 3])
        state = AmplitudeState(setup.copy(), setup.copy())
        values = data.integers(0, max(2, n // int(data.integers(1, 5))), size=n)
        eps = float(data.uniform(0.8, 1.0) / int(data.integers(1, n + 1)))
        delta = float(data.choice([0.5, 0.05, 1.0 / n**2]))
        config = QOptConfig(eps, delta, seed=int(data.integers(2**32)))
        # the threshold loop written out, its decisions on one generator
        rng = np.random.default_rng(config.seed)
        support = setup != 0
        best = int(np.flatnonzero(support)[0])
        cost = SearchCost(eval_calls=1)
        while True:
            found, sub = amplitude_amplify_decide(
                state, support & (values > values[best]), eps, delta, rng
            )
            cost.add(sub)
            if found is None:
                break
            best = found
            if cost.total_calls > maximize_call_budget(eps, delta):
                break
        assert quantum_maximize(values, state, config) == (best, cost), case


def test_decide_with_nothing_marked_rejects_a_nan_setup():
    state = setup_uniform(4)
    state.setup_amps[1] = np.nan
    with pytest.raises(SearchError, match="not normalized"):
        amplitude_amplify_decide(state, np.zeros(4, bool), 0.25, 0.1, 0)


@pytest.mark.parametrize("field", ["amps", "setup_amps"])
def test_state_rejects_a_nan_amplitude(field):
    arrays = {"amps": np.full(4, 0.5, complex), "setup_amps": np.full(4, 0.5, complex)}
    arrays[field][2] = np.nan
    with pytest.raises(SearchError, match="not normalized"):
        AmplitudeState(**arrays)


@pytest.mark.parametrize("amps_len, setup_len", [(1, 4), (4, 1), (4, 16)])
def test_state_rejects_amplitudes_not_one_per_setup_branch(amps_len, setup_len):
    amps = np.full(amps_len, amps_len**-0.5, complex)
    setup = np.full(setup_len, setup_len**-0.5, complex)
    with pytest.raises(SearchError, match="do not match the setup"):
        AmplitudeState(amps, setup)
    state = AmplitudeState(setup.copy(), setup)
    assert grover_iterate(state, np.arange(setup_len) < 1).amps.shape == setup.shape


def test_decide_refuses_iteration_counts_beyond_32_bits():
    # a decision caps its iteration bound m at 2^32
    state = setup_uniform(4)
    with pytest.raises(SearchError, match="2\\^32"):
        amplitude_amplify_decide(state, np.zeros(4, bool), 2.0**-66, 0.5, 0)
    found, _ = amplitude_amplify_decide(state, np.zeros(4, bool), 2.0**-64, 0.5, 0)
    assert found is None


def test_decide_takes_any_generator_or_an_int_seed():
    state = setup_uniform(4)
    marked = np.arange(4) < 1
    for rng in (np.random.RandomState(1), 1.0, "1", None):
        with pytest.raises(SearchError, match=f"got {type(rng).__name__}"):
            amplitude_amplify_decide(state, marked, 0.25, 0.1, rng)
        with pytest.raises(SearchError, match=f"got {type(rng).__name__}"):
            quantum_maximize([0, 1, 2, 3], state, QOptConfig(0.25, 0.1, seed=rng))
    mt = lambda: np.random.Generator(np.random.MT19937(1))  # noqa: E731
    got = amplitude_amplify_decide(state, marked, 0.25, 0.1, mt())
    assert got[0] == 0 and got == _stepped_decide(state, marked, 0.25, 0.1, mt())
    for seed in (0, np.int64(5), 2**40):
        expected = amplitude_amplify_decide(
            state, marked, 0.25, 0.1, np.random.default_rng(int(seed))
        )
        assert amplitude_amplify_decide(state, marked, 0.25, 0.1, seed) == expected


def test_decide_rejects_a_setup_that_is_no_longer_normalized():
    state = setup_uniform(4)
    state.setup_amps[0] = 1.0
    with pytest.raises(SearchError, match="not normalized"):
        amplitude_amplify_decide(state, np.arange(4) < 2, 0.25, 0.1, 0)


@pytest.mark.parametrize(
    "algorithm",
    [diameter.exact_diameter, diameter.exact_diameter_simple, diameter.approx_diameter],
)
def test_production_runs_step_no_amplitude_vector(algorithm, monkeypatch):
    def refuse(state, mask):
        raise AssertionError("a production run stepped the amplitude vector")

    monkeypatch.setattr(qsearch, "grover_iterate", refuse)
    g = graphs.generate("random", 12, seed=4, p=0.3)
    assert algorithm(g, seed=1).d_out == graphs.diameter_bruteforce(g)


def test_verify_checks_the_decision_law(monkeypatch):
    from qcongest import verify

    ok, detail = verify.check_grover()
    assert ok and "pick law" in detail

    def one_ahead(state, mask):
        # a step from the setup takes two iterations: off by one from then on
        after = grover_iterate(state, mask)
        if np.allclose(state.amps, state.setup_amps):
            after = grover_iterate(after, mask)
        return after

    monkeypatch.setattr(verify, "grover_iterate", one_ahead)
    ok, detail = verify.check_grover()
    assert not ok and "recurrence broken" in detail

    def rotate_two_marked(state, mask):
        # a rotation of the first two marked amplitudes moves mass between
        # them and keeps the marked total, so the success law still holds
        after = grover_iterate(state, mask)
        marked = np.flatnonzero(mask)
        if marked.size >= 2:
            x, y = marked[:2]
            a, b = after.amps[x], after.amps[y]
            after.amps[x], after.amps[y] = (a - b) / math.sqrt(2), (a + b) / math.sqrt(2)
        return after

    monkeypatch.setattr(verify, "grover_iterate", rotate_two_marked)
    ok, detail = verify.check_grover()
    assert not ok and "pick law off the steps at k=1, p=2/64" in detail
