import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from dpaccel import budget_allocator
from dpaccel.budget_allocator import (
    BoundCoefficients,
    bound_value,
    masg_coefficients,
    masg_coefficients_for,
    nag_coefficients,
    optimal_schedule,
    optimized_bound_value,
    rescale_for_subsampling,
    select_horizon,
)
from dpaccel.optimizers import StageSchedule, masg_stage_schedule
from dpaccel.privacy_core import BUDGET_TOL, epsilon_of


def stage_of(stages, i):
    """1-based stage of 1-based iteration i, found by walking the stage lengths."""
    end = 0
    for k, length in enumerate(stages.lengths, start=1):
        end += length
        if i <= end:
            return k
    raise ValueError(f"iteration {i} outside 1..{stages.total}")


def random_feasible_scales(rng, T, S1, n, epsilon):
    """Random positive leaks summing to epsilon, mapped to scales (m = n)."""
    w = rng.uniform(0.05, 1.0, T)
    eps_t = epsilon * w / w.sum()
    return S1 / (n * eps_t)


def test_nag_coefficients_hand_case():
    # mu=0.25, L=1, alpha=1, T=2: q=0.5, a0=0.25, a=(1, 2)
    co = nag_coefficients(0.25, 1.0, 1.0, 2)
    assert co.a0 == pytest.approx(0.25)
    assert co.a == pytest.approx([1.0, 2.0])
    assert co.T == 2
    assert co.kind == "nag"


def test_nag_coefficients_match_recursion():
    # independently accumulate E_T <= q E_{t-1} + alpha(1+alpha L) w_t
    rng = np.random.default_rng(0)
    for _ in range(25):
        L = rng.uniform(0.5, 10)
        mu = L / rng.uniform(1.5, 100)
        alpha = rng.uniform(0.1, 1.0) / L
        T = int(rng.integers(1, 40))
        co = nag_coefficients(mu, L, alpha, T)
        w = rng.uniform(0.1, 2.0, T)
        E0 = rng.uniform(0.5, 5.0)
        E = E0
        q = 1 - np.sqrt(mu * alpha)
        for t in range(T):
            E = q * E + alpha * (1 + alpha * L) * w[t]
        assert co.a0 * E0 + co.a @ w == pytest.approx(E, rel=1e-12)


def test_coefficient_validation():
    with pytest.raises(ValueError):
        nag_coefficients(0.5, 1.0, 1.1, 5)  # alpha > 1/L
    with pytest.raises(ValueError):
        nag_coefficients(0.0, 1.0, 0.5, 5)
    with pytest.raises(ValueError):
        nag_coefficients(0.5, 1.0, 0.5, 0)
    with pytest.raises(ValueError):
        BoundCoefficients(a0=-1.0, a=np.ones(2))
    with pytest.raises(ValueError):
        BoundCoefficients(a0=1.0, a=np.array([1.0, -1.0]))
    # mu*alpha = 1 leaves q = 0 and no usable allocation
    with pytest.raises(ValueError):
        nag_coefficients(1.0, 1.0, 1.0, 3)


def test_masg_coefficients_match_slow_formula():
    mu, L, c, p, T = 0.05, 1.0, 1.0, 1, 75
    stages = masg_stage_schedule(mu, L, c, p, T)
    co = masg_coefficients(stages, mu, L)
    assert co.T == T
    s_T = stage_of(stages, T)
    # explicit per-iteration products
    alphas = [stages.alphas[stage_of(stages, i) - 1] for i in range(1, T + 1)]
    for t in range(1, T + 1):
        prod = 1.0
        for i in range(t + 1, T + 1):
            prod *= 1 - np.sqrt(mu * alphas[i - 1])
        s_t = stage_of(stages, t)
        want = 2.0 ** (s_T - s_t) * prod * alphas[t - 1] * (1 + alphas[t - 1] * L)
        assert co.a[t - 1] == pytest.approx(want, rel=1e-12)
    prod_all = np.prod([1 - np.sqrt(mu * a) for a in alphas])
    assert co.a0 == pytest.approx(2.0 ** (s_T - 1) * prod_all, rel=1e-12)


def slow_masg_weights(stages, mu, L):
    """a0 and a_t of masg_coefficients, one iteration at a time; each
    suffix product is accumulated from i = T down to i = t + 1."""
    T = stages.total
    s_T = stage_of(stages, T)
    alphas = [stages.alphas[stage_of(stages, i) - 1] for i in range(1, T + 1)]
    q = [1 - np.sqrt(mu * alpha) for alpha in alphas]
    a = []
    for t in range(1, T + 1):
        prod = 1.0
        for i in range(T, t, -1):
            prod *= q[i - 1]
        s_t = stage_of(stages, t)
        a.append(2.0 ** (s_T - s_t) * prod * alphas[t - 1] * (1 + alphas[t - 1] * L))
    prod = 1.0
    for i in range(T, 0, -1):
        prod *= q[i - 1]
    return 2.0 ** (s_T - 1) * prod, np.array(a)


# mu/L in [0.005, 0.9] and c in [0.05, 1] keep every stage's alpha within
# 1/L and mu * alpha below 1
masg_inputs = st.tuples(
    st.floats(0.005, 0.9),
    st.floats(0.5, 2.0),
    st.floats(0.05, 1.0),
    st.integers(0, 3),
    st.integers(1, 300),
)


@given(masg_inputs)
def test_masg_coefficients_bitwise_equal_slow_formula(inputs):
    ratio, L, c, p, T = inputs
    mu = ratio * L
    stages = masg_stage_schedule(mu, L, c, p, T)
    co = masg_coefficients(stages, mu, L)
    a0, a = slow_masg_weights(stages, mu, L)
    assert co.a.tobytes() == a.tobytes()
    assert co.a0 == a0


@given(
    masg_inputs,
    st.sampled_from(["nag", "masg"]),
    st.floats(0.0, 100.0),
    st.floats(0.1, 50.0),
    st.integers(100, 10**6),
    st.floats(0.1, 5.0),
    st.integers(1, 50),
)
def test_select_horizon_bounds_equal_optimized_bound_value(inputs, scheme, E0, S1, n, eps, d):
    ratio, L, c, p, T_max = inputs
    mu = ratio * L
    built = []

    def builder(Tp):
        if scheme == "nag":
            co = nag_coefficients(mu, L, c / L, Tp)
        else:
            co = masg_coefficients_for(mu, L, c, p, Tp)
        built.append((Tp, co))
        return co

    T, bound = select_horizon(builder, E0, S1, n, eps, d, T_max)
    assert [Tp for Tp, _ in built] == list(range(1, T_max + 1))
    want = [optimized_bound_value(co, S1, n, eps, d, E0) for _, co in built]
    best = int(np.argmin(want))
    assert (T, bound) == (best + 1, want[best])


def test_masg_single_stage_equals_nag():
    mu, L, alpha, T = 0.1, 2.0, 0.5, 12
    via_stage = masg_coefficients(StageSchedule(lengths=(T,), alphas=(alpha,)), mu, L)
    via_nag = nag_coefficients(mu, L, alpha, T)
    assert via_stage.a0 == pytest.approx(via_nag.a0, rel=1e-15)
    assert via_stage.a == pytest.approx(via_nag.a, rel=1e-15)


def test_masg_convenience_builder():
    co = masg_coefficients_for(0.05, 1.0, 1.0, 1, 60)
    assert co.kind == "masg"
    assert co.stages.lengths == (10, 40, 10)
    assert co.T == 60


def test_optimal_schedule_two_step_hand_case():
    # a = (1, 2): b_1 = (1 + 2^(1/3)) S1/(n eps), b_2 = b_1 / 2^(1/3)
    co = BoundCoefficients(a0=0.25, a=np.array([1.0, 2.0]))
    S1, n, eps = 3.0, 100, 0.5
    sched = optimal_schedule(co, S1, n, eps)
    unit = S1 / (n * eps)
    c3 = 2.0 ** (1.0 / 3.0)
    assert sched.b == pytest.approx([(1 + c3) * unit, (1 + c3) / c3 * unit], rel=1e-14)
    assert sched.total_epsilon == pytest.approx(eps, abs=1e-12)
    assert sched.provenance == "optimized"


def test_optimal_schedule_satisfies_kkt():
    # stationarity for min sum a_t b_t^2 s.t. sum S1/(n b_t) = eps:
    # a_t b_t^3 is constant across t
    rng = np.random.default_rng(1)
    for _ in range(20):
        T = int(rng.integers(2, 60))
        co = BoundCoefficients(a0=0.1, a=rng.uniform(0.01, 5.0, T))
        sched = optimal_schedule(co, 2.0, 500, 1.2)
        prods = co.a * sched.b**3
        assert np.max(prods) / np.min(prods) - 1 < 1e-12


def test_optimal_beats_random_feasible():
    rng = np.random.default_rng(2)
    S1, n, eps, d, E0 = 4.0, 1000, 0.8, 3, 2.0
    for T in (2, 5, 50):
        co = nag_coefficients(0.05, 1.0, 1.0, T)
        sched = optimal_schedule(co, S1, n, eps)
        best = bound_value(co, sched.b, d, E0)
        assert best == pytest.approx(optimized_bound_value(co, S1, n, eps, d, E0),
                                     rel=1e-12)
        for _ in range(1000):
            b = random_feasible_scales(rng, T, S1, n, eps)
            assert bound_value(co, b, d, E0) >= best * (1 - 1e-9)


def test_optimal_unique_on_dense_grid():
    # T=3: walk a dense feasible grid of budget splits; only the analytic
    # optimum attains the minimum
    co = nag_coefficients(0.2, 1.0, 0.9, 3)
    S1, n, eps = 1.0, 50, 1.0
    sched = optimal_schedule(co, S1, n, eps)
    best = float(co.a @ sched.b**2)
    grid = np.linspace(0.005, 0.99, 120)
    seen_better = 0
    for e1 in grid:
        for e2 in grid:
            e3 = eps - e1 - e2
            if e3 <= 0.004:
                continue
            b = S1 / (n * np.array([e1, e2, e3]))
            val = float(co.a @ b**2)
            assert val >= best * (1 - 1e-9)
            if val < best * (1 + 1e-9):
                seen_better += 1
    # the grid should essentially never tie the continuous optimum
    assert seen_better <= 1


def test_optimal_schedule_strictly_improves_uniform():
    co = nag_coefficients(0.02, 0.86, 1.0 / 0.86, 100)
    S1, n, eps, d, E0 = 40.0, 10_000, 1.0, 20, 10.0
    sched = optimal_schedule(co, S1, n, eps)
    uniform_b = np.full(100, S1 / (n * (eps / 100)))
    assert bound_value(co, sched.b, d, E0) < bound_value(co, uniform_b, d, E0)
    # scales decrease: spend more budget late, start noisy
    assert np.all(np.diff(sched.b) < 0)
    # leaks increase toward the end
    assert np.all(np.diff(sched.eps) > 0)


def test_optimal_schedule_rejects_zero_weights():
    co = BoundCoefficients(a0=0.0, a=np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        optimal_schedule(co, 1.0, 10, 1.0)
    with pytest.raises(ValueError):
        optimal_schedule(BoundCoefficients(a0=1.0, a=np.ones(2)), -1.0, 10, 1.0)


def test_bound_value_includes_subsample_variance():
    co = BoundCoefficients(a0=0.5, a=np.array([1.0, 3.0]))
    b = np.array([2.0, 1.0])
    base = bound_value(co, b, 2, 1.0)
    assert base == pytest.approx(0.5 + 1 * (4 * 2) + 3 * (1 * 2))
    with_var = bound_value(co, b, 2, 1.0, subsample_var=0.4)
    assert with_var == pytest.approx(base + (1.0 + 3.0) * 0.2)
    with pytest.raises(ValueError):
        bound_value(co, np.ones(3), 2, 1.0)
    with pytest.raises(ValueError):
        bound_value(co, b, 2, -1.0)


def test_rescale_noop_without_subsampling():
    co = nag_coefficients(0.1, 1.0, 1.0, 10)
    sched = optimal_schedule(co, 2.0, 100, 0.7)
    out, factor = rescale_for_subsampling(sched, 2.0, 100, 100, 0.7)
    assert factor == 1.0
    assert np.array_equal(out.b, sched.b)


def test_rescale_full_data_mismatch_is_analytic():
    # m = n leak is proportional to 1/factor, so one division fixes it
    co = nag_coefficients(0.1, 1.0, 1.0, 5)
    sched = optimal_schedule(co, 2.0, 100, 0.7)
    out, factor = rescale_for_subsampling(sched, 2.0, 100, 100, 0.35)
    assert factor == pytest.approx(2.0, rel=1e-12)
    assert np.sum(epsilon_of(2.0, out.b, 100, 100)) == pytest.approx(0.35, abs=1e-9)


def test_rescale_subsampled_audit():
    rng = np.random.default_rng(3)
    for _ in range(20):
        T = int(rng.integers(1, 40))
        co = BoundCoefficients(a0=0.2, a=rng.uniform(0.05, 2.0, T))
        S1 = rng.uniform(0.5, 50)
        n = int(rng.integers(100, 10**5))
        m = int(rng.integers(1, n))
        eps = rng.uniform(0.1, 3.0)
        sched = optimal_schedule(co, S1, n, eps)
        out, factor = rescale_for_subsampling(sched, S1, n, m, eps)
        audited = float(np.sum(epsilon_of(S1, out.b, n, m)))
        assert abs(audited - eps) <= 1e-9
        # one common factor, ratios preserved
        assert np.allclose(out.b / sched.b, factor, rtol=1e-12)
        assert out.provenance == "optimized+rescaled"


@given(
    st.lists(st.floats(0.05, 2.0), min_size=1, max_size=40),
    st.floats(0.5, 50.0),
    st.integers(2, 10**5),
    st.floats(0.0, 1.0),
    st.floats(0.1, 3.0),
)
@example(a=[1.0, 2.0], S1=2.0, n=1000, m_frac=0.0, eps=0.5)  # m = 1
@example(a=[1.0, 2.0], S1=2.0, n=1000, m_frac=1.0, eps=0.5)  # m = n
def test_rescaled_audit_equals_budget(a, S1, n, m_frac, eps):
    m = 1 + int(m_frac * (n - 1))
    sched = optimal_schedule(BoundCoefficients(a0=0.0, a=np.array(a)), S1, n, eps)
    out, factor = rescale_for_subsampling(sched, S1, n, m, eps)
    assert abs(float(np.sum(epsilon_of(S1, out.b, n, m))) - eps) <= BUDGET_TOL
    # one common factor scales every entry
    assert np.array_equal(out.b, factor * sched.b)


def test_rescale_audit_rejects_a_missed_budget(monkeypatch):
    co = nag_coefficients(0.1, 1.0, 1.0, 4)
    sched = optimal_schedule(co, 2.0, 1000, 0.5)
    rescaled = budget_allocator._rescaled
    monkeypatch.setattr(
        budget_allocator, "_rescaled",
        lambda schedule, S1, n, m, factor: rescaled(schedule, S1, n, m, factor * (1 + 1e-6)),
    )
    with pytest.raises(RuntimeError):
        rescale_for_subsampling(sched, 2.0, 1000, 100, 0.5)


def test_select_horizon_limits():
    builder = lambda Tp: nag_coefficients(0.05, 1.0, 1.0, Tp)
    S1, n, d = 1.0, 10**4, 2
    # tiny initial error: pure noise accumulation, stop immediately
    T, bound = select_horizon(builder, 1e-12, S1, n, 1.0, d, 50)
    assert T == 1
    assert bound == pytest.approx(optimized_bound_value(builder(1), S1, n, 1.0, d, 1e-12))
    # huge dataset: noise negligible, run as long as allowed
    T2, _ = select_horizon(builder, 10.0, S1, 10**9, 1.0, d, 50)
    assert T2 == 50
    # interior optimum on a moderate instance
    T3, b3 = select_horizon(builder, 10.0, 40.0, 10**4, 1.0, 20, 1000)
    assert 1 < T3 < 1000
    for Tp in (T3 - 1, T3 + 1):
        assert optimized_bound_value(builder(Tp), 40.0, 10**4, 1.0, 20, 10.0) >= b3


def test_select_horizon_tie_prefers_smaller():
    flat = BoundCoefficients(a0=0.5, a=np.array([1.0]))
    builder = lambda Tp: flat
    T, _ = select_horizon(builder, 1.0, 1.0, 100, 1.0, 1, 20)
    assert T == 1


def test_masg_opt_allocation_structure():
    # later stages carry smaller a_t (smaller stepsize), so their optimal
    # scales are larger within the tail; within a stage scales decrease
    co = masg_coefficients_for(0.02, 0.86, 1.0, 1, 200)
    sched = optimal_schedule(co, 40.0, 10**4, 1.0)
    stage_it = np.array([stage_of(co.stages, t) for t in range(1, co.T + 1)])
    for k in range(1, co.stages.stages + 1):
        seg = sched.b[stage_it == k]
        assert np.all(np.diff(seg) < 0)
    assert sched.total_epsilon == pytest.approx(1.0, abs=1e-9)
