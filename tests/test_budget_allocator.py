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


def reference_horizon(builder, E0, S1, n, eps, d, T_max):
    """The brute-force horizon scan: evaluate every T' = 1..T_max and keep
    the first minimum."""
    bounds = [optimized_bound_value(builder(Tp), S1, n, eps, d, E0) for Tp in range(1, T_max + 1)]
    best = int(np.argmin(bounds))
    return best + 1, bounds[best]


def horizon_builder(scheme, mu, L, c, p):
    if scheme == "nag":
        return lambda Tp: nag_coefficients(mu, L, c / L, Tp)
    return lambda Tp: masg_coefficients_for(mu, L, c, p, Tp)


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
    assert co.factors == ((2, 0.5, 2.0),)


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
    builder = horizon_builder(scheme, ratio * L, L, c, p)
    got = select_horizon(builder, E0, S1, n, eps, d, T_max)
    assert got == reference_horizon(builder, E0, S1, n, eps, d, T_max)


# The analysis workload's allocation classes: masg with T_max 3500-4000 and
# Nesterov with T_max 250-750, at n = 10^4, d = 20, S1 = 40 and E0 = 10.
@pytest.mark.parametrize("scheme, mu, L, c, eps, T_max", [
    ("masg", 0.02, 1.0, 1.0, 1.0, 4000),
    ("masg", 0.016, 0.85, 0.55, 0.6, 3500),
    ("masg", 0.024, 1.15, 0.9, 1.9, 3777),
    ("nag", 0.018, 0.9, 0.7, 1.3, 750),
])
def test_select_horizon_analysis_scale(scheme, mu, L, c, eps, T_max):
    builder = horizon_builder(scheme, mu, L, c, 1)
    calls = []

    def counted(Tp):
        calls.append(Tp)
        return builder(Tp)

    got = select_horizon(counted, 10.0, 40.0, 10**4, eps, 20, T_max)
    assert got == reference_horizon(builder, 10.0, 40.0, 10**4, eps, 20, T_max)
    # one build at T_max for the estimates, then only the few horizons
    # whose estimate lies within the margin of the smallest
    assert calls[0] == T_max and len(calls) <= 4


# (mu, c, T1, T2) with L = 1.  Nesterov pairs are neighbours.  A masg bound
# has its local minima at stage ends, so its pairs are neighbours inside the
# long first stage of mu = 0.002 (47 iterations) or two adjacent stage ends.
NEAR_TIES = {
    "nag": [(mu, c, T0, T0 + 1) for mu, c in ((0.02, 1.0), (0.05, 0.6), (0.2, 0.3))
            for T0 in (6, 13, 41, 91)],
    "masg": [(0.002, c, T0, T0 + 1) for c in (1.0, 0.5) for T0 in (6, 13, 29, 41)]
    + [(0.02, 1.0, 15, 75), (0.02, 1.0, 75, 195), (0.05, 0.6, 10, 50), (0.05, 0.6, 50, 130),
       (0.2, 0.3, 5, 25), (0.2, 0.3, 25, 65), (0.2, 0.3, 65, 145)],
}


@pytest.mark.parametrize("scheme", ["nag", "masg"])
def test_select_horizon_near_ties(scheme):
    # E0 solved so that the exact bounds at T1 and T2 agree up to rounding,
    # then moved by up to 3 ulps either way.  The estimates cannot rank such
    # pairs, so only evaluating every horizon within the margin exactly
    # returns the reference scan's answer (with a zero margin about a third
    # of these cases come out wrong).
    S1, n, eps, d = 40.0, 10**4, 1.0, 20
    noise = d * S1**2 / (n * eps) ** 2
    on_pair = total = 0
    for mu, c, T1, T2 in NEAR_TIES[scheme]:
        builder = horizon_builder(scheme, mu, 1.0, c, 1)
        lo, hi = builder(T1), builder(T2)
        cube_lo = float(np.sum(lo.a ** (1 / 3))) ** 3
        cube_hi = float(np.sum(hi.a ** (1 / 3))) ** 3
        E0 = noise * (cube_hi - cube_lo) / (lo.a0 - hi.a0)
        for step in range(-3, 4):
            E0_k = E0 * (1 + step * np.finfo(float).eps)
            want = reference_horizon(builder, E0_k, S1, n, eps, d, T2 + 30)
            assert select_horizon(builder, E0_k, S1, n, eps, d, T2 + 30) == want
            on_pair += want[0] in (T1, T2)
            total += 1
    # the near-tied pair does hold the minimum in most cases
    assert on_pair >= 0.8 * total


def test_masg_single_stage_equals_nag():
    mu, L, alpha, T = 0.1, 2.0, 0.5, 12
    via_stage = masg_coefficients(StageSchedule(lengths=(T,), alphas=(alpha,)), mu, L)
    via_nag = nag_coefficients(mu, L, alpha, T)
    assert via_stage.a0 == pytest.approx(via_nag.a0, rel=1e-15)
    assert via_stage.a == pytest.approx(via_nag.a, rel=1e-15)


def test_masg_convenience_builder():
    co = masg_coefficients_for(0.05, 1.0, 1.0, 1, 60)
    assert [length for length, _, _ in co.factors] == [10, 40, 10]
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


@given(
    st.lists(st.floats(1e-6, 1e6), min_size=1, max_size=200),
    st.floats(0.1, 50.0),
    st.integers(1, 10**6),
    st.floats(0.01, 10.0),
)
def test_optimal_schedule_satisfies_kkt(a, S1, n, eps):
    # stationarity for min sum a_t b_t^2 s.t. sum S1/(n b_t) = eps:
    # a_t b_t^3 is constant across t, and the constraint is met
    co = BoundCoefficients(a0=0.1, a=np.array(a))
    sched = optimal_schedule(co, S1, n, eps)
    prods = co.a * sched.b**3
    assert np.max(prods) / np.min(prods) - 1 < 1e-12
    assert abs(sched.total_epsilon - eps) <= BUDGET_TOL


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
    st.sampled_from([1.0, 0.5, 2.0]),
)
@example(a=[1.0, 2.0], S1=2.0, n=1000, m_frac=0.0, eps=0.5, built_for=1.0)  # m = 1
@example(a=[1.0, 2.0], S1=2.0, n=1000, m_frac=1.0, eps=0.5, built_for=1.0)  # m = n
# m = n, schedule built for twice the budget: the factor is 2 up to the residual
@example(a=[1.0, 2.0], S1=2.0, n=100, m_frac=1.0, eps=0.35, built_for=2.0)
def test_rescaled_audit_equals_budget(a, S1, n, m_frac, eps, built_for):
    # the schedule is built for built_for * eps and rescaled to eps
    m = 1 + int(m_frac * (n - 1))
    sched = optimal_schedule(BoundCoefficients(a0=0.0, a=np.array(a)), S1, n, built_for * eps)
    out, factor = rescale_for_subsampling(sched, S1, n, m, eps)
    assert abs(float(np.sum(epsilon_of(S1, out.b, n, m))) - eps) <= BUDGET_TOL
    if m == n:  # the leak is proportional to 1 / factor
        assert factor == pytest.approx(built_for, rel=1e-9)
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
    # one stage with q = 1 and k = 0: every horizon's bound is E0
    def flat(Tp):
        return BoundCoefficients(a0=1.0, a=np.zeros(Tp), factors=((Tp, 1.0, 0.0),))

    T, bound = select_horizon(flat, 1.0, 1.0, 100, 1.0, 1, 20)
    assert (T, bound) == (1, 1.0)
    # q = 0.05 makes a0 underflow near T' = 250, and S stops changing in
    # its last bit long before: the smallest bound repeats over 100+
    # horizons, and the first of them is returned
    builder = horizon_builder("nag", 0.9, 1.0, 1.0, 1)
    T, bound = select_horizon(builder, 1e300, 1.0, 100, 1.0, 1, 399)
    assert (T, bound) == reference_horizon(builder, 1e300, 1.0, 100, 1.0, 1, 399)
    assert builder(T).a0 < np.finfo(float).tiny
    assert optimized_bound_value(builder(T + 1), 1.0, 100, 1.0, 1, 1e300) == bound
    assert optimized_bound_value(builder(T - 1), 1.0, 100, 1.0, 1, 1e300) > bound


def test_select_horizon_needs_stage_factors():
    bare = lambda Tp: BoundCoefficients(a0=0.5, a=np.ones(Tp))
    with pytest.raises(ValueError, match="stage factors"):
        select_horizon(bare, 1.0, 1.0, 100, 1.0, 1, 20)
    with pytest.raises(ValueError):
        BoundCoefficients(a0=0.5, a=np.ones(3), factors=((2, 0.5, 1.0),))


def test_masg_opt_allocation_structure():
    # later stages carry smaller a_t (smaller stepsize), so their optimal
    # scales are larger within the tail; within a stage scales decrease
    stages = masg_stage_schedule(0.02, 0.86, 1.0, 1, 200)
    co = masg_coefficients(stages, 0.02, 0.86)
    sched = optimal_schedule(co, 40.0, 10**4, 1.0)
    stage_it = np.array([stage_of(stages, t) for t in range(1, co.T + 1)])
    for k in range(1, stages.stages + 1):
        seg = sched.b[stage_it == k]
        assert np.all(np.diff(seg) < 0)
    assert sched.total_epsilon == pytest.approx(1.0, abs=1e-9)
