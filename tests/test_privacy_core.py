from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dpaccel.privacy_core import (
    BUDGET_TOL,
    NoiseSchedule,
    PrivacyAccount,
    RngStream,
    epsilon_of,
    laplace_sample,
    per_iteration_epsilon,
    uniform_scale,
)

# 50-digit evaluation of log(1 + (m/n) (e^{S/(bm)} - 1)) at
# S=40, b=0.0575, n=1e5, m=1e3, frozen as a regression anchor.
EPS_ORACLE = 0.009999995629167356249792614


def test_laplace_scale_rejected():
    rng = RngStream(0)
    for bad in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            laplace_sample(rng, bad, 3)
    with pytest.raises(ValueError):
        laplace_sample(rng, 1.0, 0)


def test_laplace_moments():
    rng = RngStream(123)
    x = laplace_sample(rng, 2.0, 400_000)
    assert abs(x.mean()) < 0.02
    assert abs(x.var() / (2 * 2.0**2) - 1) < 0.03
    # symmetric around zero
    assert abs((x > 0).mean() - 0.5) < 0.01
    assert abs(np.median(x)) < 0.02


def test_laplace_tail_quantile():
    # P(|X| > b t) = e^{-t}
    rng = RngStream(7)
    x = laplace_sample(rng, 1.0, 500_000)
    for t in (1.0, 2.0, 4.0):
        assert abs((np.abs(x) > t).mean() - np.exp(-t)) < 0.01


def test_laplace_deterministic():
    a = laplace_sample(RngStream(42), 1.5, 10)
    b = laplace_sample(RngStream(42), 1.5, 10)
    assert np.array_equal(a, b)
    c = laplace_sample(RngStream(43), 1.5, 10)
    assert not np.array_equal(a, c)


def test_laplace_rows_match_scalar_draws():
    # k scales take one random(d) draw: row j is bitwise the scalar call's
    # noise at scale j, and the stream moves on by one draw
    scales = np.array([1.5, 0.25, 3e-7, 40.0])
    rows = laplace_sample(RngStream(42), scales, 6)
    assert rows.shape == (4, 6)
    for b, row in zip(scales, rows):
        assert np.array_equal(row, laplace_sample(RngStream(42), b, 6))
    rng = RngStream(5)
    laplace_sample(rng, scales, 6)
    assert rng.counter == 1
    for bad in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            laplace_sample(RngStream(0), np.array([1.0, bad]), 3)


@pytest.mark.parametrize("seed", [0, 9, 2**63 + 12345])
def test_stream_draws_equal_fresh_philox(seed):
    """A stream's draws are those of one Philox generator keyed by the seed
    making the same calls in the same order; counter counts the draws."""
    s = RngStream(seed)
    ref = np.random.Generator(np.random.Philox(key=seed % 2**64))
    draws = 0
    for _ in range(7):
        for size in (*range(1, 10), 1000):
            assert np.array_equal(s.random(size), ref.random(size))
            assert np.array_equal(s.uniform(-2.0, 3.0, size), ref.uniform(-2.0, 3.0, size))
            assert np.array_equal(s.subsample(5000, size),
                                  ref.choice(5000, size=size, replace=False))
            draws += 3
            assert s.counter == draws


class _FixedUniforms:
    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def random(self, size):
        assert size == len(self.u)
        return self.u.copy()


@pytest.mark.parametrize("b", [0.37, 1.0, 2.5e3])
def test_laplace_sample_equals_out_of_place_formula(b):
    # includes the draw 0.0 (u = -0.5, remapped to 0) and both signs
    draws = np.concatenate([[0.0, 0.25, 0.5, 0.75, 1.0 - 2**-53], RngStream(2).random(200)])
    u = draws - 0.5
    u = np.where(u == -0.5, 0.0, u)
    ref = -b * np.sign(u) * np.log1p(-2.0 * np.abs(u))
    got = laplace_sample(_FixedUniforms(draws), b, len(draws))
    assert np.array_equal(np.signbit(got), np.signbit(ref))
    assert np.array_equal(got, ref)


def test_stream_subsample():
    s = RngStream(5)
    idx = s.subsample(100, 30)
    assert idx.shape == (30,)
    assert len(set(idx.tolist())) == 30
    assert idx.min() >= 0 and idx.max() < 100
    assert np.array_equal(RngStream(5).subsample(100, 30), idx)
    with pytest.raises(ValueError):
        s.subsample(10, 11)
    with pytest.raises(ValueError):
        s.subsample(10, 0)


def test_stream_subsample_uniformity():
    # each index appears with frequency ~ m/n
    s = RngStream(11)
    counts = np.zeros(50)
    for _ in range(4000):
        counts[s.subsample(50, 10)] += 1
    freq = counts / 4000
    assert np.all(np.abs(freq - 0.2) < 0.03)


def test_stream_seed_type():
    with pytest.raises(ValueError):
        RngStream(1.5)


def test_epsilon_full_batch_exact():
    rng = np.random.default_rng(0)
    for _ in range(200):
        S = rng.uniform(0.1, 100)
        b = rng.uniform(1e-3, 1e3)
        n = rng.integers(1, 10**7)
        assert epsilon_of(S, b, n, n) == S / (b * n)


def test_epsilon_oracle_value():
    got = epsilon_of(40.0, 0.0575, 100_000, 1_000)
    assert abs(got - EPS_ORACLE) < 1e-18 + 1e-14 * EPS_ORACLE


def test_epsilon_matches_direct_formula():
    # direct formula is stable in this moderate regime
    rng = np.random.default_rng(1)
    for _ in range(300):
        S = rng.uniform(0.5, 50)
        m = int(rng.integers(1, 1000))
        n = m + int(rng.integers(1, 10_000))
        b = rng.uniform(0.05, 20) * S / m
        direct = np.log1p(np.expm1(S / (b * m)) * m / n)
        assert np.isclose(epsilon_of(S, b, n, m), direct, rtol=1e-13, atol=0)


def test_epsilon_overflow_branch():
    # 50-digit value of the leak at S/(bm) = 800, m/n = 0.01
    assert np.isclose(
        epsilon_of(40.0, 0.00005, 100_000, 1_000),
        795.394829814011908631964,
        rtol=1e-15,
    )
    # deep overflow follows the asymptote x + log(m/n)
    got = epsilon_of(1.0, 1e-6, 10**6, 10**3)
    assert np.isclose(got, 1e6 / 1e3 + np.log(1e-3), rtol=1e-15)
    assert np.isfinite(got)


def test_epsilon_amplification_properties():
    rng = np.random.default_rng(2)
    for _ in range(200):
        S = rng.uniform(0.1, 20)
        b = rng.uniform(0.01, 10)
        n = int(rng.integers(10, 10**5))
        m = int(rng.integers(1, n))
        eps = epsilon_of(S, b, n, m)
        # subsampling never leaks more than running on the m records alone
        assert 0 < eps <= S / (b * m) * (1 + 1e-12)
        # and never less than the no-amplification full-data leak
        assert eps >= S / (b * n) * (1 - 1e-12)
        # monotone: more noise leaks less
        assert epsilon_of(S, 2 * b, n, m) < eps
        # non-increasing in m: averaging over more records shrinks the
        # per-release sensitivity S/m faster than amplification m/n grows
        if m < n:
            assert epsilon_of(S, b, n, m + 1) <= eps * (1 + 1e-12)
    # and the effect is strict when S/b is appreciable
    assert epsilon_of(4.0, 0.5, 1000, 1) > epsilon_of(4.0, 0.5, 1000, 1000)


# Rounding allowance for the monotonicity properties.  Where x = S/(b m) is
# small the leak is S/(b n) to first order, so neighbouring m can differ by
# less than an ulp and the rounded product expm1(x) * m/n may order them
# either way; epsilon_of also switches formula at x = _EXP_OVERFLOW.
_MONOTONE_ULPS = 8 * np.finfo(float).eps


@given(
    st.floats(0.01, 100.0),
    st.floats(1e-3, 1e3),
    st.floats(1.0, 8.0),
    st.integers(2, 10**6),
    st.floats(0.0, 1.0),
)
def test_epsilon_of_monotone_in_scale(S, b, growth, n, m_frac):
    m = 1 + int(m_frac * (n - 1))
    # more noise never leaks more
    assert epsilon_of(S, growth * b, n, m) <= epsilon_of(S, b, n, m) * (1 + _MONOTONE_ULPS)


@given(
    st.floats(0.01, 100.0),
    st.floats(1e-3, 1e3),
    st.integers(2, 10**6),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
)
def test_epsilon_of_monotone_in_subsample(S, b, n, f1, f2):
    m1, m2 = sorted(1 + int(f * (n - 1)) for f in (f1, f2))
    # at a fixed scale a larger subsample leaks no more: (e^(S/(b m)) - 1) m
    # falls with m, since its derivative is e^x (1 - x) - 1 < 0 at x = S/(b m)
    assert epsilon_of(S, b, n, m2) <= epsilon_of(S, b, n, m1) * (1 + _MONOTONE_ULPS)


@given(
    st.floats(0.01, 10.0),
    st.integers(1, 5000),
    st.integers(1, 10**6),
    st.floats(0.0, 1.0),
    st.floats(0.1, 100.0),
)
def test_per_iteration_epsilon_round_trips_through_epsilon_of(epsilon, T, n, m_frac, S):
    m = 1 + int(m_frac * (n - 1))
    eps0 = per_iteration_epsilon(epsilon, T, n, m)
    # the scale whose base leak S/(b m) is eps0 leaks epsilon / T once amplified
    back = epsilon_of(S, S / (m * eps0), n, m)
    assert back == pytest.approx(epsilon / T, rel=1e-12)


def balle_amplified_epsilon(S: float, b: float, n: int, m: int) -> tuple[Decimal, Decimal]:
    """Without-replacement amplification of a Laplace release, at 50 digits.

    Balle, Barthe & Gaboardi (NeurIPS 2018), substitution neighbours: a
    release with leak eps0 = S / (b m) on a uniform m-of-n subsample leaks
    ln(1 + (m/n) (e^eps0 - 1)).  Returns that leak and its relative
    condition number in eps0, eps0 (m/n) e^eps0 / ((1 + y) ln(1 + y)) with
    y = (m/n) (e^eps0 - 1).
    """
    with localcontext() as ctx:
        ctx.prec = 50
        eps0 = Decimal(S) / (Decimal(b) * m)
        ratio = Decimal(m) / Decimal(n)
        y = ratio * (eps0.exp() - 1)
        leak = (1 + y).ln()
        return leak, eps0 * ratio * eps0.exp() / ((1 + y) * leak)


# How far epsilon_of may sit from the 50-digit value: 4 + kappa ulps, kappa
# the relative condition number above.  Forming eps0 = S / (b m) rounds
# twice, a relative error of at most 2u that the formula scales by kappa
# (kappa <= 1 + eps0, and about 9 at most for n <= 10^6); expm1,
# the product by m/n, log1p and the large-eps0 rearrangement add a few
# more.  Measured worst over 48,000 random points with n up to 10^9: 7.6
# ulps at kappa = 17.5.
_BALLE_BASE_ULPS = 4


@settings(max_examples=300)
@given(
    st.floats(-12.0, 3.0),
    st.floats(1e-3, 1e3),
    st.sampled_from([100, 10_000, 10**6]),
    st.sampled_from(["1", "n/100", "n/10", "n-1", "n"]),
)
@example(3.0, 1.0, 10_000, "1")  # eps0 = 1000, far above _EXP_OVERFLOW = 700
@example(np.log10(700.0), 1.0, 10_000, "n/10")  # at the switch
@example(np.log10(700.5), 0.7, 10**6, "1")  # just above it
@example(-12.0, 1.0, 100, "n-1")  # eps0 = 1e-12
def test_epsilon_of_matches_balle_amplification(log_eps0, b, n, which):
    m = {"1": 1, "n/100": n // 100, "n/10": n // 10, "n-1": n - 1, "n": n}[which]
    S = 10.0**log_eps0 * b * m
    got = epsilon_of(S, b, n, m)
    want, kappa = balle_amplified_epsilon(S, b, n, m)
    ulp = Decimal(float(np.spacing(float(want))))
    assert abs(Decimal(got) - want) <= (_BALLE_BASE_ULPS + kappa) * ulp
    if m == n:
        assert got == S / (b * n)


def test_epsilon_validation():
    with pytest.raises(ValueError):
        epsilon_of(-1.0, 1.0, 10, 5)
    with pytest.raises(ValueError):
        epsilon_of(1.0, 0.0, 10, 5)
    with pytest.raises(ValueError):
        epsilon_of(1.0, 1.0, 10, 11)
    with pytest.raises(ValueError):
        epsilon_of(1.0, 1.0, 10, 0)
    with pytest.raises(ValueError, match="must be integers"):
        epsilon_of(1.0, 1.0, 10.5, 5)
    assert epsilon_of(0.0, 1.0, 10, 5) == 0.0


def test_epsilon_array_broadcast():
    b = np.array([0.5, 1.0, 2.0])
    out = epsilon_of(1.0, b, 100, 10)
    assert out.shape == (3,)
    assert np.all(np.diff(out) < 0)


def test_per_iteration_inverts_composition():
    rng = np.random.default_rng(3)
    for _ in range(300):
        epsilon = rng.uniform(0.01, 10)
        T = int(rng.integers(1, 2000))
        n = int(rng.integers(10, 10**6))
        m = int(rng.integers(1, n + 1))
        eps0 = per_iteration_epsilon(epsilon, T, n, m)
        # T amplified releases at eps0 compose to the target
        back = T * np.log1p(np.expm1(eps0) * m / n)
        assert np.isclose(back, epsilon, rtol=1e-12, atol=1e-12)
    # m = n reduces exactly
    assert per_iteration_epsilon(1.0, 7, 50, 50) == 1.0 / 7


def test_uniform_scale_audits_to_budget():
    rng = np.random.default_rng(4)
    for _ in range(100):
        S1 = rng.uniform(0.1, 100)
        epsilon = rng.uniform(0.05, 5)
        T = int(rng.integers(1, 1500))
        n = int(rng.integers(10, 10**6))
        m = int(rng.integers(1, n + 1))
        sched = uniform_scale(S1, epsilon, T, n, m)
        assert len(sched) == T
        assert len(np.unique(sched.b)) == 1
        assert abs(sched.total_epsilon - epsilon) < 1e-9
        # stored leaks are the audited ones
        assert np.array_equal(sched.eps, epsilon_of(S1, sched.b, n, m))
    assert sched.provenance == "uniform"


def test_schedule_validation():
    with pytest.raises(ValueError):
        NoiseSchedule(b=np.array([1.0, -1.0]), eps=np.array([0.1, 0.1]))
    with pytest.raises(ValueError):
        NoiseSchedule(b=np.array([1.0]), eps=np.array([0.1, 0.1]))
    with pytest.raises(ValueError):
        NoiseSchedule(b=np.array([1.0]), eps=np.array([-0.1]))
    for S1 in (0.0, np.nan):
        with pytest.raises(ValueError, match="sensitivity must be positive"):
            uniform_scale(S1, 1.0, 5, 100, 10)
    # b == 0 is valid input: no noise that iteration
    off = NoiseSchedule(np.zeros(5), np.zeros(5))
    assert len(off) == 5
    assert off.total_epsilon == 0.0


def test_schedule_csv_roundtrip(tmp_path):
    sched = uniform_scale(40.0, 1.0, 13, 10_000, 1_000)
    path = tmp_path / "sched.csv"
    sched.to_csv(path)
    back = NoiseSchedule.from_csv(path)
    # repr() serialization keeps float64 exactly
    assert np.array_equal(back.b, sched.b)
    assert np.array_equal(back.eps, sched.eps)
    header = path.read_text().splitlines()[0]
    assert header == "t,b_t,eps_t"
    with pytest.raises(ValueError):
        NoiseSchedule.from_csv(__file__)


def test_account_spend_and_overrun():
    acct = PrivacyAccount(epsilon_total=1.0, T=4, n=100, m=100)
    for _ in range(4):
        acct.spend(0.25)
    assert acct.spent == pytest.approx(1.0)
    assert acct.remaining == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(ValueError):
        acct.spend(1e-6)


def test_account_running_total_is_sequential_sum():
    eps = RngStream(4).uniform(0.0, 2e-4, 10_000)
    acct = PrivacyAccount(epsilon_total=float(eps.sum()) + 1e-3, T=10_000, n=10, m=10)
    total = 0.0
    for e in eps:
        assert acct.spend(e) == total + e
        total += e
    assert acct.spent == total
    assert acct.remaining == acct.epsilon_total - total
    with pytest.raises(ValueError, match="budget overrun"):
        acct.spend(2e-3)
    assert acct.spent == total


def test_account_tolerates_ulp_overshoot():
    acct = PrivacyAccount(epsilon_total=1.0, T=3, n=10, m=10)
    acct.spend(1.0)
    # within BUDGET_TOL passes, beyond raises
    acct.spend(BUDGET_TOL / 2)
    with pytest.raises(ValueError):
        acct.spend(2 * BUDGET_TOL)


def test_account_rejects_bad_spends():
    acct = PrivacyAccount(epsilon_total=1.0, T=1, n=10, m=10)
    with pytest.raises(ValueError):
        acct.spend(-0.1)
    with pytest.raises(ValueError):
        acct.spend(np.nan)
    with pytest.raises(ValueError):
        PrivacyAccount(epsilon_total=-1.0, T=1, n=10, m=10)
    with pytest.raises(ValueError):
        PrivacyAccount(epsilon_total=1.0, T=1, n=10, m=11)
    with pytest.raises(ValueError, match="need T >= 0"):
        PrivacyAccount(epsilon_total=1.0, T=-1, n=10, m=10)
