"""End-to-end acceptance checks, one test per advertised guarantee.

Each test pins a behavior with an explicit tolerance and a runtime cap
where one applies.  The desk-scale experiment grid (logistic regression,
d = 20, n = 10^4, 20 seeds per cell) is expensive, so it runs once per
session and is shared by the two tests that consume it.

Test 05 checks the momentum orderings in both noise regimes.  With the
budget split evenly over T steps the per-step noise scale grows like T/n,
so the stationary error floor grows like (T/n)^2.  On the full-scale
dataset (n = 10^5) at T = 100, T/n = 10^-3, the floor is small and the
accelerated methods end below plain DP-GD; at desk scale, T/n >= 10^-2,
the floor dominates and plain DP-GD ends below uniform-budget heavy ball
and Nesterov.  The full-scale grid (T = 100 only) runs once, in its own
fixture.
"""

import json
import time

import numpy as np
import pytest

from dpaccel.budget_allocator import (
    _optimized_bound,
    bound_value,
    masg_coefficients_for,
    nag_coefficients,
    optimal_schedule,
    rescale_for_subsampling,
)
from dpaccel.certification import (
    certificate_matrix,
    quadratic_bound,
    quadratic_rate,
    search_certificate,
)
from dpaccel.harness import GRID_ALGORITHMS, ExperimentConfig, run_grid
from dpaccel.optimizers import (
    HyperParams,
    masg_stage_schedule,
    nesterov_momentum,
    polyak_momentum,
    run,
)
from dpaccel.privacy_core import (
    NoiseSchedule,
    PrivacyAccount,
    RngStream,
    epsilon_of,
    laplace_sample,
    per_iteration_epsilon,
    uniform_scale,
)


def _leak(S1, b, n, m):
    # independent re-audit: additive composition of the per-step leak with
    # subsampling amplification, written out so the check does not go
    # through privacy_core
    b = np.asarray(b, dtype=float)
    if m == n:
        return float(np.sum(S1 / (b * n)))
    return float(np.sum(np.log1p(np.expm1(S1 / (b * m)) * (m / n))))


@pytest.fixture(scope="module")
def desk_grid(tmp_path_factory):
    """Default experiment grid, run once and indexed by (algo, m, T, c)."""
    out = tmp_path_factory.mktemp("acceptance_grid")
    t0 = time.perf_counter()
    run_grid(ExperimentConfig(), out)
    wall = time.perf_counter() - t0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["failed"] == []
    cells = {(r["algorithm"], r["m"], r["T"], r["c"]): r for r in summary["records"]}
    return {"cells": cells, "comparison": summary["comparison"], "wall": wall}


@pytest.fixture(scope="module")
def full_grid(tmp_path_factory):
    """Full-scale grid (n = 10^5) at T = 100, indexed by (algo, m, T, c)."""
    out = tmp_path_factory.mktemp("acceptance_full_grid")
    # 10 seeds: the tightest asserted gap in test 05 (dp-nag-opt against
    # dp-gd at m = 1000, 0.0155 against 0.0227) is still 3.7 standard
    # errors of the difference wide
    config = ExperimentConfig(
        n=100_000, T_values=(100,), c_values=(0.1, 1.0), replicates=10, workers=2
    )
    summary = run_grid(config, out)
    assert summary["failed"] == []
    return {(r["algorithm"], r["m"], r["T"], r["c"]): r for r in summary["records"]}


def _error_table(title, cells):
    # one row per (m, T, c), one column of final mean error per algorithm
    head = f"{'m':>6}{'T':>6}{'c':>5}" + "".join(f"{a:>13}" for a in GRID_ALGORITHMS)
    lines = [title, head]
    for m, T, c in sorted({key[1:] for key in cells}):
        lines.append(f"{m:>6}{T:>6}{c:>5}" + "".join(
            f"{cells[(a, m, T, c)]['final_mean_error']:>13.4g}" for a in GRID_ALGORITHMS
        ))
    return "\n".join(lines)


def test_acceptance_01_privacy_audit_exact_for_every_schedule_kind():
    # every schedule the library emits (uniform, optimized, rescaled) must
    # re-audit to the requested budget within 1e-9, 110 random tuples, < 1 s
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(110):
        S1 = 10.0 ** rng.uniform(-3, 2)
        eps = 10.0 ** rng.uniform(-3, 1)
        T = int(rng.integers(1, 300))
        n = int(rng.integers(2, 1_000_000))
        m = int(rng.integers(1, n + 1))

        sch = uniform_scale(S1, eps, T, n, m)
        worst = max(worst, abs(_leak(S1, sch.b, n, m) - eps))

        mu = rng.uniform(0.05, 0.5)
        L = mu + rng.uniform(0.5, 3.0)
        alpha = rng.uniform(0.3, 1.0) / L
        if i % 2:
            coeffs = nag_coefficients(mu, L, alpha, T)
        else:
            coeffs = masg_coefficients_for(mu, L, 0.8, 1, max(T, 2))
        opt = optimal_schedule(coeffs, S1, n, eps)
        worst = max(worst, abs(_leak(S1, opt.b, n, n) - eps))

        res, _ = rescale_for_subsampling(opt, S1, n, m, eps)
        worst = max(worst, abs(_leak(S1, res.b, n, m) - eps))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-9, f"worst audit gap {worst:.3e}"
    assert elapsed < 1.0, f"audit sweep took {elapsed:.2f}s"


def test_acceptance_02_full_batch_reductions_are_exact():
    # m = n: per-step budget is an even split and the leak is S/(b n),
    # both to machine precision (strict equality, the branch is closed form)
    rng = np.random.default_rng(202)
    for _ in range(200):
        eps = 10.0 ** rng.uniform(-6, 2)
        T = int(rng.integers(1, 10_000))
        n = int(rng.integers(1, 10**9))
        assert per_iteration_epsilon(eps, T, n, n) == eps / T
        S = 10.0 ** rng.uniform(-6, 3)
        b = 10.0 ** rng.uniform(-6, 3)
        assert epsilon_of(S, b, n, n) == S / (b * n)
    assert per_iteration_epsilon(1.0, 7, 3, 3) == 1.0 / 7
    assert epsilon_of(2.0, 0.5, 100, 100) == 2.0 / (0.5 * 100)


def test_acceptance_03_closed_form_allocation_is_optimal():
    # the closed-form schedule minimizes sum_t a_t b_t^2 under the budget:
    # no random feasible schedule or dense-grid point may do better, and
    # near-ties must coincide with the optimum
    rng = np.random.default_rng(303)
    t0 = time.perf_counter()
    S1, n, eps = 1.0, 1000, 1.0

    def objective(coeffs, b):
        return np.sum(coeffs.a * np.asarray(b, dtype=float) ** 2, axis=-1)

    def feasible_b(splits):
        return S1 / (n * eps * splits)

    for T in (2, 5, 50):
        coeff_sets = []
        for _ in range(2):
            mu = rng.uniform(0.05, 0.5)
            L = mu + rng.uniform(0.5, 3.0)
            alpha = rng.uniform(0.3, 1.0) / L
            coeff_sets.append(("nag", nag_coefficients(mu, L, alpha, T)))
        coeff_sets.append(("masg", masg_coefficients_for(0.1, 1.0, 0.8, 1, T)))
        for kind, coeffs in coeff_sets:
            opt = optimal_schedule(coeffs, S1, n, eps)
            opt_val = float(objective(coeffs, opt.b))
            splits = rng.dirichlet(np.ones(T), size=1000) + 1e-6
            splits /= splits.sum(axis=1, keepdims=True)
            assert abs(_leak(S1, feasible_b(splits[0]), n, n) - eps) < 1e-9
            vals = objective(coeffs, feasible_b(splits))
            assert vals.min() >= opt_val - 1e-9, (
                f"T={T} kind={kind}: random schedule beat the closed "
                f"form by {opt_val - vals.min():.3e}"
            )

    # dense positive grid on the 3-step budget simplex (1711 points)
    coeffs = nag_coefficients(0.2, 1.4, 0.5, 3)
    opt = optimal_schedule(coeffs, S1, n, eps)
    opt_val = float(objective(coeffs, opt.b))
    grid = np.array(
        [(i, j, 60 - i - j) for i in range(1, 59) for j in range(1, 60 - i)],
        dtype=float,
    ) / 60.0
    vals = objective(coeffs, feasible_b(grid))
    assert vals.min() >= opt_val - 1e-9
    ties = np.flatnonzero(np.abs(vals - opt_val) <= 1e-9)
    for k in ties:
        assert np.allclose(feasible_b(grid[k]), opt.b, rtol=5e-2)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"allocation sweep took {elapsed:.2f}s"


@pytest.mark.slow
def test_acceptance_04_optimized_schedule_beats_uniform(desk_grid):
    # (a) in the bound, for random configurations of both coefficient kinds
    rng = np.random.default_rng(404)
    for _ in range(40):
        mu = rng.uniform(0.02, 0.5)
        L = mu + rng.uniform(0.1, 4.0)
        T = int(rng.integers(2, 200))
        alpha = rng.uniform(0.2, 1.0) / L
        S1 = 10.0 ** rng.uniform(-2, 1)
        eps = 10.0 ** rng.uniform(-2, 1)
        n = int(rng.integers(100, 1_000_000))
        d = int(rng.integers(1, 50))
        E0 = 10.0 ** rng.uniform(-1, 2)
        for kind, coeffs in (
            ("nag", nag_coefficients(mu, L, alpha, T)),
            ("masg", masg_coefficients_for(mu, L, rng.uniform(0.3, 1.0),
                                           int(rng.integers(1, 3)), T)),
        ):
            uni = uniform_scale(S1, eps, len(coeffs.a), n, n)
            bound_uni = bound_value(coeffs, uni.b, d, E0)
            bound_opt = _optimized_bound(coeffs, E0, d * S1**2 / (n * eps) ** 2)
            assert bound_opt <= bound_uni * (1 + 1e-12), (
                f"optimized bound {bound_opt:.6g} > uniform {bound_uni:.6g} "
                f"(kind={kind} T={T})"
            )

    # (b) in the measured grid at c = 1: budget-optimized variants at or
    # below their uniform-budget counterparts in every cell
    cells = desk_grid["cells"]
    for m in (1000, 10000):
        for T in (100, 200, 500, 1000):
            for base, opt in (("dp-nag", "dp-nag-opt"), ("dp-masg", "dp-masg-opt")):
                e_base = cells[(base, m, T, 1.0)]["final_mean_error"]
                e_opt = cells[(opt, m, T, 1.0)]["final_mean_error"]
                assert e_opt <= e_base, (
                    f"{opt} {e_opt:.4g} > {base} {e_base:.4g} at m={m} T={T}"
                )
    assert desk_grid["wall"] < 600.0, f"grid took {desk_grid['wall']:.0f}s"


@pytest.mark.slow
def test_acceptance_05_accelerated_vs_gd_orderings(desk_grid, full_grid):
    """Momentum against plain DP-GD, where the noise floor allows an ordering.

    With m = n the per-step Laplace scale is b = S1 T / (n eps), and
    S1 = 2 u_max = 40 here (subsampling changes the constants, not the
    scaling).  DP-GD's stationary floor is about d alpha 2 b^2 / 4, which
    grows like (T/n)^2; at equal stepsize momentum multiplies it (by about
    1/(1 - beta) = 2.2 for heavy ball, beta = 0.54; Nesterov at c = 0.1 has
    beta = 0.91).

    Full scale, n = 10^5 and T = 100 (T/n = 10^-3): b = 0.04 and the floor
    is about 2e-3, small against the initial gap F(0) - F* = 0.30, so the
    contraction advantage shows.  At c = 0.1, for each m, dp-hb, dp-masg,
    dp-nag-opt and dp-masg-opt end strictly below dp-gd, and dp-nag-opt
    ends strictly below uniform dp-nag (the noise-dividing allocation
    improves Nesterov's error).  Tuned over (T, c), dp-hb's best final
    error is strictly below dp-gd's.

    Desk scale, n = 10^4 (T/n >= 10^-2): at T = 100, b = 0.4 and DP-GD's
    floor is about 0.19 against the 0.30 gap, so every method sits on its
    floor and momentum only amplifies it.  At c = 0.1, in every (m, T)
    cell, dp-gd ends strictly below dp-hb and dp-nag (smallest measured
    ratios 2.06x and 8.9x).

    Asserted neither way: uniform dp-nag against dp-gd at full scale, where
    they end about half a standard error apart at m = 10^4 (0.0213 against
    0.0226); and dp-masg at desk scale, whose decaying stepsizes put it
    below dp-gd at T = 1000 (0.80x) but above it at T <= 500.
    """
    desk = desk_grid["cells"]
    problems = []

    def below(where, cells, lo, hi, key):
        e_lo = cells[(lo, *key)]["final_mean_error"]
        e_hi = cells[(hi, *key)]["final_mean_error"]
        if not e_lo < e_hi:
            problems.append(f"{where} m,T,c={key}: {lo} {e_lo:.4g} >= {hi} {e_hi:.4g}")

    for m in (1000, 10000):
        key = (m, 100, 0.1)
        for algo in ("dp-hb", "dp-masg", "dp-nag-opt", "dp-masg-opt"):
            below("n=1e5", full_grid, algo, "dp-gd", key)
        below("n=1e5", full_grid, "dp-nag-opt", "dp-nag", key)
        best = {
            algo: min(r["final_mean_error"] for k, r in full_grid.items() if k[:2] == (algo, m))
            for algo in ("dp-hb", "dp-gd")
        }
        if not best["dp-hb"] < best["dp-gd"]:
            problems.append(
                f"n=1e5 m={m}: best-over-(T, c) dp-hb {best['dp-hb']:.4g} "
                f">= dp-gd {best['dp-gd']:.4g}"
            )
        for T in (100, 200, 500, 1000):
            for algo in ("dp-hb", "dp-nag"):
                below("n=1e4", desk, "dp-gd", algo, (m, T, 0.1))
    assert not problems, (
        "ordering violations (see docstring):\n  " + "\n  ".join(problems) + "\n"
        + _error_table("final mean error, n = 1e5:", full_grid) + "\n"
        + _error_table("final mean error, n = 1e4:", desk)
    )


def test_acceptance_06_quadratic_noise_envelope():
    # 1000-seed mean suboptimality sits under the certified envelope at
    # every t <= T, for 20 contractive (alpha, beta) pairs and both noise
    # levels sigma_T = T * c_w
    t0 = time.perf_counter()
    eigs = np.array([0.5, 1.0])
    T = 100
    rng = np.random.default_rng(42)
    pairs = []
    while len(pairs) < 20:
        alpha = rng.uniform(0.1, 1.0)
        beta = rng.uniform(0.05, 0.9)
        rep = quadratic_rate(alpha, beta, eigs)
        if rep.contractive and rep.rho <= 0.995:
            pairs.append((alpha, beta, rep))

    # start a quarter of the way up the stationary floor so the transient
    # and noise terms both matter; F(x0) = 0.375 delta^2 on this spectrum
    theta = 0.25
    t_axis = np.arange(T + 1)
    for k, (alpha, beta, rep) in enumerate(pairs):
        for c_w in (1e-4, 1e-2):
            sigma2 = (T * c_w) ** 2
            floor = float(np.asarray(quadratic_bound(rep, sigma2, 0, 0.0)))
            delta2 = theta * floor / 0.375
            x0 = np.sqrt(delta2 / 2.0) * np.ones(2)
            bound = np.asarray(quadratic_bound(rep, sigma2, t_axis, 2.0 * delta2))

            gen = np.random.Generator(np.random.Philox(6000 + k))
            X = np.tile(x0, (1000, 1))
            Xp = X.copy()
            curve = np.empty(T + 1)
            curve[0] = 0.5 * float(np.mean((X**2 * eigs).sum(axis=1)))
            b_scale = np.sqrt(sigma2 / 2.0)
            for t in range(T):
                eta = gen.laplace(scale=b_scale, size=(1000, 2))
                X, Xp = X - alpha * (X * eigs + eta) + beta * (X - Xp), X
                curve[t + 1] = 0.5 * float(np.mean((X**2 * eigs).sum(axis=1)))

            ratio = float(np.max(curve / bound))
            assert ratio <= 1.0, (
                f"pair {k} (alpha={alpha:.3f} beta={beta:.3f} rho={rep.rho:.3f}) "
                f"c_w={c_w:g}: mean curve exceeds envelope, max ratio {ratio:.3f}"
            )
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"envelope sweep took {elapsed:.1f}s"


def test_acceptance_07_tuned_heavy_ball_rate_recovery(quadratic):
    # noiseless heavy ball at the tuned stepsize/momentum on a conditioning-2
    # spectrum: fitted log-slope matches twice the log of the tuned rate
    mu, L = 0.5, 1.0
    alpha = 4.0 / (np.sqrt(mu) + np.sqrt(L)) ** 2
    beta = polyak_momentum(mu, L)
    obj = quadratic(np.diag([mu, L]))
    T = 160
    tr = run(
        "dp-hb", obj, HyperParams(m=1, stages=((T, alpha, beta),)),
        NoiseSchedule(np.zeros(T), np.zeros(T)), PrivacyAccount(1.0, T, 1, 1), RngStream(7),
        np.ones(2), obj.fstar,
    )
    w = np.arange(80, T + 1)
    slope = float(np.polyfit(w, np.log(tr.subopt[w]), 1)[0])
    target = 2.0 * np.log(0.171573)
    assert abs(slope - target) < 0.05, f"slope {slope:.4f} vs target {target:.4f}"


def test_acceptance_08_certificates_sound_against_simulation(quadratic):
    # every certificate the search returns must re-check as PSD with a
    # general-purpose eigensolver, and noiseless decay must not be slower
    # than the certified rate (0.05 log-slope tolerance)
    rng = np.random.default_rng(2024)
    found = 0
    for _ in range(10):
        mu = rng.uniform(0.2, 0.8)
        L = mu + rng.uniform(0.2, 2.0)
        alpha = rng.uniform(0.3, 1.0) / L
        beta = rng.uniform(0.0, 0.35)
        cert = search_certificate(alpha, beta, mu, L)
        if cert is None:
            continue
        found += 1
        M = certificate_matrix(alpha, beta, mu, L, cert.rho, cert.P, cert.c0, cert.c)
        lo = float(np.linalg.eigvalsh(0.5 * (M + M.T))[0])
        assert lo >= -1e-9, f"certificate re-check failed: min eig {lo:.3e}"

        obj = quadratic(np.diag([mu, L]))
        T = 400
        tr = run(
            "dp-hb", obj, HyperParams(m=1, stages=((T, alpha, beta),)),
            NoiseSchedule(np.zeros(T), np.zeros(T)), PrivacyAccount(1.0, T, 1, 1),
            RngStream(88), np.ones(2), obj.fstar,
        )
        sub = tr.subopt
        good = np.flatnonzero(sub > 1e-280)  # stay clear of the denormal tail
        t2 = int(good[-1])
        t1 = max(20, t2 - 200)
        seg = np.arange(t1, t2 + 1)
        peaks = [t for t in seg[1:-1] if sub[t] >= sub[t - 1] and sub[t] >= sub[t + 1]]
        pts = np.asarray(peaks if len(peaks) >= 3 else seg)
        slope = float(np.polyfit(pts, np.log(sub[pts]), 1)[0])
        certified = 2.0 * np.log(cert.rho)
        assert slope <= certified + 0.05, (
            f"decay slope {slope:.4f} slower than certified {certified:.4f} "
            f"(alpha={alpha:.3f} beta={beta:.3f} mu={mu:.3f} L={L:.3f})"
        )
    assert found >= 5, f"search found only {found}/10 certificates"


def test_acceptance_09_laplace_sampler_variance():
    # 1e6 draws per scale, fixed seeds: empirical variance within 2% of 2b^2
    for i, b in enumerate((0.01, 1.0, 100.0)):
        draws = laplace_sample(RngStream(900 + i), b, 1_000_000)
        var = float(np.var(draws))
        want = 2.0 * b * b
        assert abs(var - want) <= 0.02 * want, (
            f"b={b}: variance {var:.6g} vs expected {want:.6g}"
        )


def test_acceptance_10_stage_arithmetic_and_single_stage_equivalence(quadratic, recorded_run):
    # conditioning 20, doubling target 2^(1+2): unit = ceil(sqrt(20) ln 8) = 10,
    # stage lengths 10/40/80, stepsizes c/L, c/16L, c/64L
    assert int(np.ceil(np.sqrt(20.0) * np.log(8.0))) == 10
    stages = masg_stage_schedule(mu=0.05, L=1.0, c=0.7, p=1, T=130)
    lengths, alphas, _ = zip(*stages)
    assert lengths == (10, 40, 80)
    assert HyperParams(m=1, stages=stages).T == 130
    assert alphas == (0.7, 0.7 / 16.0, 0.7 / 64.0)

    # a single-stage plan (T below the unit) must reproduce the plain
    # lookahead method bitwise under a shared noise stream; the plan carries
    # the momentum of the mu it was built for, not the objective's
    T = 8
    single = masg_stage_schedule(mu=0.05, L=1.0, c=0.7, p=1, T=T)
    assert [length for length, _, _ in single] == [T]
    obj = quadratic(np.array([[1.0]]))
    eps = np.full(T, 0.01)
    sched = NoiseSchedule(b=np.full(T, 0.8), eps=eps, provenance="test")
    x0 = np.array([3.0])
    hp_m = HyperParams(m=1, stages=single)
    hp_n = HyperParams(m=1, stages=((T, 0.7, nesterov_momentum(0.7, 0.05)),))
    a, a_iterates = recorded_run("dp-masg", obj, hp_m, sched,
                                 PrivacyAccount(float(eps.sum()) + 1e-12, T, 1, 1),
                                 RngStream(5), x0, obj.fstar)
    b, b_iterates = recorded_run("dp-nag", obj, hp_n, sched,
                                 PrivacyAccount(float(eps.sum()) + 1e-12, T, 1, 1),
                                 RngStream(5), x0, obj.fstar)
    assert np.array_equal(a_iterates, b_iterates)
    assert np.array_equal(a.subopt, b.subopt)


def test_acceptance_11_momentum_form_equivalence(smoothed_heavy_ball, quadratic, recorded_run):
    # dp-hb (the iterate-difference form) and an independent replay of the
    # smoothed-average form agree to 1e-10 over 100 steps for random
    # (alpha, beta) and shared noise
    rng = np.random.default_rng(1111)
    T = 100
    for trial in range(5):
        d = 3
        A = rng.normal(size=(d, d))
        obj = quadratic(A @ A.T / d + 0.1 * np.eye(d))
        alpha = rng.uniform(0.05, 1.0) / obj.L
        beta = rng.uniform(0.05, 0.95)
        eps = np.full(T, 0.01)
        sched = NoiseSchedule(b=np.full(T, 0.3), eps=eps, provenance="test")
        x0 = rng.normal(size=d)
        hp = HyperParams(m=1, stages=((T, alpha, beta),))
        _, a = recorded_run("dp-hb", obj, hp, sched,
                            PrivacyAccount(2.0, T, 1, 1), RngStream(1100 + trial),
                            x0, obj.fstar)
        b = smoothed_heavy_ball(obj, alpha, beta, 1, sched, 1100 + trial, x0)
        gap = float(np.max(np.abs(a - b)))
        assert gap <= 1e-10, f"trial {trial}: forms diverge by {gap:.3e}"
