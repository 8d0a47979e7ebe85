import csv
import io

import numpy as np
import pytest

from dpaccel._table import _CSV_CHUNK, read_sidecar
from dpaccel.cli import _write_bound_csv
from dpaccel.harness import _write_curve_csvs
from dpaccel.objectives import Dataset, LogisticObjective, generate_synthetic
from dpaccel.optimizers import (
    ALGORITHMS,
    HyperParams,
    Trace,
    masg_stage_schedule,
    nesterov_momentum,
    polyak_momentum,
    run,
    run_group,
)
from dpaccel.privacy_core import (
    NoiseSchedule,
    PrivacyAccount,
    RngStream,
    laplace_sample,
    uniform_scale,
)


def quad1d(quadratic):
    return quadratic(np.array([[1.0]]))


def noisy_setup(quadratic, T, b=0.5):
    obj = quad1d(quadratic)
    eps = np.full(T, 0.01)
    sched = NoiseSchedule(b=np.full(T, b), eps=eps, provenance="test")
    acct = PrivacyAccount(epsilon_total=float(eps.sum()) + 1e-12, T=T, n=1, m=1)
    return obj, sched, acct


def no_noise(T):
    return NoiseSchedule(b=np.zeros(T), eps=np.zeros(T))


def test_momentum_formulas():
    kappa = 2.0
    want = ((np.sqrt(kappa) - 1) / (np.sqrt(kappa) + 1)) ** 2
    assert polyak_momentum(0.5, 1.0) == pytest.approx(want)
    assert nesterov_momentum(1.0, 0.25) == pytest.approx(1 / 3)
    with pytest.raises(ValueError):
        nesterov_momentum(2.0, 0.5)
    with pytest.raises(ValueError):
        nesterov_momentum(-1.0, 0.5)
    with pytest.raises(ValueError):
        polyak_momentum(2.0, 1.0)


def test_gd_single_step(quadratic, recorded_run):
    obj, _, _ = noisy_setup(quadratic, 1)
    hp = HyperParams(m=1, stages=((1, 0.5, 0.0),))
    trace, iterates = recorded_run("dp-gd", obj, hp, no_noise(1),
                                   PrivacyAccount(1.0, 1, 1, 1), RngStream(0),
                                   np.array([1.0]), obj.fstar)
    assert iterates[1] == pytest.approx(0.5)
    assert trace.subopt[1] == pytest.approx(0.5 * 0.25)


def test_gd_contracts_per_step(quadratic, recorded_run):
    Q = np.diag([0.5, 1.0, 1.5])
    obj = quadratic(Q)
    hp = HyperParams(m=1, stages=((30, 1 / obj.L, 0.0),))
    _, iterates = recorded_run("dp-gd", obj, hp, no_noise(30), PrivacyAccount(1.0, 30, 1, 1),
                               RngStream(0), np.array([2.0, -1.0, 0.5]), obj.fstar)
    rate = 1 - obj.mu / obj.L
    dist = np.linalg.norm(iterates - obj.minimizer, axis=1)
    assert np.all(dist[1:] <= rate * dist[:-1] + 1e-15)


def test_hb_hand_recursion(quadratic, recorded_run):
    obj = quad1d(quadratic)
    hp = HyperParams(m=1, stages=((3, 1.0, 0.5),))
    _, iterates = recorded_run("dp-hb", obj, hp, no_noise(3), PrivacyAccount(1.0, 3, 1, 1),
                               RngStream(0), np.array([1.0]), obj.fstar)
    assert iterates[:, 0] == pytest.approx([1.0, 0.0, -0.5, -0.25], abs=1e-15)


def test_hb_is_the_momentum_step_bitwise(recorded_run):
    # independent replay of y = (1 + beta) x - beta x_prev, x' = y - alpha g
    # with g the noisy minibatch gradient at x, from the run's own draws, and
    # momentum restarted (x_prev = x) at each stage's start
    obj = LogisticObjective(generate_synthetic(3, 200, 4.0, seed=2), lam=0.05)
    T, m = 300, 50
    sched = uniform_scale(obj.sensitivity_bound(), 1.0, T, obj.n, m)
    stages = ((T, 1.0 / obj.L, polyak_momentum(obj.mu, obj.L)),)
    x0 = np.array([0.5, -1.0, 2.0])
    _, iterates = recorded_run("dp-hb", obj, HyperParams(m=m, stages=stages), sched,
                               PrivacyAccount(1.0, T, obj.n, m), RngStream(9), x0, 0.0)
    rng = RngStream(9)
    x, t = x0, 0
    for length, alpha, beta in stages:
        x_prev = x
        for _ in range(length):
            g = obj.minibatch_gradient(x, rng.subsample(obj.n, m))
            g = g + laplace_sample(rng, sched.b[t], obj.d)
            y = (1 + beta) * x - beta * x_prev
            x_prev, x = x, y - alpha * g
            t += 1
            assert np.array_equal(iterates[t], x), t


def test_nag_hand_recursion(quadratic, recorded_run):
    # alpha=1 on unit quadratic solves in one step; momentum keeps it there
    obj = quad1d(quadratic)
    hp = HyperParams(m=1, stages=((3, 1.0, 1 / 3),))
    _, iterates = recorded_run("dp-nag", obj, hp, no_noise(3), PrivacyAccount(1.0, 3, 1, 1),
                               RngStream(0), np.array([1.0]), obj.fstar)
    assert iterates[:, 0] == pytest.approx([1.0, 0.0, 0.0, 0.0], abs=1e-15)


def test_beta_zero_reductions(quadratic, recorded_run):
    # with beta=0, hb and nag both replay gd's trajectory bitwise
    T = 50
    obj, sched, _ = noisy_setup(quadratic, T)
    x0 = np.array([2.0])
    _, ref = recorded_run("dp-gd", obj, HyperParams(m=1, stages=((T, 0.1, 0.0),)), sched,
                          PrivacyAccount(1.0, T, 1, 1), RngStream(11), x0, obj.fstar)
    for algo in ("dp-hb", "dp-nag"):
        _, got = recorded_run(algo, obj, HyperParams(m=1, stages=((T, 0.1, 0.0),)), sched,
                              PrivacyAccount(1.0, T, 1, 1), RngStream(11), x0, obj.fstar)
        assert np.array_equal(got, ref), algo


def test_hb_smoothed_form_equivalence(smoothed_heavy_ball, quadratic, recorded_run):
    # dp-hb and an independent replay of the smoothed heavy-ball form agree
    # to 1e-10 over 100 steps, shared noise
    rng = np.random.default_rng(0)
    for trial in range(10):
        alpha = rng.uniform(0.05, 1.0)
        beta = rng.uniform(0.0, 0.95)
        T = 100
        obj, sched, _ = noisy_setup(quadratic, T, b=0.3)
        x0 = rng.normal(size=1)
        _, a = recorded_run("dp-hb", obj, HyperParams(m=1, stages=((T, alpha, beta),)), sched,
                            PrivacyAccount(1.0, T, 1, 1), RngStream(trial), x0, obj.fstar)
        b = smoothed_heavy_ball(obj, alpha, beta, 1, sched, trial, x0)
        assert np.max(np.abs(a - b)) < 1e-10


def test_masg_stage_arithmetic():
    # kappa = 20, p = 1: unit = ceil(sqrt(20) ln 8) = 10, stages 10/40/80,
    # stepsizes c/L, c/16L, c/64L
    # and each stage's momentum is its stepsize's Nesterov momentum
    stages = masg_stage_schedule(mu=0.05, L=1.0, c=1.0, p=1, T=130)
    assert [length for length, _, _ in stages] == [10, 40, 80]
    assert [alpha for _, alpha, _ in stages] == pytest.approx([1.0, 1 / 16, 1 / 64])
    assert [beta for _, _, beta in stages] == [nesterov_momentum(a, 0.05) for _, a, _ in stages]
    # truncation keeps the total exactly T
    trunc = masg_stage_schedule(mu=0.05, L=1.0, c=1.0, p=1, T=100)
    assert [length for length, _, _ in trunc] == [10, 40, 50]
    assert HyperParams(m=1, stages=trunc).T == 100
    short = masg_stage_schedule(mu=0.05, L=1.0, c=1.0, p=1, T=5)
    assert [length for length, _, _ in short] == [5]
    assert trunc[0][1] == 1.0


def test_stage_schedule_validation():
    # every stage is a (length, alpha, beta) triple with length >= 1, a finite
    # alpha > 0 and 0 <= beta < 1
    with pytest.raises(ValueError):
        HyperParams(m=1, stages=((3, 0.1, 0.0, 0.2),))
    with pytest.raises(ValueError):
        HyperParams(m=1, stages=((3, 0.1),))
    with pytest.raises(ValueError, match="lengths"):
        HyperParams(m=1, stages=((0, 0.1, 0.0),))
    for alpha in (-0.1, 0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="stepsize"):
            HyperParams(m=1, stages=((3, 0.1, 0.0), (3, alpha, 0.0)))
    for beta in (-0.1, 1.0, np.nan):
        with pytest.raises(ValueError, match="momentum"):
            HyperParams(m=1, stages=((3, 0.1, beta),))
    with pytest.raises(ValueError, match="m >= 1"):
        HyperParams(m=0, stages=((3, 0.1, 0.0),))
    # a negative stepsize, which would run gradient ascent
    with pytest.raises(ValueError, match="stepsize"):
        HyperParams(m=200, stages=((20, -1.0, 0.5),))
    # a stage exponent p < 1 is refused, not clamped to one plan
    for p in (0, -2, -3, -10):
        with pytest.raises(ValueError, match="need p >= 1"):
            masg_stage_schedule(mu=0.01, L=1.0, c=1.0, p=p, T=60)
    with pytest.raises(ValueError, match="need 0 < mu <= L"):
        masg_stage_schedule(mu=2.0, L=1.0, c=1.0, p=1, T=60)
    for c in (0.0, -1.0):
        with pytest.raises(ValueError, match="stepsize scale must be positive"):
            masg_stage_schedule(mu=0.01, L=1.0, c=c, p=1, T=60)
    with pytest.raises(ValueError, match="need T >= 1"):
        masg_stage_schedule(mu=0.01, L=1.0, c=1.0, p=1, T=0)
    plan = HyperParams(m=1, stages=[[3, 0.1, 0.0], (np.int64(2), np.float64(0.05), 0.5)])
    assert plan.stages == ((3, 0.1, 0.0), (2, 0.05, 0.5))
    assert plan.T == 5
    assert HyperParams(m=1, stages=()).T == 0


def test_masg_single_stage_is_nag_bitwise(quadratic, recorded_run):
    T = 40
    obj, sched, _ = noisy_setup(quadratic, T, b=0.8)
    x0 = np.array([3.0])
    alpha = 0.7
    hp = HyperParams(m=1, stages=((T, alpha, nesterov_momentum(alpha, obj.mu)),))
    a, a_iterates = recorded_run("dp-masg", obj, hp, sched, PrivacyAccount(1.0, T, 1, 1),
                                 RngStream(5), x0, obj.fstar)
    b, b_iterates = recorded_run("dp-nag", obj, hp, sched, PrivacyAccount(1.0, T, 1, 1),
                                 RngStream(5), x0, obj.fstar)
    assert np.array_equal(a_iterates, b_iterates)
    assert np.array_equal(a.subopt, b.subopt)


def test_masg_momentum_tracks_stage_stepsize(quadratic, recorded_run):
    # independent replay: per-iteration (alpha, beta) from the stage plan,
    # momentum restarted (x_prev = x) at each stage's first iteration.  An
    # earlier version carried the momentum across boundaries unchanged; that
    # let a velocity built at the previous, 16x larger stepsize run on under
    # beta close to 1, and the noiseless error then rose with T.
    obj = quadratic(np.diag([0.05, 1.0]))
    stages = masg_stage_schedule(obj.mu, obj.L, 1.0, 1, 60)
    assert len(stages) >= 3
    hp = HyperParams(m=1, stages=stages)
    trace, iterates = recorded_run("dp-masg", obj, hp, no_noise(60),
                                   PrivacyAccount(1.0, 60, 1, 1), RngStream(2),
                                   np.array([1.0, 1.0]), obj.fstar)
    x_prev = x = np.array([1.0, 1.0])
    stage = [k for k, (length, _, _) in enumerate(stages) for _ in range(length)]
    for t in range(60):
        k = stage[t]
        if t > 0 and k != stage[t - 1]:
            x_prev = x
        a = stages[k][1]
        beta = (1 - np.sqrt(a * obj.mu)) / (1 + np.sqrt(a * obj.mu))
        z = (1 + beta) * x - beta * x_prev
        x_prev, x = x, z - a * obj.full_gradient(z)
        assert np.array_equal(iterates[t + 1], x)
    # noiseless multi-stage run still makes progress
    assert trace.subopt[-1] < 1e-2 * trace.subopt[0]


def test_noise_scales_into_update(quadratic, recorded_run):
    # one gd step from the minimum: Var(x_1) = alpha^2 * 2 b^2
    alpha, b = 0.3, 0.7
    obj = quad1d(quadratic)
    sched = NoiseSchedule(b=np.array([b]), eps=np.array([0.0]))
    vals = np.empty(4000)
    for s in range(vals.size):
        _, iterates = recorded_run("dp-gd", obj, HyperParams(m=1, stages=((1, alpha, 0.0),)),
                                   sched, PrivacyAccount(1.0, 1, 1, 1), RngStream(s),
                                   np.array([0.0]), obj.fstar)
        vals[s] = iterates[1, 0]
    # wiring check, not a precision check: a missing alpha^2 or a b vs 2b^2
    # mixup is a 2x-11x error, far outside this band
    want = alpha**2 * 2 * b**2
    assert abs(vals.var() / want - 1) < 0.15
    assert abs(vals.mean()) < 0.02


def test_run_deterministic_and_seed_sensitive(quadratic):
    T = 20
    obj, sched, _ = noisy_setup(quadratic, T)
    hp = HyperParams(m=1, stages=((T, 0.2, 0.3),))
    a = run("dp-hb", obj, hp, sched, PrivacyAccount(1.0, T, 1, 1), RngStream(21),
            np.array([1.0]), obj.fstar)
    b = run("dp-hb", obj, hp, sched, PrivacyAccount(1.0, T, 1, 1), RngStream(21),
            np.array([1.0]), obj.fstar)
    c = run("dp-hb", obj, hp, sched, PrivacyAccount(1.0, T, 1, 1), RngStream(22),
            np.array([1.0]), obj.fstar)
    assert np.array_equal(a.subopt, b.subopt)
    assert not np.array_equal(a.subopt, c.subopt)


def group_plans(obj, m):
    """(algorithm, hp, schedule) of all four update forms, horizons 30 and
    60, and a dp-masg plan of three stages, on uniform schedules."""
    alpha = 0.5 / obj.L
    nag = nesterov_momentum(alpha, obj.mu)
    stages = [
        ("dp-gd", ((60, alpha, 0.0),)),
        ("dp-hb", ((30, alpha, polyak_momentum(obj.mu, obj.L)),)),
        ("dp-nag", ((60, alpha, nag),)),
        ("dp-masg", masg_stage_schedule(obj.mu, obj.L, 0.5, 1, 60)),
        ("dp-nag", ((30, alpha, nag),)),
        ("dp-hb", ((60, alpha, polyak_momentum(obj.mu, obj.L)),)),
    ]
    assert len(stages[3][1]) == 3
    return [(algo, HyperParams(m=m, stages=st),
             uniform_scale(obj.sensitivity_bound(), 1.0, sum(k for k, _, _ in st), obj.n, m))
            for algo, st in stages]


def with_accounts(obj, plans):
    return [(algo, hp, sched, PrivacyAccount(1.0, hp.T, obj.n, hp.m)) for algo, hp, sched in plans]


@pytest.mark.parametrize("m", [60, 200])
def test_group_writes_the_bytes_of_separate_runs(tmp_path, m):
    # one lockstep group against each plan run alone on the same seed, at
    # m < n and at m = n: every trace CSV is byte-equal, and every sidecar
    # apart from wall_time
    obj = LogisticObjective(generate_synthetic(4, 200, 5.0, 6), lam=0.05)
    plans = group_plans(obj, m)
    x0, fstar = np.array([1.0, -2.0, 0.5, 3.0]), 0.25
    alone = [run(algo, obj, hp, sched, PrivacyAccount(1.0, hp.T, obj.n, m), RngStream(77),
                 x0, fstar) for algo, hp, sched in plans]

    def assert_bytes_of_alone(traces):
        for j, (trace, want_trace) in enumerate(zip(traces, alone)):
            got_csv, want_csv = tmp_path / f"group_{j}.csv", tmp_path / f"alone_{j}.csv"
            trace.to_csv(got_csv)
            want_trace.to_csv(want_csv)
            assert got_csv.read_bytes() == want_csv.read_bytes()
            got, want = read_sidecar(got_csv), read_sidecar(want_csv)
            assert got.pop("wall_time") > 0 and want.pop("wall_time") > 0
            assert got == want

    assert_bytes_of_alone(run_group(obj, with_accounts(obj, plans), RngStream(77), x0, fstar))
    # the plans in reverse, with a refused plan in the middle: the results
    # come back in input order, and each run still has the bits it has alone
    refused = ("dp-unknown", *plans[0][1:])
    mixed = plans[:2:-1] + [refused] + plans[2::-1]
    back = run_group(obj, with_accounts(obj, mixed), RngStream(77), x0, fstar)
    assert isinstance(back[3], ValueError) and "unknown algorithm" in str(back[3])
    assert_bytes_of_alone((back[:3] + back[4:])[::-1])
    # a group shares its subsample and every step's uniforms, so its runs
    # must share m and draw noise at every step
    with pytest.raises(ValueError, match="share one subsample size m"):
        run_group(obj, with_accounts(obj, [plans[0], group_plans(obj, m // 2)[0]]),
                  RngStream(77), x0, fstar)
    quiet = (*plans[0][:2], NoiseSchedule(b=np.zeros(60), eps=np.zeros(60)))
    with pytest.raises(ValueError, match="draw noise at every step"):
        run_group(obj, with_accounts(obj, [plans[1], quiet]), RngStream(77), x0, fstar)


def test_diverged_run_leaves_its_group():
    # a dp-gd plan at alpha = 1e6 / L blows up; it is reported with the step
    # of its first non-finite iterate, and every other run of its group keeps
    # the bits it has without that plan
    obj = LogisticObjective(generate_synthetic(4, 200, 5.0, 6), lam=0.05)
    m, T, x0 = 60, 100, np.ones(4)
    plans = group_plans(obj, m)
    alpha = 1e6 / obj.L
    sched = NoiseSchedule(b=np.full(T, 0.5), eps=np.full(T, 0.001))
    wild = ("dp-gd", HyperParams(m=m, stages=((T, alpha, 0.0),)), sched)
    mixed = run_group(obj, with_accounts(obj, plans[:2] + [wild] + plans[2:]), RngStream(3),
                      x0, 0.0)
    clean = run_group(obj, with_accounts(obj, plans), RngStream(3), x0, 0.0)
    for got, want in zip(mixed[:2] + mixed[3:], clean):
        assert got.subopt.tobytes() == want.subopt.tobytes()
        assert got.eps_cum.tobytes() == want.eps_cum.tobytes()

    # independent replay of x' = x - alpha (g + noise) on the stream's draws
    rng, x = RngStream(3), x0
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, T + 1):
            g = obj.minibatch_gradient(x, rng.subsample(obj.n, m))
            x = x - alpha * (g + laplace_sample(rng, sched.b[step - 1], obj.d))
            if not np.isfinite(x).all():
                break
    assert 1 < step < T
    assert isinstance(mixed[2], FloatingPointError)
    assert str(mixed[2]) == f"diverged at step {step}"
    lone = RngStream(3)
    with pytest.raises(FloatingPointError, match=f"^diverged at step {step}$"):
        run(*wild[:1], obj, *wild[1:], PrivacyAccount(1.0, T, obj.n, m), lone, x0, 0.0)
    # one subsample and one uniform draw per step up to the divergence, none after
    assert lone.counter == 2 * step


def test_overspent_run_leaves_its_group():
    # dp-hb (T = 30) and dp-nag (T = 60) each leak 1.0 and share one account
    # of 1.58: 1.5 is spent when dp-hb ends, and dp-nag's fifth step after
    # that is refused.  The other runs keep the bits they have with accounts
    # of their own.
    obj = LogisticObjective(generate_synthetic(4, 200, 5.0, 6), lam=0.05)
    m, x0, fstar = 60, np.ones(4), 0.0
    plans = group_plans(obj, m)
    shared = PrivacyAccount(1.58, 60, obj.n, m)
    runs = with_accounts(obj, plans)
    runs[1], runs[2] = (*plans[1], shared), (*plans[2], shared)
    got = run_group(obj, runs, RngStream(5), x0, fstar)
    want = run_group(obj, with_accounts(obj, plans), RngStream(5), x0, fstar)
    assert isinstance(got[2], ValueError)
    assert str(got[2]).startswith("budget overrun")
    assert shared.spent == pytest.approx(1.5 + 4 / 60, abs=1e-12)
    # dp-hb's eps_cum reads the shared ledger; its iterates are its own
    assert got[1].subopt.tobytes() == want[1].subopt.tobytes()
    for j in (0, 3, 4, 5):
        assert got[j].subopt.tobytes() == want[j].subopt.tobytes()
        assert got[j].eps_cum.tobytes() == want[j].eps_cum.tobytes()


def test_subopt_is_values_of_iterates(recorded_run):
    obj = LogisticObjective(generate_synthetic(4, 300, 5.0, 1), lam=0.05)
    T, m = 30, 60
    sched = uniform_scale(obj.sensitivity_bound(), 1.0, T, obj.n, m)
    hp = HyperParams(m=m, stages=((T, 0.5 / obj.L, nesterov_momentum(0.5 / obj.L, obj.mu)),))
    fstar = 0.25
    kept, iterates = recorded_run("dp-nag", obj, hp, sched, PrivacyAccount(1.0, T, obj.n, m),
                                  RngStream(8), np.ones(4), fstar)
    plain = run("dp-nag", obj, hp, sched, PrivacyAccount(1.0, T, obj.n, m), RngStream(8),
                np.ones(4), fstar)
    assert iterates.shape == (T + 1, 4)
    assert np.array_equal(kept.subopt, obj.values(iterates) - fstar)
    # recording changes nothing the run returns
    assert np.array_equal(plain.subopt, kept.subopt)
    assert np.array_equal(plain.eps_cum, kept.eps_cum)


def test_accounting_in_traces():
    data = generate_synthetic(4, 200, 5.0, 0)
    obj = LogisticObjective(data, lam=0.05)
    T, m = 25, 50
    sched = uniform_scale(obj.sensitivity_bound(), 0.8, T, obj.n, m)
    acct = PrivacyAccount(0.8, T, obj.n, m)
    trace = run("dp-gd", obj, HyperParams(m=m, stages=((T, 0.5 / obj.L, 0.0),)), sched,
                acct, RngStream(3), np.zeros(4), 0.0)
    assert np.all(np.diff(trace.eps_cum) > 0)
    assert trace.eps_cum[-1] == pytest.approx(0.8, abs=1e-9)
    assert acct.remaining == pytest.approx(0.0, abs=1e-9)
    assert trace.eps_cum[0] == 0.0
    assert len(trace.t) - 1 == T


def test_budget_overrun_rejected(quadratic):
    T = 5
    obj, sched, _ = noisy_setup(quadratic, T)
    slim = PrivacyAccount(epsilon_total=0.04, T=T, n=1, m=1)  # needs 0.05
    with pytest.raises(ValueError):
        run("dp-gd", obj, HyperParams(m=1, stages=((T, 0.1, 0.0),)), sched, slim,
            RngStream(0), np.array([0.0]), obj.fstar)


def test_run_validation(quadratic):
    obj, sched, acct = noisy_setup(quadratic, 3)
    hp = HyperParams(m=1, stages=((3, 0.1, 0.0),))
    # the smoothed heavy-ball form is a replay in conftest.py, not a method of run()
    for algo in ("dp-unknown", "dp-hb-avg"):
        with pytest.raises(ValueError, match="unknown algorithm"):
            run(algo, obj, hp, sched, acct, RngStream(0), np.array([0.0]), 0.0)
    with pytest.raises(ValueError):
        run("dp-gd", obj, HyperParams(m=1, stages=((2, 0.1, 0.0),)), sched, acct,
            RngStream(0), np.array([0.0]), 0.0)
    with pytest.raises(ValueError):
        run("dp-gd", obj, hp, sched, acct, RngStream(0), np.zeros(2), 0.0)
    with pytest.raises(ValueError):
        run("dp-gd", obj, HyperParams(m=2, stages=((3, 0.1, 0.0),)), sched, acct,
            RngStream(0), np.array([0.0]), 0.0)
    # only dp-masg runs more than one stage
    two = HyperParams(m=1, stages=((2, 0.1, 0.3), (1, 0.05, 0.3)))
    for algo in ("dp-gd", "dp-hb", "dp-nag"):
        with pytest.raises(ValueError, match="runs one stage"):
            run(algo, obj, two, sched, acct, RngStream(0), np.array([0.0]), 0.0)
    with pytest.raises(ValueError):
        run("dp-gd", obj, hp, sched, acct, RngStream(0), np.array([0.0]), np.nan)
    with pytest.raises(ValueError):
        HyperParams(m=1, stages=((3, 0.1, 1.0),))
    with pytest.raises(ValueError):
        HyperParams(m=1, stages=((3, -0.1, 0.0),))


def test_zero_iterations(quadratic):
    obj = quad1d(quadratic)
    for algo in ("dp-gd", "dp-hb", "dp-nag"):
        trace = run(algo, obj, HyperParams(m=1, stages=()), no_noise(0),
                    PrivacyAccount(1.0, 1, 1, 1), RngStream(0), np.array([2.0]),
                    obj.fstar)
        assert len(trace.t) == 1
        assert trace.subopt[0] == pytest.approx(2.0)


def test_subsampling_draws_fresh_indices():
    data = generate_synthetic(3, 40, 4.0, 1)
    obj = LogisticObjective(data, lam=0.1)
    T, m = 4, 10
    sched = uniform_scale(obj.sensitivity_bound(), 1.0, T, obj.n, m)
    # same seed, same trace; the subsample stream is part of determinism
    kw = dict(schedule=sched, x0=np.zeros(3), fstar=0.0)
    a = run("dp-gd", obj, HyperParams(m=m, stages=((T, 0.1, 0.0),)),
            account=PrivacyAccount(1.0, T, obj.n, m), rng=RngStream(9), **kw)
    b = run("dp-gd", obj, HyperParams(m=m, stages=((T, 0.1, 0.0),)),
            account=PrivacyAccount(1.0, T, obj.n, m), rng=RngStream(9), **kw)
    assert np.array_equal(a.subopt, b.subopt)


def test_trace_csv_roundtrip(tmp_path, quadratic):
    T = 6
    obj, sched, _ = noisy_setup(quadratic, T)
    trace = run("dp-hb", obj, HyperParams(m=1, stages=((T, 0.2, 0.4),)), sched,
                PrivacyAccount(1.0, T, 1, 1), RngStream(1), np.array([1.5]), obj.fstar)
    path = tmp_path / "tr.csv"
    trace.to_csv(path)
    back = Trace.from_csv(path)
    assert np.array_equal(back.subopt, trace.subopt)
    assert np.array_equal(back.eps_cum, trace.eps_cum)
    assert back.meta["algorithm"] == "dp-hb"
    assert back.meta["stages"] == [[T, 0.2, 0.4]]
    with pytest.raises(ValueError):
        Trace.from_csv(__file__)


def _awkward(rows, seed):
    """Floats from 1e-300 to 1e300, led by a subnormal, the largest double and 0.1 + 0.2."""
    x = RngStream(seed).random(rows) * np.logspace(-300, 300, rows)
    x[:4] = [0.0, 5e-324, 1.7976931348623157e308, 0.1 + 0.2]
    return x


@pytest.mark.parametrize("kind", ["trace", "schedule", "dataset", "curve", "bound"])
def test_table_csv_bytes_match_csv_writer(tmp_path, kind):
    # longer than one chunk of the writer, with awkward floats
    rows = 2 * _CSV_CHUNK + 17
    t = np.arange(rows)
    a = _awkward(rows, 3)
    b = np.cumsum(RngStream(4).random(rows) * 1e-4)
    path = tmp_path / f"{kind}.csv"
    if kind == "trace":
        a[4:6] = [-0.0, np.inf]
        trace = Trace(t=t, subopt=a, eps_cum=b, meta={"algorithm": "x", "beta": np.float64(0.4)})
        trace.to_csv(path)
        header, ref_rows = ["t", "subopt", "eps_cum"], zip(t, a, b)
        back = Trace.from_csv(path)
        pairs = [(back.t, t), (back.subopt, a), (back.eps_cum, b)]
        assert back.meta == trace.meta
    elif kind == "schedule":
        NoiseSchedule(b=a, eps=b).to_csv(path)
        header, ref_rows = ["t", "b_t", "eps_t"], zip(t + 1, a, b)
        back = NoiseSchedule.from_csv(path)
        pairs = [(back.b, a), (back.eps, b)]
        assert back.provenance == ""
    elif kind == "dataset":
        z, U = np.where(t % 3, 1.0, -1.0), np.column_stack([a, -b])
        x_true = np.array([0.1 + 0.2, 5e-324])
        Dataset(U=U, z=z, u_max=1.7976931348623157e308, seed=7, x_true=x_true).to_csv(path)
        header, ref_rows = ["z", "u_1", "u_2"], zip(z, a, -b)
        back = Dataset.from_csv(path)
        pairs = [(back.z, z), (back.U, U), (back.x_true, x_true)]
        assert (back.u_max, back.seed) == (1.7976931348623157e308, 7)
    elif kind == "curve":
        rec = {"algorithm": "dp-gd", "m": 10, "T": rows - 1, "c": 0.5,
               "mean_log10": a, "sem_log10": b}
        _write_curve_csvs(tmp_path, {"records": [rec]})
        path = tmp_path / f"curve_dp-gd_10_{rows - 1}_0.5.csv"
        header, ref_rows = ["t", "mean_log10_subopt", "sem_log10_subopt"], zip(t, a, b)
        pairs = []
    else:
        _write_bound_csv(path, t, a)
        header, ref_rows = ["t", "bound"], zip(t, a)
        pairs = []

    ref = io.StringIO(newline="")
    writer = csv.writer(ref)
    writer.writerow(header)
    writer.writerows([int(r[0]), *(repr(float(v)) for v in r[1:])] for r in ref_rows)
    assert path.read_bytes() == ref.getvalue().encode()
    for got, want in pairs:
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert (tmp_path / f"{path.stem}.meta.json").exists() == (kind in ("trace", "dataset"))


@pytest.mark.parametrize("T", [0, 3])
@pytest.mark.parametrize("algo, beta", [("dp-gd", 0.0), ("dp-hb", 0.4)])
def test_meta_beta_is_the_momentum_run_uses(T, algo, beta, quadratic):
    # the sidecar records the plan run() followed, stage by stage
    obj, sched, acct = noisy_setup(quadratic, T)
    stages = ((T, 0.1, beta),) if T else ()
    trace = run(algo, obj, HyperParams(m=1, stages=stages), sched, acct,
                RngStream(0), np.array([1.0]), obj.fstar)
    assert trace.meta["stages"] == ([[T, 0.1, beta]] if T else [])
    # dp-gd refuses a momentum plan rather than run it as gd
    if algo == "dp-gd" and T:
        with pytest.raises(ValueError, match="dp-gd runs without momentum"):
            run(algo, obj, HyperParams(m=1, stages=((T, 0.1, 0.4),)), sched,
                PrivacyAccount(1.0, T, 1, 1), RngStream(0), np.array([1.0]), obj.fstar)


def test_algorithm_registry():
    assert set(ALGORITHMS) == {"dp-gd", "dp-hb", "dp-nag", "dp-masg"}
