import csv
import io

import numpy as np
import pytest

from dpaccel._table import _CSV_CHUNK
from dpaccel.cli import _write_bound_csv
from dpaccel.harness import _write_curve_csvs
from dpaccel.objectives import Dataset, LogisticObjective, generate_synthetic
from dpaccel.optimizers import (
    ALGORITHMS,
    HyperParams,
    StageSchedule,
    Trace,
    masg_stage_schedule,
    nesterov_momentum,
    polyak_momentum,
    run,
)
from dpaccel.privacy_core import NoiseSchedule, PrivacyAccount, RngStream, uniform_scale


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
    arr = nesterov_momentum(np.array([1.0, 0.25]), 0.25)
    assert arr == pytest.approx([1 / 3, (1 - 0.25) / (1 + 0.25)])
    with pytest.raises(ValueError):
        nesterov_momentum(2.0, 0.5)
    with pytest.raises(ValueError):
        nesterov_momentum(-1.0, 0.5)
    with pytest.raises(ValueError):
        polyak_momentum(2.0, 1.0)


def test_gd_single_step(quadratic):
    obj, _, _ = noisy_setup(quadratic, 1)
    hp = HyperParams(alpha=0.5, T=1, m=1)
    trace = run("dp-gd", obj, hp, no_noise(1),
                PrivacyAccount(1.0, 1, 1, 1), RngStream(0), np.array([1.0]),
                obj.fstar, record_iterates=True)
    assert trace.iterates[1] == pytest.approx(0.5)
    assert trace.subopt[1] == pytest.approx(0.5 * 0.25)


def test_gd_contracts_per_step(quadratic):
    Q = np.diag([0.5, 1.0, 1.5])
    obj = quadratic(Q)
    hp = HyperParams(alpha=1 / obj.L, T=30, m=1)
    trace = run("dp-gd", obj, hp, no_noise(30), PrivacyAccount(1.0, 30, 1, 1),
                RngStream(0), np.array([2.0, -1.0, 0.5]), obj.fstar,
                record_iterates=True)
    rate = 1 - obj.mu / obj.L
    dist = np.linalg.norm(trace.iterates - obj.minimizer, axis=1)
    assert np.all(dist[1:] <= rate * dist[:-1] + 1e-15)


def test_hb_hand_recursion(quadratic):
    obj = quad1d(quadratic)
    hp = HyperParams(alpha=1.0, T=3, m=1, beta=0.5)
    trace = run("dp-hb", obj, hp, no_noise(3), PrivacyAccount(1.0, 3, 1, 1),
                RngStream(0), np.array([1.0]), obj.fstar, record_iterates=True)
    assert trace.iterates[:, 0] == pytest.approx([1.0, 0.0, -0.5, -0.25], abs=1e-15)


def test_nag_hand_recursion(quadratic):
    # alpha=1 on unit quadratic solves in one step; momentum keeps it there
    obj = quad1d(quadratic)
    hp = HyperParams(alpha=1.0, T=3, m=1, beta=1 / 3)
    trace = run("dp-nag", obj, hp, no_noise(3), PrivacyAccount(1.0, 3, 1, 1),
                RngStream(0), np.array([1.0]), obj.fstar, record_iterates=True)
    assert trace.iterates[:, 0] == pytest.approx([1.0, 0.0, 0.0, 0.0], abs=1e-15)


def test_beta_zero_reductions(quadratic):
    # with beta=0, hb and nag both replay gd's trajectory bitwise
    T = 50
    obj, sched, _ = noisy_setup(quadratic, T)
    x0 = np.array([2.0])
    ref = run("dp-gd", obj, HyperParams(alpha=0.1, T=T, m=1), sched,
              PrivacyAccount(1.0, T, 1, 1), RngStream(11), x0, obj.fstar,
              record_iterates=True)
    for algo in ("dp-hb", "dp-nag"):
        tr = run(algo, obj, HyperParams(alpha=0.1, T=T, m=1, beta=0.0), sched,
                 PrivacyAccount(1.0, T, 1, 1), RngStream(11), x0, obj.fstar,
                 record_iterates=True)
        assert np.array_equal(tr.iterates, ref.iterates), algo


def test_hb_smoothed_form_equivalence(smoothed_heavy_ball, quadratic):
    # dp-hb and an independent replay of the smoothed heavy-ball form agree
    # to 1e-10 over 100 steps, shared noise
    rng = np.random.default_rng(0)
    for trial in range(10):
        alpha = rng.uniform(0.05, 1.0)
        beta = rng.uniform(0.0, 0.95)
        T = 100
        obj, sched, _ = noisy_setup(quadratic, T, b=0.3)
        x0 = rng.normal(size=1)
        a = run("dp-hb", obj, HyperParams(alpha=alpha, T=T, m=1, beta=beta), sched,
                PrivacyAccount(1.0, T, 1, 1), RngStream(trial), x0, obj.fstar,
                record_iterates=True)
        b = smoothed_heavy_ball(obj, alpha, beta, 1, sched, trial, x0)
        assert np.max(np.abs(a.iterates - b)) < 1e-10


def test_masg_stage_arithmetic():
    # kappa = 20, p = 1: unit = ceil(sqrt(20) ln 8) = 10, stages 10/40/80,
    # stepsizes c/L, c/16L, c/64L
    stages = masg_stage_schedule(mu=0.05, L=1.0, c=1.0, p=1, T=130)
    assert stages.lengths == (10, 40, 80)
    assert stages.alphas == pytest.approx((1.0, 1 / 16, 1 / 64))
    # truncation keeps the total exactly T
    trunc = masg_stage_schedule(mu=0.05, L=1.0, c=1.0, p=1, T=100)
    assert trunc.lengths == (10, 40, 50)
    assert trunc.total == 100
    short = masg_stage_schedule(mu=0.05, L=1.0, c=1.0, p=1, T=5)
    assert short.lengths == (5,)
    assert trunc.alphas[0] == 1.0


def test_stage_schedule_validation():
    with pytest.raises(ValueError):
        StageSchedule(lengths=(3,), alphas=(0.1, 0.2))
    with pytest.raises(ValueError):
        StageSchedule(lengths=(0,), alphas=(0.1,))
    with pytest.raises(ValueError):
        StageSchedule(lengths=(3,), alphas=(-0.1,))


def test_masg_single_stage_is_nag_bitwise(quadratic):
    T = 40
    obj, sched, _ = noisy_setup(quadratic, T, b=0.8)
    x0 = np.array([3.0])
    alpha = 0.7
    stages = StageSchedule(lengths=(T,), alphas=(alpha,))
    hp_m = HyperParams(alpha=alpha, T=T, m=1, stages=stages)
    hp_n = HyperParams(alpha=alpha, T=T, m=1, beta=nesterov_momentum(alpha, obj.mu))
    a = run("dp-masg", obj, hp_m, sched, PrivacyAccount(1.0, T, 1, 1),
            RngStream(5), x0, obj.fstar, record_iterates=True)
    b = run("dp-nag", obj, hp_n, sched, PrivacyAccount(1.0, T, 1, 1),
            RngStream(5), x0, obj.fstar, record_iterates=True)
    assert np.array_equal(a.iterates, b.iterates)
    assert np.array_equal(a.subopt, b.subopt)


def test_masg_momentum_tracks_stage_stepsize(quadratic):
    # independent replay: per-iteration (alpha, beta) from the stage plan,
    # momentum restarted (x_prev = x) at each stage's first iteration.  An
    # earlier version carried the momentum across boundaries unchanged; that
    # let a velocity built at the previous, 16x larger stepsize run on under
    # beta close to 1, and the noiseless error then rose with T.
    obj = quadratic(np.diag([0.05, 1.0]))
    stages = masg_stage_schedule(obj.mu, obj.L, 1.0, 1, 60)
    assert stages.stages >= 3
    hp = HyperParams(alpha=stages.alphas[0], T=60, m=1, stages=stages)
    trace = run("dp-masg", obj, hp, no_noise(60), PrivacyAccount(1.0, 60, 1, 1),
                RngStream(2), np.array([1.0, 1.0]), obj.fstar, record_iterates=True)
    x_prev = x = np.array([1.0, 1.0])
    stage = [k for k, length in enumerate(stages.lengths) for _ in range(length)]
    for t in range(60):
        k = stage[t]
        if t > 0 and k != stage[t - 1]:
            x_prev = x
        a = stages.alphas[k]
        beta = (1 - np.sqrt(a * obj.mu)) / (1 + np.sqrt(a * obj.mu))
        z = (1 + beta) * x - beta * x_prev
        x_prev, x = x, z - a * obj.full_gradient(z)
        assert np.array_equal(trace.iterates[t + 1], x)
    # noiseless multi-stage run still makes progress
    assert trace.subopt[-1] < 1e-2 * trace.subopt[0]


def test_noise_scales_into_update(quadratic):
    # one gd step from the minimum: Var(x_1) = alpha^2 * 2 b^2
    alpha, b = 0.3, 0.7
    obj = quad1d(quadratic)
    sched = NoiseSchedule(b=np.array([b]), eps=np.array([0.0]))
    vals = np.empty(4000)
    for s in range(vals.size):
        tr = run("dp-gd", obj, HyperParams(alpha=alpha, T=1, m=1), sched,
                 PrivacyAccount(1.0, 1, 1, 1), RngStream(s), np.array([0.0]),
                 obj.fstar, record_iterates=True)
        vals[s] = tr.iterates[1, 0]
    # wiring check, not a precision check: a missing alpha^2 or a b vs 2b^2
    # mixup is a 2x-11x error, far outside this band
    want = alpha**2 * 2 * b**2
    assert abs(vals.var() / want - 1) < 0.15
    assert abs(vals.mean()) < 0.02


def test_run_deterministic_and_seed_sensitive(quadratic):
    T = 20
    obj, sched, _ = noisy_setup(quadratic, T)
    hp = HyperParams(alpha=0.2, T=T, m=1, beta=0.3)
    a = run("dp-hb", obj, hp, sched, PrivacyAccount(1.0, T, 1, 1), RngStream(21),
            np.array([1.0]), obj.fstar)
    b = run("dp-hb", obj, hp, sched, PrivacyAccount(1.0, T, 1, 1), RngStream(21),
            np.array([1.0]), obj.fstar)
    c = run("dp-hb", obj, hp, sched, PrivacyAccount(1.0, T, 1, 1), RngStream(22),
            np.array([1.0]), obj.fstar)
    assert np.array_equal(a.subopt, b.subopt)
    assert not np.array_equal(a.subopt, c.subopt)


def test_subopt_is_values_of_iterates():
    obj = LogisticObjective(generate_synthetic(4, 300, 5.0, 1), lam=0.05)
    T, m = 30, 60
    sched = uniform_scale(obj.sensitivity_bound(), 1.0, T, obj.n, m)
    hp = HyperParams(alpha=0.5 / obj.L, T=T, m=m, beta=nesterov_momentum(0.5 / obj.L, obj.mu))
    fstar = 0.25
    traces = [
        run("dp-nag", obj, hp, sched, PrivacyAccount(1.0, T, obj.n, m), RngStream(8),
            np.ones(4), fstar, record_iterates=record)
        for record in (True, False)
    ]
    kept, plain = traces
    assert kept.iterates.shape == (T + 1, 4)
    assert plain.iterates is None
    assert np.array_equal(kept.subopt, obj.values(kept.iterates) - fstar)
    assert np.array_equal(plain.subopt, kept.subopt)
    assert np.array_equal(plain.eps_cum, kept.eps_cum)


def test_accounting_in_traces():
    data = generate_synthetic(4, 200, 5.0, 0)
    obj = LogisticObjective(data, lam=0.05)
    T, m = 25, 50
    sched = uniform_scale(obj.sensitivity_bound(), 0.8, T, obj.n, m)
    acct = PrivacyAccount(0.8, T, obj.n, m)
    trace = run("dp-gd", obj, HyperParams(alpha=0.5 / obj.L, T=T, m=m), sched,
                acct, RngStream(3), np.zeros(4), 0.0)
    assert np.all(np.diff(trace.eps_cum) > 0)
    assert trace.eps_cum[-1] == pytest.approx(0.8, abs=1e-9)
    assert acct.remaining == pytest.approx(0.0, abs=1e-9)
    assert trace.eps_cum[0] == 0.0
    assert trace.T == T


def test_budget_overrun_rejected(quadratic):
    T = 5
    obj, sched, _ = noisy_setup(quadratic, T)
    slim = PrivacyAccount(epsilon_total=0.04, T=T, n=1, m=1)  # needs 0.05
    with pytest.raises(ValueError):
        run("dp-gd", obj, HyperParams(alpha=0.1, T=T, m=1), sched, slim,
            RngStream(0), np.array([0.0]), obj.fstar)


def test_run_validation(quadratic):
    obj, sched, acct = noisy_setup(quadratic, 3)
    hp = HyperParams(alpha=0.1, T=3, m=1)
    # the smoothed heavy-ball form is a replay in conftest.py, not a method of run()
    for algo in ("dp-unknown", "dp-hb-avg"):
        with pytest.raises(ValueError, match="unknown algorithm"):
            run(algo, obj, hp, sched, acct, RngStream(0), np.array([0.0]), 0.0)
    with pytest.raises(ValueError):
        run("dp-gd", obj, HyperParams(alpha=0.1, T=2, m=1), sched, acct,
            RngStream(0), np.array([0.0]), 0.0)
    with pytest.raises(ValueError):
        run("dp-gd", obj, hp, sched, acct, RngStream(0), np.zeros(2), 0.0)
    with pytest.raises(ValueError):
        run("dp-gd", obj, HyperParams(alpha=0.1, T=3, m=2), sched, acct,
            RngStream(0), np.array([0.0]), 0.0)
    with pytest.raises(ValueError):
        run("dp-masg", obj, hp, sched, acct, RngStream(0), np.array([0.0]), 0.0)
    with pytest.raises(ValueError):
        run("dp-gd", obj, hp, sched, acct, RngStream(0), np.array([0.0]), np.nan)
    with pytest.raises(ValueError):
        HyperParams(alpha=0.1, T=3, m=1, beta=1.0)
    with pytest.raises(ValueError):
        HyperParams(alpha=-0.1, T=3, m=1)


def test_zero_iterations(quadratic):
    obj = quad1d(quadratic)
    for algo in ("dp-gd", "dp-hb", "dp-nag"):
        trace = run(algo, obj, HyperParams(alpha=0.1, T=0, m=1), no_noise(0),
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
    a = run("dp-gd", obj, HyperParams(alpha=0.1, T=T, m=m),
            account=PrivacyAccount(1.0, T, obj.n, m), rng=RngStream(9), **kw)
    b = run("dp-gd", obj, HyperParams(alpha=0.1, T=T, m=m),
            account=PrivacyAccount(1.0, T, obj.n, m), rng=RngStream(9), **kw)
    assert np.array_equal(a.subopt, b.subopt)


def test_trace_csv_roundtrip(tmp_path, quadratic):
    T = 6
    obj, sched, _ = noisy_setup(quadratic, T)
    trace = run("dp-hb", obj, HyperParams(alpha=0.2, T=T, m=1, beta=0.4), sched,
                PrivacyAccount(1.0, T, 1, 1), RngStream(1), np.array([1.5]), obj.fstar)
    path = tmp_path / "tr.csv"
    trace.to_csv(path)
    back = Trace.from_csv(path)
    assert np.array_equal(back.subopt, trace.subopt)
    assert np.array_equal(back.eps_cum, trace.eps_cum)
    assert back.meta["algorithm"] == "dp-hb"
    assert back.meta["beta"] == 0.4
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
        back = NoiseSchedule.from_csv(path, provenance="p")
        pairs = [(back.b, a), (back.eps, b)]
        assert back.provenance == "p"
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
    obj, sched, acct = noisy_setup(quadratic, T)
    trace = run(algo, obj, HyperParams(alpha=0.1, T=T, m=1, beta=0.4), sched, acct,
                RngStream(0), np.array([1.0]), obj.fstar)
    assert trace.meta["beta"] == beta


def test_algorithm_registry():
    assert set(ALGORITHMS) == {"dp-gd", "dp-hb", "dp-nag", "dp-masg"}
