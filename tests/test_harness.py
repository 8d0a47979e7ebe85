"""Experiment orchestration: config, planning, grid runs, summaries, CLI."""

import dataclasses
import itertools
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import dpaccel
from dpaccel import budget_allocator as ba
from dpaccel import harness
from dpaccel.budget_allocator import masg_coefficients_for, optimized_bound_value
from dpaccel.cli import main
from dpaccel.harness import (
    GRID_ALGORITHMS,
    ExperimentConfig,
    build_objective,
    comparison_table,
    plan_cell,
    reference_optimum,
    run_grid,
    summarize,
)
from dpaccel.objectives import Dataset, LogisticObjective, generate_synthetic
from dpaccel.optimizers import (
    HyperParams,
    Trace,
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
    uniform_scale,
)
from dpaccel.svgplot import write_line_svg


def tiny_config(**overrides):
    base = dict(
        d=3, n=120, u_max=2.0, lam=0.05, data_seed=3, epsilon=1.0,
        algorithms=("dp-gd", "dp-hb", "dp-nag-opt"),
        m_values=(40, 120), T_values=(4, 6), c_values=(0.5,),
        replicates=2, seed_base=7,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


@pytest.fixture(scope="module")
def tiny_grid(tmp_path_factory):
    out = tmp_path_factory.mktemp("grid")
    config = tiny_config()
    summary = run_grid(config, out)
    return config, out, summary


# ---------------------------------------------------------------------------
# ExperimentConfig


def test_config_defaults_and_seed_list():
    cfg = ExperimentConfig()
    assert cfg.d == 20 and cfg.n == 10_000 and cfg.epsilon == 1.0
    assert cfg.lam == 0.01 and cfg.u_max == 20.0 and cfg.e0_guess == 10.0
    assert cfg.m_values == (1_000, 10_000)
    assert cfg.T_values == (100, 200, 500, 1000)
    assert cfg.c_values == (0.1, 1.0)
    assert cfg.seed_list == list(range(1000, 1020))


def test_config_json_round_trip(tmp_path):
    cfg = tiny_config()
    path = tmp_path / "config.json"
    cfg.to_json(path)
    back = ExperimentConfig.from_json(path)
    assert back == cfg
    assert isinstance(back.algorithms, tuple)


def test_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"d": 3, "n": 100, "budget": 2.0}))
    with pytest.raises(ValueError, match="unknown config keys"):
        ExperimentConfig.from_json(path)
    # n alone sets the dataset size; the old full_scale switch is gone
    path.write_text(json.dumps({"full_scale": True}))
    with pytest.raises(ValueError, match="full_scale"):
        ExperimentConfig.from_json(path)
    # seeds are always seed_base + r and runs start at zero: no seeds or x0 keys
    for key, value in (("seeds", [1, 2]), ("x0", [0.0, 0.0, 0.0])):
        path.write_text(json.dumps({key: value}))
        with pytest.raises(ValueError, match=f"unknown config keys: \\['{key}'\\]"):
            ExperimentConfig.from_json(path)


# (field, value) pairs that must be refused when the config is built
_MALFORMED = [
    ("d", 3.0), ("n", 200.5), ("data_seed", 3.0), ("replicates", 1.5), ("seed_base", 7.0),
    ("masg_p", 1.0), ("workers", 2.0), ("m_values", (50.0,)), ("T_values", (5.0,)),
    ("u_max", np.nan), ("u_max", np.inf), ("lam", np.inf), ("lam", -1.0),
    ("epsilon", np.inf), ("epsilon", np.nan), ("epsilon", 0.0),
]


def test_config_validation():
    for field, value in _MALFORMED:
        with pytest.raises(ValueError, match=f"^{field} "):
            tiny_config(**{field: value})
    with pytest.raises(ValueError):
        tiny_config(m_values=(500,))  # m > n
    with pytest.raises(ValueError):
        tiny_config(T_values=(0,))
    with pytest.raises(ValueError):
        tiny_config(c_values=(1.5,))
    with pytest.raises(ValueError):
        tiny_config(algorithms=("dp-gd", "dp-fancy"))
    with pytest.raises(ValueError):
        tiny_config(workers=0)
    with pytest.raises(ValueError):
        tiny_config(replicates=0)
    for e0 in (-1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="e0_guess"):
            tiny_config(e0_guess=e0)
    # numpy integers are integers, kept as Python ints so JSON writes them as such
    cfg = tiny_config(d=np.int64(3), m_values=(np.int64(40),), replicates=np.int32(2))
    assert (cfg.d, cfg.m_values, cfg.replicates) == (3, (40,), 2)
    assert all(type(v) is int for v in (cfg.d, *cfg.m_values, cfg.replicates))


# ---------------------------------------------------------------------------
# reference_optimum


def test_reference_optimum_quadratic_matches_solve(quadratic):
    rng = np.random.default_rng(0)
    G = rng.normal(size=(4, 4))
    Q = G @ G.T + 0.5 * np.eye(4)
    q = rng.normal(size=4)
    obj = quadratic(Q, q)
    xstar, fstar, gnorm = reference_optimum(obj)
    np.testing.assert_allclose(xstar, obj.minimizer, atol=1e-8)
    assert fstar == pytest.approx(obj.fstar, abs=1e-12)
    assert gnorm < 1e-8


def test_reference_optimum_logistic_stationary():
    obj = LogisticObjective(generate_synthetic(5, 500, 4.0, seed=1), lam=0.05)
    xstar, fstar, gnorm = reference_optimum(obj)
    assert gnorm < 1e-6
    assert fstar < obj.value(np.zeros(5))


def test_reference_optimum_ridge_dominated():
    # stationarity gives 2*lam*x* = -grad_loss(x*), so the optimum shrinks
    # toward the origin like 1/lam
    data = generate_synthetic(5, 500, 4.0, seed=1)
    norms = []
    for lam in (10.0, 100.0):
        xstar, _, _ = reference_optimum(LogisticObjective(data, lam=lam))
        norms.append(np.linalg.norm(xstar))
    assert norms[0] < 0.02
    assert norms[1] < norms[0] / 5.0


# ---------------------------------------------------------------------------
# plan_cell


@pytest.fixture(scope="module")
def small_obj():
    return LogisticObjective(generate_synthetic(3, 120, 2.0, seed=3), lam=0.05)


def test_plan_cell_uniform_algorithms(small_obj):
    obj = small_obj
    S1 = obj.sensitivity_bound()
    for algo in ("dp-gd", "dp-hb", "dp-nag"):
        run_algo, hp, sched = plan_cell(algo, obj, 40, 6, 0.5, 1.0, 10.0, 1)
        assert run_algo == algo
        assert hp.alpha == 0.5 / obj.L
        assert hp.T == 6 and hp.m == 40
        assert sched.provenance == "uniform"
        assert len(sched.b) == 6
        leak = float(np.sum(epsilon_of(S1, sched.b, obj.n, 40)))
        assert leak == pytest.approx(1.0, abs=1e-9)
    _, hp_gd, _ = plan_cell("dp-gd", obj, 40, 6, 0.5, 1.0, 10.0, 1)
    assert hp_gd.beta == 0.0
    _, hp_hb, _ = plan_cell("dp-hb", obj, 40, 6, 0.5, 1.0, 10.0, 1)
    assert hp_hb.beta == pytest.approx(polyak_momentum(obj.mu, obj.L), rel=1e-15)
    _, hp_nag, _ = plan_cell("dp-nag", obj, 40, 6, 0.5, 1.0, 10.0, 1)
    assert hp_nag.beta == pytest.approx(nesterov_momentum(0.5 / obj.L, obj.mu), rel=1e-15)


def test_plan_cell_masg(small_obj):
    run_algo, hp, sched = plan_cell("dp-masg", small_obj, 120, 30, 1.0, 1.0, 10.0, 1)
    assert run_algo == "dp-masg"
    assert hp.stages is not None
    assert hp.stages.total == 30
    assert hp.alpha == hp.stages.alphas[0]
    assert sched.provenance == "uniform"


def test_plan_cell_opt_variants(small_obj):
    obj = small_obj
    S1 = obj.sensitivity_bound()
    for algo, base in (("dp-nag-opt", "dp-nag"), ("dp-masg-opt", "dp-masg")):
        run_algo, hp, sched = plan_cell(algo, obj, 120, 50, 1.0, 1.0, 10.0, 1)
        assert run_algo == base
        assert hp.T <= 50
        assert len(sched.b) == hp.T
        assert sched.provenance.startswith("optimized")
        leak = float(np.sum(epsilon_of(S1, sched.b, obj.n, 120)))
        assert leak == pytest.approx(1.0, abs=1e-9)
        # subsampled planning rescales and re-audits
        run_algo, hp, sched = plan_cell(algo, obj, 40, 50, 1.0, 1.0, 10.0, 1)
        assert sched.provenance == "optimized+rescaled"
        leak = float(np.sum(epsilon_of(S1, sched.b, obj.n, 40)))
        assert leak == pytest.approx(1.0, abs=1e-9)


def test_plan_cell_unknown_algorithm(small_obj):
    with pytest.raises(ValueError, match="unknown grid algorithm"):
        plan_cell("dp-sgd", small_obj, 40, 6, 0.5, 1.0, 10.0, 1)


def _replay_plan_cell(algo, obj, m, T, c, epsilon, e0, p):
    """A grid cell's plan written out on budget_allocator directly, without
    harness.allocate: a uniform split for the base methods; for the -opt
    ones select_horizon, then optimal_schedule of the coefficients at the
    selected T, then rescale_for_subsampling when m < n."""
    mu, L, n = obj.mu, obj.L, obj.n
    S1 = obj.sensitivity_bound()
    alpha = c / L
    if algo in ("dp-gd", "dp-hb", "dp-nag"):
        beta = {"dp-gd": 0.0, "dp-hb": polyak_momentum(mu, L),
                "dp-nag": nesterov_momentum(alpha, mu)}[algo]
        hp = HyperParams(alpha=alpha, T=T, m=m, beta=beta)
        return algo, hp, uniform_scale(S1, epsilon, T, n, m)
    if algo == "dp-masg":
        stages = masg_stage_schedule(mu, L, c, p, T)
        hp = HyperParams(alpha=stages.alphas[0], T=T, m=m, stages=stages)
        return algo, hp, uniform_scale(S1, epsilon, T, n, m)
    if algo == "dp-nag-opt":
        builder = lambda Tp: ba.nag_coefficients(mu, L, alpha, Tp)
    else:
        builder = lambda Tp: ba.masg_coefficients_for(mu, L, c, p, Tp)
    T_eff, _ = ba.select_horizon(builder, e0, S1, n, epsilon, obj.d, T)
    coeffs = builder(T_eff)
    sched = ba.optimal_schedule(coeffs, S1, n, epsilon)
    if m < n:
        sched, _ = ba.rescale_for_subsampling(sched, S1, n, m, epsilon)
    if algo == "dp-nag-opt":
        hp = HyperParams(alpha=alpha, T=T_eff, m=m, beta=nesterov_momentum(alpha, mu))
        return "dp-nag", hp, sched
    stages = masg_stage_schedule(mu, L, c, p, T_eff)
    hp = HyperParams(alpha=stages.alphas[0], T=T_eff, m=m, stages=stages)
    return "dp-masg", hp, sched


@pytest.mark.parametrize("algo", GRID_ALGORITHMS)
def test_plan_cell_matches_replay(small_obj, algo):
    # bitwise: the one allocation path plans every cell as the pipeline
    # written out on budget_allocator does
    n = small_obj.n
    for m, T, c, e0 in itertools.product((n // 10, n), (1, 2, 7, 50, 200), (0.1, 1.0), (0.0, 10.0)):
        got = plan_cell(algo, small_obj, m, T, c, 1.0, e0, 1)
        want = _replay_plan_cell(algo, small_obj, m, T, c, 1.0, e0, 1)
        assert got[0] == want[0]
        for f in dataclasses.fields(HyperParams):
            assert getattr(got[1], f.name) == getattr(want[1], f.name), (m, T, c, e0, f.name)
        assert got[2].b.tobytes() == want[2].b.tobytes()
        assert got[2].eps.tobytes() == want[2].eps.tobytes()
        assert got[2].provenance == want[2].provenance


def test_allocate_rejects_unknown_scheme():
    with pytest.raises(ValueError, match="unknown allocation scheme"):
        harness.allocate("sgd-opt", 4.0, 1000, 1000, 1.0, 10, mu=0.1, L=1.0, e0=10.0)


# ---------------------------------------------------------------------------
# run_grid


def test_run_grid_outputs(tiny_grid):
    config, out, summary = tiny_grid
    n_cells = 3 * 2 * 2 * 1
    assert len(summary["records"]) == n_cells
    assert summary["failed"] == []
    traces = sorted((out / "traces").glob("*.csv"))
    assert len(traces) == n_cells * 2
    curves = sorted((out / "curves").glob("curve_*.csv"))
    assert len(curves) == n_cells
    with open(out / "summary.json") as fh:
        on_disk = json.load(fh)
    assert on_disk["reference"]["grad_norm"] < 1e-6
    assert on_disk["objective"] == config.objective_tag
    assert {r["n_seeds"] for r in on_disk["records"]} == {2}


def test_run_grid_budget_spent_everywhere(tiny_grid):
    # every trace's cumulative leak lands on the configured budget
    _, out, _ = tiny_grid
    for path in sorted((out / "traces").glob("*.csv")):
        tr = Trace.from_csv(path)
        assert tr.eps_cum[-1] == pytest.approx(1.0, abs=1e-6)
        assert np.all(np.diff(tr.eps_cum) >= 0)


def test_run_grid_horizons(tiny_grid):
    _, _, summary = tiny_grid
    for rec in summary["records"]:
        assert rec["T_effective"] <= rec["T"]
        if rec["algorithm"] in ("dp-gd", "dp-hb"):
            assert rec["T_effective"] == rec["T"]
    assert "dp-gd|m=40|c=0.5" in summary["comparison"]


def test_run_grid_rerun_is_bitwise_identical(tmp_path):
    cfg = tiny_config(algorithms=("dp-hb",), m_values=(40,), T_values=(5,))
    a, b = tmp_path / "a", tmp_path / "b"
    run_grid(cfg, a)
    run_grid(tiny_config(algorithms=("dp-hb",), m_values=(40,), T_values=(5,)), b)
    for pa in sorted((a / "traces").glob("*.csv")):
        pb = b / "traces" / pa.name
        assert pa.read_bytes() == pb.read_bytes()
    for pa in sorted((a / "curves").glob("*.csv")):
        assert pa.read_bytes() == (b / "curves" / pa.name).read_bytes()


def test_run_grid_workers_match_serial(tmp_path):
    kw = dict(algorithms=("dp-gd", "dp-nag-opt"), m_values=(40,), T_values=(5,))
    a, b = tmp_path / "serial", tmp_path / "pool"
    run_grid(tiny_config(**kw, workers=1), a)
    run_grid(tiny_config(**kw, workers=3), b)
    names_a = sorted(p.name for p in (a / "traces").glob("*.csv"))
    names_b = sorted(p.name for p in (b / "traces").glob("*.csv"))
    assert names_a == names_b
    for name in names_a:
        assert (a / "traces" / name).read_bytes() == (b / "traces" / name).read_bytes()


def test_run_grid_records_failed_cells(tmp_path, monkeypatch):
    real = harness.plan_cell

    def flaky(algo, *args, **kwargs):
        if algo == "dp-hb":
            raise ValueError("boom")
        return real(algo, *args, **kwargs)

    monkeypatch.setattr(harness, "plan_cell", flaky)
    cfg = tiny_config(algorithms=("dp-gd", "dp-hb"), m_values=(40,), T_values=(5,))
    summary = run_grid(cfg, tmp_path / "out")
    assert len(summary["failed"]) == 1
    assert summary["failed"][0]["error"] == "boom"
    assert {r["algorithm"] for r in summary["records"]} == {"dp-gd"}


@pytest.mark.parametrize("workers", [1, 2])
def test_run_grid_records_failed_runs(tmp_path, monkeypatch, workers):
    real = harness.run
    cfg = tiny_config(algorithms=("dp-gd", "dp-hb"), m_values=(40,), T_values=(5,),
                      replicates=3, workers=workers)
    bad = cfg.seed_list[1]

    def flaky(algo, obj, hp, sched, account, rng, *args, **kwargs):
        if algo == "dp-hb" and rng.seed == bad:
            raise FloatingPointError("diverged")
        return real(algo, obj, hp, sched, account, rng, *args, **kwargs)

    monkeypatch.setattr(harness, "run", flaky)
    summary = run_grid(cfg, tmp_path / "out")
    assert summary["failed"] == [{"cell": "dp-hb_40_5_0.5", "seed": bad, "error": "diverged"}]
    seeds = {r["algorithm"]: r["n_seeds"] for r in summary["records"]}
    assert seeds == {"dp-gd": 3, "dp-hb": 2}
    assert len(list((tmp_path / "out" / "traces").glob("*.csv"))) == 5


@pytest.mark.parametrize("stage", ["plan_cell", "run"])
def test_run_grid_keeps_failures_when_nothing_finishes(tmp_path, monkeypatch, stage):
    def fail(*args, **kwargs):
        raise ValueError("boom")

    monkeypatch.setattr(harness, stage, fail)
    cfg = tiny_config(algorithms=("dp-gd", "dp-hb"), m_values=(40,), T_values=(5,))
    out = tmp_path / "out"
    summary = run_grid(cfg, out)
    if stage == "plan_cell":
        want = [{"cell": f"{a}_40_5_0.5", "error": "boom"} for a in cfg.algorithms]
    else:
        want = [
            {"cell": f"{a}_40_5_0.5", "seed": seed, "error": "boom"}
            for a in cfg.algorithms
            for seed in cfg.seed_list
        ]
    assert summary["failed"] == want
    assert summary["records"] == [] and summary["comparison"] == {}
    assert summary["objective"] == cfg.objective_tag
    assert summary["epsilon"] == cfg.epsilon
    on_disk = json.loads((out / "summary.json").read_text())
    assert on_disk["failed"] == want
    assert on_disk["config"] == json.loads(json.dumps(summary["config"]))
    assert list((out / "curves").iterdir()) == []
    assert list((out / "traces").iterdir()) == []


# ---------------------------------------------------------------------------
# summarize


def synthetic_trace(subopt, algo="dp-gd", m=40, T=None, c=0.5, tag="obj", eps=1.0):
    subopt = np.asarray(subopt, dtype=float)
    T = len(subopt) - 1 if T is None else T
    t = np.arange(len(subopt))
    eps_cum = np.linspace(0.0, eps, len(subopt))
    meta = {
        "objective": tag,
        "epsilon_total": eps,
        "grid": {"algorithm": algo, "m": m, "T": T, "c": c},
    }
    return Trace(t=t, subopt=subopt, eps_cum=eps_cum, meta=meta)


def assert_same_summary(a, b):
    """Exact equality of two summaries; the curves are compared as arrays."""
    if isinstance(a, dict):
        assert isinstance(b, dict) and a.keys() == b.keys()
        for key in a:
            assert_same_summary(a[key], b[key])
    elif isinstance(a, list):
        assert isinstance(b, list) and len(a) == len(b)
        for x, y in zip(a, b):
            assert_same_summary(x, y)
    elif isinstance(a, np.ndarray):
        assert isinstance(b, np.ndarray) and np.array_equal(a, b)
    else:
        assert a == b


def test_summarize_single_trace_equals_trace():
    tr = synthetic_trace([1.0, 0.1, 0.01])
    summary = summarize([tr])
    rec = summary["records"][0]
    np.testing.assert_allclose(rec["mean_log10"], np.log10(tr.subopt), rtol=1e-15)
    assert np.array_equal(rec["sem_log10"], [0.0, 0.0, 0.0])
    assert rec["final_mean_error"] == 0.01
    assert rec["n_seeds"] == 1


def test_summarize_hand_means():
    a = synthetic_trace([1.0, 0.1])
    b = synthetic_trace([1.0, 0.001])
    rec = summarize([a, b])["records"][0]
    np.testing.assert_allclose(rec["mean_log10"], [0.0, -2.0], atol=1e-15)
    # log10 finals are -1 and -3: std(ddof=1) = sqrt(2), sem = 1
    assert rec["sem_log10"][1] == pytest.approx(1.0, rel=1e-12)
    assert rec["final_mean_error"] == pytest.approx(0.0505, rel=1e-12)


def test_summarize_permutation_invariant():
    traces = [
        synthetic_trace([1.0, 10 ** -(i + 1)], algo=algo, T=9)
        for algo in ("dp-gd", "dp-hb")
        for i in range(3)
    ]
    fwd = summarize(traces)
    rev = summarize(traces[::-1])
    assert_same_summary(fwd, rev)


def test_summarize_best_over_T():
    traces = [
        synthetic_trace([1.0] * 5 + [0.5], T=5),
        synthetic_trace([1.0] * 8 + [0.2], T=8),
    ]
    summary = summarize(traces)
    pick = summary["comparison"]["dp-gd|m=40|c=0.5"]
    assert pick["best_T"] == 8
    assert pick["final_mean_error"] == 0.2
    table = comparison_table(summary)
    assert "dp-gd" in table and "0.2" in table


def test_summarize_orders_cells_by_number():
    # string order would put m=2000 before m=500 and T=100 before T=50
    traces = [
        synthetic_trace([1.0] * (T + 1), m=m, T=T, c=c)
        for m in (2000, 500) for T in (100, 50) for c in (1.0, 0.5, None)
    ]
    summary = summarize(traces)
    cells = [(r["m"], r["T"], r["c"]) for r in summary["records"]]
    assert cells == [(m, T, c) for m in (500, 2000) for T in (50, 100) for c in (0.5, 1.0, None)]
    rows = [line.split()[1:4] for line in comparison_table(summary).splitlines()[1:]]
    # every T ties, so the best T is the smallest
    assert rows == [[m, c, "50"] for m in ("500", "2000") for c in ("0.5", "1.0", "-")]


def test_summarize_rejects_mismatches():
    with pytest.raises(ValueError, match="no traces"):
        summarize([])
    with pytest.raises(ValueError, match="mix objectives"):
        summarize([synthetic_trace([1.0, 0.1], tag="a"), synthetic_trace([1.0, 0.1], tag="b")])
    with pytest.raises(ValueError, match="mix budgets"):
        summarize([synthetic_trace([1.0, 0.1], eps=1.0), synthetic_trace([1.0, 0.1], eps=2.0)])
    with pytest.raises(ValueError, match="mixes trace lengths"):
        summarize([synthetic_trace([1.0, 0.1], T=5), synthetic_trace([1.0, 0.1, 0.01], T=5)])


def test_summarize_accepts_paths(tmp_path):
    tr = synthetic_trace([1.0, 0.25, 0.125])
    path = tmp_path / "tr.csv"
    tr.to_csv(path)
    assert_same_summary(summarize([path]), summarize([tr]))


def test_summarize_floors_zero_suboptimality():
    rec = summarize([synthetic_trace([1.0, 0.0])])["records"][0]
    assert rec["mean_log10"][1] == -300.0


# ---------------------------------------------------------------------------
# svgplot


def test_write_line_svg(tmp_path):
    out = tmp_path / "plot.svg"
    xs = np.arange(10)
    write_line_svg(out, [("a", xs, np.sin(xs)), ("b", xs, np.where(xs > 5, np.nan, xs))],
                   title="demo", xlabel="t", ylabel="y")
    root = ET.parse(out).getroot()
    assert root.tag.endswith("svg")
    body = out.read_text()
    assert body.count("<polyline") == 2
    assert "demo" in body


def test_write_line_svg_rejects_empty(tmp_path):
    with pytest.raises(ValueError):
        write_line_svg(tmp_path / "x.svg", [], "t", "x", "y")
    with pytest.raises(ValueError):
        write_line_svg(tmp_path / "x.svg", [("a", [0, 1], [np.nan, np.nan])], "t", "x", "y")


# ---------------------------------------------------------------------------
# CLI


def _assert_refused(capsys, argv, message):
    """main refuses argv as argparse does: status 2 and one error line."""
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert len(errors) == 1 and message in errors[0]


def test_cli_gen_data(tmp_path, capsys):
    out = tmp_path / "data.csv"
    rc = main(["gen-data", "--out", str(out), "--d", "3", "--n", "50", "--seed", "1"])
    assert rc == 0
    data = Dataset.from_csv(out)
    assert data.U.shape == (50, 3)
    _assert_refused(capsys, ["gen-data", "--out", str(out), "--u-max", "nan"],
                    "u_max must be finite and positive, got nan")


def test_cli_allocate_uniform(tmp_path, capsys):
    out = tmp_path / "sched.csv"
    argv = ["allocate", "--scheme", "uniform", "--S1", "4.0", "--T", "10", "--n", "1000",
            "--m", "100", "--out", str(out)]
    assert main(argv + ["--epsilon", "1.0"]) == 0
    sched = NoiseSchedule.from_csv(out)
    assert len(sched.b) == 10
    leak = float(np.sum(epsilon_of(4.0, sched.b, 1000, 100)))
    assert leak == pytest.approx(1.0, abs=1e-9)
    _assert_refused(capsys, argv + ["--epsilon", "-1"], "got -1.0")


def test_cli_allocate_nag_opt_selects_horizon(tmp_path):
    out = tmp_path / "sched.csv"
    rc = main(["allocate", "--scheme", "nag-opt", "--S1", "4.0", "--epsilon", "1.0",
               "--T", "60", "--n", "1000", "--mu", "0.1", "--L", "1.0",
               "--e0", "10.0", "--d", "3", "--out", str(out)])
    assert rc == 0
    sched = NoiseSchedule.from_csv(out)
    assert 1 <= len(sched.b) <= 60
    leak = float(np.sum(epsilon_of(4.0, sched.b, 1000, 1000)))
    assert leak == pytest.approx(1.0, abs=1e-9)


def test_cli_allocate_masg_opt_subsampled(tmp_path, capsys):
    out = tmp_path / "sched.csv"
    rc = main(["allocate", "--scheme", "masg-opt", "--S1", "4.0", "--epsilon", "1.0",
               "--T", "300", "--n", "1000", "--m", "100", "--mu", "0.05", "--L", "1.0",
               "--c", "1.0", "--p", "1", "--e0", "50.0", "--d", "3", "--out", str(out)])
    assert rc == 0
    printed = capsys.readouterr().out
    T = int(printed.split("selected horizon T=")[1].split()[0])
    # the brute-force scan over every horizon
    bounds = [optimized_bound_value(masg_coefficients_for(0.05, 1.0, 1.0, 1, Tp),
                                    4.0, 1000, 1.0, 3, 50.0) for Tp in range(1, 301)]
    assert T == int(np.argmin(bounds)) + 1
    assert 1 < T < 300
    sched = NoiseSchedule.from_csv(out)
    assert len(sched.b) == T
    leak = float(np.sum(epsilon_of(4.0, sched.b, 1000, 100)))
    assert abs(leak - 1.0) <= 1e-9


def test_cli_allocate_nag_opt_uses_alpha(tmp_path):
    # nag-opt's stepsize is c / L
    out = tmp_path / "sched.csv"
    rc = main(["allocate", "--scheme", "nag-opt", "--S1", "4.0", "--epsilon", "1.0",
               "--T", "40", "--n", "1000", "--mu", "0.1", "--L", "1.0", "--c", "0.3",
               "--out", str(out)])
    assert rc == 0
    got = NoiseSchedule.from_csv(out).b
    want = ba.optimal_schedule(ba.nag_coefficients(0.1, 1.0, 0.3, 40), 4.0, 1000, 1.0).b
    at_c_1 = ba.optimal_schedule(ba.nag_coefficients(0.1, 1.0, 1.0, 40), 4.0, 1000, 1.0).b
    assert got.tobytes() == want.tobytes()
    assert not np.allclose(got, at_c_1)


@pytest.mark.parametrize("scheme", ["nag-opt", "masg-opt"])
def test_cli_allocate_without_e0_keeps_T(tmp_path, capsys, scheme):
    out = tmp_path / "sched.csv"
    rc = main(["allocate", "--scheme", scheme, "--S1", "4.0", "--epsilon", "1.0",
               "--T", "60", "--n", "1000", "--mu", "0.1", "--L", "1.0", "--out", str(out)])
    assert rc == 0
    assert "selected horizon" not in capsys.readouterr().out
    assert len(NoiseSchedule.from_csv(out).b) == 60


@pytest.mark.parametrize("missing", ["--mu", "--L"])
def test_cli_allocate_opt_needs_mu_and_L(tmp_path, capsys, missing):
    args = {"--mu": "0.1", "--L": "1.0"}
    del args[missing]
    _assert_refused(capsys, ["allocate", "--scheme", "nag-opt", "--S1", "4.0", "--epsilon", "1.0",
                             "--T", "10", "--n", "1000", *itertools.chain(*args.items()),
                             "--out", str(tmp_path / "s.csv")],
                    "nag-opt and masg-opt need --mu and --L")


def test_import_loads_no_scipy():
    # dpaccel needs only numpy; importing scipy.special alone costs about
    # 0.3 s and 26 MB, which would show in the start-up time and peak memory
    # of every command
    src = str(Path(dpaccel.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, dpaccel\n"
            "for top in ('scipy', 'dpaccel'):\n"
            "    print(sorted(m for m in sys.modules if m.split('.')[0] == top))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True)
    scipy_modules, dpaccel_modules = done.stdout.splitlines()
    assert scipy_modules == "[]"
    # the package loads its layers and nothing else (no CLI, no plotting)
    layers = ("_table", "budget_allocator", "certification", "harness", "objectives",
              "optimizers", "privacy_core")
    assert dpaccel_modules == str(["dpaccel"] + [f"dpaccel.{name}" for name in layers])


def test_readme_config_loads(tmp_path):
    # the minimal config.json in README names only keys ExperimentConfig knows
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("A minimal `config.json`", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "config.json"
    path.write_text(block)
    cfg = ExperimentConfig.from_json(path)
    assert cfg.m_values == (500, 2000) and cfg.seed_list == [1000 + r for r in range(5)]


def test_cli_certify(tmp_path):
    out_json = tmp_path / "cert.json"
    out_curve = tmp_path / "bound.csv"
    rc = main(["certify", "--alpha", "1.0", "--beta", "0.0", "--mu", "0.5", "--L", "1.0",
               "--out-json", str(out_json),
               "--S1", "4.0", "--epsilon", "1.0", "--T", "20", "--n", "1000", "--m", "1000",
               "--out-curve", str(out_curve)])
    assert rc == 0
    with open(out_json) as fh:
        payload = json.load(fh)
    assert payload["rho"] == 0.71
    lines = out_curve.read_text().strip().splitlines()
    assert lines[0] == "t,bound"
    assert len(lines) == 22  # header + t = 0..20


def test_cli_certify_infeasible_exit_code():
    assert main(["certify", "--alpha", "10.0", "--beta", "0.999",
                 "--mu", "0.5", "--L", "1.0"]) == 1


def test_cli_analyze_quadratic(tmp_path):
    out = tmp_path / "bound.csv"
    rc = main(["analyze-quadratic", "--alpha", "0.5", "--beta", "0.1",
               "--eigs", "0.5,1.0", "--sigma2", "0.01", "--t-max", "15",
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,bound"
    assert len(lines) == 17


def test_cli_run_and_summarize(tmp_path):
    cfg = tiny_config(algorithms=("dp-gd",), m_values=(40,), T_values=(5,))
    cfg_path = tmp_path / "config.json"
    cfg.to_json(cfg_path)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert (out / "summary.json").exists()

    sum_json = tmp_path / "summary.json"
    svg_dir = tmp_path / "svg"
    rc = main(["summarize", "--traces", str(out / "traces"),
               "--out", str(sum_json), "--svg", str(svg_dir)])
    assert rc == 0
    with open(sum_json) as fh:
        summary = json.load(fh)
    assert summary["epsilon"] == 1.0
    svgs = list(svg_dir.glob("*.svg"))
    assert svgs
    for p in svgs:
        ET.parse(p)


def test_cli_run_workers_sets_the_config(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    tiny_config(algorithms=("dp-gd",), m_values=(40,), T_values=(5,)).to_json(cfg_path)
    args = ["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]
    assert main(args + ["--workers", "2"]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["config"]["workers"] == 2
    _assert_refused(capsys, args + ["--workers", "0"], "workers")


def test_cli_run_seed_base_sets_the_config(tmp_path):
    cfg_path = tmp_path / "config.json"
    tiny_config(algorithms=("dp-gd",), m_values=(40,), T_values=(5,)).to_json(cfg_path)
    args = ["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]
    assert main(args + ["--seed-base", "50"]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    # the override sets seed_base and nothing else
    assert summary["config"] == {**json.loads(cfg_path.read_text()), "seed_base": 50}
    seeds = sorted(p.stem.rsplit("_", 1)[1] for p in (tmp_path / "out" / "traces").glob("*.csv"))
    assert seeds == ["50", "51"]


def test_cli_summarize_trace_outside_grid(tmp_path, capsys):
    # run() writes no grid metadata, so the cell has no stepsize scale c
    obj = build_objective(tiny_config())
    T = 5
    hp = HyperParams(alpha=1.0 / obj.L, T=T, m=obj.n)
    sched = uniform_scale(obj.sensitivity_bound(), 1.0, T, obj.n, obj.n)
    account = PrivacyAccount(1.0 + 1e-9, T, obj.n, obj.n)
    trace = run("dp-gd", obj, hp, sched, account, RngStream(1), np.zeros(obj.d), fstar=0.0)
    trace.to_csv(tmp_path / "dp-gd.csv")
    capsys.readouterr()
    svg_dir = tmp_path / "svg"
    assert main(["summarize", "--traces", str(tmp_path), "--svg", str(svg_dir)]) == 0
    header, row = capsys.readouterr().out.strip().splitlines()[:2]
    assert row.split()[:4] == ["dp-gd", str(obj.n), "-", str(T)]
    # the plot, too, says "-" where the cell has no c
    assert [p.name for p in svg_dir.iterdir()] == [f"curves_m{obj.n}_c-.svg"]
    text = (svg_dir / f"curves_m{obj.n}_c-.svg").read_text()
    assert f"m={obj.n}, c=-" in text and "None" not in text


def test_cli_summarize_empty_dir_exits(tmp_path, capsys):
    _assert_refused(capsys, ["summarize", "--traces", str(tmp_path)],
                    f"no trace CSVs under {tmp_path}")
