"""The three benchmark workloads and the traced replays of them.

grid and long-horizon are single ``harness.run_grid`` calls; their traced
form rebuilds ``run_grid`` from the public functions it is made of, with
proxies handed to ``optimizers.run``.  analysis is a closed loop with one
client sending allocation and certification requests, each sent only after
the previous one has been answered.
"""

from __future__ import annotations

import glob
import json
import math
import time
from collections import Counter
from pathlib import Path

import numpy as np

from dpaccel import budget_allocator as ba
from dpaccel import certification as ce
from dpaccel import harness
from dpaccel.optimizers import run
from dpaccel.privacy_core import PrivacyAccount, RngStream, per_iteration_epsilon

from . import checks
from .tracing import AccountProxy, ObjectiveProxy, RngProxy, call, traced_functions

SIMULATIONS = {
    # the user's main job: a seed-averaged grid, dominated by objective
    # evaluation, writing many small trace files
    "grid": dict(T_values=(100, 200), replicates=5),
    # a few long runs on a cheap objective, where per-step fixed cost (RNG
    # builds, the Python loop, ledger charges) dominates; one algorithm of
    # each update form (heavy ball, staged lookahead)
    "long-horizon": dict(
        d=5, n=1000, u_max=10.0, algorithms=("dp-hb", "dp-masg"), m_values=(100, 1000),
        T_values=(20_000,), c_values=(1.0,), replicates=1,
    ),
}
# Tiny grid run by every traced run, so that layers a workload never calls
# still get a measured time (see README).
PROBE_GRID = dict(
    d=5, n=500, u_max=10.0, algorithms=("dp-nag-opt", "dp-hb"), m_values=(100,),
    T_values=(50,), c_values=(1.0,), replicates=2,
)

# The allocator calls plan_cell makes through dpaccel.harness's namespace.
ALLOCATOR_SPANS = {
    "select_horizon": "budget_allocator.select_horizon",
    "optimal_schedule": "budget_allocator.schedule",
    "rescale_for_subsampling": "budget_allocator.rescale",
    "nag_coefficients": "budget_allocator.coeffs",
    "masg_coefficients_for": "budget_allocator.coeffs",
}


def experiment_config(workload: str, seed: int) -> harness.ExperimentConfig:
    return harness.ExperimentConfig(
        **SIMULATIONS[workload], data_seed=seed, seed_base=1000 + 100 * seed, workers=1
    )


def probe_config(seed: int) -> harness.ExperimentConfig:
    return harness.ExperimentConfig(**PROBE_GRID, data_seed=seed, seed_base=1000 + 100 * seed)


def setup(workload: str, seed: int):
    """The state a workload needs before its job starts."""
    if workload == "analysis":
        return ce.CertificateGrid.default()
    return harness.reference_optimum(setup_objective(experiment_config(workload, seed)))


def setup_objective(config):
    obj = harness.build_objective(config)
    obj.L  # the power iteration for L runs lazily, on first use
    return obj


# ---------------------------------------------------------------------------
# simulation workloads


def cells(config):
    return [
        (algo, m, T, c)
        for algo in config.algorithms
        for m in config.m_values
        for T in config.T_values
        for c in config.c_values
    ]


def final_errors(summary: dict) -> dict:
    return {
        (r["algorithm"], r["m"], r["T"], r["c"]): r["final_mean_error"] for r in summary["records"]
    }


def iterations(summary: dict) -> int:
    return sum(r["T_effective"] * r["n_seeds"] for r in summary["records"])


def replay_grid(config, out_dir: Path, tr, counts: Counter) -> dict:
    """run_grid rebuilt from build_objective, reference_optimum, plan_cell,
    run, Trace.to_csv and summarize, with a span around each call."""
    out_dir.mkdir(parents=True, exist_ok=True)
    obj = tr.call("objectives.build", setup_objective, config)
    proxy = ObjectiveProxy(obj, tr)
    _, fstar, _ = tr.call("harness.reference", harness.reference_optimum, proxy)
    x0 = np.zeros(config.d)
    with traced_functions(tr, harness, ALLOCATOR_SPANS):
        plans = {
            cell: tr.call(
                "harness.plan", harness.plan_cell, cell[0], proxy, *cell[1:],
                config.epsilon, config.e0_guess, config.masg_p,
            )
            for cell in cells(config)
        }
    traces = []
    for (algo, m, T, c), (run_algo, hp, sched) in plans.items():
        for seed in config.seed_list:
            rng = RngProxy(RngStream(seed), tr)
            account = AccountProxy(PrivacyAccount(config.epsilon, hp.T, obj.n, hp.m), tr)
            trace = tr.call("optimizers.run", run, run_algo, proxy, hp, sched, account, rng, x0, fstar)
            trace.meta["grid"] = {"algorithm": algo, "m": m, "T": T, "c": float(c)}
            trace.meta["objective"] = config.objective_tag
            path = out_dir / f"{algo}_{m}_{T}_{float(c)}_{seed}.csv"
            tr.call("harness.trace_write", trace.to_csv, path)
            counts["iters"] += hp.T
            counts["rng_draws"] += rng.counter
            counts["trace_rows"] += len(trace.t)
            counts["trace_bytes"] += path.stat().st_size
            counts["trace_bytes"] += path.with_name(path.stem + ".meta.json").stat().st_size
            traces.append(trace)
    return tr.call("harness.summarize", harness.summarize, traces)


def audit_grid(config, out_dir: Path, summary: dict) -> list[str]:
    """Re-plan every cell and re-audit every trace run_grid wrote.

    Returns one problem string per failed run or cell; an empty list means
    every check passed.
    """
    problems = [f"cell failed: {f}" for f in summary["failed"]]
    for key, final in final_errors(summary).items():
        if not math.isfinite(final):
            problems.append(f"cell {key}: non-finite final error")
    obj = setup_objective(config)
    S = obj.sensitivity_bound()
    plans = {
        cell: harness.plan_cell(
            cell[0], obj, *cell[1:], config.epsilon, config.e0_guess, config.masg_p
        )
        for cell in cells(config)
    }
    paths = sorted(glob.glob(str(out_dir / "traces" / "*.csv")))
    expected = len(plans) * len(config.seed_list)
    if len(paths) != expected:
        problems.append(f"{len(paths)} trace files, expected {expected}")
    for path in paths:
        path = Path(path)
        with open(path.with_name(path.stem + ".meta.json")) as fh:
            meta = json.load(fh)
        g = meta["grid"]
        _, hp, sched = plans[(g["algorithm"], g["m"], g["T"], g["c"])]
        rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        found = checks.trace_problems(rows[:, 2], rows[:, 1], sched.b, S, obj.n, hp.m, config.epsilon)
        found += checks.allocation_problems(sched.b, S, obj.n, hp.m, config.epsilon, hp.T)
        if found:
            problems.append(f"{path.name}: {'; '.join(found)}")
    return problems


# ---------------------------------------------------------------------------
# analysis workload

N, D, S1, E0, MASG_P = 10_000, 20, 40.0, 10.0, 1
ENVELOPE_STEPS, PSI0 = 1000, 1.0
# One timed job is 2 blocks (40 + 40 requests), so that a run repeats it
# several times and reports the median; the traced run serves 5 blocks, so
# that each kind's p90 has at least ten requests above it.
BLOCKS_PER_JOB, TRACED_BLOCKS = 2, 5
# Request classes with fixed counts per block of 20 + 20 requests.  Only
# the parameters inside each class are drawn from the seed, so every job
# has the same mix, the p50 of each kind falls inside its cheap class and
# the p90 inside its expensive class, away from any class boundary.
ALLOC_CLASSES = [  # scheme, T_max range, subsampled, requests per block
    ("nag", (250, 750), False, 6),
    ("nag", (250, 750), True, 6),
    ("masg", (3500, 4000), False, 4),
    ("masg", (3500, 4000), True, 4),
]
CERT_CLASSES = [  # mu/L, alpha*L and beta ranges, requests per block
    # well conditioned, little momentum: a certificate at rho ~0.7-0.8
    ((0.45, 0.55), (0.9, 1.1), (0.0, 0.1), 12),
    # ill conditioned, heavy momentum: no certificate, full rho scan
    ((0.02, 0.1), (0.5, 1.0), (0.6, 0.9), 8),
]
PROBE_REQUESTS = [
    {"kind": "alloc", "scheme": "nag", "T_max": 300, "m": N // 10, "mu": 0.02, "L": 1.0,
     "c": 1.0, "epsilon": 1.0},
    {"kind": "alloc", "scheme": "masg", "T_max": 300, "m": N, "mu": 0.02, "L": 1.0,
     "c": 1.0, "epsilon": 1.0},
    {"kind": "cert", "alpha": 1.0, "beta": 0.0, "mu": 0.5, "L": 1.0, "m": N, "epsilon": 1.0},
    {"kind": "cert", "alpha": 0.5, "beta": 0.8, "mu": 0.05, "L": 1.0, "m": N, "epsilon": 1.0},
]


def analysis_requests(seed: int, job: int, blocks: int = BLOCKS_PER_JOB) -> list[dict]:
    rng = np.random.default_rng([seed, job])
    requests = []
    for _ in range(blocks):
        block = []
        for scheme, (lo, hi), subsampled, count in ALLOC_CLASSES:
            for _ in range(count):
                block.append({
                    "kind": "alloc", "scheme": scheme, "T_max": int(rng.integers(lo, hi + 1)),
                    "m": N // 10 if subsampled else N, "mu": rng.uniform(0.015, 0.025),
                    "L": rng.uniform(0.8, 1.2), "c": rng.uniform(0.5, 1.0),
                    "epsilon": rng.uniform(0.5, 2.0),
                })
        for (r_lo, r_hi), (a_lo, a_hi), (b_lo, b_hi), count in CERT_CLASSES:
            for i in range(count):
                L = rng.uniform(0.95, 1.05)
                block.append({
                    "kind": "cert", "mu": L * rng.uniform(r_lo, r_hi), "L": L,
                    "alpha": rng.uniform(a_lo, a_hi) / L, "beta": rng.uniform(b_lo, b_hi),
                    "m": N // 10 if i % 2 else N, "epsilon": rng.uniform(0.5, 2.0),
                })
        rng.shuffle(block)
        requests += block
    return requests


def allocate(req: dict, tr):
    mu, L, c = req["mu"], req["L"], req["c"]
    if req["scheme"] == "nag":
        alpha = c / L

        def build(Tp):
            return ba.nag_coefficients(mu, L, alpha, Tp)
    else:

        def build(Tp):
            return ba.masg_coefficients_for(mu, L, c, MASG_P, Tp)

    if tr is not None:
        raw = build

        def build(Tp):
            return tr.call("budget_allocator.coeffs", raw, Tp)

    eps, m = req["epsilon"], req["m"]
    T, _ = call(tr, "budget_allocator.select_horizon", ba.select_horizon,
                build, E0, S1, N, eps, D, req["T_max"])
    sched = call(tr, "budget_allocator.schedule", ba.optimal_schedule, build(T), S1, N, eps)
    if m < N:
        sched, _ = call(tr, "budget_allocator.rescale", ba.rescale_for_subsampling,
                        sched, S1, N, m, eps)
    return sched


def certify(req: dict, grid, tr):
    alpha, beta, mu, L = req["alpha"], req["beta"], req["mu"], req["L"]
    cert = call(tr, "certification.search", ce.search_certificate, alpha, beta, mu, L, grid)
    envelope = None
    if cert is not None:
        eps0 = per_iteration_epsilon(req["epsilon"], ENVELOPE_STEPS, N, req["m"])
        noise = ce.noise_bound(S1, req["m"], N, eps0, D).total
        envelope = call(tr, "certification.envelope", ce.eval_shb_bound, cert, PSI0, noise,
                        alpha, D, L, np.arange(ENVELOPE_STEPS + 1))
    rate = call(tr, "certification.quadratic_rate", ce.quadratic_rate, alpha, beta, [mu, L])
    return cert, envelope, rate


def serve(requests: list[dict], grid, tr=None) -> list[tuple]:
    """Answer requests one after another; returns (latency_s, answer) pairs.

    A request that raises is answered with the exception and counted as
    failed by ``audit_requests``.
    """
    out = []
    for req in requests:
        span = tr.begin("request." + req["kind"]) if tr is not None else None
        t0 = time.perf_counter()
        try:
            answer = allocate(req, tr) if req["kind"] == "alloc" else certify(req, grid, tr)
        except Exception as exc:  # a failed request is reported, not fatal
            answer = exc
        out.append((time.perf_counter() - t0, answer))
        if span is not None:
            tr.finish(span)
    return out


def audit_requests(requests: list[dict], answers: list[tuple]) -> list[str]:
    problems = []
    for i, (req, (_, answer)) in enumerate(zip(requests, answers)):
        if isinstance(answer, Exception):
            found = [f"raised {answer!r}"]
        elif req["kind"] == "alloc":
            found = checks.allocation_problems(answer.b, S1, N, req["m"], req["epsilon"], req["T_max"])
        else:
            found = checks.certificate_problems(ce, req, *answer)
        if found:
            problems.append(f"request {i} ({req['kind']}): {'; '.join(found)}")
    return problems


def rho_scanned(grid, cert) -> int:
    """Rates search_certificate tried: up to the returned rho, or all of them."""
    rhos = np.sort(grid.rho)
    return len(rhos) if cert is None else int(np.searchsorted(rhos, cert.rho)) + 1
