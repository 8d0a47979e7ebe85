"""Run one dpaccel benchmark workload, check its outputs and print its metrics.

    python3 perfbench/run.py --workload grid --seed 0 --seconds 15 --trace 0

Run from the root of a checkout; dpaccel is imported from its ``src``.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end metrics of BENCHMARK.json, measured with tracing off; with
--trace 1 they are its per-layer metrics, from one untraced and one traced
pass of the workload.  Each run leaves its trace files, and the spans of
a traced run (spans.npz), in a new directory under perfbench/.work/.
"""

import os

# One worker thread, set before numpy is imported (the workloads are
# defined as single-threaded).
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
WORK_DIR = BENCH_DIR / ".work"
SETUP_REPEATS = 7
SYM3_BATCH = 20_000


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "dpaccel" / "__init__.py").is_file():
        sys.exit(f"dpaccel sources not found under {ROOT / 'src'}")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import scipy

    from dpaccel import budget_allocator, certification
    from perfbench import checks

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        sys.exit(f"unknown workload {args.workload!r}")
    env = {
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(), "machine": platform.machine(),
    }
    print(json.dumps({"env": env}), file=sys.stderr)

    self_test = checks.self_test(budget_allocator, certification)
    for failure in self_test:
        print(f"self-test: {failure}", file=sys.stderr)

    # Every job writes into a directory of its own, and nothing is deleted:
    # truncating or unlinking many small files can cost seconds on a
    # filesystem with online discard, which would make timings depend on
    # what earlier runs left behind.
    WORK_DIR.mkdir(exist_ok=True)
    out = Path(tempfile.mkdtemp(dir=WORK_DIR, prefix=f"{args.workload}-{args.seed}-"))
    if args.trace:
        metrics, attempted, problems = traced(args.workload, args.seed, out, env)
    else:
        metrics, attempted, problems = untraced(args.workload, args.seed, args.seconds, out)
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)

    declared = spec["per_layer" if args.trace else "end_to_end"]
    mismatch = set(metrics) ^ {m["name"] for m in declared}
    if mismatch:
        sys.exit(f"metrics differ from BENCHMARK.json: {sorted(mismatch)}")
    failed = min(len(problems), attempted)
    print(json.dumps({
        "correct": not problems and not self_test,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }))


def untraced(workload: str, seed: int, seconds: float, out: Path):
    """End-to-end metrics: repeat the workload's job until `seconds` have passed."""
    from dpaccel import harness
    from perfbench import checks
    from perfbench import workloads as W

    setup_s = statistics.median(probe_setup(workload, seed) for _ in range(SETUP_REPEATS))
    deadline = time.perf_counter() + seconds
    walls = []
    if workload == "analysis":
        grid = W.setup(workload, seed)
        jobs = []
        while not walls or time.perf_counter() < deadline:
            requests = W.analysis_requests(seed, len(walls))
            t0 = time.perf_counter()
            answers = W.serve(requests, grid)
            walls.append(time.perf_counter() - t0)
            jobs.append((requests, answers))
        rss = peak_rss_mb()
        problems = [p for requests, answers in jobs for p in W.audit_requests(requests, answers)]
        attempted = sum(len(requests) for requests, _ in jobs)
        ops_per_job = len(jobs[0][0])
    else:
        config = W.experiment_config(workload, seed)
        finals = []
        while not walls or time.perf_counter() < deadline:
            job_dir = out / f"job{len(walls)}"
            t0 = time.perf_counter()
            summary = harness.run_grid(config, job_dir)
            walls.append(time.perf_counter() - t0)
            finals.append(W.final_errors(summary))
        rss = peak_rss_mb()
        problems = W.audit_grid(config, job_dir, summary)
        for other in finals[1:]:
            problems += checks.determinism_problems(finals[0], other)
        attempted = len(walls) * len(W.cells(config)) * len(config.seed_list)
        ops_per_job = W.iterations(summary)
    print(f"job walls s: {[round(w, 4) for w in walls]}", file=sys.stderr)
    wall = statistics.median(walls)
    return {
        "setup_s": setup_s,
        "wall_s": wall,
        "ops_per_s": ops_per_job / wall,
        "ok_frac": 1.0 - min(len(problems), attempted) / attempted,
        "peak_rss_mb": rss,
    }, attempted, problems


def traced(workload: str, seed: int, out: Path, env: dict):
    """Per-layer metrics: one untraced and one traced pass, then the probe."""

    from dpaccel import certification, harness
    from perfbench import checks
    from perfbench import workloads as W
    from perfbench.tracing import PROBE, WORKLOAD, SpanTable, Tracer

    tr = Tracer()
    counts = {WORKLOAD: Counter(), PROBE: Counter()}
    latencies = {}
    grid = certification.CertificateGrid.default()
    if workload == "analysis":
        requests = W.analysis_requests(seed, 0, W.TRACED_BLOCKS)
        with counting_warnings() as warned:
            t0 = time.perf_counter()
            plain = W.serve(requests, grid)
            plain_wall = time.perf_counter() - t0
        t0 = time.perf_counter()
        answers = W.serve(requests, grid, tr)
        traced_wall = time.perf_counter() - t0
        problems = W.audit_requests(requests, plain) + W.audit_requests(requests, answers)
        attempted = 2 * len(requests)
        for kind in ("alloc", "cert"):
            latencies[kind] = [lat for req, (lat, _) in zip(requests, plain) if req["kind"] == kind]
        for req, (_, answer) in zip(requests, answers):
            if req["kind"] == "cert" and not isinstance(answer, Exception):
                counts[WORKLOAD]["searches"] += 1
                counts[WORKLOAD]["found"] += answer[0] is not None
                counts[WORKLOAD]["rho_scanned"] += W.rho_scanned(grid, answer[0])
        final_log10 = 0.0
    else:
        config = W.experiment_config(workload, seed)
        with counting_warnings() as warned:
            t0 = time.perf_counter()
            summary = harness.run_grid(config, out / "untraced")
            plain_wall = time.perf_counter() - t0
        t0 = time.perf_counter()
        replay = W.replay_grid(config, out / "traced", tr, counts[WORKLOAD])
        traced_wall = time.perf_counter() - t0
        problems = W.audit_grid(config, out / "untraced", summary)
        problems += checks.determinism_problems(W.final_errors(summary), W.final_errors(replay))
        attempted = 2 * len(W.cells(config)) * len(config.seed_list)
        final_log10 = float(np.mean(np.log10(list(W.final_errors(summary).values()))))

    tr.phase = PROBE
    W.replay_grid(W.probe_config(seed), out / "probe", tr, counts[PROBE])
    W.serve(W.PROBE_REQUESTS, grid, tr)
    tr.save(out / "spans.npz", env)

    metrics = layer_metrics(SpanTable(tr), counts, latencies)
    metrics.update({
        "harness.final_log10_subopt": final_log10,
        "certification.sym3_ns_per_matrix": sym3_ns_per_matrix(),
        "certification.warnings": warned[0],
        "trace_overhead_frac": traced_wall / plain_wall - 1.0,
    })
    return metrics, attempted, problems


def layer_metrics(table, counts: dict, latencies: dict) -> dict:
    """Per-layer figures from the spans.

    Times come from the workload's own spans of a name when it has any,
    else from the probe's; counts are always the workload's.
    """

    from perfbench.tracing import WORKLOAD

    def durations(name):
        return table.durations(name, table.phase_for(name))

    def total_ms(name):
        return float(durations(name).sum()) / 1e3

    def mean_us(name):
        d = durations(name)
        return float(d.mean()) if len(d) else 0.0

    def per_unit(name, unit, self_time=False):
        phase = table.phase_for(name)
        d = table.self_times(name, phase) if self_time else table.durations(name, phase)
        return float(d.sum()) / max(counts[phase][unit], 1)

    def request_ms(kind, q):
        if latencies.get(kind):
            return float(np.percentile(latencies[kind], q)) * 1e3
        return float(np.percentile(durations("request." + kind), q)) / 1e3

    work = counts[WORKLOAD]
    searches = work["searches"]
    return {
        "objectives.value_us_per_call": mean_us("objectives.value"),
        "objectives.value_calls": table.count("objectives.value"),
        "objectives.grad_us_per_call": mean_us("objectives.grad"),
        "objectives.grad_calls": table.count("objectives.grad"),
        "objectives.build_ms": total_ms("objectives.build"),
        "privacy_core.ledger_us_per_iter": per_unit("privacy_core.ledger", "iters"),
        "privacy_core.ledger_calls": table.count("privacy_core.ledger"),
        "privacy_core.rng_us_per_iter": per_unit("privacy_core.rng", "iters"),
        "privacy_core.rng_draws": work["rng_draws"],
        "optimizers.self_us_per_iter": per_unit("optimizers.run", "iters", self_time=True),
        "optimizers.run_ms_p50": float(np.median(durations("optimizers.run"))) / 1e3,
        "optimizers.iters": work["iters"],
        "harness.plan_ms": total_ms("harness.plan"),
        "harness.reference_ms": total_ms("harness.reference"),
        "harness.summarize_ms": total_ms("harness.summarize"),
        "harness.trace_write_us_per_row": per_unit("harness.trace_write", "trace_rows"),
        "harness.trace_bytes": work["trace_bytes"],
        "budget_allocator.select_horizon_ms": total_ms("budget_allocator.select_horizon"),
        "budget_allocator.coeff_builds": table.count("budget_allocator.coeffs"),
        "budget_allocator.coeff_build_us": mean_us("budget_allocator.coeffs"),
        "budget_allocator.schedule_ms": total_ms("budget_allocator.schedule"),
        "budget_allocator.rescale_ms": total_ms("budget_allocator.rescale"),
        "budget_allocator.request_p50_ms": request_ms("alloc", 50),
        "budget_allocator.request_p90_ms": request_ms("alloc", 90),
        "certification.search_ms_p50": float(np.median(durations("certification.search"))) / 1e3,
        "certification.rho_scanned": work["rho_scanned"] / max(searches, 1),
        "certification.found_frac": work["found"] / max(searches, 1),
        "certification.envelope_us": mean_us("certification.envelope"),
        "certification.quadratic_rate_us": mean_us("certification.quadratic_rate"),
        "certification.request_p50_ms": request_ms("cert", 50),
        "certification.request_p90_ms": request_ms("cert", 90),
    }


def probe_setup(workload: str, seed: int) -> float:
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload, str(seed)],
        capture_output=True, text=True, check=True, timeout=120, cwd=ROOT,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def sym3_ns_per_matrix() -> float:
    """Closed-form 3x3 eigenvalues on a fixed batch of random symmetric matrices."""

    from dpaccel import certification

    parts = np.random.default_rng(SYM3_BATCH).standard_normal((6, SYM3_BATCH))
    times = []
    for _ in range(7):
        t0 = time.perf_counter_ns()
        certification._sym3_eigvals_parts(*parts)
        times.append(time.perf_counter_ns() - t0)
    return statistics.median(times) / SYM3_BATCH


@contextmanager
def counting_warnings():
    """Count UserWarnings raised from dpaccel, still showing each location once."""
    count = [0]
    shown = set()
    original = warnings.showwarning

    def show(message, category, filename, lineno, file=None, line=None):
        if issubclass(category, UserWarning) and f"{os.sep}dpaccel{os.sep}" in filename:
            count[0] += 1
        if (filename, lineno) not in shown:
            shown.add((filename, lineno))
            original(message, category, filename, lineno, file, line)

    with warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = show
        yield count


if __name__ == "__main__":
    main()
