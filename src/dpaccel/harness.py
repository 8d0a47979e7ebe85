"""Experiment driver: synthetic logistic grids over (algorithm, m, T, c).

Every grid cell gets the same seed list, so paired comparisons between
algorithms differ only through their updates and schedules.  Each run writes
a trace CSV named <algo>_<m>_<T>_<c>_<seed>.csv plus a JSON sidecar; the
summary aggregates per-cell curves and final errors.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .budget_allocator import (
    masg_coefficients_for,
    nag_coefficients,
    optimal_schedule,
    rescale_for_subsampling,
    select_horizon,
)
from .objectives import LogisticObjective, generate_synthetic
from .optimizers import (
    HyperParams,
    Trace,
    masg_stage_schedule,
    nesterov_momentum,
    polyak_momentum,
    run,
)
from .privacy_core import PrivacyAccount, RngStream, uniform_scale

GRID_ALGORITHMS = ("dp-gd", "dp-hb", "dp-nag", "dp-nag-opt", "dp-masg", "dp-masg-opt")

# Suboptimality floor when taking logs; traces can touch the reference
# optimum's own precision.
_LOG_FLOOR = 1e-300

# reference_optimum's stopping gradient norm and iteration cap.
_REFERENCE_GRAD_TOL = 1e-12
_REFERENCE_MAX_ITER = 100_000


@dataclass
class ExperimentConfig:
    """Desk-scale defaults; the full-scale dataset is n = 100_000."""

    d: int = 20
    n: int = 10_000
    u_max: float = 20.0
    lam: float = 0.01
    data_seed: int = 0
    epsilon: float = 1.0
    algorithms: tuple = GRID_ALGORITHMS
    m_values: tuple = (1_000, 10_000)
    T_values: tuple = (100, 200, 500, 1000)
    c_values: tuple = (0.1, 1.0)
    replicates: int = 20
    seed_base: int = 1000
    seeds: tuple | None = None
    e0_guess: float = 10.0
    masg_p: int = 1
    x0: tuple | None = None
    workers: int = 1

    def __post_init__(self):
        if self.d < 1 or self.n < 2:
            raise ValueError("need d >= 1 and n >= 2")
        if self.epsilon <= 0:
            raise ValueError(f"budget must be positive, got {self.epsilon}")
        if self.lam <= 0 or self.u_max <= 0:
            raise ValueError("lam and u_max must be positive")
        if not 0 <= self.e0_guess < np.inf:
            raise ValueError(f"e0_guess must be finite and non-negative, got {self.e0_guess}")
        unknown = set(self.algorithms) - set(GRID_ALGORITHMS)
        if unknown:
            raise ValueError(f"unknown algorithms {sorted(unknown)}")
        for m in self.m_values:
            if not 1 <= m <= self.n:
                raise ValueError(f"subsample size {m} outside 1..{self.n}")
        for T in self.T_values:
            if T < 1:
                raise ValueError(f"need T >= 1, got {T}")
        for c in self.c_values:
            if not 0 < c <= 1:
                raise ValueError(f"stepsize scale must lie in (0, 1], got {c}")
        if self.replicates < 1 and self.seeds is None:
            raise ValueError("need at least one replicate")
        if self.x0 is not None and len(self.x0) != self.d:
            raise ValueError("x0 must have d entries")
        if self.workers < 1:
            raise ValueError("need workers >= 1")

    @property
    def seed_list(self) -> list[int]:
        if self.seeds is not None:
            return [int(s) for s in self.seeds]
        return [self.seed_base + r for r in range(self.replicates)]

    @property
    def objective_tag(self) -> str:
        return (
            f"logistic(d={self.d},n={self.n},u_max={self.u_max},"
            f"seed={self.data_seed},lam={self.lam})"
        )

    def to_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(asdict(self), fh, indent=2)

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            raw = json.load(fh)
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        # JSON has no tuples, and every list belongs to a tuple field
        return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in raw.items()})


def build_objective(config: ExperimentConfig) -> LogisticObjective:
    data = generate_synthetic(config.d, config.n, config.u_max, config.data_seed)
    return LogisticObjective(data, config.lam)


def reference_optimum(obj):
    """Noise-free momentum run to near-stationarity.

    Returns (xstar, fstar, grad_norm) for the best iterate seen.  With the
    desk-scale conditioning this converges in a few hundred iterations.
    """
    alpha = 1.0 / obj.L
    beta = nesterov_momentum(alpha, obj.mu) if obj.mu * alpha < 1 else 0.0
    x = np.zeros(obj.d)
    x_prev = x.copy()
    best_x, best_norm = x.copy(), np.linalg.norm(obj.full_gradient(x))
    for _ in range(_REFERENCE_MAX_ITER):
        z = (1 + beta) * x - beta * x_prev
        g = obj.full_gradient(z)
        x_prev, x = x, z - alpha * g
        norm = np.linalg.norm(obj.full_gradient(x))
        if norm < best_norm:
            best_x, best_norm = x.copy(), norm
        if norm <= _REFERENCE_GRAD_TOL:
            break
    return best_x, obj.value(best_x), float(best_norm)


# In harness, not budget_allocator, because perfbench times these calls by patching
# this module's names; it moves unchanged once perfbench wraps budget_allocator.
def allocate(scheme: str, S1: float, n: int, m: int, epsilon: float, T: int, *,
             mu=None, L=None, alpha=None, c: float = 1.0, p: int = 1, e0=None, d: int = 1):
    """(T, schedule, bound, factor) for one budget: the one allocation path.

    "uniform" splits epsilon evenly over T steps.  "nag-opt" (stepsize
    alpha, default c / L) and "masg-opt" (stages from c and p) split it
    unevenly, after re-selecting the horizon (at most T) that minimizes the
    optimized bound when e0 is given (else bound is None); with m < n the
    schedule is rescaled so the audited leak still sums to epsilon (else
    factor is None).
    """
    if scheme == "uniform":
        return T, uniform_scale(S1, epsilon, T, n, m), None, None
    if scheme == "nag-opt":
        alpha = c / L if alpha is None else alpha
        builder = lambda Tp: nag_coefficients(mu, L, alpha, Tp)
    elif scheme == "masg-opt":
        builder = lambda Tp: masg_coefficients_for(mu, L, c, p, Tp)
    else:
        raise ValueError(f"unknown allocation scheme {scheme!r}")
    bound = factor = None
    if e0 is not None:
        T, bound = select_horizon(builder, e0, S1, n, epsilon, d, T)
    sched = optimal_schedule(builder(T), S1, n, epsilon)
    if m < n:
        sched, factor = rescale_for_subsampling(sched, S1, n, m, epsilon)
    return T, sched, bound, factor


def plan_cell(algo: str, obj, m: int, T: int, c: float, epsilon: float,
              e0_guess: float, masg_p: int):
    """(run algorithm, hyperparameters, noise schedule) for one grid cell.

    A name ending in -opt runs its base method on allocate's "nag-opt" or
    "masg-opt" schedule, with the horizon it selects from e0_guess; the
    others run on a uniform split of epsilon over T steps.
    """
    if algo not in GRID_ALGORITHMS:
        raise ValueError(f"unknown grid algorithm {algo!r}")
    mu, L = obj.mu, obj.L
    run_algo = algo.removesuffix("-opt")
    scheme = algo.removeprefix("dp-") if algo.endswith("-opt") else "uniform"
    T, sched, _, _ = allocate(scheme, obj.sensitivity_bound(), obj.n, m, epsilon, T,
                              mu=mu, L=L, c=c, p=masg_p, e0=e0_guess, d=obj.d)
    alpha = c / L
    beta, stages = 0.0, None
    if run_algo == "dp-hb":
        beta = polyak_momentum(mu, L)
    elif run_algo == "dp-nag":
        beta = nesterov_momentum(alpha, mu)
    elif run_algo == "dp-masg":
        stages = masg_stage_schedule(mu, L, c, masg_p, T)
    return run_algo, HyperParams(alpha=alpha, T=T, m=m, beta=beta, stages=stages), sched


def _cell_name(algo: str, m: int, T: int, c: float, seed: int | None = None) -> str:
    base = f"{algo}_{m}_{T}_{float(c)}"
    return base if seed is None else f"{base}_{seed}"


def run_grid(config: ExperimentConfig, out_dir) -> dict:
    """Run the whole grid, write traces and a summary, return the summary.

    A cell that fails to plan is recorded under "failed" as {"cell", "error"}
    and skipped; a run that raises is recorded as {"cell", "seed", "error"},
    and the summary covers the runs that finished (no records, when none
    did; summary.json is written either way).  Results are deterministic
    for a fixed config regardless of config.workers: every run is keyed by
    (cell, seed) and aggregation follows config order.
    """
    out_dir = Path(out_dir)
    traces_dir = out_dir / "traces"
    traces_dir.mkdir(parents=True, exist_ok=True)

    started = time.perf_counter()
    obj = build_objective(config)
    xstar, fstar, gnorm = reference_optimum(obj)
    x0 = np.zeros(config.d) if config.x0 is None else np.asarray(config.x0, dtype=float)
    seeds = config.seed_list

    cells = [
        (algo, m, T, c)
        for algo in config.algorithms
        for m in config.m_values
        for T in config.T_values
        for c in config.c_values
    ]
    plans, failed = {}, []
    for cell in cells:
        algo, m, T, c = cell
        try:
            plans[cell] = plan_cell(
                algo, obj, m, T, c, config.epsilon, config.e0_guess, config.masg_p
            )
        except (ValueError, RuntimeError) as exc:
            failed.append({"cell": _cell_name(*cell), "error": str(exc)})

    def one(cell, seed):
        """The run's trace, or the exception that stopped it."""
        algo, m, T, c = cell
        run_algo, hp, sched = plans[cell]
        account = PrivacyAccount(config.epsilon, hp.T, obj.n, hp.m)
        try:
            trace = run(run_algo, obj, hp, sched, account, RngStream(seed), x0, fstar)
        except (ValueError, RuntimeError, ArithmeticError) as exc:
            # an overspent budget or a numeric failure: recorded, not fatal
            return exc
        trace.meta["grid"] = {"algorithm": algo, "m": m, "T": T, "c": float(c)}
        trace.meta["objective"] = config.objective_tag
        trace.to_csv(traces_dir / (_cell_name(algo, m, T, c, seed) + ".csv"))
        return trace

    tasks = [(cell, seed) for cell in plans for seed in seeds]
    if config.workers > 1:
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            results = list(pool.map(lambda ts: one(*ts), tasks))
    else:
        results = [one(*task) for task in tasks]

    traces = []
    for (cell, seed), result in zip(tasks, results):
        if isinstance(result, Trace):
            traces.append(result)
        else:
            failed.append({"cell": _cell_name(*cell), "seed": seed, "error": str(result)})
    if traces:
        summary = summarize(traces)
    else:  # every plan or every run failed: keep the failures on record
        summary = {
            "objective": config.objective_tag,
            "epsilon": config.epsilon,
            "records": [],
            "comparison": {},
        }
    summary["reference"] = {"fstar": fstar, "grad_norm": gnorm}
    summary["failed"] = failed
    summary["wall_time"] = time.perf_counter() - started
    summary["config"] = asdict(config)
    write_summary(summary, out_dir / "summary.json")
    _write_curve_csvs(out_dir / "curves", summary)
    return summary


def summarize(traces) -> dict:
    """Aggregate traces into per-cell curves and an overall comparison.

    Traces must share the objective and the budget.  Per cell: the mean and
    standard error of log10 suboptimality at each iteration, plus the plain
    mean of the final suboptimality.  The curves are float64 arrays (about a
    quarter of the memory of lists of Python floats); write_summary turns
    them into JSON lists.  The comparison table keeps, for each
    (algorithm, m, c), the best final mean error over T.
    """
    traces = [Trace.from_csv(p) if isinstance(p, (str, Path)) else p for p in traces]
    if not traces:
        raise ValueError("no traces to summarize")
    tags = {t.meta.get("objective") for t in traces}
    budgets = {t.meta.get("epsilon_total") for t in traces}
    if len(tags) > 1:
        raise ValueError(f"traces mix objectives: {sorted(map(str, tags))}")
    if len(budgets) > 1:
        raise ValueError(f"traces mix budgets: {sorted(budgets)}")

    cells: dict[tuple, list[Trace]] = {}
    for tr in traces:
        grid = tr.meta.get("grid") or {}
        key = (
            grid.get("algorithm", tr.meta.get("algorithm", "?")),
            grid.get("m", tr.meta.get("m")),
            grid.get("T", tr.meta.get("T")),
            grid.get("c"),
        )
        cells.setdefault(key, []).append(tr)

    records = []
    for (algo, m, T, c), group in cells.items():
        lengths = {len(tr.subopt) for tr in group}
        if len(lengths) > 1:
            raise ValueError(f"cell {algo}_{m}_{T}_{c} mixes trace lengths {sorted(lengths)}")
        sub = np.vstack([tr.subopt for tr in group])
        logs = np.log10(np.maximum(sub, _LOG_FLOOR))
        k = len(group)
        sem = logs.std(axis=0, ddof=1) / np.sqrt(k) if k > 1 else np.zeros(logs.shape[1])
        records.append(
            {
                "algorithm": algo,
                "m": m,
                "T": T,
                "c": c,
                "T_effective": int(lengths.pop()) - 1,
                "n_seeds": k,
                "final_mean_error": float(sub[:, -1].mean()),
                "final_sem": float(sub[:, -1].std(ddof=1) / np.sqrt(k)) if k > 1 else 0.0,
                "mean_log10": logs.mean(axis=0),
                "sem_log10": sem,
            }
        )

    # deterministic output regardless of trace ordering
    records.sort(key=lambda r: (r["algorithm"], str(r["m"]), str(r["T"]), str(r["c"])))
    comparison = {}
    for rec in records:
        key = f"{rec['algorithm']}|m={rec['m']}|c={rec['c']}"
        cur = comparison.get(key)
        if cur is None or rec["final_mean_error"] < cur["final_mean_error"]:
            comparison[key] = {
                "algorithm": rec["algorithm"],
                "m": rec["m"],
                "c": rec["c"],
                "best_T": rec["T"],
                "final_mean_error": rec["final_mean_error"],
            }
    return {
        "objective": tags.pop(),
        "epsilon": budgets.pop(),
        "records": records,
        "comparison": comparison,
    }


def _json_default(obj):
    # arrays become lists of Python floats; numpy scalars that json cannot
    # write become floats
    return obj.tolist() if isinstance(obj, np.ndarray) else float(obj)


def write_summary(summary: dict, path) -> None:
    """Write a summary (from run_grid or summarize) as indented JSON."""
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2, default=_json_default)


def _write_curve_csvs(curve_dir: Path, summary: dict) -> None:
    curve_dir.mkdir(parents=True, exist_ok=True)
    for rec in summary["records"]:
        name = _cell_name(rec["algorithm"], rec["m"], rec["T"], rec["c"])
        with open(curve_dir / f"curve_{name}.csv", "w") as fh:
            fh.write("t,mean_log10_subopt,sem_log10_subopt\n")
            for t, (mean, sem) in enumerate(zip(rec["mean_log10"], rec["sem_log10"])):
                # repr of the Python float round-trips; numpy scalar repr does not
                fh.write(f"{t},{float(mean)!r},{float(sem)!r}\n")


def comparison_table(summary: dict) -> str:
    """Plain-text best-over-T table, one row per (algorithm, m, c).

    A key the traces did not record prints as "-": c, for traces written
    outside run_grid.
    """
    rows = sorted(
        summary["comparison"].values(),
        key=lambda r: (str(r["m"]), str(r["c"]), r["algorithm"]),
    )
    lines = [f"{'algorithm':<14}{'m':>8}{'c':>6}{'best T':>8}{'final mean error':>20}"]
    for r in rows:
        m, c, T = ("-" if r[k] is None else r[k] for k in ("m", "c", "best_T"))
        lines.append(f"{r['algorithm']:<14}{m:>8}{c:>6}{T:>8}{r['final_mean_error']:>20.6g}")
    return "\n".join(lines)
