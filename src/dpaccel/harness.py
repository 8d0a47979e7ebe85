"""Experiment driver: synthetic logistic grids over (algorithm, m, T, c).

Every grid cell gets the same seed list, so paired comparisons between
algorithms differ only through their updates and schedules.  Each run writes
a trace CSV named <algo>_<m>_<T>_<c>_<seed>.csv plus a JSON sidecar; the
summary aggregates per-cell curves and final errors.
"""

from __future__ import annotations

import numbers
import operator
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from ._table import read_json, write_json, write_table
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
    run_group,
)
from .privacy_core import PrivacyAccount, RngStream, uniform_scale

GRID_ALGORITHMS = ("dp-gd", "dp-hb", "dp-nag", "dp-nag-opt", "dp-masg", "dp-masg-opt")

# Suboptimality floor when taking logs; traces can touch the reference
# optimum's own precision.
_LOG_FLOOR = 1e-300

# reference_optimum's stopping gradient norm and iteration cap.
_REFERENCE_GRAD_TOL = 1e-12
_REFERENCE_MAX_ITER = 100_000

_INT_FIELDS = ("d", "n", "data_seed", "replicates", "seed_base", "masg_p", "workers")
_REAL_FIELDS = ("u_max", "lam", "epsilon", "e0_guess")


def _number(name: str, value, integer: bool):
    """value, unless it is a bool or not a real number; with integer set it
    must be integral and comes back as a Python int, so JSON writes it as one."""
    kind = numbers.Integral if integer else numbers.Real
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"{name} must be {'an integer' if integer else 'a number'}, got {value!r}")
    return operator.index(value) if integer else value


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
    e0_guess: float = 10.0
    masg_p: int = 1
    workers: int = 1

    def __post_init__(self):
        for name in _INT_FIELDS + _REAL_FIELDS:
            setattr(self, name, _number(name, getattr(self, name), name in _INT_FIELDS))
        for name in ("algorithms", "m_values", "T_values", "c_values"):
            values = getattr(self, name)
            if not isinstance(values, (tuple, list)):
                raise ValueError(f"{name} must be a list, got {values!r}")
            if name != "algorithms":
                setattr(self, name, tuple(_number(name, v, name != "c_values") for v in values))
        if self.d < 1 or self.n < 2:
            raise ValueError("need d >= 1 and n >= 2")
        for name in ("u_max", "lam", "epsilon"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and positive, got {getattr(self, name)}")
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
        if self.replicates < 1:
            raise ValueError("need at least one replicate")
        if self.workers < 1:
            raise ValueError("need workers >= 1")
        if self.masg_p < 1:
            raise ValueError(f"masg_p must be >= 1, got {self.masg_p}")

    @property
    def seed_list(self) -> list[int]:
        return [self.seed_base + r for r in range(self.replicates)]

    @property
    def objective_tag(self) -> str:
        return (
            f"logistic(d={self.d},n={self.n},u_max={self.u_max},"
            f"seed={self.data_seed},lam={self.lam})"
        )

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        raw = read_json(path)
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
    """Noise-free Nesterov run from 0, one full gradient per step, taken at
    the query point z.  Returns (z, F(z), ||grad F(z)||) at the first z whose
    gradient norm is at most _REFERENCE_GRAD_TOL (at the last z after
    _REFERENCE_MAX_ITER steps); at desk scale that takes about 120 steps.
    From obj it reads d, mu and L and calls full_gradient(x) and value(x).
    """
    alpha = 1.0 / obj.L
    beta = nesterov_momentum(alpha, obj.mu) if obj.mu * alpha < 1 else 0.0
    x = x_prev = np.zeros(obj.d)
    for _ in range(_REFERENCE_MAX_ITER):
        z = (1 + beta) * x - beta * x_prev
        g = obj.full_gradient(z)
        norm = float(np.linalg.norm(g))
        if norm <= _REFERENCE_GRAD_TOL:
            break
        x_prev, x = x, z - alpha * g
    return z, obj.value(z), norm


# In harness, not budget_allocator, because perfbench times these calls by patching
# this module's names; it moves unchanged once perfbench wraps budget_allocator.
def allocate(scheme: str, S1: float, n: int, m: int, epsilon: float, T: int, *,
             mu=None, L=None, c: float = 1.0, p: int = 1, e0=None, d: int = 1):
    """(T, schedule, bound, factor) for one budget: the one allocation path.

    "uniform" splits epsilon evenly over T steps.  "nag-opt" (stepsize
    c / L) and "masg-opt" (stages from c and p) split it
    unevenly, after re-selecting the horizon (at most T) that minimizes the
    optimized bound when e0 is given (else bound is None); with m < n the
    schedule is rescaled so the audited leak still sums to epsilon (else
    factor is None).  p >= 1 is required for every scheme.
    """
    if p < 1:
        raise ValueError(f"need p >= 1, got {p}")
    if scheme == "uniform":
        return T, uniform_scale(S1, epsilon, T, n, m), None, None
    if scheme == "nag-opt":
        builder = lambda Tp: nag_coefficients(mu, L, c / L, Tp)
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
    if run_algo == "dp-masg":
        stages = masg_stage_schedule(mu, L, c, masg_p, T)
    elif run_algo == "dp-gd":
        stages = ((T, alpha, 0.0),)
    elif run_algo == "dp-hb":
        stages = ((T, alpha, polyak_momentum(mu, L)),)
    else:
        stages = ((T, alpha, nesterov_momentum(alpha, mu)),)
    return run_algo, HyperParams(m=m, stages=stages), sched


def _cell_name(algo: str, m: int, T: int, c: float, seed: int | None = None) -> str:
    base = f"{algo}_{m}_{T}_{float(c)}"
    return base if seed is None else f"{base}_{seed}"


def run_grid(config: ExperimentConfig, out_dir) -> dict:
    """Run the whole grid, write traces and a summary, return the summary.

    A cell that fails to plan is recorded under "failed" as {"cell", "error"}
    and skipped; a run that raises or diverges is recorded as
    {"cell", "seed", "error"}, and the summary covers the runs that finished
    (no records, when none did; summary.json is written either way).  The
    runs that share (m, seed) step in lockstep (optimizers.run_group), each
    with the bits it gets alone.  Results are deterministic for a fixed
    config regardless of config.workers: every run is keyed by (cell, seed)
    and aggregation follows config order.
    """
    out_dir = Path(out_dir)
    traces_dir = out_dir / "traces"
    traces_dir.mkdir(parents=True, exist_ok=True)

    started = time.perf_counter()
    obj = build_objective(config)
    xstar, fstar, gnorm = reference_optimum(obj)
    x0 = np.zeros(config.d)
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

    def one_group(seed, cells):
        """{(cell, seed): the run's trace, or the exception that stopped it}
        for cells run as one group on one seed."""
        runs = []
        for cell in cells:
            run_algo, hp, sched = plans[cell]
            runs.append((run_algo, hp, sched, PrivacyAccount(config.epsilon, hp.T, obj.n, hp.m)))
        try:
            results = run_group(obj, runs, RngStream(seed), x0, fstar)
        except (ValueError, RuntimeError, ArithmeticError) as exc:
            # an error in the group's shared step: recorded for each of its runs, not fatal
            results = [exc] * len(cells)
        for (algo, m, T, c), trace in zip(cells, results):
            if isinstance(trace, Trace):
                trace.meta["grid"] = {"algorithm": algo, "m": m, "T": T, "c": float(c)}
                trace.meta["objective"] = config.objective_tag
                trace.to_csv(traces_dir / (_cell_name(algo, m, T, c, seed) + ".csv"))
        return {(cell, seed): result for cell, result in zip(cells, results)}

    # The runs of one (m, seed) draw the same subsamples and Laplace uniforms,
    # so they run as one lockstep group: every planned schedule went through
    # epsilon_of, which refuses b_t <= 0, so every run draws at every step.
    tasks = [(cell, seed) for cell in plans for seed in seeds]
    groups = {}
    for cell, seed in tasks:
        groups.setdefault((cell[1], seed), (seed, []))[1].append(cell)
    results = {}
    with ThreadPoolExecutor(max_workers=config.workers) as pool:
        for done in pool.map(lambda group: one_group(*group), groups.values()):
            results.update(done)

    traces = []
    for cell, seed in tasks:
        result = results[(cell, seed)]
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
    write_json(out_dir / "summary.json", summary)
    _write_curve_csvs(out_dir / "curves", summary)
    return summary


def summarize(traces) -> dict:
    """Aggregate traces into per-cell curves and an overall comparison.

    Traces must share the objective and the budget.  Per cell: the mean and
    standard error of log10 suboptimality at each iteration, plus the plain
    mean of the final suboptimality.  The curves are float64 arrays (about a
    quarter of the memory of lists of Python floats); write_json turns
    them into JSON lists.  Records run in numeric order of (m, T, c) within
    an algorithm.  The comparison table keeps, for each (algorithm, m, c),
    the best final mean error over T, the smallest such T on a tie, and the
    n_seeds of the cell it picks.
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
    records.sort(key=lambda r: (r["algorithm"], *map(_numeric_key, (r["m"], r["T"], r["c"]))))
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
                "n_seeds": rec["n_seeds"],
            }
    return {
        "objective": tags.pop(),
        "epsilon": budgets.pop(),
        "records": records,
        "comparison": comparison,
    }


def _numeric_key(value) -> tuple:
    """Sort key for m, T or c: numeric order, with a missing (None) key last."""
    return (value is None, 0 if value is None else value)


def _write_curve_csvs(curve_dir: Path, summary: dict) -> None:
    curve_dir.mkdir(parents=True, exist_ok=True)
    for rec in summary["records"]:
        name = _cell_name(rec["algorithm"], rec["m"], rec["T"], rec["c"])
        mean, sem = rec["mean_log10"], rec["sem_log10"]
        write_table(curve_dir / f"curve_{name}.csv",
                    ("t", "mean_log10_subopt", "sem_log10_subopt"),
                    (np.arange(len(mean)), mean, sem))


def comparison_table(summary: dict) -> str:
    """Plain-text best-over-T table, one row per (algorithm, m, c).

    The last column counts the seeds the mean covers, fewer than the grid's
    where runs failed.  A key the traces did not record prints as "-": c,
    for traces written outside run_grid.
    """
    rows = sorted(
        summary["comparison"].values(),
        key=lambda r: (_numeric_key(r["m"]), _numeric_key(r["c"]), r["algorithm"]),
    )
    lines = [f"{'algorithm':<14}{'m':>8}{'c':>6}{'best T':>8}{'final mean error':>20}{'seeds':>7}"]
    for r in rows:
        m, c, T = ("-" if r[k] is None else r[k] for k in ("m", "c", "best_T"))
        lines.append(f"{r['algorithm']:<14}{m:>8}{c:>6}{T:>8}{r['final_mean_error']:>20.6g}"
                     f"{r['n_seeds']:>7}")
    return "\n".join(lines)
