"""First-order iterations with per-iteration Laplace privacy noise.

run() carries every variant: plain gradient descent, heavy ball,
Nesterov momentum, and a multi-stage Nesterov scheme in the style of
Aybat, Fallah, Gurbuzbalaban & Ozdaglar (NeurIPS 2019).  All take one step,
y = (1 + beta) x - beta x_prev, x' = y - alpha g, with g at x (dp-gd, dp-hb)
or at y (dp-nag, dp-masg) [Lessard, Recht & Packard, SIAM J. Optim. 2016].

dp-hb is the paper's heavy ball with a smoothed gradient average,
reparametrised.  The smoothed form ubar_t = beta ubar_{t-1} + (1 - beta) g_t,
x_{t+1} = x_t - alpha/(1 - beta) ubar_t from ubar_{-1} = 0 gives the same
iterates as x_{t+1} = x_t - alpha g_t + beta (x_t - x_{t-1}) from
x_{-1} = x_0, up to rounding (y - alpha g differs in the last bits);
acceptance test 11 replays the smoothed form against dp-hb.

dp-masg's stepsize drops 16x at the first stage boundary (c/L -> c/16L)
and 4x at each later one, and every stage restarts its momentum from the
last iterate of the stage before.  Gradient noise scales come from a
NoiseSchedule; every release's leak is charged to a PrivacyAccount as it
happens.  Every per-step cost is O(1) in the step index; the logged
objective is evaluated once, over all iterates, after the loop.

run_group steps runs that share a stream and a subsample size in lockstep:
one subsample and one Laplace uniform draw per step serve the whole group,
and one block gradient call gives every run its gradient.  Each run keeps
the bits it gets alone; run() is run_group on a group of one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ._table import read_sidecar, read_table, write_table
from .privacy_core import (
    BUDGET_TOL,
    NoiseSchedule,
    PrivacyAccount,
    RngStream,
    laplace_sample,
)

ALGORITHMS = ("dp-gd", "dp-hb", "dp-nag", "dp-masg")

_TRACE_HEADER = ("t", "subopt", "eps_cum")


def polyak_momentum(mu: float, L: float) -> float:
    """Heavy-ball momentum tuned to the noiseless optimal rate."""
    if not 0 < mu <= L:
        raise ValueError(f"need 0 < mu <= L, got mu={mu}, L={L}")
    kappa = L / mu
    return ((np.sqrt(kappa) - 1) / (np.sqrt(kappa) + 1)) ** 2


def nesterov_momentum(alpha: float, mu: float) -> float:
    """Momentum (1 - sqrt(alpha*mu)) / (1 + sqrt(alpha*mu)); needs alpha*mu in (0, 1)."""
    s = alpha * mu
    if not 0 < s < 1:
        raise ValueError(f"alpha*mu must lie in (0, 1), got {s}")
    r = np.sqrt(s)
    return float((1.0 - r) / (1.0 + r))


def masg_stage_schedule(mu: float, L: float, c: float, p: int, T: int) -> tuple:
    """Stage plan: a unit-length warm stage at c/L, then geometrically longer
    stages at stepsize c / (4^k L), each with its stepsize's Nesterov momentum.

    The unit is ceil(sqrt(kappa) * log(2^(p+2))); stage k >= 2 has length
    2^k * unit.  The last stage is truncated so the total is exactly T.
    Returns HyperParams stages: one (length, alpha, beta) triple per stage.
    """
    if not 0 < mu <= L:
        raise ValueError(f"need 0 < mu <= L, got mu={mu}, L={L}")
    if c <= 0:
        raise ValueError(f"stepsize scale must be positive, got {c}")
    if p < 1:
        raise ValueError(f"need p >= 1, got {p}")
    if T < 1:
        raise ValueError(f"need T >= 1, got {T}")
    # L / mu >= 1 and p >= 1 make the unit at least ceil(3 ln 2) = 3
    unit = int(np.ceil(np.sqrt(L / mu) * np.log(2.0 ** (p + 2))))
    stages = [(min(unit, T), c / L)]
    total = stages[0][0]
    k = 2
    while total < T:
        stages.append((min(2**k * unit, T - total), c / (2 ** (2 * k) * L)))
        total += stages[-1][0]
        k += 1
    return tuple((length, alpha, nesterov_momentum(alpha, mu)) for length, alpha in stages)


@dataclass
class HyperParams:
    """One run's plan: subsample size m and stages, a tuple of
    (length, alpha, beta) triples.

    Each stage runs length iterations at stepsize alpha and momentum beta,
    starting at rest.  dp-gd, dp-hb and dp-nag run one stage (dp-gd with
    beta = 0); dp-masg runs masg_stage_schedule's.  A zero-step plan has
    no stages.
    """

    m: int
    stages: tuple

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"need m >= 1, got {self.m}")
        self.stages = tuple((int(k), float(a), float(b)) for k, a, b in self.stages)
        for length, alpha, beta in self.stages:
            if length < 1:
                raise ValueError(f"stage lengths must be >= 1, got {length}")
            if not 0 < alpha < np.inf:
                raise ValueError(f"stepsize must be finite and positive, got {alpha}")
            if not 0 <= beta < 1:
                raise ValueError(f"momentum must lie in [0, 1), got {beta}")

    @property
    def T(self) -> int:
        return sum(length for length, _, _ in self.stages)


@dataclass
class Trace:
    """Iteration log: suboptimality and cumulative leak per step."""

    t: np.ndarray
    subopt: np.ndarray
    eps_cum: np.ndarray
    meta: dict = field(default_factory=dict)

    def to_csv(self, path) -> None:
        """Write `t,subopt,eps_cum` rows plus a JSON sidecar with the metadata."""
        write_table(path, _TRACE_HEADER, (self.t, self.subopt, self.eps_cum), self.meta)

    @classmethod
    def from_csv(cls, path) -> "Trace":
        t, subopt, eps_cum = read_table(path, "trace", _TRACE_HEADER)
        return cls(t=t.astype(int), subopt=subopt, eps_cum=eps_cum,
                   meta=read_sidecar(path))


def run(
    algorithm: str,
    obj,
    hp: HyperParams,
    schedule: NoiseSchedule,
    account: PrivacyAccount,
    rng: RngStream,
    x0: np.ndarray,
    fstar: float,
) -> Trace:
    """Run one private optimization and return its trace: run_group on a
    group of one, raising the exception that stopped the run.

    Per iteration: draw the subsample (only when m < n), form
    y = (1 + beta) x - beta x_prev, take the mean gradient g at x (dp-gd,
    dp-hb; at beta = 0, y == x) or at y (dp-nag, dp-masg), add Laplace(b_t)
    noise, charge eps_t to the account, step to y - alpha g, and store the
    iterate.  dp-hb's iterates differ in their last bits from
    x - alpha g + beta (x - x_prev), the same step rounded otherwise.  After
    the loop, subopt = obj.values(iterates) - fstar in one vectorised call on
    the (T+1, d) iterates; meta["wall_time"] includes it.  The trace has T+1
    rows; row 0 is the initial point with zero leak.  A run whose iterate
    goes non-finite stops there with FloatingPointError.

    From obj, run reads n and d, calls minibatch_gradient(X, idx) once per
    iteration on the (k, d) block of query points, k >= 1 (k = 1 here;
    idx=None when m = n), and calls values(X) once on the (T+1, d) iterates.

    Every stage of hp runs at its own (alpha, beta); dp-gd, dp-hb and dp-nag
    take one stage, dp-gd with beta = 0.  dp-masg's plan (masg_stage_schedule)
    has stepsize c/L in stage 1, c/16L in stage 2 and 4x smaller in each
    stage after that, with beta the Nesterov momentum of the stage's
    stepsize.  At the first iteration of every stage the momentum restarts
    (x_prev = x, so x_{-1} = x_0 = the last iterate of the previous stage).
    Carrying the velocity built up at the previous, larger stepsize into a
    stage with beta close to 1 undoes the stepsize drop; the per-stage
    factor 2 in the allocator's weights (budget_allocator.masg_coefficients)
    assumes the restart.
    """
    (result,) = run_group(obj, [(algorithm, hp, schedule, account)], rng, x0, fstar)
    if isinstance(result, Exception):
        raise result
    return result


def _check(obj, algorithm, hp, schedule, account, x0, fstar) -> None:
    """Refuse a run that run_group cannot carry out as planned."""
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}")
    if algorithm != "dp-masg" and len(hp.stages) > 1:
        raise ValueError(f"{algorithm} runs one stage, got {len(hp.stages)}")
    if algorithm == "dp-gd" and any(beta for _, _, beta in hp.stages):
        raise ValueError("dp-gd runs without momentum, got a stage with beta > 0")
    if len(schedule) != hp.T:
        raise ValueError(f"schedule length {len(schedule)} != T = {hp.T}")
    if hp.m > obj.n:
        raise ValueError(f"subsample size {hp.m} exceeds n = {obj.n}")
    if not np.isfinite(fstar):
        raise ValueError("fstar must be finite")
    if schedule.total_epsilon > account.remaining + BUDGET_TOL:
        raise ValueError(
            f"schedule leaks {schedule.total_epsilon:.6g} but the account only has "
            f"{account.remaining:.6g} left"
        )
    if np.shape(x0) != (obj.d,):
        raise ValueError(f"x0 must have shape ({obj.d},), got {np.shape(x0)}")


def run_group(obj, runs, rng: RngStream, x0: np.ndarray, fstar: float) -> list:
    """Run plans that share m, the stream, x0 and fstar in lockstep.

    runs is a list of (algorithm, hp, schedule, account), each as run()
    takes them.  Returns, in order, each run's Trace or the exception that
    stopped it: the ValueError of a refused plan or an overspent account, or
    FloatingPointError("diverged at step t") for the first step t whose
    iterate is not finite.  A stopped run spends and stores nothing more,
    and the group stops once every run still going is stopped.

    Each step makes the group's draws once: the subsample when m < n, then
    one random(d) whose Laplace transform gives every run its noise.  The
    runs must share m, and in a group of two or more every run must have
    b_t > 0 at every step (a lone run skips the draw where b_t = 0), or
    run_group raises ValueError; so each run draws what it draws alone,
    step for step.  The runs take rows longest first, so the runs still
    going are the first j rows, and one gradient call on their (j, d) block
    of query points gives each row the bits of the run's own call.  Every
    other operation is run()'s, row by row, so each run's trace has the
    bits it gets alone.
    """
    results = [None] * len(runs)
    for i, plan in enumerate(runs):
        try:
            _check(obj, *plan, x0, fstar)
        except ValueError as exc:
            results[i] = exc
    order = sorted((i for i, result in enumerate(results) if result is None),
                   key=lambda i: -runs[i][1].T)
    if not order:
        return results
    plans = [runs[i] for i in order]
    if len({hp.m for _, hp, _, _ in plans}) > 1:
        raise ValueError("the runs of a group must share one subsample size m")
    if len(plans) > 1 and not all(np.all(schedule.b > 0) for _, _, schedule, _ in plans):
        raise ValueError("the runs of a group must all draw noise at every step")
    n, d, m, j = obj.n, obj.d, plans[0][1].m, len(plans)
    Ts = [hp.T for _, hp, _, _ in plans]

    # b_t per step and run, and the (run, alpha, beta) of each stage under
    # the step it starts at
    b = np.zeros((Ts[0], j))
    stage_starts = {}
    for p, (_, hp, schedule, _) in enumerate(plans):
        first = 0
        for length, alpha_s, beta_s in hp.stages:
            stage_starts.setdefault(first, []).append((p, alpha_s, beta_s))
            first += length
        b[:first, p] = schedule.b
    lookahead = np.array([[algorithm in ("dp-nag", "dp-masg")] for algorithm, *_ in plans])
    spends = [account.spend for *_, account in plans]
    eps = [schedule.eps for _, _, schedule, _ in plans]
    gradient = obj.minibatch_gradient

    start = time.perf_counter()
    X = np.tile(np.asarray(x0, dtype=float), (j, 1))
    x_prev = X
    iterates = [np.tile(X[0], (T + 1, 1)) for T in Ts]  # row t + 1 is set at step t
    eps_cum = [np.zeros(T + 1) for T in Ts]
    alpha, beta, one_plus = np.zeros((3, j, 1))  # each run's stage
    stopped = [False] * j
    # a diverging run overflows on its way to the non-finite iterate that stops it
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(Ts[0]):
            if t == Ts[j - 1]:  # the shortest runs still going have ended
                j = sum(T > t for T in Ts)
                X, x_prev, b, lookahead = X[:j], x_prev[:j], b[:, :j], lookahead[:j]
                alpha, beta, one_plus = alpha[:j], beta[:j], one_plus[:j]
            if all(stopped[:j]):
                break
            for p, alpha_s, beta_s in stage_starts.get(t, ()):
                alpha[p], beta[p], one_plus[p] = alpha_s, beta_s, 1.0 + beta_s
                x_prev[p] = X[p]  # the stage starts at rest
            idx = rng.subsample(n, m) if m < n else None
            y = one_plus * X - beta * x_prev
            g = gradient(np.where(lookahead, y, X), idx)
            if b[t, 0] > 0:  # for every run, in a group of two or more
                g = g + laplace_sample(rng, b[t], d)
            x_prev, X = X, y - alpha * g
            for p, x in enumerate(X):
                if not stopped[p]:
                    try:
                        eps_cum[p][t + 1] = spends[p](eps[p][t])
                        iterates[p][t + 1] = x
                    except ValueError as exc:
                        results[order[p]], stopped[p] = exc, True
            if not np.isfinite(X).all():
                for p, finite in enumerate(np.isfinite(X).all(axis=1)):
                    if not (finite or stopped[p]):
                        results[order[p]] = FloatingPointError(f"diverged at step {t + 1}")
                        stopped[p] = True

    for p, (algorithm, hp, schedule, account) in enumerate(plans):
        if stopped[p]:
            continue
        subopt = obj.values(iterates[p]) - fstar
        meta = {
            "algorithm": algorithm,
            "stages": [list(stage) for stage in hp.stages],
            "m": hp.m,
            "T": hp.T,
            "seed": rng.seed,
            "schedule": schedule.provenance,
            "epsilon_total": account.epsilon_total,
            "fstar": fstar,
            "wall_time": time.perf_counter() - start,
        }
        results[order[p]] = Trace(t=np.arange(hp.T + 1), subopt=subopt, eps_cum=eps_cum[p],
                                 meta=meta)
    return results
