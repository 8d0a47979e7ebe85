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
    """Run one private optimization and return its trace.

    Per iteration: draw the subsample (only when m < n), form
    y = (1 + beta) x - beta x_prev, take the mean gradient g at x (dp-gd,
    dp-hb; at beta = 0, y == x) or at y (dp-nag, dp-masg), add Laplace(b_t)
    noise, charge eps_t to the account, step to y - alpha g, and store the
    iterate in a preallocated (T+1, d) array.  dp-hb's iterates differ in
    their last bits from x - alpha g + beta (x - x_prev), the same step
    rounded otherwise.  After the loop, subopt = obj.values(iterates) - fstar
    in one vectorised call; meta["wall_time"] includes it.  The trace has
    T+1 rows; row 0 is the initial point with zero leak.

    From obj, run reads n and d, calls minibatch_gradient(x, idx) once per
    iteration (idx=None when m = n), and calls values(X) once on the
    (T+1, d) iterates.

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
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}")
    if algorithm != "dp-masg" and len(hp.stages) > 1:
        raise ValueError(f"{algorithm} runs one stage, got {len(hp.stages)}")
    if algorithm == "dp-gd" and any(beta for _, _, beta in hp.stages):
        raise ValueError("dp-gd runs without momentum, got a stage with beta > 0")
    T = hp.T
    if len(schedule) != T:
        raise ValueError(f"schedule length {len(schedule)} != T = {T}")
    if hp.m > obj.n:
        raise ValueError(f"subsample size {hp.m} exceeds n = {obj.n}")
    if not np.isfinite(fstar):
        raise ValueError("fstar must be finite")
    if schedule.total_epsilon > account.remaining + BUDGET_TOL:
        raise ValueError(
            f"schedule leaks {schedule.total_epsilon:.6g} but the account only has "
            f"{account.remaining:.6g} left"
        )
    x = np.asarray(x0, dtype=float).copy()
    if x.shape != (obj.d,):
        raise ValueError(f"x0 must have shape ({obj.d},), got {x.shape}")

    lookahead = algorithm in ("dp-nag", "dp-masg")
    n, m, d = obj.n, hp.m, obj.d
    subsampled = m < n
    subsample, gradient, spend = rng.subsample, obj.minibatch_gradient, account.spend
    b, eps = schedule.b, schedule.eps

    start = time.perf_counter()
    iterates = np.empty((T + 1, d))
    eps_cum = np.empty(T + 1)
    iterates[0] = x
    eps_cum[0] = 0.0

    # each stage starts with no momentum (x_{-1} = x_0)
    first = 0
    for length, alpha_s, beta_s in hp.stages:
        x_prev = x
        one_plus = 1.0 + beta_s
        for t in range(first, first + length):
            idx = subsample(n, m) if subsampled else None
            y = one_plus * x - beta_s * x_prev
            g = gradient(y if lookahead else x, idx)
            b_t = b[t]
            if b_t > 0:
                g = g + laplace_sample(rng, b_t, d)
            eps_cum[t + 1] = spend(eps[t])
            x_prev, x = x, y - alpha_s * g
            iterates[t + 1] = x
        first += length

    subopt = obj.values(iterates) - fstar
    meta = {
        "algorithm": algorithm,
        "stages": [list(stage) for stage in hp.stages],
        "m": hp.m,
        "T": T,
        "seed": rng.seed,
        "schedule": schedule.provenance,
        "epsilon_total": account.epsilon_total,
        "fstar": fstar,
        "wall_time": time.perf_counter() - start,
    }
    return Trace(t=np.arange(T + 1), subopt=subopt, eps_cum=eps_cum, meta=meta)
