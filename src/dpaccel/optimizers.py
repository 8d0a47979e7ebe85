"""First-order iterations with per-iteration Laplace privacy noise.

run() carries every variant: plain gradient descent, heavy ball,
Nesterov momentum, and a multi-stage Nesterov scheme in the style of
Aybat, Fallah, Gurbuzbalaban & Ozdaglar (NeurIPS 2019).

dp-hb is the paper's heavy ball with a smoothed gradient average,
reparametrised.  The smoothed form ubar_t = beta ubar_{t-1} + (1 - beta) g_t,
x_{t+1} = x_t - alpha/(1 - beta) ubar_t from ubar_{-1} = 0 gives the same
iterates as x_{t+1} = x_t - alpha g_t + beta (x_t - x_{t-1}) from
x_{-1} = x_0; acceptance test 11 replays the smoothed form against dp-hb.

dp-masg's stepsize drops 16x at the first stage boundary (c/L -> c/16L)
and 4x at each later one, and every stage restarts its momentum from the
last iterate of the stage before.  Gradient noise scales come from a
NoiseSchedule; every release's leak is charged to a PrivacyAccount as it
happens.  Every per-step cost is O(1) in the step index; the logged
objective is evaluated once, over all iterates, after the loop.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .privacy_core import (
    BUDGET_TOL,
    NoiseSchedule,
    PrivacyAccount,
    RngStream,
    laplace_sample,
)

ALGORITHMS = ("dp-gd", "dp-hb", "dp-nag", "dp-masg")

# Rows Trace.to_csv formats per write: enough to amortise the call, few
# enough that the chunk's strings add little to peak memory.
_CSV_CHUNK = 4096


def polyak_momentum(mu: float, L: float) -> float:
    """Heavy-ball momentum tuned to the noiseless optimal rate."""
    if not 0 < mu <= L:
        raise ValueError(f"need 0 < mu <= L, got mu={mu}, L={L}")
    kappa = L / mu
    return ((np.sqrt(kappa) - 1) / (np.sqrt(kappa) + 1)) ** 2


def nesterov_momentum(alpha, mu: float):
    """Momentum (1 - sqrt(alpha*mu)) / (1 + sqrt(alpha*mu)); needs alpha*mu in (0, 1)."""
    alpha = np.asarray(alpha, dtype=float)
    s = alpha * mu
    if np.any(s <= 0) or np.any(s >= 1):
        raise ValueError(f"alpha*mu must lie in (0, 1), got {s}")
    r = np.sqrt(s)
    out = (1.0 - r) / (1.0 + r)
    return float(out) if out.ndim == 0 else out


@dataclass
class StageSchedule:
    """Iteration counts and stepsizes for a staged run.

    Iterations are 1-based: with lengths (3, 5), iterations 1..3 are stage 1
    and 4..8 are stage 2.
    """

    lengths: tuple
    alphas: tuple

    def __post_init__(self):
        self.lengths = tuple(int(v) for v in self.lengths)
        self.alphas = tuple(float(v) for v in self.alphas)
        if len(self.lengths) != len(self.alphas):
            raise ValueError("one stepsize per stage required")
        if any(v < 1 for v in self.lengths):
            raise ValueError(f"stage lengths must be >= 1, got {self.lengths}")
        if any(a <= 0 for a in self.alphas):
            raise ValueError(f"stage stepsizes must be > 0, got {self.alphas}")

    @property
    def stages(self) -> int:
        return len(self.lengths)

    @property
    def total(self) -> int:
        return sum(self.lengths)


def masg_stage_schedule(mu: float, L: float, c: float, p: int, T: int) -> StageSchedule:
    """Stage plan: a unit-length warm stage at c/L, then geometrically longer
    stages at stepsize c / (4^k L).

    The unit is ceil(sqrt(kappa) * log(2^(p+2))); stage k >= 2 has length
    2^k * unit.  The last stage is truncated so the total is exactly T.
    """
    if not 0 < mu <= L:
        raise ValueError(f"need 0 < mu <= L, got mu={mu}, L={L}")
    if c <= 0:
        raise ValueError(f"stepsize scale must be positive, got {c}")
    if T < 1:
        raise ValueError(f"need T >= 1, got {T}")
    kappa = L / mu
    unit = int(np.ceil(np.sqrt(kappa) * np.log(2.0 ** (p + 2))))
    unit = max(unit, 1)
    lengths = [min(unit, T)]
    alphas = [c / L]
    total = lengths[0]
    k = 2
    while total < T:
        length = min(2**k * unit, T - total)
        lengths.append(length)
        alphas.append(c / (2 ** (2 * k) * L))
        total += length
        k += 1
    return StageSchedule(lengths=tuple(lengths), alphas=tuple(alphas))


@dataclass
class HyperParams:
    """Per-run knobs; stages is only consulted by dp-masg."""

    alpha: float
    T: int
    m: int
    beta: float = 0.0
    stages: StageSchedule | None = None

    def __post_init__(self):
        if self.stages is None and self.alpha <= 0:
            raise ValueError(f"stepsize must be positive, got {self.alpha}")
        if not 0 <= self.beta < 1:
            raise ValueError(f"momentum must lie in [0, 1), got {self.beta}")
        if self.T < 0:
            raise ValueError(f"need T >= 0, got {self.T}")
        if self.m < 1:
            raise ValueError(f"need m >= 1, got {self.m}")


@dataclass
class Trace:
    """Iteration log: suboptimality and cumulative leak per step."""

    t: np.ndarray
    subopt: np.ndarray
    eps_cum: np.ndarray
    meta: dict = field(default_factory=dict)
    iterates: np.ndarray | None = None

    @property
    def T(self) -> int:
        return len(self.t) - 1

    def to_csv(self, path) -> None:
        """Write `t,subopt,eps_cum` rows plus a JSON sidecar with the metadata.

        The bytes are those of csv.writer (\\r\\n line ends, repr of each
        float, which round-trips), formatted a chunk of rows at a time.
        """
        path = Path(path)
        with open(path, "w", newline="") as fh:
            fh.write("t,subopt,eps_cum\r\n")
            for lo in range(0, len(self.t), _CSV_CHUNK):
                rows = zip(
                    self.t[lo:lo + _CSV_CHUNK].tolist(),
                    self.subopt[lo:lo + _CSV_CHUNK].tolist(),
                    self.eps_cum[lo:lo + _CSV_CHUNK].tolist(),
                )
                fh.write("".join([f"{t},{s!r},{e!r}\r\n" for t, s, e in rows]))
        with open(path.with_name(path.stem + ".meta.json"), "w") as fh:
            json.dump(self.meta, fh, indent=2, default=float)

    @classmethod
    def from_csv(cls, path) -> "Trace":
        path = Path(path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        if not rows or rows[0] != ["t", "subopt", "eps_cum"]:
            raise ValueError(f"not a trace CSV: {path}")
        body = rows[1:]
        meta = {}
        meta_path = path.with_name(path.stem + ".meta.json")
        if meta_path.exists():
            with open(meta_path) as fh:
                meta = json.load(fh)
        return cls(
            t=np.array([int(r[0]) for r in body]),
            subopt=np.array([float(r[1]) for r in body]),
            eps_cum=np.array([float(r[2]) for r in body]),
            meta=meta,
        )


def run(
    algorithm: str,
    obj,
    hp: HyperParams,
    schedule: NoiseSchedule,
    account: PrivacyAccount,
    rng: RngStream,
    x0: np.ndarray,
    fstar: float,
    record_iterates: bool = False,
) -> Trace:
    """Run one private optimization and return its trace.

    Per iteration: draw the subsample (only when m < n), evaluate the mean
    gradient at the algorithm's query point, add Laplace(b_t) noise, charge
    eps_t to the account, update, and store the iterate in a preallocated
    (T+1, d) array.  After the loop, subopt = obj.values(iterates) - fstar
    in one vectorised call; meta["wall_time"] includes it.  The trace has
    T+1 rows; row 0 is the initial point with zero leak.  With
    record_iterates the trace keeps that (T+1, d) array.

    dp-masg takes (alpha, beta) from its stage plan: stepsize c/L in stage 1,
    c/16L in stage 2 and 4x smaller in each stage after that, with beta the
    Nesterov momentum of the stage's stepsize.  At the first iteration of
    every stage the momentum restarts (x_prev = x, so x_{-1} = x_0 = the last
    iterate of the previous stage).  Carrying the velocity built up at the
    previous, larger stepsize into a stage with beta close to 1 undoes the
    stepsize drop; the per-stage factor 2 in the allocator's weights
    (budget_allocator.masg_coefficients) assumes the restart.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}")
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
    x = np.asarray(x0, dtype=float).copy()
    if x.shape != (obj.d,):
        raise ValueError(f"x0 must have shape ({obj.d},), got {x.shape}")

    # The run is a sequence of segments of constant (alpha, beta), each
    # starting with no momentum (x_{-1} = x_0): one segment for the whole
    # run, or one per dp-masg stage.
    beta = 0.0 if algorithm == "dp-gd" else float(hp.beta)
    if algorithm == "dp-masg":
        if hp.stages is None or hp.stages.total != hp.T:
            raise ValueError("dp-masg needs a stage plan covering exactly T iterations")
        alphas = hp.stages.alphas
        segments = zip(hp.stages.lengths, alphas, nesterov_momentum(np.array(alphas), obj.mu))
    else:
        segments = [(hp.T, float(hp.alpha), beta)]
    lookahead = algorithm in ("dp-nag", "dp-masg")
    n, m, d = obj.n, hp.m, obj.d
    subsampled = m < n
    subsample, gradient, spend = rng.subsample, obj.minibatch_gradient, account.spend
    b, eps = schedule.b, schedule.eps

    start = time.perf_counter()
    iterates = np.empty((hp.T + 1, d))
    eps_cum = np.empty(hp.T + 1)
    iterates[0] = x
    eps_cum[0] = 0.0

    first = 0
    for length, alpha_s, beta_s in segments:
        x_prev = x
        one_plus = 1.0 + beta_s
        for t in range(first, first + length):
            idx = subsample(n, m) if subsampled else None
            point = one_plus * x - beta_s * x_prev if lookahead else x
            g = gradient(point, idx)
            b_t = b[t]
            if b_t > 0:
                g = g + laplace_sample(rng, b_t, d)
            eps_cum[t + 1] = spend(eps[t])

            if lookahead:
                x_new = point - alpha_s * g
            else:
                x_new = x - alpha_s * g + beta_s * (x - x_prev)
            x_prev, x = x, x_new
            iterates[t + 1] = x
        first += length

    subopt = obj.values(iterates) - fstar
    meta = {
        "algorithm": algorithm,
        "alpha": None if hp.stages is not None else hp.alpha,
        "beta": None if hp.stages is not None else beta if hp.T else hp.beta,
        "stages": None
        if hp.stages is None
        else {"lengths": list(hp.stages.lengths), "alphas": list(hp.stages.alphas)},
        "m": hp.m,
        "T": hp.T,
        "seed": rng.seed,
        "schedule": schedule.provenance,
        "epsilon_total": account.epsilon_total,
        "fstar": fstar,
        "wall_time": time.perf_counter() - start,
    }
    return Trace(
        t=np.arange(hp.T + 1),
        subopt=subopt,
        eps_cum=eps_cum,
        meta=meta,
        iterates=iterates if record_iterates else None,
    )
