"""Laplace mechanism primitives and per-iteration privacy accounting.

Releases are mean gradients of L1-sensitivity ``S1 / m`` perturbed with
coordinate-wise Laplace noise of scale ``b``.  When the gradient is computed
on a uniform subsample of ``m`` out of ``n`` records, the per-release leak
shrinks by amplification; leaks compose additively across iterations.

Randomness comes from seeded streams: one Philox generator keyed by a 64-bit
seed, drawn from in order, so a run is reproduced by rerunning its seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._table import read_table, write_table

# expm1 overflows in float64 beyond this point; above it the exact leak is
# indistinguishable from its asymptote  x + log(m/n)  at double precision.
_EXP_OVERFLOW = 700.0

# Slack allowed when a spend (or a composed schedule) is checked against a
# total budget.  Schedules store audited per-step leaks whose float sum can
# miss the target by a few ulps.
BUDGET_TOL = 1e-9

_SCHEDULE_HEADER = ("t", "b_t", "eps_t")


class RngStream:
    """Seeded stream of random draws, taken in order.

    One Philox generator keyed by the seed (masked to 64 bits) makes every
    draw, so two streams with the same seed produce identical draw
    sequences.  ``counter`` is the number of draws made so far.  A stream
    belongs to one thread.
    """

    def __init__(self, seed: int):
        if not isinstance(seed, (int, np.integer)):
            raise ValueError(f"seed must be an integer, got {type(seed).__name__}")
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self.counter = 0
        self._gen = np.random.Generator(np.random.Philox(key=self.seed))

    def _generator(self) -> np.random.Generator:
        """The stream's generator, counting the draw about to be made."""
        self.counter += 1
        return self._gen

    def random(self, size=None):
        """Uniform draws on [0, 1), as one draw."""
        return self._generator().random(size)

    def uniform(self, low: float, high: float, size=None):
        return self._generator().uniform(low, high, size)

    def subsample(self, n: int, m: int) -> np.ndarray:
        """Uniform subsample of m distinct indices from range(n)."""
        if not 1 <= m <= n:
            raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
        return self._generator().choice(n, size=m, replace=False)


def laplace_sample(rng: RngStream, b, d: int) -> np.ndarray:
    """Draw a d-vector of iid Laplace(0, b) noise by inverse CDF.

    The noise transforms one ``rng.random(d)`` draw, the stream's next.
    Given a vector of k scales, it returns one row per scale from that one
    draw, each bitwise the noise a scalar call with that scale returns.

    Args:
      rng: stream to draw from.
      b: scale, or a 1-d array of scales; the density is
        exp(-|x|/b) / (2b).  Each must be positive and finite.
      d: dimension, at least 1.

    Returns:
      Array of shape (d,), or (k, d) for k scales.
    """
    b = np.asarray(b, dtype=float)
    if not ((b > 0) & (b < np.inf)).all():
        raise ValueError(f"Laplace scale must be positive and finite, got {b}")
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    u = rng.random(int(d)) - 0.5
    # u = -0.5 would hit log(0); remap that single lattice point.
    u[u == -0.5] = 0.0
    return -b[..., None] * np.sign(u) * np.log1p(-2.0 * np.abs(u))


def epsilon_of(S: float, b: float, n: int, m: int) -> float:
    """Leak of one noisy mean-gradient release over an m-of-n subsample.

    The base release (mean over the subsample, Laplace scale b) leaks
    S / (b m); amplification by the uniform subsample brings the total to
    log1p(expm1(S / (b m)) * m / n).  With m = n this reduces exactly to
    S / (b n), which is returned directly so the reduction holds at machine
    precision.

    Accepts array-valued S or b (broadcast); validation applies elementwise.
    """
    n, m = _check_counts(n, m)
    S = np.asarray(S, dtype=float)
    b = np.asarray(b, dtype=float)
    if np.any(S < 0) or not np.all(np.isfinite(S)):
        raise ValueError("sensitivity must be finite and >= 0")
    if np.any(b <= 0) or not np.all(np.isfinite(b)):
        raise ValueError("Laplace scale must be finite and > 0")
    if m == n:
        out = S / (b * n)
        return float(out) if out.ndim == 0 else out
    x = S / (b * m)
    ratio = m / n
    small = np.minimum(x, _EXP_OVERFLOW)
    out = np.where(
        x <= _EXP_OVERFLOW,
        np.log1p(np.expm1(small) * ratio),
        # log of  (e^x - 1) m/n + 1  rearranged around the dominant e^x m/n
        x + np.log(ratio) + np.log1p(np.exp(-small) * (1.0 / ratio - 1.0)),
    )
    return float(out) if out.ndim == 0 else out


def per_iteration_epsilon(epsilon: float, T: int, n: int, m: int) -> float:
    """Per-release leak that makes T composed subsampled releases total epsilon.

    Inverts the amplification so that epsilon_of at the matching scale
    composes back to epsilon / T per step.  With m = n this is exactly
    epsilon / T.
    """
    n, m = _check_counts(n, m)
    if not np.isfinite(epsilon) or epsilon <= 0:
        raise ValueError(f"budget must be positive and finite, got {epsilon}")
    if T < 1:
        raise ValueError(f"need T >= 1, got {T}")
    if m == n:
        return epsilon / T
    return float(np.log1p(np.expm1(epsilon / T) * (n / m)))


@dataclass
class NoiseSchedule:
    """Per-iteration Laplace scales with their audited leaks.

    ``eps[t]`` is always the recomputed leak of ``b[t]`` (via epsilon_of),
    never a target value, so summing eps audits the schedule.
    """

    b: np.ndarray
    eps: np.ndarray
    provenance: str = ""

    def __post_init__(self):
        self.b = np.asarray(self.b, dtype=float)
        self.eps = np.asarray(self.eps, dtype=float)
        if self.b.ndim != 1 or self.b.shape != self.eps.shape:
            raise ValueError("b and eps must be 1-d arrays of equal length")
        # b == 0 means "no noise this iteration"; the runner skips sampling.
        if np.any(self.b < 0) or not np.all(np.isfinite(self.b)):
            raise ValueError("scales must be finite and >= 0")
        if np.any(self.eps < 0) or not np.all(np.isfinite(self.eps)):
            raise ValueError("leaks must be finite and >= 0")

    def __len__(self) -> int:
        return len(self.b)

    @property
    def total_epsilon(self) -> float:
        return float(np.sum(self.eps))

    def to_csv(self, path) -> None:
        write_table(path, _SCHEDULE_HEADER, (np.arange(1, len(self.b) + 1), self.b, self.eps))

    @classmethod
    def from_csv(cls, path) -> "NoiseSchedule":
        _, b, eps = read_table(path, "schedule", _SCHEDULE_HEADER)
        return cls(b=b, eps=eps)


def uniform_scale(S1: float, epsilon: float, T: int, n: int, m: int) -> NoiseSchedule:
    """Constant-scale schedule whose T composed releases leak exactly epsilon.

    Every iteration gets scale b = S1 / (m * eps0) where eps0 is the
    per-release leak from per_iteration_epsilon.
    """
    if not np.isfinite(S1) or S1 <= 0:
        raise ValueError(f"sensitivity must be positive and finite, got {S1}")
    eps0 = per_iteration_epsilon(epsilon, T, n, m)
    b = np.full(T, S1 / (m * eps0))
    eps = np.asarray(epsilon_of(S1, b, n, m))
    return NoiseSchedule(b=b, eps=eps, provenance="uniform")


@dataclass
class PrivacyAccount:
    """Additive leak ledger for one run against a fixed total budget.

    Keeps only the running total, so spend and spent are O(1); the total is
    the sequential float sum of the spends in order.
    """

    epsilon_total: float
    T: int
    n: int
    m: int
    _spent: float = field(default=0.0, init=False, repr=False)

    def __post_init__(self):
        if not np.isfinite(self.epsilon_total) or self.epsilon_total <= 0:
            raise ValueError(f"budget must be positive, got {self.epsilon_total}")
        _check_counts(self.n, self.m)
        if self.T < 0:
            raise ValueError(f"need T >= 0, got {self.T}")

    @property
    def spent(self) -> float:
        return self._spent

    @property
    def remaining(self) -> float:
        return self.epsilon_total - self.spent

    def spend(self, eps_t: float) -> float:
        """Record one release's leak; returns the new cumulative total.

        Rejects negative or non-finite spends, and spends that would push
        the total above the budget by more than BUDGET_TOL.
        """
        eps_t = float(eps_t)
        if not math.isfinite(eps_t) or eps_t < 0:
            raise ValueError(f"leak must be finite and >= 0, got {eps_t}")
        new_total = self._spent + eps_t
        if new_total > self.epsilon_total + BUDGET_TOL:
            raise ValueError(
                f"budget overrun: spending {eps_t:.6g} would bring the total to "
                f"{new_total:.6g} > {self.epsilon_total:.6g}"
            )
        self._spent = new_total
        return new_total


def _check_counts(n, m):
    if not float(n).is_integer() or not float(m).is_integer():
        raise ValueError(f"n and m must be integers, got n={n}, m={m}")
    n, m = int(n), int(m)
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
    return n, m
