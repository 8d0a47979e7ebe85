"""Spending a fixed privacy budget across iterations.

The expected-error bound of a momentum run has the generic shape

    E_T <= a0 * E0 + sum_t a_t * (b_t^2 * d + subsample_var / 2),

so choosing per-iteration Laplace scales b_t is a constrained allocation
problem: minimize sum_t a_t b_t^2 subject to the composed leak equalling the
budget.  Without subsampling the constraint is linear in 1/b_t and the
optimum is closed-form; with subsampling the closed form is rescaled by a
common factor found by bisection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .optimizers import StageSchedule, masg_stage_schedule
from .privacy_core import NoiseSchedule, epsilon_of

# Relative slack when checking alpha <= 1/L, so that alpha = c/L with c = 1
# passes despite rounding.
_ALPHA_SLACK = 1 + 1e-12


@dataclass
class BoundCoefficients:
    """Per-iteration weights of the error bound: a0 for E0, a[t-1] for step t."""

    a0: float
    a: np.ndarray
    kind: str = ""
    stages: StageSchedule | None = None

    def __post_init__(self):
        self.a = np.asarray(self.a, dtype=float)
        if self.a.ndim != 1:
            raise ValueError("coefficient vector must be 1-d")
        if self.a0 < 0 or np.any(self.a < 0):
            raise ValueError("coefficients must be nonnegative")

    @property
    def T(self) -> int:
        return len(self.a)


def nag_coefficients(mu: float, L: float, alpha: float, T: int) -> BoundCoefficients:
    """Error-bound weights for constant-stepsize Nesterov momentum.

    a0 = q^T and a_t = q^(T-t) * alpha * (1 + alpha*L) for t = 1..T, with
    contraction q = 1 - sqrt(mu*alpha).  Requires alpha <= 1/L and mu*alpha
    strictly inside (0, 1).
    """
    _check_mu_L_alpha(mu, L, alpha)
    if T < 1:
        raise ValueError(f"need T >= 1, got {T}")
    q = 1.0 - np.sqrt(mu * alpha)
    a = q ** np.arange(T - 1, -1, -1.0) * (alpha * (1.0 + alpha * L))
    return BoundCoefficients(a0=q**T, a=a, kind="nag")


def masg_coefficients(stages: StageSchedule, mu: float, L: float) -> BoundCoefficients:
    """Error-bound weights for the staged run.

    Iteration t in stage s_t contributes
    a_t = 2^(s_T - s_t) * prod_{i=t+1..T} (1 - sqrt(mu * alpha_i)) * alpha_(s_t) * (1 + alpha_(s_t) * L),
    and a0 = 2^(s_T - 1) * prod over all iterations.

    The factor 2^(s_T - s_t) is one factor 2 per stage boundary crossed.  It
    rests on the momentum restart at each boundary (x_{-1} = x_0, as
    optimizers.run does for dp-masg): a stage started at rest has Lyapunov
    value F(x_0) - F* + mu/2 ||x_0 - x*||^2 <= 2 (F(x_0) - F*).  Without
    the restart the inherited velocity enters that value and the weights no
    longer bound the staged run.
    """
    for alpha in stages.alphas:
        _check_mu_L_alpha(mu, L, alpha)
    lengths = stages.lengths
    alphas = np.array(stages.alphas)
    s_T = stages.stages
    # Per-stage factors, repeated over each stage's iterations.  Products
    # are taken in the order of the per-iteration formula above, so every
    # weight is the same float whichever way it is built.
    q_it = (1.0 - np.sqrt(mu * alphas)).repeat(lengths)
    # suffix[t] = prod_{i=t+1..T} q_i, t = 0..T
    suffix = np.empty(len(q_it) + 1)
    suffix[-1] = 1.0
    np.cumprod(q_it[::-1], out=suffix[-2::-1])
    a = (2.0 ** np.arange(s_T - 1, -1, -1.0)).repeat(lengths)
    a *= suffix[1:]
    a *= alphas.repeat(lengths)
    a *= (1.0 + alphas * L).repeat(lengths)
    a0 = 2.0 ** (s_T - 1) * suffix[0]
    return BoundCoefficients(a0=a0, a=a, kind="masg", stages=stages)


def masg_coefficients_for(mu: float, L: float, c: float, p: int, T: int) -> BoundCoefficients:
    """Convenience: build the stage plan for T iterations, then its weights."""
    return masg_coefficients(masg_stage_schedule(mu, L, c, p, T), mu, L)


def bound_value(
    coeffs: BoundCoefficients, b, d: int, E0: float, subsample_var: float = 0.0
) -> float:
    """Evaluate the generic bound at explicit per-iteration scales b."""
    b = np.asarray(b, dtype=float)
    if b.shape != coeffs.a.shape:
        raise ValueError(f"need {coeffs.T} scales, got shape {b.shape}")
    _check_bound_args(d, E0)
    if subsample_var < 0:
        raise ValueError("subsample variance must be >= 0")
    return float(coeffs.a0 * E0 + coeffs.a @ (b**2 * d + subsample_var / 2.0))


def optimized_bound_value(
    coeffs: BoundCoefficients, S1: float, n: int, epsilon: float, d: int, E0: float
) -> float:
    """Bound value at the optimal allocation (no subsampling):

    a0 * E0 + d * S1^2 / (n eps)^2 * (sum_t a_t^(1/3))^3.
    """
    _check_budget_args(S1, n, epsilon)
    _check_bound_args(d, E0)
    return _optimized_bound(coeffs, E0, d * S1**2 / (n * epsilon) ** 2)


def _optimized_bound(coeffs: BoundCoefficients, E0: float, noise: float) -> float:
    """optimized_bound_value without its checks; noise = d * S1^2 / (n eps)^2."""
    cube = float(np.sum(coeffs.a ** (1.0 / 3.0))) ** 3
    return float(coeffs.a0 * E0 + noise * cube)


def optimal_schedule(
    coeffs: BoundCoefficients, S1: float, n: int, epsilon: float
) -> NoiseSchedule:
    """Leak-constrained minimizer of sum_t a_t b_t^2 without subsampling.

    b_t is proportional to a_t^(-1/3); equivalently iteration t gets the
    share a_t^(1/3) / sum_j a_j^(1/3) of the budget.  Later iterations have
    larger a_t, so they get quieter gradients and a bigger share.
    """
    _check_budget_args(S1, n, epsilon)
    if np.any(coeffs.a == 0):
        raise ValueError("optimal allocation undefined when some a_t = 0")
    A = coeffs.a ** (1.0 / 3.0)
    b = (A.sum() / A) * (S1 / (n * epsilon))
    eps = np.asarray(epsilon_of(S1, b, n, n))
    return NoiseSchedule(b=b, eps=eps, provenance="optimized")


def rescale_for_subsampling(
    schedule: NoiseSchedule,
    S1: float,
    n: int,
    m: int,
    epsilon: float,
    tol: float = 1e-9,
    max_iter: int = 200,
) -> tuple[NoiseSchedule, float]:
    """Multiply all scales by one factor so the audited leak sums to epsilon.

    The composed leak is strictly decreasing in the factor, so bisection on
    a bracketed factor converges; m = n inputs that already sum to epsilon
    are returned unchanged with factor 1.  Raises if the audit cannot be
    matched within tol in max_iter total evaluations.
    """
    _check_budget_args(S1, n, epsilon)
    if len(schedule) == 0:
        raise ValueError("cannot rescale an empty schedule")

    def leak(factor: float) -> float:
        return float(np.sum(epsilon_of(S1, factor * schedule.b, n, m)))

    if m == n:
        total = leak(1.0)
        if abs(total - epsilon) <= tol:
            return schedule, 1.0
        factor = total / epsilon  # leak scales exactly as 1/factor here
        return _rescaled(schedule, S1, n, m, factor), factor

    evals = 0
    lo = hi = 1.0
    f1 = leak(1.0) - epsilon
    evals += 1
    if abs(f1) <= tol * 1e-3:
        return _rescaled(schedule, S1, n, m, 1.0), 1.0
    if f1 > 0:  # leaking too much, scales must grow
        while leak(hi) - epsilon > 0:
            hi *= 2.0
            evals += 1
            if evals > max_iter:
                raise RuntimeError("could not bracket the rescaling factor")
    else:
        while leak(lo) - epsilon < 0:
            lo /= 2.0
            evals += 1
            if evals > max_iter:
                raise RuntimeError("could not bracket the rescaling factor")
    mid = 0.5 * (lo + hi)
    while evals < max_iter:
        mid = 0.5 * (lo + hi)
        fm = leak(mid) - epsilon
        evals += 1
        if abs(fm) <= tol * 1e-3 or (hi - lo) <= 1e-16 * mid:
            break
        if fm > 0:
            lo = mid
        else:
            hi = mid
    if abs(leak(mid) - epsilon) > tol:
        raise RuntimeError(
            f"rescaling did not converge within {max_iter} evaluations "
            f"(residual {leak(mid) - epsilon:.3g})"
        )
    return _rescaled(schedule, S1, n, m, mid), mid


def _rescaled(schedule: NoiseSchedule, S1, n, m, factor: float) -> NoiseSchedule:
    b = factor * schedule.b
    eps = np.asarray(epsilon_of(S1, b, n, m))
    tag = schedule.provenance or "schedule"
    return NoiseSchedule(b=b, eps=eps, provenance=f"{tag}+rescaled")


def select_horizon(
    builder: Callable[[int], BoundCoefficients],
    E0: float,
    S1: float,
    n: int,
    epsilon: float,
    d: int,
    T_max: int,
) -> tuple[int, float]:
    """Pick the iteration count minimizing the optimized bound.

    Scans T' = 1..T_max, evaluating a0(T') * E0 plus the noise term of the
    optimal allocation; more iterations shrink the first term but feed the
    second.  Ties resolve to the smaller T'.
    """
    if T_max < 1:
        raise ValueError(f"need T_max >= 1, got {T_max}")
    _check_budget_args(S1, n, epsilon)
    _check_bound_args(d, E0)
    noise = d * S1**2 / (n * epsilon) ** 2
    bounds = np.empty(T_max)
    for Tp in range(1, T_max + 1):
        bounds[Tp - 1] = _optimized_bound(builder(Tp), E0, noise)
    best = int(np.argmin(bounds))
    return best + 1, float(bounds[best])


def _check_mu_L_alpha(mu, L, alpha):
    if not 0 < mu <= L:
        raise ValueError(f"need 0 < mu <= L, got mu={mu}, L={L}")
    if alpha <= 0:
        raise ValueError(f"stepsize must be positive, got alpha={alpha}")
    if alpha > _ALPHA_SLACK / L:
        raise ValueError(f"stepsize alpha={alpha} exceeds 1/L = {1 / L}")
    if mu * alpha >= 1:
        raise ValueError(f"mu*alpha = {mu * alpha} leaves no contraction (must be < 1)")


def _check_budget_args(S1, n, epsilon):
    if S1 <= 0 or not np.isfinite(S1):
        raise ValueError(f"sensitivity must be positive and finite, got {S1}")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if epsilon <= 0 or not np.isfinite(epsilon):
        raise ValueError(f"budget must be positive and finite, got {epsilon}")


def _check_bound_args(d, E0):
    if d < 1:
        raise ValueError(f"need d >= 1, got {d}")
    if E0 < 0 or not np.isfinite(E0):
        raise ValueError(f"initial error guess must be finite and >= 0, got {E0}")
