"""Spending a fixed privacy budget across iterations.

The expected-error bound of a momentum run has the generic shape

    E_T <= a0 * E0 + sum_t a_t * (b_t^2 * d + subsample_var / 2),

so choosing per-iteration Laplace scales b_t is a constrained allocation
problem: minimize sum_t a_t b_t^2 subject to the composed leak equalling the
budget.  Without subsampling the constraint is linear in 1/b_t and the
optimum is closed-form; with subsampling the closed form is rescaled by a
common factor found by bisection.

Both weight families are built from per-stage factors: stage s runs for
l_s iterations with contraction q_s = 1 - sqrt(mu alpha_s) and gain
k_s = alpha_s (1 + alpha_s L), and every stage boundary doubles the weights
carried across it (Nesterov is the one-stage case).  The plan for T' <= T
iterations is a prefix of the plan for T.  So the optimized bound
B(T') = a0(T') E0 + noise * S(T')^3, with S(T') = sum_t a_t(T')^(1/3), follows
for every T' from one pass over the stages:

    S <- q^(1/3) S + k^(1/3),        a0 <- q a0        inside a stage,
    S <- (2q)^(1/3) S + k^(1/3),     a0 <- 2q a0       entering a new one,

from S = 0, a0 = 1.  select_horizon ranks the horizons by this estimate and
evaluates exactly only those whose estimate lies within _HORIZON_MARGIN * T
(relative) of the smallest; its docstring gives the error argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .optimizers import StageSchedule, masg_stage_schedule
from .privacy_core import BUDGET_TOL, NoiseSchedule, epsilon_of

# Relative slack when checking alpha <= 1/L, so that alpha = c/L with c = 1
# passes despite rounding.
_ALPHA_SLACK = 1 + 1e-12
# Leak residual at which rescale_for_subsampling's bisection stops.
_RESCALE_RESIDUAL = 1e-12
# Relative margin, per iteration of T_max, within which select_horizon
# evaluates a horizon's bound exactly instead of trusting its estimate.
_HORIZON_MARGIN = 64 * np.finfo(float).eps


@dataclass
class BoundCoefficients:
    """Per-iteration weights of the error bound: a0 for E0, a[t-1] for step t.

    factors holds one (length, q, k) triple per stage that the weights were
    built from (see the module docstring); it is empty for weights given
    directly.
    """

    a0: float
    a: np.ndarray
    factors: tuple = ()

    def __post_init__(self):
        self.a = np.asarray(self.a, dtype=float)
        if self.a.ndim != 1:
            raise ValueError("coefficient vector must be 1-d")
        if self.a0 < 0 or np.any(self.a < 0):
            raise ValueError("coefficients must be nonnegative")
        if self.factors and sum(length for length, _, _ in self.factors) != len(self.a):
            raise ValueError("stage factors must cover every weight")

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
    k = alpha * (1.0 + alpha * L)
    a = q ** np.arange(T - 1, -1, -1.0) * k
    return BoundCoefficients(a0=q**T, a=a, factors=((T, float(q), k),))


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
    q = 1.0 - np.sqrt(mu * alphas)
    q_it = q.repeat(lengths)
    # suffix[t] = prod_{i=t+1..T} q_i, t = 0..T
    suffix = np.empty(len(q_it) + 1)
    suffix[-1] = 1.0
    np.cumprod(q_it[::-1], out=suffix[-2::-1])
    a = (2.0 ** np.arange(s_T - 1, -1, -1.0)).repeat(lengths)
    a *= suffix[1:]
    a *= alphas.repeat(lengths)
    a *= (1.0 + alphas * L).repeat(lengths)
    a0 = 2.0 ** (s_T - 1) * suffix[0]
    factors = tuple(zip(lengths, q.tolist(), (alphas * (1.0 + alphas * L)).tolist()))
    return BoundCoefficients(a0=a0, a=a, factors=factors)


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
    schedule: NoiseSchedule, S1: float, n: int, m: int, epsilon: float
) -> tuple[NoiseSchedule, float]:
    """Multiply all scales by one factor so the audited leak sums to epsilon.

    The composed leak is strictly decreasing in the factor, for every
    m <= n.  Bisection on a bracketed factor runs until the residual is at
    most _RESCALE_RESIDUAL or no float lies inside the bracket; an input
    already that close to epsilon comes back rescaled by factor 1.  Raises
    RuntimeError if the audit then misses epsilon by more than BUDGET_TOL.
    """
    _check_budget_args(S1, n, epsilon)
    if len(schedule) == 0:
        raise ValueError("cannot rescale an empty schedule")

    def leak(factor: float) -> float:
        return float(np.sum(epsilon_of(S1, factor * schedule.b, n, m)))

    lo = hi = mid = 1.0
    fm = leak(mid) - epsilon
    if fm > _RESCALE_RESIDUAL:  # leaking too much, scales must grow
        while leak(hi) - epsilon > 0:
            hi *= 2.0
    elif fm < -_RESCALE_RESIDUAL:
        while leak(lo) - epsilon < 0:
            lo /= 2.0
    while abs(fm) > _RESCALE_RESIDUAL:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        fm = leak(mid) - epsilon
        if fm > 0:
            lo = mid
        else:
            hi = mid
    out = _rescaled(schedule, S1, n, m, mid)
    residual = float(np.sum(out.eps)) - epsilon
    if abs(residual) > BUDGET_TOL:
        raise RuntimeError(f"rescaling did not converge (residual {residual:.3g})")
    return out, mid


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

    Returns the first T' in 1..T_max minimizing
    _optimized_bound(builder(T'), E0, noise), with that bound: more
    iterations shrink a0(T') E0 but feed the noise term.  builder(T_max)
    must carry stage factors, and builder(T') must be the T'-iteration
    prefix of its plan, as nag_coefficients and masg_coefficients_for are.

    The recurrence of the module docstring estimates B(T') for every T'
    from builder(T_max)'s factors in O(T_max); only the T' whose estimate
    is within delta = _HORIZON_MARGIN * T_max (relative) of the smallest
    estimate are built and evaluated exactly, so (T, bound) is what
    evaluating every T' would return.  Why the margin suffices, with u the
    unit roundoff (eps / 2), T = T_max and s stages: every weight, S and
    a0 is a product of at most T rounded factors, so the estimate is within
    a relative e1 = (9 T + 18 s + 4) u of the true B(T') and the exact
    evaluation within e2 = (4 T + 16) u (the cube triples S's error; pow is
    taken as accurate to 1 ulp, and each further ulp only adds a constant).
    For the exact minimizer T* and the
    estimated one T~,
        est(T*) <= (1 + e1) B(T*) <= (1 + e1) exact(T*) / (1 - e2)
                <= (1 + e1) exact(T~) / (1 - e2)
                <= est(T~) (1 + e1)(1 + e2) / ((1 - e1)(1 - e2)),
    about est(T~)(1 + 2 e1 + 2 e2), and 2 (e1 + e2) <= (62 T + 40) u is
    below delta = 128 T u for 1 <= s <= T.  Every horizon that ties the
    exact minimum passes the same test, so ties still resolve to the
    smaller T'.  Where a0 underflows, its relative error is unbounded, but
    each rounding below 2^-1022 is off by at most 2^-1075 and each stage
    boundary doubles what is carried, so either computation of a0 E0 is
    off by at most E0 T 2^(s - 1075); twice their sum, E0 T 2^(s - 1073),
    is added to the threshold.  Weights a_t that underflow move S by at
    most about T 2^-340 (|x^(1/3) - y^(1/3)| <= |x - y|^(1/3)), negligible
    beside the last weight's k^(1/3) >= alpha^(1/3) for any stepsize above
    1e-200.  The worst case stays O(T_max^2): a
    bound that is flat to rounding over many horizons sends all of them to
    the exact evaluation.
    """
    if T_max < 1:
        raise ValueError(f"need T_max >= 1, got {T_max}")
    _check_budget_args(S1, n, epsilon)
    _check_bound_args(d, E0)
    noise = d * S1**2 / (n * epsilon) ** 2
    full = builder(T_max)
    if not full.factors:
        raise ValueError("select_horizon needs coefficients that carry stage factors")
    if full.T != T_max:
        raise ValueError(f"builder({T_max}) returned {full.T} weights")
    est = _estimated_bounds(full.factors, E0, noise)
    best = float(est.min())
    slack = _HORIZON_MARGIN * T_max * best + math.ldexp(E0 * T_max, len(full.factors) - 1073)
    candidates = np.flatnonzero(est <= best + slack) + 1
    exact = [_optimized_bound(builder(int(Tp)), E0, noise) for Tp in candidates]
    i = int(np.argmin(exact))
    return int(candidates[i]), exact[i]


def _estimated_bounds(factors, E0: float, noise: float) -> np.ndarray:
    """B(T') for T' = 1..T from the stage factors, by the module's recurrence.

    Within a stage the recurrence is unrolled: after j of its iterations,
    S = S_in r^j + k^(1/3) sum_{i<j} r^i with r = q^(1/3), and a0 = a0_in q^j,
    where S_in and a0_in include the doubling at the stage's start.
    """
    third = 1.0 / 3.0
    S = np.empty(sum(length for length, _, _ in factors))
    a0 = np.empty_like(S)
    S_in, a0_in, end = 0.0, 1.0, 0
    for length, q, k in factors:
        j = np.arange(length + 1.0)
        r_j = (q**third) ** j
        stop = end + length
        S[end:stop] = S_in * r_j[1:] + k**third * np.cumsum(r_j[:-1])
        a0[end:stop] = a0_in * q ** j[1:]
        S_in, a0_in, end = 2.0**third * S[stop - 1], 2.0 * a0[stop - 1], stop
    return a0 * E0 + noise * S**3


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
