"""Convergence-rate certificates for noisy heavy ball on smooth strongly
convex objectives, and exact rate reports for the quadratic case.

A rate rho is certified by exhibiting a 2x2 PSD matrix P and multipliers
c0, c >= 0 making a 3x3 matrix (assembled from the iteration's state-space
form and two interpolation constraints) positive semidefinite.  Feasible
certificates turn into computable suboptimality bounds whose additive term
scales with the per-iteration noise level.

All 3x3 eigenvalues use an explicit symmetric closed form with a cyclic
Jacobi fallback near the degenerate (repeated-root) regime.

The search skips the eigen-solve for a candidate with a diagonal entry
below -tol - delta, and this cannot change its answer.  A symmetric
matrix's smallest eigenvalue is at most each of its diagonal entries
(interlacing), so such a candidate's exact smallest eigenvalue is below
-tol - delta too.  delta = _PRUNE_MARGIN * max(1, S), with S the largest
|entry| of any candidate at any grid rate, bounds the closed form's
absolute error: outside the Jacobi regime arccos amplifies the few-ulp
rounding of its argument at most 1/sqrt(_DEGENERATE_DISC) = 1e7 times,
about 1e-8 of the matrix scale (measured: at most 2.8e-9 of
max(1, largest |entry|) on 2e6 nearly degenerate random matrices), and
_PRUNE_MARGIN ~ 9.5e-7 is far above both.  The computed eigenvalue of a
skipped candidate is therefore below -tol, and the unpruned search
rejects it as well.  The survivors' eigenvalues are computed elementwise
by the same code, so they are bitwise those of the unpruned search.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Below this relative discriminant the trigonometric closed form loses
# accuracy (nearly repeated roots) and Jacobi iteration takes over.
_DEGENERATE_DISC = 1e-14
# Bound on the closed form's absolute error in the smallest eigenvalue, as
# a multiple of max(1, largest |entry|); see the module docstring.
_PRUNE_MARGIN = 2.0**-20


# ---------------------------------------------------------------------------
# symmetric 3x3 eigenvalues


def _jacobi3(M: np.ndarray, sweeps: int = 50) -> np.ndarray:
    """Cyclic Jacobi eigenvalues of one symmetric 3x3 matrix, ascending."""
    A = np.array(M, dtype=float)
    for _ in range(sweeps):
        off = A[0, 1] ** 2 + A[0, 2] ** 2 + A[1, 2] ** 2
        if off <= 1e-32 * max(1.0, np.sum(A * A)):
            break
        for p, q in ((0, 1), (0, 2), (1, 2)):
            if A[p, q] == 0.0:
                continue
            theta = 0.5 * (A[q, q] - A[p, p]) / A[p, q]
            t = np.sign(theta) / (abs(theta) + np.sqrt(theta * theta + 1.0))
            if theta == 0.0:
                t = 1.0
            cth = 1.0 / np.sqrt(t * t + 1.0)
            sth = t * cth
            J = np.eye(3)
            J[p, p] = J[q, q] = cth
            J[p, q] = sth
            J[q, p] = -sth
            A = J.T @ A @ J
    return np.sort(np.diag(A))


def _sym3_eigvals_parts(a11, a12, a13, a22, a23, a33):
    """Vectorized ascending eigenvalues from the six unique entries.

    Trigonometric solution of the characteristic cubic; entries whose
    depressed-cubic discriminant is within _DEGENERATE_DISC of zero are
    recomputed by Jacobi iteration.
    """
    a11, a12, a13, a22, a23, a33 = np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (a11, a12, a13, a22, a23, a33))
    )
    q = (a11 + a22 + a33) / 3.0
    p1 = a12**2 + a13**2 + a23**2
    p2 = (a11 - q) ** 2 + (a22 - q) ** 2 + (a33 - q) ** 2 + 2.0 * p1
    scale = np.maximum.reduce([np.abs(v) for v in (a11, a12, a13, a22, a23, a33)])
    p = np.sqrt(np.maximum(p2, 0.0) / 6.0)
    safe_p = np.where(p > 0, p, 1.0)
    b11 = (a11 - q) / safe_p
    b22 = (a22 - q) / safe_p
    b33 = (a33 - q) / safe_p
    b12 = a12 / safe_p
    b13 = a13 / safe_p
    b23 = a23 / safe_p
    detb = (
        b11 * (b22 * b33 - b23**2)
        - b12 * (b12 * b33 - b23 * b13)
        + b13 * (b12 * b23 - b22 * b13)
    )
    r = np.clip(detb / 2.0, -1.0, 1.0)
    phi = np.arccos(r) / 3.0
    e_hi = q + 2.0 * p * np.cos(phi)
    e_lo = q + 2.0 * p * np.cos(phi + 2.0 * np.pi / 3.0)
    e_mid = 3.0 * q - e_hi - e_lo

    lo = np.array(e_lo, ndmin=1)
    mid = np.array(e_mid, ndmin=1)
    hi = np.array(e_hi, ndmin=1)
    # multiple of identity: exact, and (1 - r^2) is meaningless there
    iso = np.array(p2 <= (1e-30 * np.maximum(scale, 1.0) ** 2), ndmin=1)
    qq = np.array(np.broadcast_to(q, lo.shape))
    lo[iso] = qq[iso]
    mid[iso] = qq[iso]
    hi[iso] = qq[iso]
    degenerate = np.array((1.0 - r**2) < _DEGENERATE_DISC, ndmin=1) & ~iso
    if np.any(degenerate):
        flat = np.flatnonzero(degenerate)
        a = [np.array(v, ndmin=1).ravel() for v in (a11, a12, a13, a22, a23, a33)]
        for idx in flat:
            M = np.array(
                [
                    [a[0][idx], a[1][idx], a[2][idx]],
                    [a[1][idx], a[3][idx], a[4][idx]],
                    [a[2][idx], a[4][idx], a[5][idx]],
                ]
            )
            lo.ravel()[idx], mid.ravel()[idx], hi.ravel()[idx] = _jacobi3(M)
    if np.ndim(a11) == 0:
        return float(lo[0]), float(mid[0]), float(hi[0])
    return lo, mid, hi


def sym3_eigvals(M: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of one symmetric 3x3 matrix."""
    M = np.asarray(M, dtype=float)
    if M.shape != (3, 3):
        raise ValueError(f"expected a 3x3 matrix, got shape {M.shape}")
    lo, mid, hi = _sym3_eigvals_parts(
        M[0, 0], M[0, 1], M[0, 2], M[1, 1], M[1, 2], M[2, 2]
    )
    return np.array([lo, mid, hi])


# ---------------------------------------------------------------------------
# certificate assembly and search


def noise_bound(S1: float, m: int, n: int, epsilon0: float, d: int):
    """Uniform bound on the gradient-noise covariance norm at leak epsilon0.

    Combines the subsampling spread (S1^2/4 * (1/m) * (n-m)/(n-1), zero when
    m = n) with the Laplace term 2*d*S1^2 / (m*epsilon0)^2.
    """
    if S1 <= 0 or epsilon0 <= 0 or d < 1:
        raise ValueError("need S1 > 0, epsilon0 > 0, d >= 1")
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
    b = S1 / (m * epsilon0)
    sub = 0.0 if m == n else S1**2 / 4.0 * (1.0 / m) * (n - m) / (n - 1.0)
    lap = 2.0 * d * b**2
    return NoiseBound(b=b, subsample_var=sub, laplace_var=lap, total=sub + lap, d=d)


@dataclass
class NoiseBound:
    b: float
    subsample_var: float
    laplace_var: float
    total: float
    d: int


def certificate_matrix(
    alpha: float, beta: float, mu: float, L: float, rho: float, P: np.ndarray,
    c0: float, c: float,
) -> np.ndarray:
    """Assemble the 3x3 feasibility matrix for candidate (rho, P, c0, c).

    The candidate certifies rate rho iff the result is PSD.  Kronecker
    structure lets the d-dimensional inequality reduce to this scalar form.
    """
    P = np.asarray(P, dtype=float)
    if P.shape != (2, 2) or abs(P[0, 1] - P[1, 0]) > 1e-12 * max(1.0, np.abs(P).max()):
        raise ValueError("P must be symmetric 2x2")
    if not 0 < mu <= L:
        raise ValueError(f"need 0 < mu <= L, got mu={mu}, L={L}")
    if alpha <= 0 or beta < 0 or rho <= 0 or c0 < 0 or c < 0:
        raise ValueError("need alpha > 0, beta >= 0, rho > 0, c0 >= 0, c >= 0")
    A = np.array([[1.0 + beta, -beta], [1.0, 0.0]])
    B = np.array([[alpha], [0.0]])
    phi = np.zeros((3, 3))
    phi[:2, :2] = A.T @ P @ A - rho**2 * P
    phi[1, 0] = phi[0, 1]  # matmul rounding must not break exact symmetry
    phi[:2, 2:] = A.T @ P @ B
    phi[2:, :2] = phi[:2, 2:].T
    phi[2, 2] = (B.T @ P @ B)[0, 0]
    X0 = np.array(
        [[2 * mu * L, 0.0, -(mu + L)], [0.0, 0.0, 0.0], [-(mu + L), 0.0, 2.0]]
    )
    g = (1.0 - L * alpha) * beta
    X1 = 0.5 * np.array(
        [
            [-L * beta**2, L * beta**2, -g],
            [L * beta**2, -L * beta**2, g],
            [-g, g, alpha * (2.0 - L * alpha)],
        ]
    )
    X2 = 0.5 * np.array([[mu, 0.0, -1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
    return c0 * X0 + c * (X1 + (1.0 - rho**2) * X2) - phi


def check_certificate(M: np.ndarray, tol: float = 1e-9) -> tuple[bool, float]:
    """PSD test with slack: returns (min eigenvalue >= -tol, min eigenvalue)."""
    M = np.asarray(M, dtype=float)
    if M.shape != (3, 3):
        raise ValueError(f"expected a 3x3 matrix, got shape {M.shape}")
    if np.abs(M - M.T).max() > 1e-9 * max(1.0, np.abs(M).max()):
        raise ValueError("certificate matrix must be symmetric")
    M = 0.5 * (M + M.T)
    lo = sym3_eigvals(M)[0]
    return bool(lo >= -tol), float(lo)


@dataclass
class Certificate:
    """A feasible (rho, P, c0, c) tuple with its PSD slack."""

    rho: float
    P: np.ndarray
    c0: float
    c: float
    slack: float
    noise_amplification: float

    def as_dict(self) -> dict:
        return {
            "rho": self.rho,
            "P": [[float(v) for v in row] for row in np.asarray(self.P)],
            "c0": self.c0,
            "c": self.c,
            "slack": self.slack,
            "noise_amplification": self.noise_amplification,
        }


@dataclass
class CertificateGrid:
    """Search grid; P candidates violating PSD are discarded up front."""

    rho: np.ndarray
    p11: np.ndarray
    p12: np.ndarray
    p22: np.ndarray
    c0: np.ndarray
    c: np.ndarray

    @classmethod
    def default(cls) -> "CertificateGrid":
        rho = np.append(np.round(np.arange(0.50, 1.00, 0.01), 2), 0.999)
        diag = np.concatenate(([0.0], np.logspace(-2, 2, 9)))
        off = np.concatenate(([0.0], np.logspace(-2, 2, 5), -np.logspace(-2, 2, 5)))
        mult = np.concatenate(([0.0], np.logspace(-2, 2, 5)))
        return cls(rho=rho, p11=diag, p12=off, p22=diag, c0=mult, c=mult)


def _amplification(p11, p12, p22, c, L):
    """1 + 2 P12^2 / (P22 c L + 2 det P), with 0/0 -> 0 for the ratio."""
    num = 2.0 * p12**2
    den = p22 * c * L + 2.0 * (p11 * p22 - p12**2)
    num = np.asarray(num, dtype=float)
    den = np.asarray(den, dtype=float)
    out = np.where(num == 0.0, 1.0, 1.0 + num / np.where(den != 0.0, den, 1.0))
    out = np.where((num != 0.0) & (den == 0.0), np.inf, out)
    return float(out) if out.ndim == 0 else out


def search_certificate(
    alpha: float,
    beta: float,
    mu: float,
    L: float,
    grid: CertificateGrid | None = None,
    tol: float = 1e-9,
) -> Certificate | None:
    """Smallest certified rate on the grid, or None if nothing is feasible.

    Scans rho ascending; at the first feasible rho, ties between (P, c0, c)
    candidates break toward the smallest noise amplification, then grid
    order.  Feasibility means the assembled matrix has min eigenvalue
    >= -tol.

    Tuples with P = 0 and c = 0 make the Lyapunov function identically zero,
    so they satisfy the inequality at every rho without constraining the
    iterates.  They are ignored unless the grid contains nothing else.
    """
    if not 0 < mu <= L:
        raise ValueError(f"need 0 < mu <= L, got mu={mu}, L={L}")
    if alpha <= 0 or not 0 <= beta < 1:
        raise ValueError("need alpha > 0 and 0 <= beta < 1")
    grid = grid or CertificateGrid.default()
    if any(len(v) == 0 for v in (grid.rho, grid.p11, grid.p12, grid.p22, grid.c0, grid.c)):
        raise ValueError("empty certificate grid")

    p11, p12, p22 = np.meshgrid(grid.p11, grid.p12, grid.p22, indexing="ij")
    p11, p12, p22 = (v.ravel() for v in (p11, p12, p22))
    psd = (p11 >= 0) & (p22 >= 0) & (p11 * p22 - p12**2 >= 0)
    p11, p12, p22 = p11[psd], p12[psd], p22[psd]
    if len(p11) == 0:
        raise ValueError("no PSD candidates for P on the grid")

    a, bb = 1.0 + beta, -beta
    # A'PA, A'PB, B'PB entries as functions of the P entries
    f11 = a * a * p11 + 2.0 * a * p12 + p22
    f12 = a * bb * p11 + bb * p12
    f22 = bb * bb * p11
    f13 = alpha * (a * p11 + p12)
    f23 = alpha * bb * p11
    f33 = alpha * alpha * p11

    g = (1.0 - L * alpha) * beta
    x1 = dict(
        m11=-0.5 * L * beta**2, m12=0.5 * L * beta**2, m13=-0.5 * g,
        m22=-0.5 * L * beta**2, m23=0.5 * g, m33=0.5 * alpha * (2.0 - L * alpha),
    )

    shape_P = (len(p11), 1, 1)
    kP = np.arange(len(p11)).reshape(shape_P)
    c0v = grid.c0.reshape(1, -1, 1)
    cv = grid.c.reshape(1, 1, -1)
    zero_P = (p11 == 0.0) & (p12 == 0.0) & (p22 == 0.0)
    vacuous = np.broadcast_to(
        zero_P[:, None, None] & (grid.c == 0.0)[None, None, :],
        (len(p11), len(grid.c0), len(grid.c)),
    )
    if vacuous.all():
        # nothing informative anywhere: degrade to plain feasibility
        vacuous = np.zeros_like(vacuous)

    def diagonal(r2):
        """m11 over the whole grid and m22 over (P, c), at rate^2 r2."""
        m11 = c0v * (2 * mu * L) + cv * (x1["m11"] + (1 - r2) * 0.5 * mu) - (
            f11 - r2 * p11
        ).reshape(shape_P)
        m22 = cv * x1["m22"] - (f22 - r2 * p22).reshape(shape_P)
        return m11, m22

    def off_diagonal(r2, c0, c, k):
        """m12 and m13 at rate^2 r2 for multipliers c0, c and P candidates k."""
        m12 = c * x1["m12"] - (f12[k] - r2 * p12[k])
        m13 = c0 * (-(mu + L)) + c * (x1["m13"] + (1 - r2) * -0.5) - f13[k]
        return m12, m13

    # rate-invariant entries: m23 over (P, c), m33 over the whole grid
    m23 = cv * x1["m23"] - f23.reshape(shape_P)
    m33 = c0v * 2.0 + cv * x1["m33"] - f33.reshape(shape_P)
    # Largest |entry| anywhere: each entry is affine in rho^2, so its
    # extremes over the grid sit at the smallest and the largest rate.
    rhos = np.sort(grid.rho)
    entry_max = max(
        np.abs(m).max()
        for r2 in rhos[[0, -1]] ** 2
        for m in (m23, m33, *diagonal(r2), *off_diagonal(r2, c0v, cv, kP))
    )
    cut = -tol - _PRUNE_MARGIN * max(entry_max, 1.0)
    keep33 = m33 >= cut
    for rho in rhos:
        r2 = rho * rho
        m11, m22 = diagonal(r2)
        # candidates no diagonal entry rules out, in grid order
        iP, ic0, ic = np.nonzero(keep33 & (m11 >= cut) & (m22 >= cut))
        if len(iP) == 0:
            continue
        m12, m13 = off_diagonal(r2, grid.c0[ic0], grid.c[ic], iP)
        lo, _, _ = _sym3_eigvals_parts(
            m11[iP, ic0, ic], m12, m13, m22[iP, 0, ic], m23[iP, 0, ic], m33[iP, ic0, ic]
        )
        informative = (lo >= -tol) & ~vacuous[iP, ic0, ic]
        if not np.any(informative):
            continue
        iP, ic0, ic, lo = iP[informative], ic0[informative], ic[informative], lo[informative]
        amp = _amplification(p11[iP], p12[iP], p22[iP], grid.c[ic], L)
        k = int(np.argmin(amp))  # first index on ties: deterministic grid order
        sel_P = iP[k]
        P = np.array([[p11[sel_P], p12[sel_P]], [p12[sel_P], p22[sel_P]]])
        return Certificate(
            rho=float(rho),
            P=P,
            c0=float(grid.c0[ic0[k]]),
            c=float(grid.c[ic[k]]),
            slack=float(lo[k]),
            noise_amplification=float(amp[k]),
        )
    return None


def lyapunov_value(P: np.ndarray, c: float, x0, x_prev, xstar, f_gap: float) -> float:
    """Initial Lyapunov weight: stacked quadratic form plus c * (F(x0) - F*)."""
    P = np.asarray(P, dtype=float)
    e0 = np.asarray(x0, dtype=float) - np.asarray(xstar, dtype=float)
    e1 = np.asarray(x_prev, dtype=float) - np.asarray(xstar, dtype=float)
    quad = P[0, 0] * (e0 @ e0) + 2.0 * P[0, 1] * (e0 @ e1) + P[1, 1] * (e1 @ e1)
    if f_gap < 0:
        raise ValueError("F(x0) - F* cannot be negative")
    return float(quad + c * f_gap)


def eval_shb_bound(
    cert: Certificate, psi0: float, noise_level: float, alpha: float, d: int,
    L: float, t,
):
    """Suboptimality bound at iteration(s) t from a feasible certificate.

    rho^(2t) * psi0 / c plus the geometric accumulation of the noise term
    (L d alpha^2 / 2) * noise_level * amplification.  Needs c > 0 and
    rho < 1.
    """
    if cert.c <= 0:
        raise ValueError("bound evaluation needs a certificate with c > 0")
    if not 0 < cert.rho < 1:
        raise ValueError(f"bound evaluation needs rho in (0, 1), got {cert.rho}")
    if psi0 < 0 or noise_level < 0:
        raise ValueError("psi0 and the noise level must be >= 0")
    t = np.asarray(t, dtype=float)
    r2t = cert.rho ** (2.0 * t)
    noise = (1.0 - r2t) / (1.0 - cert.rho**2) * (L * d * alpha**2 / 2.0)
    out = r2t * psi0 / cert.c + noise * noise_level * cert.noise_amplification
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# quadratic objectives: exact per-eigenvalue rates


@dataclass
class QuadraticRateReport:
    """Spectral decay data of the heavy-ball iteration on a quadratic."""

    alpha: float
    beta: float
    eigenvalues: np.ndarray
    mu: float
    L: float
    roots: np.ndarray  # (k, 2) complex, per eigenvalue
    moduli: np.ndarray  # (k, 2)
    rho: float
    contractive: bool
    noise_gain: float | None = field(default=None)

    def as_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "beta": self.beta,
            "eigenvalues": [float(v) for v in self.eigenvalues],
            "mu": self.mu,
            "L": self.L,
            "roots": [[repr(complex(r)) for r in pair] for pair in self.roots],
            "rho": self.rho,
            "contractive": self.contractive,
            "noise_gain": self.noise_gain,
        }


def quadratic_rate(alpha: float, beta: float, eigenvalues) -> QuadraticRateReport:
    """Exact decay rate of heavy ball on a quadratic with the given spectrum.

    Per eigenvalue lam the update couples (x_t, x_{t-1}) through a 2x2 block
    with characteristic polynomial z^2 - (1 + beta - alpha*lam) z + beta;
    rho is the largest root modulus across the spectrum.  Complex pairs have
    modulus exactly sqrt(beta) (their product is beta).
    """
    if alpha <= 0:
        raise ValueError(f"stepsize must be positive, got {alpha}")
    if not 0 <= beta < 1:
        raise ValueError(f"momentum must lie in [0, 1), got {beta}")
    lams = np.sort(np.asarray(eigenvalues, dtype=float).ravel())
    if len(lams) == 0 or np.any(lams <= 0):
        raise ValueError("eigenvalues must be positive")
    mu, L = float(lams[0]), float(lams[-1])
    s = 1.0 + beta - alpha * lams
    disc = s**2 - 4.0 * beta
    roots = np.empty((len(lams), 2), dtype=complex)
    moduli = np.empty((len(lams), 2))
    real = disc >= 0
    sq = np.sqrt(np.abs(disc))
    roots[real, 0] = (s[real] + sq[real]) / 2.0
    roots[real, 1] = (s[real] - sq[real]) / 2.0
    moduli[real] = np.abs(roots[real])
    roots[~real, 0] = (s[~real] + 1j * sq[~real]) / 2.0
    roots[~real, 1] = (s[~real] - 1j * sq[~real]) / 2.0
    moduli[~real] = np.sqrt(beta)
    rho = float(moduli.max())
    denom = 2.0 + 2.0 * beta - alpha * lams
    gain = None
    if np.all(denom > 0):
        gain = float(np.sum(2.0 * alpha * (1.0 + beta) / ((1.0 - beta) * lams * denom)))
    return QuadraticRateReport(
        alpha=alpha,
        beta=beta,
        eigenvalues=lams,
        mu=mu,
        L=L,
        roots=roots,
        moduli=moduli,
        rho=rho,
        contractive=bool(rho < 1),
        noise_gain=gain,
    )


def quadratic_bound(
    report: QuadraticRateReport, sigma2: float, t, v0_norm: float, c_mult: float = 1.0
):
    """Suboptimality bound V * (c_mult*t)^2 * rho^(2t) + L * noise floor.

    v0_norm is E|| (xi0 - xi*)(xi0 - xi*)^T ||; the noise floor is
    L * sigma2/2 * noise_gain with sigma2 the per-coordinate noise variance.
    The transient multiplier grows like t, so the t = 0 value is just the
    floor.
    """
    if not report.contractive:
        raise ValueError(f"no contraction: rho = {report.rho} >= 1")
    if report.noise_gain is None:
        raise ValueError("noise floor undefined: some 2 + 2*beta - alpha*lam <= 0")
    if sigma2 < 0 or v0_norm < 0:
        raise ValueError("sigma2 and v0_norm must be >= 0")
    t = np.asarray(t, dtype=float)
    V = v0_norm + sigma2 * report.alpha**2 / (1.0 - report.rho**2)
    out = V * (c_mult * t) ** 2 * report.rho ** (2.0 * t) + report.L * (
        sigma2 / 2.0
    ) * report.noise_gain
    return float(out) if out.ndim == 0 else out
