"""Convergence-rate certificates for noisy heavy ball on smooth strongly
convex objectives, and exact rate reports for the quadratic case.

A rate rho is certified by exhibiting a 2x2 PSD matrix P and multipliers
c0, c >= 0 making a 3x3 matrix (assembled from the iteration's state-space
form and two interpolation constraints) positive semidefinite.  Feasible
certificates turn into computable suboptimality bounds whose additive term
scales with the per-iteration noise level.

All 3x3 eigenvalues come from stacked np.linalg.eigvalsh calls.  LAPACK
solves each matrix of a stack on its own, so a matrix's eigenvalues do not
depend on the other matrices sent with it.

The search prunes candidates in three ways, and none can change its
answer.  Each rests on a margin below the feasibility threshold -tol.

Diagonal entries.  The search skips the eigen-solve for a candidate with a
diagonal entry below cut = -tol - delta.  A symmetric matrix's smallest
eigenvalue is at most each of its diagonal entries (interlacing), so such a
candidate's exact smallest eigenvalue is below -tol - delta too.
delta = _PRUNE_MARGIN * max(1, S), with S the largest |entry| of any
candidate at any grid rate, bounds the computed smallest eigenvalue's
absolute error: eigvalsh is backward stable, so that error is a small
multiple of the unit roundoff u = 2^-53 times the matrix norm, itself at
most 3 S, about 1e-15 of the scale.  _PRUNE_MARGIN ~ 9.5e-7 is far above
it.  The computed eigenvalue of a skipped candidate is therefore below
-tol, and the unpruned search rejects it as well.

2x2 principal minors.  By Cauchy interlacing the smallest eigenvalue of a
symmetric matrix is also at most the smallest eigenvalue of each of its
2x2 principal submatrices [[a, b], [b, c]].  The search computes that as
(a + c)/2 - sqrt(((a - c)/2)^2 + b^2), whose rounding is a few ulps of
max(|a|, |b|, |c|) <= S, about 1e-15 S.  A candidate with one such value
below cut has an exact smallest eigenvalue below -tol - delta + 1e-15 S,
so its computed one is below -tol, by the same margin as above.  The
squares stay finite because the search rejects, with a ValueError, a
problem whose largest |P entry| or largest |entry| S reaches
_SCALE_LIMIT = 2^510 ~ 3.4e153: below it each square, and each product in
the PSD test p11 p22 - p12^2, is under 2^1020, and a sum of two is under
2^1021, far from float64's 2^1024.

Compaction.  m33 does not depend on the rate, and m11 and m22 are affine
in r2 = rho^2, so over the grid an exact m11 or m22 is largest at the
smallest or the largest r2.  Each computed entry sums at most five terms
(c0 2 mu L, c x11, c (1 - r2) mu/2, f11, r2 p11 for m11) in about six
roundings, so it is within about 30 u T of its exact value, T the largest
|term| at the extreme rates and u = 2^-53.  Before the rate loop the
search drops every candidate whose m33 is below cut, or whose m11 or m22
is below cut - margin at both extreme rates, with
margin = _COMPACT_MARGIN * max(1, T, |cut|).  At any grid rate such an
entry is then below cut - margin + 2 * 30 u T (plus the rounding of
cut - margin, a few u |cut|), which is below cut: the candidate fails the
diagonal test at every rate.  _COMPACT_MARGIN = 2^-40 ~ 9.1e-13 is more
than 100 times 60 u.

The survivors keep their grid order, and their entries are computed
elementwise by the same operations, so they and their eigenvalues are
bitwise those of the unpruned search, and so is the tie-break among them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Bound on eigvalsh's absolute error in the smallest eigenvalue, as a
# multiple of max(1, largest |entry|); see the module docstring.
_PRUNE_MARGIN = 2.0**-20
# Margin for the rounding of a diagonal entry, as a multiple of the largest
# |term| it sums; see the module docstring.
_COMPACT_MARGIN = 2.0**-40
# Largest |P entry| and |matrix entry| whose squares cannot overflow; see
# the module docstring.
_SCALE_LIMIT = 2.0**510


# ---------------------------------------------------------------------------
# symmetric 3x3 eigenvalues


def _sym3_eigvals_parts(a11, a12, a13, a22, a23, a33):
    """Ascending eigenvalues (lo, mid, hi) of the symmetric 3x3 matrices
    with the given, broadcast, unique entries, by one stacked eigvalsh."""
    a11, a12, a13, a22, a23, a33 = np.broadcast_arrays(a11, a12, a13, a22, a23, a33)
    M = np.stack((a11, a12, a13, a12, a22, a23, a13, a23, a33), axis=-1)
    w = np.linalg.eigvalsh(M.reshape(M.shape[:-1] + (3, 3)))
    return tuple(np.moveaxis(w, -1, 0))


# ---------------------------------------------------------------------------
# certificate assembly and search


def noise_bound(S1: float, m: int, n: int, epsilon0: float, d: int):
    """Uniform bound on the gradient-noise covariance norm at leak epsilon0.

    Combines the subsampling spread (S1^2/4 * (1/m) * (n-m)/(n-1), zero when
    m = n) with the Laplace term 2*d*S1^2 / (m*epsilon0)^2.
    """
    if not 0 < S1 < np.inf or not 0 < epsilon0 < np.inf or d < 1:
        raise ValueError("need finite S1 > 0 and epsilon0 > 0, and d >= 1")
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
    sub = 0.0 if m == n else S1**2 / 4.0 * (1.0 / m) * (n - m) / (n - 1.0)
    return NoiseBound(sub + 2.0 * d * (S1 / (m * epsilon0)) ** 2)


@dataclass
class NoiseBound:
    total: float


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


def _sym2_min(d1, d2, off):
    """Smaller eigenvalue of [[d1, off], [off, d2]], elementwise."""
    return 0.5 * (d1 + d2) - np.sqrt((0.5 * (d1 - d2)) ** 2 + off * off)


def _amplification(p11, p12, p22, c, L):
    """1 + 2 P12^2 / (P22 c L + 2 det P), with 0/0 -> 0 for the ratio."""
    num = 2.0 * p12**2
    den = p22 * c * L + 2.0 * (p11 * p22 - p12**2)
    num = np.asarray(num, dtype=float)
    den = np.asarray(den, dtype=float)
    out = np.where(num == 0.0, 1.0, 1.0 + num / np.where(den != 0.0, den, 1.0))
    out = np.where((num != 0.0) & (den == 0.0), np.inf, out)
    return float(out) if out.ndim == 0 else out


@dataclass
class _Candidates:
    """What a search scans: its rates and cut, and the (P, c0, c) candidates
    some rate's diagonal test can admit, flattened in grid order."""

    rhos: np.ndarray  # ascending
    cut: float
    index: tuple  # (iP, ic0, ic): positions on the (PSD P, c0, c) grid
    P: np.ndarray  # rows p11, p12, p22, f11, f12, f13, f22
    c0: np.ndarray
    c: np.ndarray
    m23: np.ndarray
    m33: np.ndarray
    vacuous: np.ndarray
    coef: tuple  # scalars of the rate-dependent entries; see _rate_entries


def _rate_entries(coef, r2, c0, c, P):
    """m11, m12, m13 and m22 at rate^2 r2 for multipliers c0, c and P rows P."""
    k11, x11, x12, k13, x13, x22, mu = coef
    p11, p12, p22, f11, f12, f13, f22 = P
    m11 = c0 * k11 + c * (x11 + (1 - r2) * 0.5 * mu) - (f11 - r2 * p11)
    m12 = c * x12 - (f12 - r2 * p12)
    m13 = c0 * k13 + c * (x13 + (1 - r2) * -0.5) - f13
    m22 = c * x22 - (f22 - r2 * p22)
    return m11, m12, m13, m22


def _check_scale(what: str, largest: float) -> None:
    """Raise a ValueError when `largest`, the largest |entry| of one kind,
    reaches _SCALE_LIMIT or is not a number (an entry that overflowed)."""
    if not largest < _SCALE_LIMIT:
        raise ValueError(
            f"largest |{what}| {largest:.3g} reaches the certificate search's "
            f"limit 2^510 ~ {_SCALE_LIMIT:.3g}; rescale P, c0 and c"
        )


def _compact(alpha, beta, mu, L, grid: CertificateGrid, tol: float) -> _Candidates:
    """The search's cut, and every candidate whose diagonal can pass it at
    some grid rate (see the module docstring for the margins)."""
    _check_scale("P entry", max(np.abs(v).max() for v in (grid.p11, grid.p12, grid.p22)))
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
    P = np.stack((p11, p12, p22, f11, f12, f13, f22))
    g = (1.0 - L * alpha) * beta
    x11 = -0.5 * L * beta**2  # = x22 = -x12
    coef = (2 * mu * L, x11, 0.5 * L * beta**2, -(mu + L), -0.5 * g, x11, mu)

    # the whole grid, shaped (P, c0, c); m23 and m33 do not depend on the rate
    c0v, cv = grid.c0.reshape(1, -1, 1), grid.c.reshape(1, 1, -1)
    m23 = cv * (0.5 * g) - f23[:, None, None]
    m33 = c0v * 2.0 + cv * (0.5 * alpha * (2.0 - L * alpha)) - f33[:, None, None]
    # The other entries are affine in rho^2, so their extremes over the
    # grid sit at the smallest and the largest rate^2.
    rhos = np.sort(grid.rho)
    r2s = rhos * rhos
    r2_ends = (r2s.min(), r2s.max())
    ends = [_rate_entries(coef, r2, c0v, cv, P[:, :, None, None]) for r2 in r2_ends]
    entry_max = max(np.abs(m).max() for m in (m23, m33, *ends[0], *ends[1]))
    _check_scale("matrix entry", entry_max)
    cut = -tol - _PRUNE_MARGIN * max(entry_max, 1.0)
    cmax = np.abs(grid.c).max()
    term_max = max(  # the terms m11 and m22 sum, at the extreme rates
        np.abs(grid.c0).max() * coef[0], cmax * abs(x11), np.abs(f11).max(), np.abs(f22).max(),
        *(cmax * abs((1 - r2) * 0.5 * mu) for r2 in r2_ends),
        *(abs(r2) * np.abs(p).max() for r2 in r2_ends for p in (p11, p22)),
    )
    low = cut - _COMPACT_MARGIN * max(1.0, term_max, -cut)
    keep = (
        (m33 >= cut)
        & ((ends[0][0] >= low) | (ends[1][0] >= low))
        & ((ends[0][3] >= low) | (ends[1][3] >= low))
    )
    iP, ic0, ic = np.nonzero(keep)
    zero_P = (p11 == 0.0) & (p12 == 0.0) & (p22 == 0.0)
    vacuous = zero_P[iP] & (grid.c[ic] == 0.0)
    if zero_P.all() and np.all(grid.c == 0.0):
        # nothing informative anywhere: degrade to plain feasibility
        vacuous[:] = False
    return _Candidates(
        rhos=rhos, cut=cut, index=(iP, ic0, ic), P=P[:, iP], c0=grid.c0[ic0], c=grid.c[ic],
        m23=m23[iP, 0, ic], m33=m33[iP, ic0, ic], vacuous=vacuous, coef=coef,
    )


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
    if not 0 < alpha < np.inf or not 0 <= beta < 1:
        raise ValueError("need a finite alpha > 0 and 0 <= beta < 1")
    grid = grid or CertificateGrid.default()
    values = (grid.rho, grid.p11, grid.p12, grid.p22, grid.c0, grid.c)
    if any(len(v) == 0 for v in values):
        raise ValueError("empty certificate grid")
    if not all(np.isfinite(v).all() for v in values):
        raise ValueError("certificate grid entries must be finite")
    if np.any(grid.rho <= 0) or np.any(grid.c0 < 0) or np.any(grid.c < 0):
        raise ValueError("need rho > 0, c0 >= 0 and c >= 0 on the grid")

    cand = _compact(alpha, beta, mu, L, grid, tol)
    cut, P, c, m23, m33 = cand.cut, cand.P, cand.c, cand.m23, cand.m33
    for rho in cand.rhos:
        r2 = rho * rho
        m11, m12, m13, m22 = _rate_entries(cand.coef, r2, cand.c0, c, P)
        # no diagonal entry and no 2x2 principal minor rules these out
        k = np.flatnonzero(
            (m11 >= cut) & (m22 >= cut)
            & (_sym2_min(m11, m22, m12) >= cut)
            & (_sym2_min(m11, m33, m13) >= cut)
            & (_sym2_min(m22, m33, m23) >= cut)
        )
        if len(k) == 0:
            continue
        lo, _, _ = _sym3_eigvals_parts(m11[k], m12[k], m13[k], m22[k], m23[k], m33[k])
        informative = (lo >= -tol) & ~cand.vacuous[k]
        if not np.any(informative):
            continue
        k, lo = k[informative], lo[informative]
        amp = _amplification(P[0, k], P[1, k], P[2, k], c[k], L)
        j = int(np.argmin(amp))  # first index on ties: deterministic grid order
        p11, p12, p22 = P[:3, k[j]]
        return Certificate(
            rho=float(rho),
            P=np.array([[p11, p12], [p12, p22]]),
            c0=float(cand.c0[k[j]]),
            c=float(c[k[j]]),
            slack=float(lo[j]),
            noise_amplification=float(amp[j]),
        )
    return None


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
    if not 0 <= psi0 < np.inf or not 0 <= noise_level < np.inf:
        raise ValueError("psi0 and the noise level must be finite and >= 0")
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
    rho: float
    contractive: bool
    noise_gain: float | None

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
    if not 0 < alpha < np.inf:
        raise ValueError(f"stepsize must be finite and positive, got {alpha}")
    if not 0 <= beta < 1:
        raise ValueError(f"momentum must lie in [0, 1), got {beta}")
    lams = np.sort(np.asarray(eigenvalues, dtype=float).ravel())
    if len(lams) == 0 or not np.all((0 < lams) & (lams < np.inf)):
        raise ValueError("eigenvalues must be finite and positive")
    mu, L = float(lams[0]), float(lams[-1])
    s = 1.0 + beta - alpha * lams
    disc = s**2 - 4.0 * beta
    sq = np.sqrt(disc.astype(complex))
    roots = np.stack([(s + sq) / 2.0, (s - sq) / 2.0], axis=1)
    moduli = np.where((disc >= 0)[:, None], np.abs(roots), np.sqrt(beta))
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
        rho=rho,
        contractive=bool(rho < 1),
        noise_gain=gain,
    )


def quadratic_bound(report: QuadraticRateReport, sigma2: float, t, v0_norm: float):
    """Suboptimality bound V * t^2 * rho^(2t) + L * noise floor.

    v0_norm is E|| (xi0 - xi*)(xi0 - xi*)^T ||; the noise floor is
    L * sigma2/2 * noise_gain with sigma2 the per-coordinate noise variance.
    The transient multiplier grows like t, so the t = 0 value is just the
    floor.
    """
    if not report.contractive:
        raise ValueError(f"no contraction: rho = {report.rho} >= 1")
    if report.noise_gain is None:
        raise ValueError("noise floor undefined: some 2 + 2*beta - alpha*lam <= 0")
    if not all(0 <= x < np.inf for x in (sigma2, v0_norm)):
        raise ValueError("sigma2 and v0_norm must be finite and >= 0")
    t = np.asarray(t, dtype=float)
    V = v0_norm + sigma2 * report.alpha**2 / (1.0 - report.rho**2)
    out = V * t**2 * report.rho ** (2.0 * t) + report.L * (sigma2 / 2.0) * report.noise_gain
    return float(out) if out.ndim == 0 else out
