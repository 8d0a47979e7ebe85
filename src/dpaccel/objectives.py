"""Synthetic logistic data and the ridge-regularized logistic objective.

LogisticObjective gives the optimizers full and minibatch mean gradients,
its strong-convexity and smoothness constants, and an L1 bound on how much
one record can move a single per-record gradient.  It keeps one n x d
matrix, the label-signed rows -z_i u_i, so a margin's negation and a
gradient's label weights need no pass of their own; since round-to-nearest
is symmetric under negation, every value and gradient has the bits of the
unsigned formulas.  A minibatch gradient is taken at one point or at each
row of a (k, d) block, on zero-padded tiles of _TILE rows, so a row's bits
depend only on its point and the records, and a point is a block of one.
Objective values come in one vectorised form, ``values(X)`` over the rows
of a (k, d) array; the optimizers log suboptimality by evaluating a whole
run's iterates in one call after the run, and ``value(x)`` is
``values(x[None])[0]``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._table import read_sidecar, read_table, write_table
from .privacy_core import RngStream

# Elements of the (rows, n) margin block LogisticObjective.values works on
# (one GEMM a block): large enough to amortise each call, small enough
# (512 KiB) that a block and its one temporary stay out of peak memory.  A
# block holds at least one row, so above 2^16 a block is one row.
_VALUES_BLOCK = 1 << 16

# Rows of a minibatch gradient's backward GEMM tile.  OpenBLAS 0.3.31 takes
# a GEMV for one row, a small-matrix kernel below about 10^6 multiply-adds
# and its blocked GEMM above, and a row's bits differ between the three; a
# fixed, zero-padded tile keeps one kernel for every block size.  The forward
# GEMM's row bits did not depend on the row count (2 to 128 rows).
_TILE = 8

# LogisticObjective.values caps |s| here before exp.  exp(-|s|) is subnormal
# beyond |s| = 708 and zero beyond 745, and there exp and log1p ran 15-70x
# slower than at |s| <= 700 (65,536 elements: about 90 us against 1.5 to
# 6.4 ms).  At the cap both stay normal.  A capped term differs from the
# uncapped one by less than e^-700 ~ 1e-304, which cannot change F: a capped
# margin needs ||x||_inf >= 700 / u_max, so the ridge term alone keeps F
# above lam (700 / u_max)^2, where such a difference is far below half an ulp.
_SOFTPLUS_CAP = 700.0

# _sigmoid floors its exponent -x here.  1 + e^-40 rounds to 1, so no result
# moves, and exp never returns a subnormal.  Long runs reach margins beyond
# +-700 on 36-95% of records; a cap at 709 instead made their gradient
# weights subnormal (1/(1+e^709) ~ 1e-308) and each gradient 4x slower.
_SIGMOID_EXP_FLOOR = -40.0


def _sigmoid(x, out=None):
    """The logistic function 1 / (1 + e^-x), elementwise; scalar in, scalar out.

    With out given (it may be x) the result is written there.  Where e^-x
    overflows (x < -709.78) the result is exactly 0, with no warning, as
    from scipy.special.expit.
    """
    with np.errstate(over="ignore"):
        e = np.exp(np.maximum(np.negative(x, out=out), _SIGMOID_EXP_FLOOR, out=out), out=out)
        return np.divide(1.0, np.add(1.0, e, out=out), out=out)


@dataclass
class Dataset:
    """Binary-labelled covariate matrix with bounded per-row L1 norm."""

    U: np.ndarray
    z: np.ndarray
    u_max: float
    seed: int | None = None
    x_true: np.ndarray | None = None

    def __post_init__(self):
        self.U = np.asarray(self.U, dtype=float)
        self.z = np.asarray(self.z, dtype=float)
        if self.U.ndim != 2 or len(self.z) != self.U.shape[0]:
            raise ValueError("U must be (n, d) with one label per row")
        if not np.all(np.isin(self.z, (-1.0, 1.0))):
            raise ValueError("labels must be in {-1, +1}")
        if not np.isfinite(self.u_max):
            raise ValueError(f"u_max must be finite, got {self.u_max}")
        # <= rather than >, so that a row with a NaN entry fails too
        row_norms = np.abs(self.U).sum(axis=1)
        if not np.all(row_norms <= self.u_max * (1 + 1e-12)):
            raise ValueError("a row is not finite or exceeds the declared L1 bound u_max")

    @property
    def n(self) -> int:
        return self.U.shape[0]

    @property
    def d(self) -> int:
        return self.U.shape[1]

    def to_csv(self, path) -> None:
        """Write `z,u_1,...,u_d` rows plus a JSON sidecar with provenance."""
        header = ["z"] + [f"u_{j + 1}" for j in range(self.d)]
        meta = {
            "seed": self.seed,
            "u_max": self.u_max,
            "x_true": None if self.x_true is None else [float(v) for v in self.x_true],
        }
        write_table(path, header, (self.z.astype(int), *self.U.T), meta)

    @classmethod
    def from_csv(cls, path) -> "Dataset":
        z, *u = read_table(path, "dataset", ("z",))
        U = np.column_stack(u)
        meta = read_sidecar(path)
        x_true = meta.get("x_true")
        return cls(U=U, z=z, u_max=float(meta.get("u_max", np.abs(U).sum(axis=1).max())),
                   seed=meta.get("seed"),
                   x_true=None if x_true is None else np.array(x_true, dtype=float))


def generate_synthetic(d: int, n: int, u_max: float, seed: int) -> Dataset:
    """Synthetic logistic data with per-row L1 norms in [u_max/2, u_max].

    Rows start as uniform(-1, 1) entries and are rescaled so that row i has
    L1 norm u_max * beta_i with beta_i uniform on (0.5, 1).  Labels are
    drawn from the logistic model at a random sign vector x_true, which the
    Dataset records.  Fully determined by (d, n, u_max, seed).
    """
    if d < 1 or n < 1:
        raise ValueError(f"need d >= 1 and n >= 1, got d={d}, n={n}")
    if not 0 < u_max < np.inf:
        raise ValueError(f"u_max must be finite and positive, got {u_max}")
    stream = RngStream(seed)
    raw = stream.uniform(-1.0, 1.0, (n, d))
    beta = stream.uniform(0.5, 1.0, n)
    x_true = np.where(stream.random(d) < 0.5, -1.0, 1.0)
    norms = np.abs(raw).sum(axis=1)
    if np.any(norms == 0):
        raise RuntimeError("degenerate all-zero covariate row")
    U = raw * (u_max * beta / norms)[:, None]
    probs = _sigmoid(U @ x_true)
    z = np.where(stream.random(n) < probs, 1.0, -1.0)
    return Dataset(U=U, z=z, u_max=float(u_max), seed=int(seed), x_true=x_true)


class LogisticObjective:
    """Ridge-regularized logistic loss (minimization form).

    F(x) = (1/n) sum_i log(1 + exp(-z_i u_i^T x)) + lam ||x||^2.

    Strong convexity constant is 2*lam from the ridge term; smoothness uses
    the top eigenvalue of (1/n) U^T U + 2*lam*I.
    One record's gradient is -z u sigmoid(-z u^T x) + ridge; swapping a
    record moves the per-record gradient by at most 2*u_max in L1 (the ridge
    part cancels), so the mean gradient moves by at most 2*u_max / m.
    With A the (n, d) rows -z_i u_i, the loss is the softplus of A x and a
    record's gradient is a_i sigmoid(a_i^T x) + ridge.
    """

    def __init__(self, dataset: Dataset, lam: float):
        if not 0 < lam < np.inf:
            raise ValueError(f"ridge weight must be finite and positive, got {lam}")
        self.A = -dataset.z[:, None] * dataset.U
        self.lam = float(lam)
        self.n = dataset.n
        self.d = dataset.d
        self.u_max = float(dataset.u_max)
        self.mu = 2.0 * self.lam
        # Deliberately the plain spectral bound, not the tighter quarter-scaled
        # logistic Hessian bound: stepsize rules elsewhere assume it.
        M = self.A.T @ self.A / self.n + 2.0 * self.lam * np.eye(self.d)
        self.L = float(np.linalg.eigvalsh(M)[-1])
        # values' GEMM packs this faster than the A.T view, with the same bits;
        # a one-row block is a GEMV, whose bits change with the layout, so it
        # keeps the view
        self._At = np.ascontiguousarray(self.A.T)

    def value(self, x: np.ndarray) -> float:
        return float(self.values(np.asarray(x, dtype=float)[None])[0])

    def values(self, X: np.ndarray) -> np.ndarray:
        """F at each row of the (k, d) array X, as a (k,) array.

        The loss term is the stable softplus of the margins:
        log(1 + exp(-s)) = max(-s, 0) + log1p(exp(-|s|)), computed in place
        on blocks of rows of X A^T = -s, with |s| capped at _SOFTPLUS_CAP.
        Each row is summed along its contiguous axis, so numpy adds it
        pairwise.
        """
        X = np.asarray(X, dtype=float)
        out = np.empty(len(X))
        rows = max(1, _VALUES_BLOCK // self.n)
        for lo in range(0, len(X), rows):
            B = X[lo:lo + rows]
            S = B @ (self._At if len(B) > 1 else self.A.T)  # -s, the softplus argument
            tail = np.abs(S)
            np.minimum(tail, _SOFTPLUS_CAP, out=tail)
            np.negative(tail, out=tail)
            np.exp(tail, out=tail)
            np.log1p(tail, out=tail)
            np.maximum(S, 0.0, out=S)
            S += tail
            out[lo:lo + rows] = S.sum(axis=1) / self.n
        return out + self.lam * np.einsum("ij,ij->i", X, X)

    def full_gradient(self, x: np.ndarray) -> np.ndarray:
        """Mean gradient over all records at the point x, by two GEMVs: the
        reference optimum takes thousands at set-up, where a padded tile would
        cost more and move fstar's bits."""
        s = self.A @ x
        return (self.A.T @ _sigmoid(s, out=s)) / self.n + 2.0 * self.lam * x

    def minibatch_gradient(self, x: np.ndarray, idx) -> np.ndarray:
        """Mean gradient over the records in idx (idx=None means all), at the
        point x or at each row of a (k, d) block x.

        The records' rows are gathered once and the points zero-padded to
        whole tiles of _TILE rows.  The margins are one GEMM over the padded
        block, the sigmoid runs on the k live rows only (pad rows stay 0),
        and the backward product is one (_TILE, m) @ (m, d) GEMM per tile.
        So row j is bitwise the call at x[j], whatever k and j's position.
        """
        A = self.A if idx is None else self.A[idx]
        X = np.asarray(x, dtype=float)
        k = 1 if X.ndim == 1 else len(X)
        P = np.zeros((-(-k // _TILE) * _TILE, self.d))
        P[:k] = X
        S = P @ A.T
        _sigmoid(S[:k], out=S[:k])
        G = np.empty_like(P)
        for lo in range(0, len(P), _TILE):
            np.matmul(S[lo:lo + _TILE], A, out=G[lo:lo + _TILE])
        G = G[:k] / len(A)
        G += 2.0 * self.lam * X
        return G.reshape(X.shape)

    def sensitivity_bound(self) -> float:
        return 2.0 * self.u_max

