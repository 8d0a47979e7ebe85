"""Finite-sum objectives with the gradient access patterns the optimizers need.

Every objective exposes full and minibatch mean gradients, strong-convexity
and smoothness constants, and (where meaningful) an L1 bound on how much one
record can move a single per-record gradient.  Objective values come in one
vectorised form, ``values(X)`` over the rows of a (k, d) array; the
optimizers log suboptimality by evaluating a whole run's iterates in one
call after the run, and ``value(x)`` is ``values(x[None])[0]``.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import expit

from .privacy_core import RngStream

# Elements of the (rows, n) margin block LogisticObjective.values works on:
# large enough that each block is one GEMM, small enough (512 KiB) that the
# block and its one temporary stay out of peak memory.  A block holds at
# least one row, so above n = 2^16 a block is a single row.
_VALUES_BLOCK = 1 << 16

# LogisticObjective.values caps |s| here before exp.  exp(-|s|) is subnormal
# beyond |s| = 708 and zero beyond 745, and there exp and log1p ran 15-70x
# slower than at |s| <= 700 (65,536 elements: about 90 us against 1.5 to
# 6.4 ms).  At the cap both stay normal.  A capped term differs from the
# uncapped one by less than e^-700 ~ 1e-304, which cannot change F: a capped
# margin needs ||x||_inf >= 700 / u_max, so the ridge term alone keeps F
# above lam (700 / u_max)^2, where such a difference is far below half an ulp.
_SOFTPLUS_CAP = 700.0


class Objective:
    """Interface shared by all objectives (duck-typed, minimal)."""

    n: int
    d: int
    mu: float
    L: float

    def value(self, x: np.ndarray) -> float:
        return float(self.values(np.asarray(x, dtype=float)[None])[0])

    def values(self, X: np.ndarray) -> np.ndarray:
        """F at each row of the (k, d) array X, as a (k,) array."""
        raise NotImplementedError

    def full_gradient(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def minibatch_gradient(self, x: np.ndarray, idx) -> np.ndarray:
        """Mean gradient over the records in idx (idx=None means all)."""
        raise NotImplementedError

    def sensitivity_bound(self) -> float:
        """Sup over datasets/points of the L1 change of one record's gradient."""
        raise NotImplementedError


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
        row_norms = np.abs(self.U).sum(axis=1)
        if np.any(row_norms > self.u_max * (1 + 1e-12)):
            raise ValueError("a row exceeds the declared L1 bound u_max")

    @property
    def n(self) -> int:
        return self.U.shape[0]

    @property
    def d(self) -> int:
        return self.U.shape[1]

    def to_csv(self, path) -> None:
        """Write `z,u_1,...,u_d` rows plus a JSON sidecar with provenance."""
        path = Path(path)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["z"] + [f"u_{j + 1}" for j in range(self.d)])
            for i in range(self.n):
                writer.writerow([int(self.z[i])] + [repr(float(v)) for v in self.U[i]])
        meta = {
            "seed": self.seed,
            "u_max": self.u_max,
            "x_true": None if self.x_true is None else [float(v) for v in self.x_true],
        }
        with open(_sidecar_path(path), "w") as fh:
            json.dump(meta, fh, indent=2)

    @classmethod
    def from_csv(cls, path) -> "Dataset":
        path = Path(path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        header = rows[0]
        if not header or header[0] != "z":
            raise ValueError(f"not a dataset CSV: {path}")
        body = rows[1:]
        z = np.array([float(r[0]) for r in body])
        U = np.array([[float(v) for v in r[1:]] for r in body])
        sidecar = _sidecar_path(path)
        seed, x_true, u_max = None, None, float(np.abs(U).sum(axis=1).max())
        if sidecar.exists():
            with open(sidecar) as fh:
                meta = json.load(fh)
            seed = meta.get("seed")
            u_max = float(meta.get("u_max", u_max))
            if meta.get("x_true") is not None:
                x_true = np.array(meta["x_true"], dtype=float)
        return cls(U=U, z=z, u_max=u_max, seed=seed, x_true=x_true)


def _sidecar_path(path: Path) -> Path:
    return path.with_name(path.stem + ".meta.json")


def generate_synthetic(
    d: int, n: int, u_max: float, seed: int, x_true: np.ndarray | None = None
) -> Dataset:
    """Synthetic logistic data with per-row L1 norms in [u_max/2, u_max].

    Rows start as uniform(-1, 1) entries and are rescaled so that row i has
    L1 norm u_max * beta_i with beta_i uniform on (0.5, 1).  Labels are
    drawn from the logistic model at x_true (random sign vector when not
    supplied).  Fully determined by (d, n, u_max, seed, x_true).
    """
    if d < 1 or n < 1:
        raise ValueError(f"need d >= 1 and n >= 1, got d={d}, n={n}")
    if u_max <= 0:
        raise ValueError(f"u_max must be positive, got {u_max}")
    stream = RngStream(seed)
    raw = stream.uniform(-1.0, 1.0, (n, d))
    beta = stream.uniform(0.5, 1.0, n)
    if x_true is None:
        x_true = np.where(stream.random(d) < 0.5, -1.0, 1.0)
    else:
        x_true = np.asarray(x_true, dtype=float)
        if x_true.shape != (d,):
            raise ValueError("x_true must have shape (d,)")
    norms = np.abs(raw).sum(axis=1)
    if np.any(norms == 0):
        raise RuntimeError("degenerate all-zero covariate row")
    U = raw * (u_max * beta / norms)[:, None]
    probs = expit(U @ x_true)
    z = np.where(stream.random(n) < probs, 1.0, -1.0)
    return Dataset(U=U, z=z, u_max=float(u_max), seed=int(seed), x_true=x_true)


class LogisticObjective(Objective):
    """Ridge-regularized logistic loss (minimization form).

    F(x) = (1/n) sum_i log(1 + exp(-z_i u_i^T x)) + lam ||x||^2.

    Strong convexity constant is 2*lam from the ridge term; smoothness uses
    the top eigenvalue of (1/n) U^T U + 2*lam*I.
    One record's gradient is z u sigmoid(-z u^T x) + ridge; swapping a record
    moves the per-record gradient by at most 2*u_max in L1 (the ridge part
    cancels), so the mean gradient moves by at most 2*u_max / m.
    """

    def __init__(self, dataset: Dataset, lam: float):
        if lam <= 0:
            raise ValueError(f"ridge weight must be positive, got {lam}")
        self.dataset = dataset
        self.U = dataset.U
        self.z = dataset.z
        self.lam = float(lam)
        self.n = dataset.n
        self.d = dataset.d
        self.u_max = float(dataset.u_max)
        self.mu = 2.0 * self.lam
        self._L = None
        self._neg_z = -self.z

    @property
    def L(self) -> float:
        """Top eigenvalue of (1/n) U^T U + 2*lam*I by np.linalg.eigvalsh, cached.

        Deliberately the plain spectral bound, not the tighter quarter-scaled
        logistic Hessian bound: stepsize rules elsewhere assume it.  It
        upper-bounds the true smoothness.
        """
        if self._L is None:
            M = self.U.T @ self.U / self.n + 2.0 * self.lam * np.eye(self.d)
            self._L = float(np.linalg.eigvalsh(M)[-1])
        return self._L

    def values(self, X: np.ndarray) -> np.ndarray:
        """F at each row of X; the loss term is the stable softplus of the margins.

        log(1 + exp(-s)) = max(-s, 0) + log1p(exp(-|s|)), computed in place
        on blocks of rows of -z * (X U^T), with |s| capped at _SOFTPLUS_CAP.
        Each row is summed along its contiguous axis, so numpy adds it
        pairwise.
        """
        X = np.asarray(X, dtype=float)
        out = np.empty(len(X))
        rows = max(1, _VALUES_BLOCK // self.n)
        for lo in range(0, len(X), rows):
            B = X[lo:lo + rows]
            S = B @ self.U.T
            S *= self._neg_z  # -s, the argument of the softplus
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
        return self.minibatch_gradient(x, None)

    def minibatch_gradient(self, x: np.ndarray, idx) -> np.ndarray:
        if idx is None:
            U, z = self.U, self.z
        else:
            U, z = self.U[idx], self.z[idx]
        s = z * (U @ x)
        w = z * expit(-s)
        return -(U.T @ w) / len(z) + 2.0 * self.lam * x

    def per_record_gradient(self, x: np.ndarray, i: int) -> np.ndarray:
        u, zi = self.U[i], self.z[i]
        return -zi * u * expit(-zi * (u @ x)) + 2.0 * self.lam * x

    def sensitivity_bound(self) -> float:
        return 2.0 * self.u_max


class QuadraticObjective(Objective):
    """F(x) = 0.5 x^T Q x + q^T x with optional per-record linear terms.

    With records, F(x) = (1/n) sum_i [0.5 x^T Q x + (q + r_i)^T x]; the r_i
    must average to zero so the full objective is unchanged and minibatch
    gradients are unbiased.  Per-record gradient sensitivity has no a-priori
    bound here, so it must be supplied when needed.
    """

    def __init__(self, Q: np.ndarray, q: np.ndarray | None = None,
                 records: np.ndarray | None = None, sensitivity: float | None = None):
        self.Q = np.asarray(Q, dtype=float)
        if self.Q.ndim != 2 or self.Q.shape[0] != self.Q.shape[1]:
            raise ValueError("Q must be square")
        if not np.allclose(self.Q, self.Q.T, atol=1e-12):
            raise ValueError("Q must be symmetric")
        self.d = self.Q.shape[0]
        self.q = np.zeros(self.d) if q is None else np.asarray(q, dtype=float)
        if records is not None:
            records = np.asarray(records, dtype=float)
            if records.shape[1] != self.d:
                raise ValueError("records must be (n, d)")
            mean_r = records.mean(axis=0)
            if np.max(np.abs(mean_r)) > 1e-9:
                raise ValueError("per-record linear terms must average to zero")
        self.records = records
        self.n = 1 if records is None else records.shape[0]
        self._sensitivity = sensitivity
        self.eigenvalues = np.linalg.eigvalsh(self.Q)
        if self.eigenvalues[0] <= 0:
            raise ValueError("Q must be positive definite")
        self.mu = float(self.eigenvalues[0])
        self.L = float(self.eigenvalues[-1])
        self.minimizer = np.linalg.solve(self.Q, -self.q)
        self.fstar = self.value(self.minimizer)

    def values(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        return 0.5 * np.einsum("ij,ij->i", X @ self.Q, X) + X @ self.q

    def full_gradient(self, x: np.ndarray) -> np.ndarray:
        return self.Q @ x + self.q

    def minibatch_gradient(self, x: np.ndarray, idx) -> np.ndarray:
        base = self.Q @ x + self.q
        if idx is None or self.records is None:
            return base
        return base + self.records[idx].mean(axis=0)

    def sensitivity_bound(self) -> float:
        if self._sensitivity is None:
            raise ValueError("no gradient sensitivity bound was supplied for this quadratic")
        return self._sensitivity
