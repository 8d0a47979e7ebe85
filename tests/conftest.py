"""Test-wide settings.

Property tests run under one hypothesis profile, loaded by default: a
derandomized search (the same examples on every run), no per-example
deadline (a slow or busy host does not fail a test) and a fixed number of
examples, so that the suite is reproducible and its duration bounded.

The smoothed_heavy_ball fixture is an independent replay of the paper's
smoothed heavy-ball form, which dp-hb reparametrises.  The quadratic fixture
builds F(x) = 0.5 x^T Q x + q^T x as a one-record objective, for tests whose
reference is a closed-form minimizer or an exact rate.
"""

import numpy as np
import pytest
from hypothesis import settings

from dpaccel.privacy_core import RngStream, laplace_sample

settings.register_profile("dpaccel", derandomize=True, deadline=None, max_examples=40)
settings.load_profile("dpaccel")


def _smoothed_heavy_ball(obj, alpha, beta, m, schedule, seed, x0):
    """The paper's heavy ball with a smoothed gradient average, replayed
    without run(): ubar_t = beta ubar_{t-1} + (1 - beta) g_t and
    x_{t+1} = x_t - alpha/(1 - beta) ubar_t, from ubar_{-1} = 0.

    The subsample and the Laplace noise come from RngStream(seed) in run()'s
    order (subsample, then noise when b_t > 0), so the replay sees the noise
    a run with that seed sees.  Returns the (T+1, d) iterates.
    """
    rng = RngStream(seed)
    x = np.asarray(x0, dtype=float).copy()
    ubar = np.zeros_like(x)
    iterates = [x]
    for b_t in schedule.b:
        idx = rng.subsample(obj.n, m) if m < obj.n else None
        g = obj.minibatch_gradient(x, idx)
        if b_t > 0:
            g = g + laplace_sample(rng, b_t, obj.d)
        ubar = beta * ubar + (1.0 - beta) * g
        x = x - alpha / (1.0 - beta) * ubar
        iterates.append(x)
    return np.array(iterates)


@pytest.fixture
def smoothed_heavy_ball():
    return _smoothed_heavy_ball


class _Quadratic:
    """F(x) = 0.5 x^T Q x + q^T x with Q symmetric positive definite.

    One record (n = 1), so a minibatch gradient is the full gradient
    whatever idx it is given.
    """

    n = 1

    def __init__(self, Q, q=None):
        self.Q = np.asarray(Q, dtype=float)
        self.d = self.Q.shape[0]
        self.q = np.zeros(self.d) if q is None else np.asarray(q, dtype=float)
        eigenvalues = np.linalg.eigvalsh(self.Q)
        self.mu, self.L = float(eigenvalues[0]), float(eigenvalues[-1])
        self.minimizer = np.linalg.solve(self.Q, -self.q)
        self.fstar = self.value(self.minimizer)

    def values(self, X):
        X = np.asarray(X, dtype=float)
        return 0.5 * np.einsum("ij,ij->i", X @ self.Q, X) + X @ self.q

    def value(self, x):
        return float(self.values(np.asarray(x, dtype=float)[None])[0])

    def full_gradient(self, x):
        return self.Q @ x + self.q

    def minibatch_gradient(self, x, idx):
        return self.full_gradient(x)


@pytest.fixture
def quadratic():
    return _Quadratic
