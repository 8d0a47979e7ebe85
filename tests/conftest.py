"""Test-wide settings.

Property tests run under one hypothesis profile, loaded by default: a
derandomized search (the same examples on every run), no per-example
deadline (a slow or busy host does not fail a test) and a fixed number of
examples, so that the suite is reproducible and its duration bounded.

The smoothed_heavy_ball fixture is an independent replay of the paper's
smoothed heavy-ball form, which dp-hb reparametrises.
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
