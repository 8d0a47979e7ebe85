"""Differentially private first-order optimization with momentum.

Layers, bottom up: privacy accounting and noise (privacy_core), losses and
synthetic data (objectives), the private update loops (optimizers), budget
allocation across iterations (budget_allocator), contraction certificates
and exact quadratic rates (certification), and the experiment driver
(harness).  Each name is imported from its module, e.g.
``from dpaccel.harness import run_grid``.
"""

from . import budget_allocator, certification, harness, objectives, optimizers, privacy_core

__version__ = "0.1.0"
