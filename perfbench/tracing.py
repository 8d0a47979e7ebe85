"""Spans around calls into dpaccel, recorded from the benchmark's side.

A span records its name, start and end (``perf_counter_ns``), its parent
span and the top-level span it belongs to: one optimizer run, one grid
planning step or one analysis request.  Spans stay in memory and are
written out once, by ``save``, when the benchmark ends.

The proxies wrap the objects ``optimizers.run`` takes as arguments (the
objective, the ``RngStream`` and the ``PrivacyAccount``) and forward every
call unchanged, so a traced run computes bit-for-bit what an untraced one
does.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from functools import partial

import numpy as np

_now = time.perf_counter_ns

# Spans recorded while a phase other than WORKLOAD is active belong to the
# small fixed probe, which times layers the workload itself never calls.
WORKLOAD, PROBE = 0, 1


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.phase = WORKLOAD
        self._name, self._parent, self._root, self._phase = [], [], [], []
        self._start, self._end = [], []
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        i = len(self._start)
        parent = self._stack[-1] if self._stack else -1
        self._name.append(nid)
        self._parent.append(parent)
        self._root.append(self._root[parent] if parent >= 0 else i)
        self._phase.append(self.phase)
        self._end.append(0)
        self._stack.append(i)
        self._start.append(_now())
        return i

    def finish(self, i: int) -> None:
        self._end[i] = _now()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        i = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.finish(i)

    def save(self, path, env: dict) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=np.array(self._name, dtype=np.int32),
            parent=np.array(self._parent, dtype=np.int64),
            root=np.array(self._root, dtype=np.int64),
            phase=np.array(self._phase, dtype=np.int8),
            start_ns=np.array(self._start, dtype=np.int64),
            end_ns=np.array(self._end, dtype=np.int64),
            env=np.array(json.dumps(env)),
        )


def call(tr: Tracer | None, name: str, fn, *args, **kwargs):
    """fn(*args) inside a span, or a plain call when tracing is off."""
    if tr is None:
        return fn(*args, **kwargs)
    return tr.call(name, fn, *args, **kwargs)


class SpanTable:
    """Durations and self times (µs) of finished spans, selectable by name."""

    def __init__(self, tr: Tracer):
        self._ids = {n: i for i, n in enumerate(tr.names)}
        self.name = np.array(tr._name, dtype=np.int64)
        self.phase = np.array(tr._phase, dtype=np.int64)
        parent = np.array(tr._parent, dtype=np.int64)
        self.dur = (np.array(tr._end) - np.array(tr._start)) / 1e3
        child = parent >= 0
        # children of one span never overlap (one thread), so the time they
        # cover is the sum of their durations
        covered = np.bincount(parent[child], weights=self.dur[child], minlength=len(self.dur))
        self.self_time = self.dur - covered

    def mask(self, name: str, phase: int) -> np.ndarray:
        nid = self._ids.get(name, -1)
        return (self.name == nid) & (self.phase == phase)

    def count(self, name: str, phase: int = WORKLOAD) -> int:
        return int(self.mask(name, phase).sum())

    def phase_for(self, name: str) -> int:
        """The workload's spans of this name if it has any, else the probe's."""
        return WORKLOAD if self.count(name) else PROBE

    def durations(self, name: str, phase: int) -> np.ndarray:
        return self.dur[self.mask(name, phase)]

    def self_times(self, name: str, phase: int) -> np.ndarray:
        return self.self_time[self.mask(name, phase)]


@contextmanager
def traced_functions(tr: Tracer, module, spans: dict[str, str]):
    """Replace module-level functions with span-recording wrappers for a while.

    ``spans`` maps attribute name to span name.  Used on ``dpaccel.harness``
    so that the allocator calls ``plan_cell`` makes are timed where it makes
    them; the originals are restored on exit.
    """
    saved = {attr: getattr(module, attr) for attr in spans}
    try:
        for attr, span in spans.items():
            setattr(module, attr, partial(tr.call, span, saved[attr]))
        yield
    finally:
        for attr, fn in saved.items():
            setattr(module, attr, fn)


class ObjectiveProxy:
    """Objective whose value and gradient calls are recorded as spans."""

    def __init__(self, obj, tr: Tracer):
        self._obj, self._tr = obj, tr

    def __getattr__(self, attr):
        return getattr(self._obj, attr)

    def value(self, x):
        return self._tr.call("objectives.value", self._obj.value, x)

    def minibatch_gradient(self, x, idx):
        return self._tr.call("objectives.grad", self._obj.minibatch_gradient, x, idx)

    def full_gradient(self, x):
        return self._tr.call("objectives.full_gradient", self._obj.full_gradient, x)


class RngProxy:
    """RngStream whose draws are recorded as spans; seed and counter pass through."""

    def __init__(self, rng, tr: Tracer):
        self._rng, self._tr = rng, tr

    def __getattr__(self, attr):
        return getattr(self._rng, attr)

    def random(self, size=None):
        return self._tr.call("privacy_core.rng", self._rng.random, size)

    def subsample(self, n, m):
        return self._tr.call("privacy_core.rng", self._rng.subsample, n, m)


class AccountProxy:
    """PrivacyAccount whose spend() and spent reads are recorded as spans."""

    def __init__(self, account, tr: Tracer):
        self._account, self._tr = account, tr

    def __getattr__(self, attr):
        return getattr(self._account, attr)

    @property
    def spent(self):
        return self._tr.call("privacy_core.ledger", lambda: self._account.spent)

    def spend(self, eps_t):
        return self._tr.call("privacy_core.ledger", self._account.spend, eps_t)
