"""The library surface the benchmark in perfbench/ uses.

perfbench/ is frozen: every revision is measured with the same benchmark
code, so the names, signatures and positional calls it makes into dpaccel
must keep working.  This runs its traced probe once, as a traced benchmark
run does, without writing anything under perfbench/.
"""

import sys
from collections import Counter
from pathlib import Path

from dpaccel.certification import CertificateGrid

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_probe_runs_on_the_library(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    from perfbench.tracing import Tracer
    from perfbench.workloads import (
        ALLOCATOR_SPANS,
        PROBE_REQUESTS,
        audit_requests,
        probe_config,
        replay_grid,
        serve,
    )

    tr = Tracer()
    counts = Counter()
    replay_grid(probe_config(0), tmp_path, tr, counts)
    # plan_cell still calls the allocator names the replay patches in dpaccel.harness
    assert set(ALLOCATOR_SPANS.values()) <= set(tr.names)
    # every probe step draws a subsample (m < n) and its Laplace noise
    assert counts["iters"] > 0
    assert counts["rng_draws"] == 2 * counts["iters"]
    answers = serve(PROBE_REQUESTS, CertificateGrid.default(), tr)
    assert audit_requests(PROBE_REQUESTS, answers) == []
