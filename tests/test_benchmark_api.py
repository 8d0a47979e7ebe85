"""The library surface the benchmark in perfbench/ uses.

perfbench/ is frozen: every revision is measured with the same benchmark
code, so the names, signatures and positional calls it makes into dpaccel
must keep working.  This runs its traced probe once, as a traced benchmark
run does, and the output checks that decide a run's `correct`, without
writing anything under perfbench/.
"""

import sys
from collections import Counter
from pathlib import Path

from dpaccel.certification import CertificateGrid
from dpaccel.harness import run_grid

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_probe_runs_on_the_library(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    from perfbench.checks import determinism_problems
    from perfbench.tracing import Tracer
    from perfbench.workloads import (
        ALLOCATOR_SPANS,
        PROBE_REQUESTS,
        audit_grid,
        audit_requests,
        final_errors,
        probe_config,
        replay_grid,
        serve,
    )

    tr = Tracer()
    counts = Counter()
    replay = replay_grid(probe_config(0), tmp_path / "traced", tr, counts)
    # run_grid's traces pass the re-audit, and its per-cell final errors
    # equal the traced replay's bit for bit (--trace 0 and --trace 1 checks)
    summary = run_grid(probe_config(0), tmp_path / "grid")
    assert audit_grid(probe_config(0), tmp_path / "grid", summary) == []
    assert determinism_problems(final_errors(summary), final_errors(replay)) == []
    # plan_cell still calls the allocator names the replay patches in dpaccel.harness
    assert set(ALLOCATOR_SPANS.values()) <= set(tr.names)
    # every probe step draws a subsample (m < n) and its Laplace noise
    assert counts["iters"] > 0
    assert counts["rng_draws"] == 2 * counts["iters"]
    answers = serve(PROBE_REQUESTS, CertificateGrid.default(), tr)
    assert audit_requests(PROBE_REQUESTS, answers) == []
