"""Time one cold set-up of a workload in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py <workload> <seed>

Set-up is the import of dpaccel plus the objective build and reference
optimum (grid, long-horizon) or the default certificate grid (analysis).
Prints {"setup_s": ...}.
"""

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> None:
    workload, seed = sys.argv[1], int(sys.argv[2])
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import dpaccel  # noqa: F401  (the import is part of what is timed)

    imported = time.perf_counter()
    sys.path.insert(0, str(ROOT))
    from perfbench.workloads import setup

    t1 = time.perf_counter()
    setup(workload, seed)
    done = time.perf_counter()
    print(json.dumps({"setup_s": (imported - t0) + (done - t1)}))


if __name__ == "__main__":
    main()
