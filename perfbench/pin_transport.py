"""Write pinned_transport.json: the transport workload's distances per seed.

Run from the repository root at the commit whose values should be
pinned:

    python3 perfbench/pin_transport.py

The transport workload checks every pass against these values (for seeds
0-63) within a relative 1e-9, and against the independent
reference in reference.py (for every seed).  Only regenerate the file
when a change is meant to alter the distances.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    os.environ["OMP_NUM_THREADS"] = os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    import workloads

    n, seeds = 10_000, range(64)
    values = {}
    for seed in seeds:
        workload = workloads.TransportWorkload(seed, n)
        got, _ = workload.step(0)
        problems = workload.judge((got, {}), 1.0)["info"]["problems"]
        if problems:
            print(f"seed {seed}: program disagrees with the reference: {problems}", file=sys.stderr)
            return 1
        values[str(seed)] = got
    (HERE / "pinned_transport.json").write_text(json.dumps({"n": n, "values": values}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
