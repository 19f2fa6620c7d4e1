"""wavopt benchmark: four workloads, end to end or traced per layer.

Run from the repository root:

    python3 perfbench/run.py --workload cartpole-train --seed 0 --seconds 20 --trace 0

Workloads: cartpole-train, acrobot-act, transport-large, verify-quick
(see workloads.py and NOTES.md).  The program is imported from ``src/``
next to this directory; without it the benchmark exits with code 2.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``      median of seven set-ups (six in fresh processes, one
                   in this one): the wavopt import (numpy is already
                   loaded) plus building the workload's inputs, up to the
                   first timed operation;
* ``ops_per_s``    operations per second (what an operation is depends on
                   the workload), as the median of the rates of the run's
                   chunks: whole passes, or about one episode of the
                   update-bound training run;
* ``peak_rss_mb``  peak resident memory of this process.

Other tenants of the machine slow stretches of a run, often all of it,
by 1.2-1.8x.  So both timings are scaled to the host's unslowed speed
by pace.py's reference kernels: a chunk's rate is multiplied by the
slowdown the kernels showed during the chunk (they run ten times a
second, and their time is left out of the chunk's), a set-up time by
the slowdown during the set-up.
The detail line keeps the unscaled figures.

``--trace 1`` wraps the layers listed in tracing.py and reports per-layer
calls, latencies and self-time shares instead.  ``--quick`` shrinks the
inputs and runs a single pass, for the smoke test.

Passes run back to back until the next one would end after
``--seconds`` of measured time; the first pass always runs.  The last
stdout line is the result object; the line before it carries the
environment record and the workload's own figures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("cartpole-train", "acrobot-act", "transport-large", "verify-quick")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_CHILDREN = 6


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny inputs, one pass (smoke test)")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def _git_commit():
    """HEAD commit read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "nproc": os.cpu_count(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def _timed_setup(args, out_dir: Path):
    """Build the workload; returns it with [set-up seconds, slowdown during set-up].

    numpy is imported with pace, before the clock starts; the wavopt
    import is the first in this process.
    """
    import pace

    pacer = pace.Pacer({"python": 1}, tick_s=0.04)
    pacer.start()
    t0 = time.perf_counter()
    import workloads

    workload = workloads.make(args.workload, args.seed, args.quick, out_dir, traced=bool(args.trace))
    t1 = time.perf_counter()
    pacer.stop()
    return workload, [t1 - t0 - pacer.paused(t0, t1), pacer.slowdown(t0, t1)]


def _setup_in_child(args) -> list:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "1", "--setup-only"] + (["--quick"] if args.quick else [])
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])


def _chunks(pacer, chunk_ops: list, bounds: list) -> list:
    """[ops, seconds, slowdown] per chunk; ``bounds`` are the pass's start, cuts and end."""
    if len(chunk_ops) == 1:
        bounds = [bounds[0], bounds[-1]]
    return [
        [n, b - a - pacer.paused(a, b), pacer.slowdown(a, b)]
        for n, a, b in zip(chunk_ops, bounds[:-1], bounds[1:])
    ]


def _median_figures(judged: list) -> dict:
    names = judged[0]["figures"].keys()
    return {name: statistics.median(j["figures"][name] for j in judged) for name in names}


def main(argv=None) -> int:
    args = _parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"  # before numpy is imported, here and in set-up children
    if not (SRC / "wavopt" / "__init__.py").is_file():
        print(f"wavopt sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    out_dir = ROOT / ".bench_out" / f"{args.workload}-{os.getpid()}"
    try:
        if args.setup_only:
            print(json.dumps(_timed_setup(args, out_dir)[1]))
            return 0
        setup = [] if args.trace else [_setup_in_child(args) for _ in range(SETUP_CHILDREN)]
        workload, timed = _timed_setup(args, out_dir)
        setup.append(timed)

        tracer = None
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()

        pacer = workload.pacer
        if tracer is None:
            pacer.start()
        judged, measured, i = [], 0.0, 0
        while True:
            t0 = time.perf_counter()
            out = workload.step(i)
            end = time.perf_counter()
            seconds = end - t0 - pacer.paused(t0, end)
            result = workload.judge(out, seconds)
            chunks = _chunks(pacer, result.pop("chunk_ops"), [t0, *workload.cuts, end])
            judged.append(dict(result, seconds=seconds, chunks=chunks))
            measured += seconds
            i += 1
            if args.quick or measured + seconds > args.seconds:
                break
        pacer.stop()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.uninstall()

        attempted = sum(j["attempted"] for j in judged)
        failed = sum(j["failed"] for j in judged)
        # a chunk with no op (cartpole's tail of gate and evaluation) has no rate
        chunks = [c for j in judged for c in j["chunks"] if c[0] > 0] or [[0, 1.0, 1.0]]
        if tracer is not None:
            metrics = tracer.metrics(measured)
        else:
            metrics = {
                "setup_s": {"value": statistics.median(s / slowdown for s, slowdown in setup), "unit": "s"},
                "ops_per_s": {"value": statistics.median(n / s * slowdown for n, s, slowdown in chunks), "unit": "1/s"},
                "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            }
        detail = {
            "workload": args.workload,
            "op": workload.op,
            "seed": args.seed,
            "trace": args.trace,
            "quick": args.quick,
            "environment": _environment(),
            "setup_s_and_slowdown": setup,
            "passes": len(judged),
            "measured_s": measured,
            "unscaled_ops_per_s_median": statistics.median(n / s for n, s, _ in chunks),
            "slowdown_median": statistics.median(c[2] for c in chunks),
            "kernel_samples": len(pacer.samples),
            "figures_median": _median_figures(judged),
            "passes_detail": [{k: j[k] for k in ("seconds", "ops", "chunks", "info")} for j in judged],
        }
        print(json.dumps({"detail": detail}))
        print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            out_dir.parent.rmdir()
        except OSError:
            pass  # not empty, or never made


if __name__ == "__main__":
    sys.exit(main())
