"""Smoke test of the benchmark in quick mode; asserts nothing about timings.

Run from the repository root:

    python3 perfbench/smoke_test.py

For every workload it checks that:

* an untraced run prints a valid result line carrying every end-to-end
  metric of BENCHMARK.json with its unit, and no failed operation;
* two traced runs with the same seed carry every per-layer metric and
  agree exactly on every ``calls`` count and on ``mflop``;

that the transport check fails a NaN distance; and that, in a directory
holding only BENCHMARK.json and the benchmark's own files, the benchmark
exits non-zero without printing a result.
Exits 0 when all checks pass, 1 otherwise.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(cwd: Path, workload: str, trace: int):
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--quick"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def _result(proc, problems: list, label: str):
    if proc.returncode != 0:
        problems.append(f"{label}: exit code {proc.returncode}: {proc.stderr.strip()[-500:]}")
        return None
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        json.loads(lines[-2])["detail"]["environment"]
    except (IndexError, KeyError, ValueError) as exc:
        problems.append(f"{label}: unparsable output ({exc})")
        return None
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
        return None
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{label}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
    return result


def _check_metrics(result, spec_metrics, problems: list, label: str) -> None:
    want = {m["name"]: m["unit"] for m in spec_metrics}
    got = result["metrics"]
    if set(got) != set(want):
        problems.append(f"{label}: missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}")
    for name, metric in got.items():
        value = metric.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{label}: {name} = {value!r}")
        if name in want and metric.get("unit") != want[name]:
            problems.append(f"{label}: {name} unit {metric.get('unit')!r}, expected {want[name]!r}")


def _check_nan_fails(problems: list) -> None:
    """Judge a transport pass whose gswd came out NaN; it must count as failed."""
    os.environ["OMP_NUM_THREADS"] = os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    workload = workloads.TransportWorkload(7, 300)
    values, times = workload.step(0)
    values["gswd_uniform"] = math.nan
    if workload.judge((values, times), 1.0)["failed"] != 1:
        problems.append("transport check passed a NaN distance")


def main() -> int:
    problems = []
    _check_nan_fails(problems)
    for workload in WORKLOADS:
        result = _result(_run(ROOT, workload, 0), problems, f"{workload} untraced")
        if result:
            _check_metrics(result, SPEC["end_to_end"], problems, f"{workload} untraced")
            if any(m["value"] == 0 for m in result["metrics"].values()):
                problems.append(f"{workload} untraced: an end-to-end metric is 0")
        traced = [_result(_run(ROOT, workload, 1), problems, f"{workload} traced #{n}") for n in (1, 2)]
        if all(traced):
            for result in traced:
                _check_metrics(result, SPEC["per_layer"], problems, f"{workload} traced")
            counts = [
                {k: m["value"] for k, m in r["metrics"].items() if k.endswith((".calls", ".mflop"))} for r in traced
            ]
            if counts[0] != counts[1]:
                diff = sorted(k for k in counts[0] if counts[0][k] != counts[1].get(k))
                problems.append(f"{workload}: traced counts differ between identical runs: {diff}")
        print(f"{workload}: checked", flush=True)

    bare = ROOT / ".bench_out" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = _run(bare, WORKLOADS[0], 0)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        problems.append(f"without src/ the benchmark exited {proc.returncode} and printed {proc.stdout[-200:]!r}")

    for problem in problems:
        print("FAIL", problem)
    print("smoke test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
