#!/usr/bin/env python3
"""Smoke run of the benchmark harness on a few hundred photons per workload.

    python3 perfbench/smoke.py

Runs every workload of workloads.py through run.py with --smoke for one
second, untraced and traced, and fails unless each run exits 0, reports
correct with no failed invocation and prints exactly the metrics that
BENCHMARK.json names. It then runs the harness in a directory holding only
BENCHMARK.json and the benchmark, where it must exit non-zero without a
result. It takes under a minute and is not part of the test suite.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"] for m in spec["end_to_end"]}, 1: {m["name"] for m in spec["per_layer"]}}
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            argv = [*spec["command"], "--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=180, check=False)
            label = f"{workload} trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{label}: {proc.stdout.strip()[-600:]}")
            if set(result["metrics"]) != expected[trace]:
                problems.append(f"{label}: metrics {sorted(set(result['metrics']) ^ expected[trace])} differ")
            print(f"{label}: ok, {result['attempted']} invocations")

    bare = ROOT / ".perfbench-out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        argv = [*spec["command"], "--workload", spec["workloads"][0]["name"], "--seed", "1", "--seconds", "1", "--trace", "0"]
        proc = subprocess.run(argv, cwd=bare, capture_output=True, text=True, timeout=180, check=False)
        if proc.returncode == 0 or '"metrics"' in proc.stdout:
            problems.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout.strip()[-200:]!r}")
        else:
            print(f"bare directory: exit {proc.returncode}, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for problem in problems:
        print(f"FAILED {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
