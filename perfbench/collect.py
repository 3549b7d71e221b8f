#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/collect.py --seeds 1-10 --out perfbench/baseline/NAME.json
    python3 perfbench/collect.py --workloads dense-lossy --seeds 1-5 --compare perfbench/baseline/NAME.json

For every workload in BENCHMARK.json (or --workloads) it runs run.py once per
seed with --trace 0, then once with --trace 1 at the first seed, one run at
a time, each for BENCHMARK.json's run_seconds. Per end-to-end metric it
reports the median, the quartiles (statistics.quantiles, n=4) and the spread
(q3 - q1) / median, against the metric's bound; a spread at or under a third
of the bound is marked steady. --compare reports how far each median moved
from another collect file's, signed so that positive is worse. Two
collections of the same code agree only if the move stays within the bound
in both directions, so the check is on its magnitude.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    argv = [*spec["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((ROOT / ".perfbench-out" / f"{workload}-s{seed}-t{trace}.json").read_text())
    return {"seed": seed, **result, "ledger": record["ledger"], "env": record["env"], "failures": record["failures"]}


def summarise(spec: dict, runs: list[dict]) -> dict:
    summary = {}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = [run["metrics"][name]["value"] for run in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
        spread = (q3 - q1) / median
        summary[name] = {
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": spread,
            "bound": metric["bound"],
            "steady": spread <= metric["bound"] / 3.0,
            "values": values,
        }
    return summary


def drift(spec: dict, summary: dict, other: dict) -> dict:
    """Relative move of each median from the other file's, positive when worse; within when |move| <= bound."""
    out = {}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        old, new = other[name]["median"], summary[name]["median"]
        move = (new - old) / old if metric["better"] == "lower" else (old - new) / old
        out[name] = {"worse_by": move, "bound": metric["bound"], "within": abs(move) <= metric["bound"]}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", help="comma-separated subset of BENCHMARK.json's workloads")
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,7")
    parser.add_argument("--compare", type=Path, help="an earlier collect output to compare medians with")
    parser.add_argument("--out", type=Path, help="write the full collection here as JSON")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seeds = parse_seeds(args.seeds)
    other = json.loads(args.compare.read_text())["workloads"] if args.compare else {}

    collected = {}
    all_ok = True
    for name in names:
        runs = []
        for seed in seeds:
            runs.append(run_once(spec, name, seed, 0))
            print(f"{name} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in runs[-1]["metrics"].items()), flush=True)
        summary = summarise(spec, runs)
        entry = {"runs": runs, "summary": summary}
        all_ok &= all(run["correct"] for run in runs)
        for metric, s in summary.items():
            print(f"  {metric:16s} median {s['median']:.6g} spread {s['spread']:.4f} "
                  f"bound {s['bound']} {'steady' if s['steady'] else 'NOT STEADY'}", flush=True)
        if name in other:
            entry["drift"] = drift(spec, summary, other[name]["summary"])
            for metric, d in entry["drift"].items():
                print(f"  {metric:16s} moved {d['worse_by']:+.4f}, positive = worse (bound ±{d['bound']}) "
                      f"{'ok' if d['within'] else 'BEYOND BOUND'}", flush=True)
        entry["trace"] = run_once(spec, name, seeds[0], 1)
        all_ok &= entry["trace"]["correct"]
        collected[name] = entry

    if args.out:
        env = next(iter(collected.values()))["runs"][0]["env"]
        payload = {"env": env, "seconds": spec["run_seconds"], "seeds": seeds, "workloads": collected}
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
