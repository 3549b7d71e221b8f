#!/usr/bin/env python3
"""gvqkd benchmark: run one workload through the gvqkd CLI and print its metrics.

    python3 perfbench/run.py --workload transmit-s0 --seed 1 --seconds 30 --trace 0

--trace 0 runs rounds of the workload's CLI invocations as `python -m
gvqkd.cli` child processes, one at a time (a closed loop with one client),
until --seconds have passed, and prints the end-to-end metrics. --trace 1
runs the same argv in this process through gvqkd.cli.main, alternating an
untraced and a traced round, and prints the per-layer metrics. Every output
directory is checked (see workloads.py) and must hash the same on every
repetition at the seed. The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics. The full record, with the trace
aggregates and spans, goes to .perfbench-out/ at the repository root.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from workloads import WORKLOADS, add_ledgers, check_outputs, check_traced_counts, digest, scenario_for, scenario_text

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

# a run must end within 180 s; leave room for the checks and the report
HARD_LIMIT_S = 165.0
PROBE = "import sys; from gvqkd.cli import load_config; load_config(sys.argv[1])"

# one client and no extra threads: keep numpy's BLAS pool out of the measurement
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


class Timeout(Exception):
    """The run's time budget ran out."""


class SetupError(Exception):
    """The program could not be started on the workload's scenario."""


def _on_alarm(signum, frame):
    raise Timeout()


class Budget:
    """Wall-clock budget of the whole run, enforced with SIGALRM around each blocking step."""

    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        return self.end - time.monotonic()

    @contextlib.contextmanager
    def guard(self):
        left = self.left()
        if left <= 0:
            raise Timeout()
        signal.setitimer(signal.ITIMER_REAL, left)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv: list[str], log_path: Path, budget: Budget) -> tuple[int, float, int]:
    """Spawn, wait and return (exit code, wall seconds from spawn to exit, peak RSS in KiB)."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=child_env(), cwd=ROOT)
    try:
        with budget.guard():
            _, status, usage = os.wait4(proc.pid, 0)
    except Timeout:
        proc.kill()
        proc.wait()
        raise
    end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, end - start, usage.ru_maxrss


def log_tail(path: Path) -> str:
    lines = path.read_text(encoding="utf-8", errors="replace").strip().splitlines()
    return " | ".join(lines[-3:])


class Verifier:
    """Checks each command's output once per distinct digest and enforces byte-identical repetitions."""

    def __init__(self, workload, scenario: dict, read_transcript_csv):
        self.workload = workload
        self.scenario = scenario
        self.read_transcript_csv = read_transcript_csv
        self.digests: dict[int, str] = {}
        self.ledgers: dict[int, dict] = {}
        self.passed: dict[int, bool] = {}
        self.failures: list[str] = []

    def verify(self, k: int, out_dir: Path) -> bool:
        command = self.workload.commands[k]
        label = " ".join(command)
        found = digest(out_dir)
        if k not in self.digests:
            self.digests[k] = found
            try:
                ledger, failures = check_outputs(out_dir, self.scenario, command, self.read_transcript_csv)
            except Exception:
                ledger, failures = None, [traceback.format_exc(limit=3)]
            self.ledgers[k] = ledger
            self.passed[k] = not failures
            self.failures += [f"{label}: {message}" for message in failures]
        elif found != self.digests[k]:
            self.failures.append(f"{label}: output differs from the first repetition at this seed")
            return False
        return self.passed[k]

    def ledger(self) -> dict | None:
        ledgers = [self.ledgers.get(k) for k in range(len(self.workload.commands))]
        return None if None in ledgers else add_ledgers(ledgers)


def cli_argv(command: tuple, cfg: Path, out_dir: Path, seed: int) -> list[str]:
    return [*command, "--config", str(cfg), "--out", str(out_dir), "--seed", str(seed)]


def import_gvqkd():
    sys.path.insert(0, str(SRC))
    try:
        import gvqkd.cli
        from gvqkd.protocol import read_transcript_csv
    except ImportError as exc:
        raise SetupError(f"cannot import gvqkd: {exc}") from None
    return gvqkd.cli, read_transcript_csv


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def probe_setup(cfg: Path, log: Path, budget: Budget) -> float:
    """Wall seconds of a fresh interpreter that imports gvqkd.cli and loads the scenario."""
    rc, wall, _ = run_child([sys.executable, "-c", PROBE, str(cfg)], log, budget)
    if rc != 0:
        raise SetupError(f"set-up probe exited {rc}: {log_tail(log)}")
    return wall


def measure_untraced(workload, scenario: dict, cfg: Path, seed: int, seconds: float, work: Path, budget: Budget) -> dict:
    log = work / "child.log"
    # the first probe also fills the bytecode cache; it is not counted
    probe_setup(cfg, log, budget)
    setup: list[float] = []

    _cli, read_transcript_csv = import_gvqkd()
    verifier = Verifier(workload, scenario, read_transcript_csv)
    rounds: list[float] = []
    walls: list[list[float]] = [[] for _ in workload.commands]
    peak_kib = 0
    attempted = failed = 0
    start = time.monotonic()
    try:
        while not rounds or time.monotonic() - start < seconds:
            round_wall = 0.0
            for k, command in enumerate(workload.commands):
                setup.append(probe_setup(cfg, log, budget))
                out_dir = work / f"out{k}"
                attempted += 1
                rc, wall, rss = run_child([sys.executable, "-m", "gvqkd.cli", *cli_argv(command, cfg, out_dir, seed)], log, budget)
                walls[k].append(wall)
                round_wall += wall
                peak_kib = max(peak_kib, rss)
                if rc != 0:
                    verifier.failures.append(f"{' '.join(command)}: exited {rc}: {log_tail(log)}")
                    failed += 1
                elif not verifier.verify(k, out_dir):
                    failed += 1
                shutil.rmtree(out_dir, ignore_errors=True)
            rounds.append(round_wall)
    except Timeout:
        failed += 1
        verifier.failures.append(f"time budget of {HARD_LIMIT_S:.0f} s ran out")
    if not rounds:
        raise SetupError("no round finished within the time budget")

    ledger = verifier.ledger()
    # Slowdowns on a shared host come in bursts lasting seconds, so the
    # fastest repetition of each invocation is the steadiest estimate of the
    # program's own cost; the median and quartiles are reported beside it.
    wall_s = sum(min(kind) for kind in walls)
    sent = ledger["sent"] if ledger else 0
    q1, q3 = quartiles(rounds)
    s1, s3 = quartiles(setup)
    return {
        "metrics": {
            "wall_s": (wall_s, "s", f"fastest of {len(rounds)} rounds per invocation; round median "
                       f"{statistics.median(rounds):.4f} q1 {q1:.4f} q3 {q3:.4f} max {max(rounds):.4f}"),
            "photons_per_s": (sent / wall_s, "1/s", f"{sent} photons sent per round / wall_s"),
            "peak_rss_mb": (peak_kib / 1024.0, "MiB", f"max over {attempted} child processes"),
            "setup_s": (statistics.median(setup), "s", f"median of {len(setup)} fresh interpreters, q1 {s1:.4f} q3 {s3:.4f}"),
        },
        "samples": {"round_wall_s": rounds, "invocation_wall_s": walls, "setup_s": setup},
        "ledger": ledger,
        "attempted": attempted,
        "failed": failed,
        "failures": verifier.failures,
    }


def layer_metrics(tracer, ledger: dict) -> dict:
    """Per-layer metrics of one traced round: name -> (value, unit)."""
    functions = tracer.by_function()

    def self_s(*names):
        return sum(functions.get(name, (0, 0.0))[1] for name in names)

    def module(short):
        rows = [rec for name, rec in functions.items() if name.startswith(short + ".")]
        return sum(r[0] for r in rows), sum(r[1] for r in rows)

    wall = sum(tracer.walls)
    sent = ledger["sent"]
    optics_calls, optics_s = module("optics")
    devices_calls, _ = module("devices")
    adversary_calls, _ = module("adversary")
    streams_calls, streams_s = module("streams")
    _, config_s = module("config")
    engine = self_s("protocol.run_session", "protocol.alice_prepare", "protocol.bob_receive")
    click = self_s("devices.detector_click")
    attack = self_s("adversary.apply_attack")
    write = self_s("protocol.write_transcript_csv")
    match = self_s("protocol.timing_test")
    counts = tracer.counts
    clicks = ledger["receives"] - counts["darks"]
    return {
        "protocol.engine_s": (engine, "s"),
        "protocol.engine_ns_per_photon": ((engine + optics_s + click + attack) / sent * 1e9, "ns"),
        "optics.s": (optics_s, "s"),
        "optics.calls": (optics_calls, "count"),
        "devices.source_s": (self_s("devices.generate_emissions", "devices.herald", "devices.dark_clicks"), "s"),
        "devices.click_s": (click, "s"),
        "devices.calls": (devices_calls, "count"),
        "devices.herald_ratio": (counts["heralded"] / counts["emitted"], "ratio"),
        "devices.click_ratio": (clicks / counts["heralded"], "ratio"),
        "adversary.attack_s": (attack, "s"),
        "adversary.calls": (adversary_calls, "count"),
        "adversary.eve_info_s": (self_s("adversary.eve_information"), "s"),
        "protocol.match_s": (match, "s"),
        "protocol.match_ratio": (ledger["matched"] / ledger["receives"], "ratio"),
        "protocol.sift_s": (self_s("protocol.sift_and_qber"), "s"),
        "protocol.write_s": (write, "s"),
        "protocol.write_ns_per_row": (write / ledger["rows"] * 1e9, "ns"),
        "protocol.bytes_written": (ledger["bytes"], "B"),
        "streams.s": (streams_s, "s"),
        "streams.calls": (streams_calls, "count"),
        "analysis.verdict_s": (self_s("analysis.detect_eavesdropping", "analysis.verdict_report"), "s"),
        "config.load_s": (config_s, "s"),
        "cli.self_s": (wall - tracer.root_child_s(), "s"),
        "trace.wall_s": (wall, "s"),
        "ledger.emitted": (counts["emitted"], "count"),
        "ledger.darks": (counts["darks"], "count"),
        **{f"ledger.{key}": (ledger[key], "count") for key in
           ("sent", "receives", "matched", "anomalies", "disclosed", "errors", "key_bits")},
    }


EXACT_UNITS = ("count", "B", "ratio")
# Printed and recorded, but left out of the JSON line and BENCHMARK.json:
# transmit never calls these functions, so there they read exactly 0 on
# every run, which the benchmark contract refuses for a time.
PRINTED_ONLY = ("adversary.eve_info_s", "analysis.verdict_s")


def measure_traced(workload, scenario: dict, cfg: Path, seed: int, seconds: float, work: Path, budget: Budget) -> dict:
    from tracer import Tracer

    cli, read_transcript_csv = import_gvqkd()
    tracer = Tracer()
    verifier = Verifier(workload, scenario, read_transcript_csv)
    untraced: list[float] = []
    traced: list[dict] = []
    attempted = failed = 0
    table = spans = counts = None

    def one_round(trace: bool) -> float:
        nonlocal attempted, failed
        wall = 0.0
        tracer.reset()
        if trace:
            tracer.install()
        try:
            for k, command in enumerate(workload.commands):
                out_dir = work / f"out{k}"
                argv = cli_argv(command, cfg, out_dir, seed)
                attempted += 1
                sink = io.StringIO()
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink), budget.guard():
                    start = time.perf_counter()
                    try:
                        rc = tracer.invoke(cli.main, argv) if trace else cli.main(argv)
                    except Timeout:
                        raise
                    except Exception:
                        rc = -1
                        sink.write(traceback.format_exc(limit=3))
                    wall += time.perf_counter() - start
                if rc != 0:
                    verifier.failures.append(f"{' '.join(command)}: returned {rc}: {sink.getvalue()[-300:]}")
                    failed += 1
                elif not verifier.verify(k, out_dir):
                    failed += 1
                shutil.rmtree(out_dir, ignore_errors=True)
        finally:
            if trace:
                tracer.uninstall()
        return wall

    start = time.monotonic()
    try:
        while not traced or time.monotonic() - start < seconds:
            untraced.append(one_round(trace=False))
            one_round(trace=True)
            ledger = verifier.ledger()
            if ledger is None:
                break
            traced.append(layer_metrics(tracer, ledger))
            table, spans, counts = tracer.table(), list(tracer.spans), dict(tracer.counts)
    except Timeout:
        failed += 1
        verifier.failures.append(f"time budget of {HARD_LIMIT_S:.0f} s ran out")

    metrics = {}
    for name in traced[0] if traced else ():
        values = [round_metrics[name][0] for round_metrics in traced]
        unit = traced[0][name][1]
        if unit in EXACT_UNITS:
            if len(set(values)) > 1:
                verifier.failures.append(f"{name} changed between repetitions: {sorted(set(values))}")
            metrics[name] = (values[0], unit, f"same in all {len(values)} traced rounds")
        else:
            metrics[name] = (statistics.median(values), unit, f"median of {len(values)} traced rounds")
    if traced:
        # the overhead compares medians, not one traced round with its neighbour
        overhead = statistics.median(m["trace.wall_s"][0] for m in traced) - statistics.median(untraced)
        metrics["trace.overhead_s"] = (overhead, "s", f"traced minus untraced median in-process wall, {len(untraced)} rounds each")
        ledger = verifier.ledger()
        verifier.failures += check_traced_counts(counts, ledger, scenario, workload.commands)
    return {
        "metrics": metrics,
        "samples": {"untraced_wall_s": untraced, "traced_wall_s": [m["trace.wall_s"][0] for m in traced]},
        "ledger": {**(verifier.ledger() or {}), **(counts or {})},
        "attempted": attempted,
        "failed": failed,
        "failures": verifier.failures,
        "trace": {"functions": table, "spans": spans},
    }


def git_commit(root: Path) -> str:
    """HEAD of a git checkout at root, read from its files; 'unknown' outside one."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy

    return {
        "commit": git_commit(ROOT),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="shrink the scenario to a few hundred photons")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "gvqkd" / "cli.py").is_file():
        print(f"perfbench: no gvqkd sources under {SRC}", file=sys.stderr)
        return 2

    budget = Budget(HARD_LIMIT_S)
    signal.signal(signal.SIGALRM, _on_alarm)
    workload = WORKLOADS[args.workload]
    scenario = scenario_for(workload, args.seed, args.smoke)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        cfg = work / "scenario.cfg"
        cfg.write_text(scenario_text(scenario), encoding="utf-8")
        measure = measure_traced if args.trace else measure_untraced
        result = measure(workload, scenario, cfg, args.seed, args.seconds, work, budget)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    except Timeout:
        print(f"perfbench: time budget of {HARD_LIMIT_S:.0f} s ran out during set-up", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = environment()
    correct = result["failed"] == 0 and not result["failures"]
    record = {"args": vars(args), "env": env, "scenario": scenario, "correct": correct, **result}
    tag = f"{args.workload}-s{args.seed}-t{args.trace}{'-smoke' if args.smoke else ''}"
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"perfbench {tag}: {args.seconds:g} s, {result['attempted']} invocations")
    print("env " + json.dumps(env))
    print("ledger " + json.dumps(result["ledger"]))
    for message in result["failures"]:
        print(f"FAILED {message}")
    for name, (value, unit, detail) in result["metrics"].items():
        print(f"{name:32s} {value:>16.6g} {unit:8s} {detail}")
    print(f"{'failed_frac':32s} {result['failed'] / max(result['attempted'], 1):>16.6g} {'fraction':8s} "
          f"{result['failed']} of {result['attempted']} invocations")
    print(json.dumps({
        "correct": correct,
        "attempted": max(result["attempted"], 1),
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in result["metrics"].items() if name not in PRINTED_ONLY},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
