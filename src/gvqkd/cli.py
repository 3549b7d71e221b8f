"""Command-line front end: transmit, fringe-scan, attack-demo.

Every subcommand reads one scenario file (--config, defaults apply when
omitted), writes its outputs into --out, and is byte-for-byte reproducible
for a fixed seed. Each subcommand is one handler that writes its files,
prints its stdout and returns the exit code; transmit and attack-demo run
every session through _session, and only this module knows the JSON outputs'
keys. Exit codes: 0 success, 2 configuration or usage error (also an
attack-demo session with no sends or no receives: its transcript.csv is
written, no verdict.json; and a fringe-scan source whose fit finds a
non-positive mean rate: its fringe CSV is written, no fit JSON), 3 an alarm
was raised and --fail-on-alarm was given. An output file that exists is
unlinked and written anew, never written through.
"""

import argparse
import gc
import json
import os
import pickle
import signal
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np

from gvqkd.adversary import KINDS, NO_ATTACK, eve_information
from gvqkd.analysis import Decision, FringeFit, detect_eavesdropping, fit_fringe, fringe_scan, write_fringe_csv
from gvqkd.config import ConfigError, ExperimentConfig, load_config
from gvqkd.optics import canonical_phase
from gvqkd.protocol import SiftResult, run_session, sift_transcript, write_transcript_csv
from gvqkd.streams import stream

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ALARM = 3


def _fresh(path: Path) -> Path:
    """path, with whatever was there unlinked: truncating an existing file costs a disk flush on ext4."""
    path.unlink(missing_ok=True)
    return path


def _write_json(path: Path, payload: dict) -> None:
    with open(_fresh(path), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def fit_report(fit_d0: FringeFit, fit_d1: FringeFit) -> dict:
    """fringe_fit_s{bit}.json's keys; phase_offset_rad is the D0 fringe's offset."""
    difference = canonical_phase(fit_d1.phase_offset_rad - fit_d0.phase_offset_rad)
    return {
        "visibility_d0": fit_d0.visibility,
        "visibility_d1": fit_d1.visibility,
        "phase_offset_rad": fit_d0.phase_offset_rad,
        "phase_offset_d1_rad": fit_d1.phase_offset_rad,
        "phase_difference_rad": difference,
        "mean_rate_d0": fit_d0.mean_rate,
        "mean_rate_d1": fit_d1.mean_rate,
        "residual_rms_d0": fit_d0.residual_rms,
        "residual_rms_d1": fit_d1.residual_rms,
    }


def _session(session, strategy, run_index, source_bit, path):
    """Run one session, sift it and write its transcript CSV; returns (transcript, sift)."""
    transcript = run_session(session, strategy, run_index, source_bit)
    match, sift = sift_transcript(transcript, session, run_index)
    write_transcript_csv(_fresh(path), transcript, match, sift)
    return transcript, sift


def _forked(call, *args):
    """Run call(*args) in a child that never prints; returns its pid and a pipe pickling the result or ending short."""
    read_fd, write_fd = os.pipe()
    sys.stdout.flush()  # the child leaves through os._exit, and must not inherit unwritten output
    if (pid := os.fork()) == 0:
        try:
            with open(write_fd, "wb") as pipe:
                pickle.dump(call(*args), pipe)
        finally:
            os._exit(0)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def run_transmit(experiment: ExperimentConfig, args: argparse.Namespace, out_dir: Path) -> int:
    """Run the configured clean sessions in min(args.cpus, runs) processes; one transcript CSV each plus a summary."""

    def sifts_of(block: range) -> list[SiftResult]:
        session, bit = experiment.session, experiment.source_bit
        return [_session(session, NO_ATTACK, i, bit, out_dir / f"transcript_run{i:03d}.csv")[1] for i in block]

    runs, k = experiment.runs, min(args.cpus, experiment.runs)
    first, *rest = (range(runs * j // k, runs * (j + 1) // k) for j in range(k))
    children = []
    try:
        children.extend((block, *_forked(sifts_of, block)) for block in rest)  # appended one at a time: all get reaped
        sifts = sifts_of(first)
        for block, _, pipe in children:  # in run order, so the first failing run is the one raised
            try:
                sifts += pickle.load(pipe)
            except (EOFError, pickle.UnpicklingError):  # the child raised or died: its runs give the same bytes here
                sifts += sifts_of(block)
    finally:
        for _, pid, pipe in children:  # a child whose sifts were read has only os._exit left
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    counts = (sum(sift.anomalies for sift in sifts), sum(sift.errors for sift in sifts))
    pooled = SiftResult(*counts, np.concatenate([sift.disclosed_mask for sift in sifts]))
    qbers = [s.qber for s in sifts if s.qber is not None]
    summary = {
        "runs": experiment.runs,
        "source_bit": "random" if experiment.source_bit is None else experiment.source_bit,
        "qber_mean": float(np.mean(qbers)) if qbers else None,
        "qber_std": float(np.std(qbers, ddof=1)) if len(qbers) > 1 else None,
        "qber_sigma_mean": float(np.mean([s.qber_sigma for s in sifts if s.qber is not None])) if qbers else None,
        "anomaly_fraction": pooled.anomaly_fraction,
        "matched_total": pooled.matched,
        "anomaly_total": pooled.anomalies,
        "key_bits_total": pooled.key_bits,
    }
    _write_json(out_dir / "summary.json", summary)
    qber = summary["qber_mean"]
    print(
        f"transmit: {experiment.runs} runs, "
        f"mean QBER {qber if qber is None else format(qber, '.4f')}, "
        f"anomaly fraction {summary['anomaly_fraction']}"
    )
    return EXIT_OK


def run_fringe_scan(experiment: ExperimentConfig, args: argparse.Namespace, out_dir: Path) -> int:
    """Scan the recombiner path-length difference; CSV plus fit report per active source."""
    session = experiment.session
    source_bits = (0, 1) if experiment.source_bit is None else (experiment.source_bit,)
    for source_bit in source_bits:
        rng = stream(session.seed, "fringe", run_index=source_bit)
        delta_l_nm, counts = fringe_scan(
            session, source_bit, (0.0, experiment.scan_span_nm), experiment.scan_steps, experiment.shots_per_step, rng
        )
        write_fringe_csv(_fresh(out_dir / f"fringe_s{source_bit}.csv"), delta_l_nm, counts)
        try:
            fits = fit_fringe(delta_l_nm, counts, session.wavelength_nm)
        except ValueError as exc:  # the scan itself passed the loader: only the counts can fail the fit
            hint = "raise shots_per_step, or spread the scan's phases"
            raise ConfigError(f"fringe-scan: source s{source_bit}: {exc} ({hint})") from None
        report = fit_report(*fits)
        _write_json(out_dir / f"fringe_fit_s{source_bit}.json", report)
        print(
            f"fringe s{source_bit}: V_D0 {report['visibility_d0']:.3f}, "
            f"V_D1 {report['visibility_d1']:.3f}, "
            f"phase offset {report['phase_offset_rad']:.3f} rad"
        )
    return EXIT_OK


def run_attack_demo(experiment: ExperimentConfig, args: argparse.Namespace, out_dir: Path) -> int:
    """One session under an attack, then both security tests and Eve's information."""
    strategy = replace(experiment.attack, kind=args.attack)
    transcript, sift = _session(experiment.session, strategy, 0, experiment.source_bit, out_dir / "transcript.csv")
    if transcript.t_s.size == 0 or transcript.t_r.size == 0:
        raise ConfigError(
            "attack-demo: no receives or no sends in the session, so no verdict (is pair_rate or an efficiency 0?)"
        )
    verdict = detect_eavesdropping(sift, experiment.resolved_anomaly_threshold(), experiment.qber_threshold)
    info = eve_information(transcript.eve_guess, transcript.bit)
    report = {
        "qber": sift.qber,
        "qber_sigma": sift.qber_sigma,
        "anomaly_fraction": verdict.anomaly_fraction,
        "decision": verdict.decision.value,
        "strategy": args.attack,
        "eve_information_bits": info,
        "matched": sift.matched,
        "anomalies": sift.anomalies,
        "key_bits": sift.key_bits,
    }
    _write_json(out_dir / "verdict.json", report)
    print(
        f"attack-demo [{args.attack}]: decision {report['decision']}, "
        f"QBER {report['qber']}, anomaly fraction {report['anomaly_fraction']:.4f}, "
        f"Eve information {info:.4f} bits"
    )
    return EXIT_ALARM if args.fail_on_alarm and verdict.decision is not Decision.CLEAN else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gvqkd", description="Discrete-event simulator for an orthogonal-state QKD link"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name: str, run, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None, help="scenario file (flat key = value)")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
        p.set_defaults(run=run)
        return p

    add_command("transmit", run_transmit, "run clean key-distribution sessions")
    add_command("fringe-scan", run_fringe_scan, "sweep the path-length difference and fit fringes")
    p_attack = add_command("attack-demo", run_attack_demo, "run one session under an eavesdropping strategy")
    p_attack.add_argument("--attack", required=True, choices=KINDS)
    p_attack.add_argument(
        "--fail-on-alarm", action="store_true", help="exit with code 3 if either security test raises an alarm"
    )
    return parser


def main(argv=None, cpus: int = 1) -> int:
    args = build_parser().parse_args(argv, argparse.Namespace(cpus=cpus))
    try:
        experiment = load_config(args.config)
        if args.seed is not None:
            experiment = experiment.with_seed(args.seed)
        if not args.out:  # Path("") is the current directory
            raise ConfigError("--out: must name a directory, not an empty path")
        out_dir = Path(args.out)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"--out: cannot create directory {args.out}: {exc.strerror}") from None
        return args.run(experiment, args, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entry() -> None:
    # 3.12+ warns of forking beside threads: OpenBLAS stops its pool at a fork, and the children call no BLAS
    warnings.filterwarnings("ignore", r"This process \(pid=\d+\) is multi-threaded", DeprecationWarning)
    code = main(cpus=len(os.sched_getaffinity(0)) if hasattr(os, "fork") and hasattr(os, "sched_getaffinity") else 1)
    gc.freeze()  # so the interpreter's shutdown collections skip every object that importing numpy and gvqkd left
    sys.exit(code)


if __name__ == "__main__":
    entry()
