"""Command-line front end: transmit, fringe-scan, attack-demo.

Every subcommand reads one scenario file (--config, defaults apply when
omitted), writes its outputs into --out, and is byte-for-byte reproducible
for a fixed seed. Exit codes: 0 success, 2 configuration or usage error,
3 an alarm was raised and --fail-on-alarm was given.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from gvqkd.adversary import NO_ATTACK, AttackStrategy, eve_information
from gvqkd.analysis import (
    detect_eavesdropping,
    fit_fringe,
    fit_report,
    fringe_scan,
    verdict_report,
    write_fringe_csv,
)
from gvqkd.config import ConfigError, ExperimentConfig, load_config
from gvqkd.protocol import run_session, sift_transcript, write_transcript_csv
from gvqkd.streams import SessionStreams, stream

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ALARM = 3

ATTACK_CHOICES = ("none", "which-path", "store-forward")


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def run_transmit(experiment: ExperimentConfig, out_dir: Path) -> dict:
    """Run the configured number of clean sessions; one transcript CSV each plus a summary."""
    session = experiment.session
    qbers: list[float] = []
    qber_sigmas: list[float] = []
    matched_total = 0
    anomaly_total = 0
    receive_total = 0
    key_bits_total = 0
    for run_index in range(experiment.runs):
        streams = SessionStreams(session.seed, run_index)
        transcript = run_session(
            session, NO_ATTACK, streams, run_index=run_index, source_bit=experiment.source_bit
        )
        match, sift = sift_transcript(transcript, session, streams.sift)
        write_transcript_csv(out_dir / f"transcript_run{run_index:03d}.csv", transcript, match, sift)
        if sift.qber is not None:
            qbers.append(sift.qber)
            qber_sigmas.append(sift.qber_sigma)
        matched_total += sift.matched
        anomaly_total += sift.anomalies
        receive_total += transcript.t_r.size
        key_bits_total += len(sift.key_bits_alice)

    summary = {
        "runs": experiment.runs,
        "source_bit": "random" if experiment.source_bit is None else experiment.source_bit,
        "qber_mean": float(np.mean(qbers)) if qbers else None,
        "qber_std": float(np.std(qbers, ddof=1)) if len(qbers) > 1 else None,
        "qber_sigma_mean": float(np.mean(qber_sigmas)) if qber_sigmas else None,
        "anomaly_fraction": (anomaly_total / receive_total) if receive_total else None,
        "matched_total": matched_total,
        "anomaly_total": anomaly_total,
        "key_bits_total": key_bits_total,
    }
    _write_json(out_dir / "summary.json", summary)
    return summary


def run_fringe_scan(experiment: ExperimentConfig, out_dir: Path) -> dict:
    """Scan the recombiner path-length difference; CSV plus fit report per active source."""
    session = experiment.session
    source_bits = (0, 1) if experiment.source_bit is None else (experiment.source_bit,)
    reports: dict[str, dict] = {}
    for source_bit in source_bits:
        rng = stream(session.seed, "fringe", run_index=source_bit)
        points = fringe_scan(
            session,
            source_bit,
            (0.0, experiment.scan_span_nm),
            experiment.scan_steps,
            experiment.shots_per_step,
            rng,
        )
        write_fringe_csv(out_dir / f"fringe_s{source_bit}.csv", points)
        fit_d0, fit_d1 = fit_fringe(points, session.wavelength_nm)
        report = fit_report(fit_d0, fit_d1)
        _write_json(out_dir / f"fringe_fit_s{source_bit}.json", report)
        reports[f"s{source_bit}"] = report
    return reports


def run_attack_demo(experiment: ExperimentConfig, attack_name: str, out_dir: Path) -> dict:
    """One session under an attack, then both security tests and Eve's information."""
    session = experiment.session
    strategy = AttackStrategy(kind=attack_name, extra_delay_ps=experiment.extra_delay_ps)
    streams = SessionStreams(session.seed, 0)
    transcript = run_session(session, strategy, streams, source_bit=experiment.source_bit)
    match, sift = sift_transcript(transcript, session, streams.sift)
    write_transcript_csv(out_dir / "transcript.csv", transcript, match, sift)
    verdict = detect_eavesdropping(
        sift, experiment.resolved_anomaly_threshold(), experiment.qber_threshold
    )
    info = eve_information(transcript.eve_guess, transcript.bit)
    report = verdict_report(verdict)
    report.update(
        {
            "strategy": attack_name,
            "eve_information_bits": info,
            "matched": sift.matched,
            "anomalies": sift.anomalies,
            "key_bits": len(sift.key_bits_alice),
        }
    )
    _write_json(out_dir / "verdict.json", report)
    return report


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gvqkd",
        description="Discrete-event simulator for an orthogonal-state QKD link",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", default=None, help="scenario file (flat key = value)")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override the scenario seed")

    p_transmit = sub.add_parser("transmit", help="run clean key-distribution sessions")
    add_common(p_transmit)

    p_fringe = sub.add_parser("fringe-scan", help="sweep the path-length difference and fit fringes")
    add_common(p_fringe)

    p_attack = sub.add_parser("attack-demo", help="run one session under an eavesdropping strategy")
    add_common(p_attack)
    p_attack.add_argument("--attack", required=True, choices=ATTACK_CHOICES)
    p_attack.add_argument(
        "--fail-on-alarm",
        action="store_true",
        help="exit with code 3 if either security test raises an alarm",
    )

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        experiment = load_config(args.config)
        if args.seed is not None:
            experiment = experiment.with_seed(args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    if args.command == "transmit":
        summary = run_transmit(experiment, out_dir)
        qber = summary["qber_mean"]
        print(
            f"transmit: {summary['runs']} runs, "
            f"mean QBER {qber if qber is None else format(qber, '.4f')}, "
            f"anomaly fraction {summary['anomaly_fraction']}"
        )
        return EXIT_OK

    if args.command == "fringe-scan":
        reports = run_fringe_scan(experiment, out_dir)
        for label, report in reports.items():
            print(
                f"fringe {label}: V_D0 {report['visibility_d0']:.3f}, "
                f"V_D1 {report['visibility_d1']:.3f}, "
                f"phase offset {report['phase_offset_rad']:.3f} rad"
            )
        return EXIT_OK

    report = run_attack_demo(experiment, args.attack, out_dir)
    print(
        f"attack-demo [{args.attack}]: decision {report['decision']}, "
        f"QBER {report['qber']}, anomaly fraction {report['anomaly_fraction']:.4f}, "
        f"Eve information {report['eve_information_bits']:.4f} bits"
    )
    if args.fail_on_alarm and report["decision"] != "Clean":
        return EXIT_ALARM
    return EXIT_OK


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
