"""Workload scenarios of the gvqkd benchmark and the checks on their outputs.

A workload is a scenario file the benchmark writes itself plus the CLI
invocations that make up one round on it. A round's outputs are checked
against oracles built from the scenario alone: exact identities where the
physics fixes a count, and Poisson or binomial bounds elsewhere, Z standard
deviations wide plus Z**2 counts of slack for small means, so a correct
program fails a check with negligible probability at any seed and size.
"""

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

Z = 6.0

# the S0 characterization point of the paper: per-detector visibilities
# 0.89 / 0.82 (session visibility 0.855) and 300 ps jitters
S0_LINK = {"source_bit": 0, "visibility_d0": 0.89, "visibility_d1": 0.82, "jitter": 300}

ATTACKS = ("none", "which-path", "store-forward")


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: scenario keys, the CLI commands of a round, and a smoke-size override."""

    name: str
    scenario: dict
    commands: tuple
    smoke: dict


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "transmit-s0",
            {**S0_LINK, "pair_rate": 1000, "duration": 5.0, "runs": 60},
            (("transmit",),),
            {"duration": 0.1, "runs": 3},
        ),
        Workload(
            "attack-sweep",
            {"visibility": 1.0, "jitter": 0, "pair_rate": 10000, "duration": 5.0, "extra_delay": 500},
            tuple(("attack-demo", "--attack", attack) for attack in ATTACKS),
            {"duration": 0.03},
        ),
        Workload(
            "dense-lossy",
            {
                **S0_LINK,
                "pair_rate": 100000,
                "duration": 4.0,
                "heralding_efficiency": 0.5,
                "detector_efficiency": 0.6,
                "dark_rate": 1000,
                "runs": 1,
            },
            (("transmit",),),
            {"duration": 0.002},
        ),
    )
}


def scenario_for(workload: Workload, seed: int, smoke: bool) -> dict:
    scenario = {"seed": seed, **workload.scenario}
    if smoke:
        scenario.update(workload.smoke)
    return scenario


def scenario_text(scenario: dict) -> str:
    return "".join(f"{key} = {value}\n" for key, value in scenario.items())


@dataclass(frozen=True)
class Expected:
    """Per-session expectations derived from the scenario keys and the documented defaults."""

    sessions: int
    sent: float
    emitted: float
    clicks: float
    darks: float
    p_false: float
    p_error: float
    lossless: bool


def expected(scenario: dict, command: str) -> Expected:
    get = scenario.get
    if "visibility" in scenario:
        visibility = scenario["visibility"]
    else:
        visibility = (get("visibility_d0", 1.0) + get("visibility_d1", 1.0)) / 2.0
    jitter = get("jitter", 300.0)
    eta_h = get("heralding_efficiency", 1.0)
    eta_d = get("detector_efficiency", 1.0)
    emitted = get("pair_rate", 1000.0) * get("duration", 5.0)
    dark_rate = get("dark_rate", 0.0)
    return Expected(
        sessions=get("runs", 60) if command == "transmit" else 1,
        emitted=emitted,
        sent=emitted * eta_h,
        clicks=emitted * eta_h * eta_d,
        darks=2.0 * dark_rate * get("duration", 5.0),
        # the default accept window is 3 combined sigmas: a two-sided 3-sigma tail
        p_false=math.erfc(3.0 / math.sqrt(2.0)) if jitter > 0 else 0.0,
        p_error=(1.0 - visibility) / 2.0,
        lossless=eta_d == 1.0 and dark_rate == 0.0,
    )


def poisson_ok(count: int, mean: float) -> bool:
    return abs(count - mean) <= Z * math.sqrt(mean) + (Z * Z if mean > 0 else 0.0)


def binomial_ok(count: int, n: int, p: float) -> bool:
    slack = Z * Z if 0.0 < p < 1.0 else 0.0
    return abs(count - n * p) <= Z * math.sqrt(n * p * (1.0 - p)) + slack


def digest(out_dir: Path) -> str:
    """sha256 over every file name and its bytes, in sorted order."""
    h = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        h.update(path.relative_to(out_dir).as_posix().encode() + b"\0")
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
    return h.hexdigest()


LEDGER_KEYS = ("sent", "receives", "matched", "anomalies", "disclosed", "errors", "key_bits", "rows", "bytes")


def _read_counts(path: Path, read_transcript_csv) -> dict:
    sends, matches, disclosed, errors, anomalies = read_transcript_csv(path)
    return {
        "sent": len(sends),
        "receives": len(matches) + len(anomalies),
        "matched": len(matches),
        "anomalies": len(anomalies),
        "disclosed": len(disclosed),
        "errors": len(errors),
        "key_bits": len(matches) - len(disclosed),
        "rows": len(sends) + len(anomalies),
        "bytes": path.stat().st_size,
    }


def add_ledgers(ledgers: list[dict]) -> dict:
    return {key: sum(ledger[key] for ledger in ledgers) for key in LEDGER_KEYS}


class Checker:
    """Collects failed checks as messages."""

    def __init__(self):
        self.failures: list[str] = []

    def need(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)


def _check_ledger_oracles(c: Checker, ledger: dict, exp: Expected) -> None:
    n = exp.sessions
    c.need(poisson_ok(ledger["sent"], n * exp.sent), f"sent {ledger['sent']} vs Poisson({n * exp.sent:g})")
    if exp.lossless:
        c.need(ledger["receives"] == ledger["sent"], "lossless link: receives != sent")
    else:
        mean = n * (exp.clicks + exp.darks)
        c.need(poisson_ok(ledger["receives"], mean), f"receives {ledger['receives']} vs Poisson({mean:g})")


def check_transmit(out_dir: Path, scenario: dict, read_transcript_csv) -> tuple[dict, list[str]]:
    """Check a transmit output directory; returns (ledger, failures)."""
    c = Checker()
    exp = expected(scenario, "transmit")
    summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    paths = sorted(out_dir.glob("transcript_run*.csv"))
    c.need(len(paths) == exp.sessions == summary["runs"], f"{len(paths)} transcripts for {exp.sessions} runs")
    runs = [_read_counts(p, read_transcript_csv) for p in paths]
    ledger = add_ledgers(runs)

    c.need(summary["matched_total"] == ledger["matched"], "summary matched_total != transcripts")
    c.need(summary["anomaly_total"] == ledger["anomalies"], "summary anomaly_total != transcripts")
    c.need(summary["key_bits_total"] == ledger["key_bits"], "summary key_bits_total != transcripts")
    for index, run in enumerate(runs):
        c.need(run["disclosed"] == int(round(run["matched"] * 0.5)), f"run {index}: disclosed != half of matched")
    fraction = ledger["anomalies"] / ledger["receives"] if ledger["receives"] else None
    c.need(summary["anomaly_fraction"] == fraction, "summary anomaly_fraction != anomalies / receives")

    qbers = [run["errors"] / run["disclosed"] for run in runs if run["disclosed"]]
    qber_mean = summary["qber_mean"]
    c.need(
        qber_mean is not None and math.isclose(qber_mean, sum(qbers) / len(qbers), rel_tol=1e-9, abs_tol=1e-15),
        "summary qber_mean != mean of transcript QBERs",
    )
    if qbers and qber_mean is not None:
        p = exp.p_error
        variance = sum(p * (1.0 - p) / run["disclosed"] for run in runs if run["disclosed"]) / len(qbers) ** 2
        slack = Z * Z / ledger["disclosed"] if 0.0 < p < 1.0 else 0.0
        c.need(
            abs(qber_mean - p) <= Z * math.sqrt(variance) + slack,
            f"qber_mean {qber_mean:.5f} vs (1 - V) / 2 = {p:.5f}",
        )

    _check_ledger_oracles(c, ledger, exp)
    mean = exp.sessions * (exp.clicks * exp.p_false + exp.darks)
    c.need(poisson_ok(ledger["anomalies"], mean), f"anomalies {ledger['anomalies']} vs Poisson({mean:g})")
    c.need(binomial_ok(ledger["errors"], ledger["disclosed"], exp.p_error), f"errors {ledger['errors']} vs Binomial")
    return ledger, c.failures


# attack -> (decision, error rate on disclosed pairs, Eve's information in bits)
ATTACK_ORACLES = {
    "none": ("Clean", 0.0, 0.0),
    "which-path": ("QberAlarm", 0.5, 0.0),
    "store-forward": ("TimingAlarm", None, 1.0),
}


def check_attack(out_dir: Path, scenario: dict, attack: str, read_transcript_csv) -> tuple[dict, list[str]]:
    """Check an attack-demo output directory on the ideal link; returns (ledger, failures)."""
    c = Checker()
    exp = expected(scenario, "attack-demo")
    verdict = json.loads((out_dir / "verdict.json").read_text(encoding="utf-8"))
    ledger = _read_counts(out_dir / "transcript.csv", read_transcript_csv)

    c.need(verdict["strategy"] == attack, "verdict strategy != attack")
    c.need(verdict["matched"] == ledger["matched"], "verdict matched != transcript")
    c.need(verdict["anomalies"] == ledger["anomalies"], "verdict anomalies != transcript")
    c.need(verdict["key_bits"] == ledger["key_bits"], "verdict key_bits != transcript")
    c.need(ledger["disclosed"] == int(round(ledger["matched"] * 0.5)), "disclosed != half of matched")
    c.need(
        ledger["receives"] > 0 and verdict["anomaly_fraction"] == ledger["anomalies"] / ledger["receives"],
        "verdict anomaly_fraction != anomalies / receives",
    )
    if ledger["disclosed"]:
        c.need(
            verdict["qber"] is not None and math.isclose(verdict["qber"], ledger["errors"] / ledger["disclosed"]),
            "verdict qber != errors / disclosed",
        )
    else:
        c.need(verdict["qber"] is None, "verdict qber defined with nothing disclosed")

    decision, p_error, information = ATTACK_ORACLES[attack]
    c.need(verdict["decision"] == decision, f"decision {verdict['decision']} != {decision}")
    # 2 n ln2 * I is chi-square(1) for independent bits, so I < Z**2 / (2 n ln2) w.h.p.
    slack = Z * Z / (2.0 * max(ledger["sent"], 1) * math.log(2.0))
    info = verdict["eve_information_bits"]
    if attack == "none":
        c.need(info == 0.0, f"Eve information {info} without an attack")
    else:
        c.need(abs(info - information) <= slack, f"Eve information {info:.6f} vs {information} bit")

    _check_ledger_oracles(c, ledger, exp)
    if attack == "store-forward":
        c.need(ledger["matched"] == 0 and ledger["anomalies"] == ledger["receives"], "store-forward: a receive matched")
    else:
        c.need(ledger["anomalies"] == 0, "jitter-free link: anomalies without a delay")
        c.need(binomial_ok(ledger["errors"], ledger["disclosed"], p_error), f"errors {ledger['errors']} vs Binomial")
    return ledger, c.failures


def check_outputs(out_dir: Path, scenario: dict, command: tuple, read_transcript_csv) -> tuple[dict, list[str]]:
    if command[0] == "transmit":
        return check_transmit(out_dir, scenario, read_transcript_csv)
    return check_attack(out_dir, scenario, command[2], read_transcript_csv)


def check_traced_counts(counts: dict, ledger: dict, scenario: dict, commands: tuple) -> list[str]:
    """Check the counts only the traced run observes (emissions, heralds, dark counts)."""
    c = Checker()
    emitted = darks = 0.0
    for command in commands:
        exp = expected(scenario, command[0])
        emitted += exp.sessions * exp.emitted
        darks += exp.sessions * exp.darks
    c.need(counts["heralded"] == ledger["sent"], "heralded photons != send rows")
    c.need(poisson_ok(counts["emitted"], emitted), f"emitted {counts['emitted']} vs Poisson({emitted:g})")
    c.need(poisson_ok(counts["darks"], darks), f"dark counts {counts['darks']} vs Poisson({darks:g})")
    return c.failures
