"""Scenario-file parsing, validation and the three CLI subcommands."""

import ast
import csv
import gc
import hashlib
import importlib
import io
import json
import math
import os
import platform
import re
import subprocess
import sys
import tempfile
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gvqkd.adversary import KINDS
from gvqkd.analysis import Decision, FringeFit, read_fringe_csv
from gvqkd.cli import EXIT_ALARM, EXIT_CONFIG, EXIT_OK, fit_report, main
from gvqkd.config import KEYS, ExperimentConfig, build_experiment, load_config, parse_flat
from gvqkd.devices import RANGE_RULES, STAMP_HALF_RANGE_PS, DetectorParams, SourceParams
from gvqkd.protocol import SessionConfig, read_transcript_csv

from helpers import BAD_VALUES, CONFIG_CLASSES, RANGED_FIELDS

REPO_DIR = Path(__file__).resolve().parent.parent
CONFIGS_DIR = REPO_DIR / "configs"

# each field by its name
FIELD_NAMED = {f.name: f for cls in CONFIG_CLASSES for f in fields(cls)}

FAST_SCENARIO = """\
# small, jitter-free link for quick end-to-end checks
seed = 5
jitter = 0
pair_rate = 400
duration = 1
runs = 3
scan_steps = 9
shots_per_step = 200
"""


@pytest.fixture
def fast_config(tmp_path):
    path = tmp_path / "fast.cfg"
    path.write_text(FAST_SCENARIO, encoding="utf-8")
    return path


def tree_digest(root: Path) -> str:
    """sha256 over every file name and its bytes, in name order."""
    h = hashlib.sha256()
    for path in sorted(root.iterdir()):
        if path.is_file():
            h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def key_fields(key: str) -> list:
    """The fields a key sets: its one field, or a shared key's pair."""
    names = KEYS[key]
    return [FIELD_NAMED[name] for name in ([names] if isinstance(names, str) else names)]


def key_rule(key: str) -> str | None:
    """The range rule of the field a key sets; a shared key's is its pair's common rule (None: no single-field rule)."""
    (rule,) = {f.metadata.get("range") for f in key_fields(key)}
    return rule


INT_KEYS = [key for key in KEYS if key_fields(key)[0].type is int]


class TestDefaults:
    def test_all_defaults_scenario(self):
        experiment = load_config(None)
        session = experiment.session
        assert session.tau_ps == 2000.0
        assert session.travel_time_ps == 1000.0
        assert session.source.herald_jitter_sigma_ps == 300.0
        assert session.signal_detector.jitter_sigma_ps == 300.0
        assert session.accept_window_ps == pytest.approx(3.0 * math.hypot(300.0, 300.0))
        assert session.visibility == 1.0
        assert session.visibility_d0 == 1.0
        assert session.visibility_d1 == 1.0
        assert session.session_duration_s == 5.0
        assert session.disclosure_fraction == 0.5
        assert session.wavelength_nm == 812.0
        assert session.expected_offset_ps() == 3000.0
        assert experiment.runs == 60
        assert experiment.source_bit is None
        assert experiment.scan_span_nm == 1624.0
        assert experiment.scan_steps == 41
        assert experiment.shots_per_step == 5000
        assert experiment.qber_threshold == 0.11
        assert experiment.resolved_anomaly_threshold() == pytest.approx(3.0 * 0.0026998, abs=1e-5)

    def test_comments_and_blank_lines_ignored(self):
        values = parse_flat("# header\n\ntau = 2500  # trailing\n")
        assert values == {"tau": "2500"}

    def test_jitter_fans_out_to_both_devices(self):
        experiment = build_experiment({"jitter": "150"})
        assert experiment.session.source.herald_jitter_sigma_ps == 150.0
        assert experiment.session.signal_detector.jitter_sigma_ps == 150.0

    def test_individual_jitters_override_shared(self):
        experiment = build_experiment({"jitter": "150", "signal_jitter": "50"})
        assert experiment.session.source.herald_jitter_sigma_ps == 150.0
        assert experiment.session.signal_detector.jitter_sigma_ps == 50.0

    def test_with_seed_replaces_only_seed(self):
        experiment = load_config(None).with_seed(99)
        assert experiment.session.seed == 99
        assert experiment.session.tau_ps == 2000.0
        # a shipped scenario re-seeded equals the same file with that seed, derived values included
        for path in sorted(CONFIGS_DIR.glob("*.cfg")):
            values = parse_flat(path.read_text(encoding="utf-8"))
            reseeded = load_config(path).with_seed(99)
            fresh = build_experiment({**values, "seed": "99"})
            assert reseeded == fresh, path.name
            assert reseeded.session.accept_window_ps == fresh.session.accept_window_ps, path.name
            assert reseeded.session.visibility == fresh.session.visibility, path.name


def bad_value_cases(key: str) -> dict[str, str]:
    """value -> message: the key's BAD_VALUES entry, and the values its type cannot parse or take."""
    bad, rule = BAD_VALUES[key]
    cases = {bad: f"{key}: {rule}"}
    if key in INT_KEYS:
        cases["2.5"] = f"{key}: not an integer: '2.5'"
    elif key == "source_bit":
        cases["2"] = f"{key}: {rule}"
    else:
        cases["fast"] = f"{key}: not a number: 'fast'"
        cases.update({value: f"{key}: must be finite" for value in ("nan", "inf", "-inf")})
    return cases


def rejected(scenario: str | bytes | None, message: str, *argv: str, prefix=False, leaves=None, id: str):
    """One row of REJECTED.

    scenario: the file's text, its raw bytes, None for a --config naming no file, or A_DIRECTORY for one naming a
    directory. message: the text after "config error: ", with {cfg} for the file's path; with prefix, only its
    start. argv: the subcommand and its options (default transmit). leaves: the files a rejection at run time leaves
    in --out (None: no --out).
    """
    return pytest.param(scenario, argv or ("transmit",), message, prefix, leaves, id=id)


A_DIRECTORY = object()  # a scenario that is a directory, not a file
ATTACK_NONE = ("attack-demo", "--attack", "none")
STORE_FORWARD = ("attack-demo", "--attack", "store-forward")
# the derived accept window is the 1 ps floor: jitter-free, and with 3 sigma = 0.42 ps
SUB_PICOSECOND_TAU = FAST_SCENARIO + "travel_time = 0.5\ntau = 0.9\n"
SUB_PICOSECOND_TAUS = {
    "jitter-free": SUB_PICOSECOND_TAU,
    "jitter 0.1": SUB_PICOSECOND_TAU.replace("jitter = 0\n", "jitter = 0.1\n"),
}
UNSCANNED = FAST_SCENARIO.replace("scan_steps = 9\n", "")
FIT_RULE = "scan_span: must give a scan the fit can use at scan_steps = "
SHORT_SCAN = "(fringe fit needs a scan spanning at least one period)"
ILL_CONDITIONED = "(degenerate fringe fit: condition number "
# one photon a step
SPARSE_SCAN_SCENARIO = UNSCANNED.replace("shots_per_step = 200", "scan_steps = 4\nscan_span = 1624\nshots_per_step = 1")
WIDE_WINDOW = "accept_window: must be <= tau = "
DENSE_SENDS = "pair_rate: must keep 2 * accept_window * send rate <= 0.01, got "
DRAW_RULE = "must keep (pair_rate + 2 * dark_rate) * duration <= 8388608, got "

# Every scenario a command must refuse, each checked end to end through main; a new load rule is one more row.
REJECTED = [
    *(
        rejected(f"{key} = {value}\n", message, *argv, id=f"{key} = {value}, {argv[0]}")
        for key in BAD_VALUES
        for value, message in bad_value_cases(key).items()
        for argv in (("transmit",), ("fringe-scan",), ATTACK_NONE)
    ),
    # a shared key is checked under its own name, also when each of its fields is given
    rejected("jitter = -1\nherald_jitter = 100\nsignal_jitter = 100\n", "jitter: must be >= 0", id="unused jitter"),
    rejected(
        "visibility = 1.5\nvisibility_d0 = 0.9\nvisibility_d1 = 0.9\n",
        "visibility: must be in [0, 1]",
        id="unused visibility",
    ),
    # the first invalid key in construction order is the one named
    rejected("dark_rate = -1\npair_rate = -1\n", "pair_rate:", prefix=True, id="source before detector"),
    rejected("tau = 0\ndark_rate = -1\n", "dark_rate:", prefix=True, id="detector before session"),
    rejected("runs = 0\ndark_rate = -1\n", "dark_rate:", prefix=True, id="detector before experiment"),
    rejected("scan_steps = 1\npair_rate = fast\n", "pair_rate:", prefix=True, id="parsing before ranges"),
    rejected("tau = 1000\nduration = 0\n", "duration:", prefix=True, id="session ranges before tau > T"),
    rejected("accept_window = 5000\nruns = 0\n", "runs:", prefix=True, id="experiment ranges before w <= tau"),
    # a non-finite value is a range error, in order
    rejected("pair_rate = -1\ntau = nan\n", "pair_rate:", prefix=True, id="non-finite value in order"),
    rejected("extra_delay = 0\naccept_window = 5000\n", "extra_delay:", prefix=True, id="extra_delay before w <= tau"),
    rejected("runs = 0\nextra_delay = 0\n", "extra_delay:", prefix=True, id="attack before experiment"),
    rejected("visibility = 1.5\nruns = 0\n", "visibility: must be in [0, 1]", id="session before runs"),
    # more ends of the ranges that BAD_VALUES tests at one value
    rejected("scan_span = 0\n", "scan_span: must be positive", id="scan_span = 0"),
    rejected("extra_delay = -1\n", "extra_delay: must be in (0, 2**52)", id="extra_delay = -1"),
    rejected("extra_delay = 4503599627370496\n", "extra_delay: must be in (0, 2**52)", id="extra_delay = 2**52"),
    rejected("qber_threshold = 1\n", "qber_threshold: must be in (0, 1)", id="qber_threshold = 1"),
    rejected("anomaly_threshold = 0\n", "anomaly_threshold: must be in (0, 1)", id="anomaly_threshold = 0"),
    # fringe_design alone decides which scans the fit can use, span included
    rejected("scan_span = 811.9\n", f"{FIT_RULE}41 {SHORT_SCAN}", id="short scan"),
    # a file that still sets the retired coherence_window key must not run
    *(
        rejected(FAST_SCENARIO + f"{key} = 10\n", f"unknown config key {key}", id=f"unknown key {key}")
        for key in ("tilt", "coherence_window")
    ),
    rejected("tau = 2000\njust words\n", "line 2: expected 'key = value', got 'just words'", id="malformed line"),
    *(
        rejected(f"tau = 2000\n{line}\n", f"line 2: expected 'key = value', got {line.strip()!r}", id=f"line {line!r}")
        for line in ("seed =", "= 5", " = ")
    ),
    rejected("tau = 2000\ntau = 2500\n", "duplicate config key tau", id="duplicate key"),
    # tau = 500 ps is inside the timing noise at 300 ps jitters; with T below tau, the jitter rule is what rejects it
    rejected("tau = 500\n", "tau: must be > travel time T = 1000.0 ps, got 500.0", id="tau inside the jitter"),
    rejected(
        "tau = 500\ntravel_time = 400\n",
        "tau: must be >= 3*combined jitter = 1272.8 ps, got 500.0",
        id="tau inside the jitter, T below it",
    ),
    # tau <= T breaks the scheme's premise, whatever the jitter
    rejected("jitter = 0\ntau = 1000\n", "tau: must be > travel time T = 1000.0 ps, got 1000.0", id="tau = T"),
    rejected("jitter = 0\ntau = 999\n", "tau: must be > travel time T = 1000.0 ps, got 999.0", id="tau = 999"),
    rejected("jitter = 0\ntravel_time = 2000\n", "tau: must be > travel time T = 2000.0 ps, got 2000.0", id="T = tau"),
    rejected("jitter = 0\ntravel_time = 2500\n", "tau: must be > travel time T = 2500.0 ps, got 2000.0", id="T = 2500"),
    # a store-forward photon is at least tau late; a wider window passes it
    rejected("accept_window = 2000.001\n", f"{WIDE_WINDOW}2000.0 ps, got 2000.001", id="window 2000.001"),
    rejected("accept_window = 5000\njitter = 0\n", f"{WIDE_WINDOW}2000.0 ps, got 5000.0", id="window 5000 jitter-free"),
    rejected("tau = 1500\naccept_window = 1600\n", f"{WIDE_WINDOW}1500.0 ps, got 1600.0", id="window 1600, tau 1500"),
    # the window that let store-forward pass as Clean with Eve at 1 bit
    rejected(
        FAST_SCENARIO + "accept_window = 5000\n",
        f"{WIDE_WINDOW}2000.0 ps, got 5000.0",
        *STORE_FORWARD,
        id="window 5000, store-forward",
    ),
    # the greedy matcher could hand a receive to a neighbouring send (the default window is 3 * sqrt(2) * 300 ps);
    # 0.01 s keeps the sessions small. TestLoadsAtTheEdge loads the sparser neighbour of each.
    rejected("pair_rate = 4e6\nduration = 0.01\n", f"{DENSE_SENDS}0.0102", id="dense sends 4e6"),
    rejected("pair_rate = 8e6\nheralding_efficiency = 0.5\nduration = 0.01\n", f"{DENSE_SENDS}0.0102", id="8e6 at 0.5"),
    rejected("pair_rate = 2.6e6\naccept_window = 2e3\nduration = 0.01\n", f"{DENSE_SENDS}0.0104", id="2.6e6, w = tau"),
    # the derived window is 1.0 ps: the message names tau, not the accept_window nobody set; tau and a given
    # window share one floor, the 1 ps stamp resolution (tau at the floor loads: TestLoadsAtTheEdge)
    *(rejected(text, "tau: must be >= 1", id=f"sub-ps tau, {name}") for name, text in SUB_PICOSECOND_TAUS.items()),
    *(
        rejected(
            text.replace("tau = 0.9\n", "tau = 1\n") + "accept_window = 0.5\n",
            "accept_window: must be >= 1",
            id=f"sub-ps window at tau = 1, {name}",
        )
        for name, text in SUB_PICOSECOND_TAUS.items()
    ),
    rejected(None, "config file not found: {cfg}", id="missing file"),
    rejected(A_DIRECTORY, "cannot read config file {cfg}: Is a directory", id="directory"),
    rejected("# café\nseed = 5\n".encode("latin-1"), "config file {cfg} is not UTF-8: ", prefix=True, id="not UTF-8"),
    rejected("visibility = 2\n", "visibility: must be in [0, 1]", id="visibility = 2"),
    rejected(FAST_SCENARIO, "seed: must be >= 0", "transmit", "--seed", "-1", id="--seed -1"),
    # above 2**53 ps float64 spacing is 2 ps, so a stamp there is not whole-ps exact
    rejected(
        FAST_SCENARIO + "tau = 1e16\n",
        "tau: must keep duration + T + 6*tau below 2**52 ps, got 6.0001e+16 ps",
        id="stamps past 2**52 ps, tau",
    ),
    rejected(
        FAST_SCENARIO + "extra_delay = 1e17\n",
        "extra_delay: must be in (0, 2**52)",
        *STORE_FORWARD,
        id="stamps past 2**52 ps, extra_delay",
    ),
    # a delay that is no number at all stamps nothing
    rejected(FAST_SCENARIO + "extra_delay = nan\n", "extra_delay: must be finite", *STORE_FORWARD, id="delay nan"),
    # at the default jitters sigma = 424.26 ps, and 3 erfc(w / (sigma sqrt 2)) is 1.0016 at w = 410 ps
    *(
        rejected(
            f"duration = 0.1\naccept_window = {window}\n",
            f"accept_window: must keep the derived anomaly threshold below 1, got {got} at {window}.0 ps"
            " (widen it or give anomaly_threshold)",
            *ATTACK_NONE,
            id=f"window {window} too narrow for the derived threshold",
        )
        for window, got in [("1", "2.994"), ("300", "1.439"), ("410", "1.002")]
    ),
    # 15.6e9 emissions asked for 116 GiB, and 1e10 dark counts for 37.3 GiB: both exited 1
    rejected("pair_rate = 3.9e6\nduration = 4000\nruns = 1\n", f"pair_rate: {DRAW_RULE}1.56e+10", id="emissions"),
    rejected("dark_rate = 1e9\nduration = 5\nruns = 1\n", f"dark_rate: {DRAW_RULE}1e+10", id="dark-counts"),
    # one pair a second past 2**23 expected draws (TestLoadsAtTheEdge loads the top)
    rejected("pair_rate = 2097153\nduration = 4\n", f"pair_rate: {DRAW_RULE}8.39e+06", id="one past the draw top"),
    # scans the fit cannot use; counts past int64 failed in numpy (linspace, binomial), and past a float's range in
    # the finiteness test; the loader could not build some grids (2**63 - 1: an IndexError in np.linspace;
    # 10**11: 745 GiB) or reported them under scan_span
    *(
        rejected(
            UNSCANNED.replace("shots_per_step = 200\n", "") + f"{key} = {value}\n",
            f"{key}: must be {key_rule(key)}",
            "fringe-scan",
            id=f"fringe-scan {key} = {label}",
        )
        for key, value, label in [
            ("scan_steps", 3, "3"),
            ("scan_steps", 2, "2"),
            ("scan_steps", 2**63, "2**63"),
            ("scan_steps", 10**30, "10**30"),
            ("scan_steps", 2**63 - 1, "2**63 - 1"),
            ("scan_steps", 10**11, "10**11"),
            ("scan_steps", 2**62, "2**62"),
            ("scan_steps", 2**16 + 1, "2**16 + 1"),
            ("scan_steps", 10**400, "10**400"),
            ("shots_per_step", 2**63, "2**63"),
            ("shots_per_step", 10**400, "10**400"),
        ]
    ),
    *(
        rejected(
            UNSCANNED + lines, FIT_RULE + rule, "fringe-scan", prefix=ILL_CONDITIONED in rule, id=f"fringe-scan {why}"
        )
        for lines, rule, why in [
            ("scan_steps = 5\n", f"5 {ILL_CONDITIONED}", "steps lambda/2 apart: every phase a multiple of pi, rank 2"),
            ("scan_span = 100\n", f"41 {SHORT_SCAN}", "shorter than one wavelength"),
            ("scan_span = 811.9\n", f"41 {SHORT_SCAN}", "811.9"),
            ("wavelength = 1000\nscan_span = 999\n", f"41 {SHORT_SCAN}", "999 at lambda = 1000"),
            ("scan_span = 32480\n", f"41 {ILL_CONDITIONED}", "steps exactly lambda apart"),
            ("scan_span = 1e308\n", "41 (phase must be finite)", "2 pi span / lambda overflows"),
            # rank 3, but condition number 2.1e6: the fit failed on seeds 1-3
            ("scan_steps = 5\nscan_span = 19488.547\n", f"5 {ILL_CONDITIONED}", "rank 3, ill-conditioned"),
        ]
    ),
    # the scan passes the loader; one photon a step leaves a detector's fitted mean rate at 0. At seed 8, s0 fits
    # and then s1's D0 counts nothing.
    *(
        rejected(
            SPARSE_SCAN_SCENARIO,
            f"fringe-scan: source s{source}: degenerate fringe fit: D{detector}'s fitted mean rate is not positive"
            " (raise shots_per_step, or spread the scan's phases)",
            "fringe-scan",
            "--seed",
            str(seed),
            leaves=leaves,
            id=f"seed {seed}, s{source} D{detector}",
        )
        for seed, source, detector, leaves in [
            (2, 0, 1, ["fringe_s0.csv"]),
            (8, 1, 0, ["fringe_fit_s0.json", "fringe_s0.csv", "fringe_s1.csv"]),
        ]
    ),
    # a session with no receives or no sends has no verdict; dark counts give receives but no sends
    *(
        rejected(
            FAST_SCENARIO.replace("pair_rate = 400\n", "") + lines,
            "attack-demo: no receives or no sends in the session, so no verdict (is pair_rate or an efficiency 0?)",
            *ATTACK_NONE,
            leaves=["transcript.csv"],
            id="no verdict, " + lines.strip().replace("\n", "; "),
        )
        for lines in (
            "pair_rate = 0\n",
            "detector_efficiency = 0\n",
            "heralding_efficiency = 0\n",
            "pair_rate = 0\ndark_rate = 100\n",
            "heralding_efficiency = 0\ndark_rate = 100\n",
        )
    ),
]


class TestRejectedScenarios:
    def test_every_key_has_a_bad_value(self):
        assert list(BAD_VALUES) == list(KEYS)

    @pytest.mark.parametrize("scenario, argv, message, prefix, leaves", REJECTED)
    def test_exits_2_with_one_line(self, tmp_path, capsys, scenario, argv, message, prefix, leaves):
        cfg, out_dir = tmp_path / "scenario.cfg", tmp_path / "out"
        if isinstance(scenario, str):
            cfg.write_text(scenario, encoding="utf-8")
        elif isinstance(scenario, bytes):
            cfg.write_bytes(scenario)
        elif scenario is A_DIRECTORY:
            cfg.mkdir()
        assert main([*argv, "--config", str(cfg), "--out", str(out_dir)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        line = "config error: " + message.replace("{cfg}", str(cfg))
        if prefix:
            assert err.startswith(line) and err.endswith("\n") and err.count("\n") == 1, err
        else:
            assert err == line + "\n"
        assert (sorted(p.name for p in out_dir.iterdir()) if out_dir.exists() else None) == leaves


class TestLoadsAtTheEdge:
    def test_tau_just_above_travel_time_loads(self):
        session = build_experiment({"jitter": "0", "tau": repr(math.nextafter(1000.0, math.inf))}).session
        assert session.tau_ps > session.travel_time_ps == 1000.0

    @pytest.mark.parametrize(
        "values",
        [
            {"accept_window": "2000"},
            # tau = 3 sigma exactly: the derived window 3 sigma equals tau
            {"herald_jitter": "300", "signal_jitter": "400", "tau": "1500"},
            # tau at the 1 ps floor, and the derived window is the floor
            *({**parse_flat(text), "tau": "1"} for text in SUB_PICOSECOND_TAUS.values()),
        ],
    )
    def test_accept_window_equal_to_tau_loads(self, values):
        session = build_experiment(values).session
        assert session.accept_window_ps == session.tau_ps

    def test_scan_steps_top_is_inside(self):
        assert build_experiment({"scan_steps": str(2**16)}).scan_steps == 2**16

    def test_window_just_wide_enough_loads(self):
        assert build_experiment({"accept_window": "411"}).resolved_anomaly_threshold() == pytest.approx(0.998, abs=1e-3)
        # a given threshold takes the derived one's place, so the rule does not apply
        assert build_experiment({"accept_window": "1", "anomaly_threshold": "0.5"}).resolved_anomaly_threshold() == 0.5

    @pytest.mark.parametrize(
        "values",
        [
            # the sparser neighbour of each dense-send row of REJECTED; the last is exactly at the bound
            {"pair_rate": "3.9e6", "duration": "0.01"},
            {"pair_rate": "8e6", "heralding_efficiency": "0.45", "duration": "0.01"},
            {"pair_rate": "2.5e6", "accept_window": "2e3", "duration": "0.01"},
            # 2**23 expected draws, emissions or dark counts on the two detectors
            {"pair_rate": "2097152", "duration": "4"},
            {"pair_rate": "0", "dark_rate": "4194304", "duration": "1"},
        ],
    )
    def test_a_session_at_a_size_top_loads(self, values):
        build_experiment(values)

    def test_a_leading_byte_order_mark_is_ignored(self, tmp_path):
        # it read as part of the first key: "unknown config key \ufeffseed"
        plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
        plain.write_text("seed = 7\nruns = 2\n", encoding="utf-8")
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert load_config(marked) == load_config(plain)

    def test_a_pipe_loads(self):
        # what --config <(printf 'seed = 3\n') names; it read as "config file not found: /dev/fd/63"
        read_end, write_end = os.pipe()
        os.write(write_end, b"seed = 3\n")
        os.close(write_end)
        with open(read_end):
            assert load_config(f"/dev/fd/{read_end}") == build_experiment({"seed": "3"})


class TestLibraryConstruction:
    def test_an_integer_past_the_float_range_is_finite(self):
        # math.isfinite cannot take it as a float; the range rule decides
        assert build_experiment({"seed": str(10**400)}).session.seed == 10**400

    def test_defaults_are_the_scenario_defaults(self):
        assert ExperimentConfig(SessionConfig()) == load_config(None)

    def test_declared_rules_are_the_rule_table(self):
        # every wording a field declares or an argument guard spells (a literal check_range rule) has a test, and the
        # table has no unused wording
        guarded = {
            node.args[2].value
            for path in sorted((REPO_DIR / "src" / "gvqkd").glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "check_range"
            and len(node.args) > 2 and isinstance(node.args[2], ast.Constant)
        }
        declared = {f.metadata["range"] for _, f in RANGED_FIELDS}
        assert ">= 2" in guarded - declared  # fringe_scan's n_steps: the scan sees the argument guards
        assert declared | guarded == set(RANGE_RULES)


class TestDetectorPairRule:
    @pytest.mark.parametrize(
        "kwargs, values",
        [
            ({"visibility_d0": 0.89, "visibility_d1": 0.82}, {"visibility_d0": "0.89", "visibility_d1": "0.82"}),
            ({"visibility_d0": 0.7}, {"visibility_d0": "0.7"}),
            ({"visibility_d0": 0.9, "visibility_d1": 0.9}, {"visibility": "0.9"}),
            (
                {"visibility_d0": 0.89, "visibility_d1": 0.82},
                {"visibility": "0.9", "visibility_d0": "0.89", "visibility_d1": "0.82"},
            ),
        ],
    )
    def test_library_and_scenario_sessions_are_equal(self, kwargs, values):
        assert SessionConfig(**kwargs) == build_experiment(values).session

    def test_session_v_of_the_pair_is_the_scenario_files(self):
        session = SessionConfig(visibility_d0=0.89, visibility_d1=0.82)
        assert session.visibility == 0.855
        assert session.visibility == load_config(CONFIGS_DIR / "measured_s0.cfg").session.visibility

    def test_a_missing_member_counts_as_one(self):
        session = SessionConfig(visibility_d1=0.8)
        assert session.visibility == 0.9
        # the missing detector keeps its default of 1.0
        assert (session.visibility_d0, session.visibility_d1) == (1.0, 0.8)
        # a scenario that sets one detector key alone gets the same pair
        assert build_experiment({"visibility_d1": "0.8"}).session == session

    def test_an_invalid_member_is_reported_under_its_own_name(self):
        # the session V is never checked itself: it is the mean of two checked members
        with pytest.raises(ValueError, match=r"^visibility_d0 must be in \[0, 1\]$"):
            SessionConfig(visibility_d0=2.0)

    def test_visibility_is_not_a_field(self):
        assert "visibility" not in {f.name for f in fields(SessionConfig)}
        with pytest.raises(TypeError):
            SessionConfig(visibility=0.9)

    @settings(max_examples=60, deadline=None)
    # a detector's own key wins over the shared visibility, and the unset detector takes the shared value
    @example({"visibility": "0.9", "visibility_d0": "0.7"})
    @given(
        st.fixed_dictionaries(
            {},
            optional={
                key: st.floats(0.0, 1.0).map(repr)
                for key in ("visibility", "visibility_d0", "visibility_d1")
            },
        )
    )
    def test_session_v_is_the_pair_mean_for_every_subset_of_keys(self, values):
        session = build_experiment(values).session
        assert session.visibility == (session.visibility_d0 + session.visibility_d1) / 2.0
        for name in ("visibility_d0", "visibility_d1"):
            expected = values.get(name, values.get("visibility", "1.0"))
            assert getattr(session, name) == float(expected)

    def test_replace_rederives_the_session_v(self):
        session = SessionConfig(visibility_d0=0.89, visibility_d1=0.82)
        assert replace(session, visibility_d0=0.5, visibility_d1=0.5).visibility == 0.5

    def test_replace_equals_a_fresh_session_for_every_field(self):
        inputs = dict(visibility_d0=0.89, visibility_d1=0.82)
        new_values = {
            "tau_ps": 2500.0,
            "travel_time_ps": 1200.0,
            "accept_window_given_ps": 800.0,
            "visibility_d0": 0.5,
            "visibility_d1": 0.6,
            "source": SourceParams(pair_rate_hz=50.0, herald_jitter_sigma_ps=0.0),
            "signal_detector": DetectorParams(efficiency=0.5, jitter_sigma_ps=0.0, dark_rate_hz=10.0),
            "session_duration_s": 1.0,
            "disclosure_fraction": 0.3,
            "seed": 5,
            "wavelength_nm": 700.0,
        }
        session = SessionConfig(**inputs)
        for f in fields(SessionConfig):
            replaced = replace(session, **{f.name: new_values[f.name]})
            fresh = SessionConfig(**{**inputs, f.name: new_values[f.name]})
            assert replaced == fresh, f.name
            assert replaced.accept_window_ps == fresh.accept_window_ps, f.name
            assert replaced.visibility == fresh.visibility, f.name
            assert replaced.sigma_ps == fresh.sigma_ps, f.name
            assert replaced.false_anomaly_rate == fresh.false_anomaly_rate, f.name
            assert replaced.contest_probability == fresh.contest_probability, f.name


class TestKeyTable:
    @staticmethod
    def readme_rows() -> list[tuple[str, str, str]]:
        """(key, default column, range column) of each row of the README's scenario-key table."""
        readme = (REPO_DIR / "README.md").read_text(encoding="utf-8")
        section = readme.split("\n## Scenario files\n", 1)[1].split("\n## ", 1)[0]
        return re.findall(r"^\| `(\w+)` \| (.+?) \| (.+?) \|", section, flags=re.MULTILINE)

    def test_every_key_sets_one_dataclass_field(self):
        owned = [f.name for cls in CONFIG_CLASSES for f in fields(cls)]
        # unique field names let a field's error be reported under its key
        assert len(owned) == len(set(owned))
        # a key sets one owned field; a shared key sets a pair of them and no field of its own
        for key, names in KEYS.items():
            assert names in owned if isinstance(names, str) else len(names) == 2 and set(names) <= set(owned), key

    def test_readme_lists_every_key_in_order(self):
        assert [key for key, _, _ in self.readme_rows()] == list(KEYS)

    def test_readme_numeric_defaults_are_the_resolved_ones(self):
        experiment = load_config(None)
        session = experiment.session
        holders = (experiment, experiment.attack, session, session.source, session.signal_detector)
        checked = []
        for key, default, _ in self.readme_rows():
            number = re.fullmatch(r"`(-?[0-9.]+)`", default)
            if number is None:
                continue
            # a shared key sets no field of its own, only its pair
            for f in key_fields(key):
                holder = next(h for h in holders if hasattr(h, f.name))
                assert getattr(holder, f.name) == float(number.group(1)), key
            checked.append(key)
        assert len(checked) >= 18

    def test_readme_ranges_are_the_fields_rules(self):
        checked = []
        for key, _, cell in self.readme_rows():
            if (rule := key_rule(key)) is None:
                continue
            assert cell == f"`{rule}`", key
            checked.append(key)
        # every key but source_bit, whose rule is not a single-field range
        assert len(checked) == len(KEYS) - 1


class TestReadme:
    def test_library_example_runs(self, capsys):
        readme = (REPO_DIR / "README.md").read_text(encoding="utf-8")
        section = readme.split("\n## Library example\n", 1)[1]
        (code,) = re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)
        namespace: dict = {}
        exec(compile(code, "README.md", "exec"), namespace)
        assert 0.4 <= namespace["sift"].qber <= 0.6
        assert namespace["verdict"].anomaly_fraction == namespace["sift"].anomaly_fraction
        assert namespace["verdict"].decision == Decision.QBER_ALARM
        assert "QBER_ALARM" in capsys.readouterr().out


class TestRuntimeDependencies:
    def test_src_imports_only_the_standard_library_and_numpy(self):
        allowed = sys.stdlib_module_names | {"numpy", "gvqkd"}
        for path in sorted((REPO_DIR / "src" / "gvqkd").glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                else:
                    continue
                for name in names:
                    assert name.partition(".")[0] in allowed, f"{path.name}:{node.lineno} imports {name}"


class TestAcceptanceGate:
    def test_the_gate_file_is_unedited(self):
        # the only check of several claims, so an edit to it shows like a moved digest
        digest = hashlib.sha256((REPO_DIR / "tests" / "test_acceptance.py").read_bytes()).hexdigest()
        assert digest == "cda79b35606c38c0900305fcc54aea77a00cc87190ed5e93a985de90d97f6afe", (
            "tests/test_acceptance.py changed: ROADMAP's north star holds the acceptance gate unedited, its bounds "
            "never loosened; a deliberate change is a documented break in CHANGES.md that re-pins this digest"
        )


# the modules perfbench traces, and what it imports or times in each (ROADMAP: what must stay)
TRACED_MODULES = ("optics", "devices", "streams", "protocol", "adversary", "analysis", "config")
BENCHMARK_NAMES = {
    "cli": ("load_config", "main"),
    "protocol": (
        "run_session",
        "bob_receive",
        "timing_test",
        "sift_and_qber",
        "write_transcript_csv",
        "read_transcript_csv",
    ),
    "devices": ("generate_emissions", "herald", "dark_clicks", "detector_click"),
    "adversary": ("apply_attack", "eve_information"),
    "analysis": ("detect_eavesdropping",),
}


class TestBenchmarkNames:
    def test_the_names_the_benchmark_uses_exist(self):
        # a lost name fails the benchmark run, or leaves a per-layer row silently at 0
        modules = {short: importlib.import_module(f"gvqkd.{short}") for short in (*TRACED_MODULES, "cli")}
        for short, names in BENCHMARK_NAMES.items():
            for name in names:
                function = getattr(modules[short], name, None)
                assert callable(function), f"gvqkd.{short}.{name}"
                # the tracer times a function only in the module that defines it
                assert short == "cli" or function.__module__ == f"gvqkd.{short}", f"gvqkd.{short}.{name}"


def no_constant(name: str):
    raise ValueError(f"not JSON: {name}")


def check_outputs(out_dir: Path) -> None:
    """Every file parses; per transcript, matched + anomalies = receives, disclosed <= matched, errors <= disclosed.
    The JSON reports' counts and rates are the transcripts': each run's QBER is errors / disclosed (None with nothing
    disclosed), its key bits are matched - disclosed, and transmit's totals, mean and std are over its runs in order."""
    reports, runs = {}, {}
    for path in out_dir.iterdir():
        if path.suffix == ".json":
            reports[path.name] = json.loads(path.read_text(encoding="utf-8"), parse_constant=no_constant)
        elif path.name.startswith("fringe_s"):
            read_fringe_csv(path)
        else:
            assert path.name.startswith("transcript"), path.name
            _, matches, disclosed, errors, unmatched = read_transcript_csv(path)
            with open(path, newline="", encoding="utf-8") as fh:
                receives = sum(row["t_r_ps"] != "" for row in csv.DictReader(fh))
            assert len(matches) + len(unmatched) == receives
            assert disclosed <= matches.keys() and errors <= disclosed
            # transcript_run{NNN}.csv by its run number (names sort out of run order from run 1000), transcript.csv 0
            run = int(path.stem.removeprefix("transcript").removeprefix("_run") or 0)
            runs[run] = (len(matches), len(unmatched), len(disclosed), len(errors))
    counts = [runs[run] for run in sorted(runs)]
    matched, anomalies, disclosed, errors = map(sum, zip(*counts)) if counts else (0, 0, 0, 0)
    qbers = [e / d for _, _, d, e in counts if d]
    fraction = anomalies / (matched + anomalies) if matched + anomalies else None
    if summary := reports.get("summary.json"):
        assert (summary["matched_total"], summary["anomaly_total"]) == (matched, anomalies)
        assert (summary["key_bits_total"], summary["anomaly_fraction"]) == (matched - disclosed, fraction)
        assert summary["qber_mean"] == (float(np.mean(qbers)) if qbers else None)
        assert summary["qber_std"] == (float(np.std(qbers, ddof=1)) if len(qbers) > 1 else None)
    if verdict := reports.get("verdict.json"):
        assert (verdict["matched"], verdict["anomalies"], verdict["key_bits"]) == (matched, anomalies, matched - disclosed)
        assert (verdict["qber"], verdict["anomaly_fraction"]) == (errors / disclosed if disclosed else None, fraction)


def scenario_file(tmp_path: Path, scenario: Path | str) -> Path:
    """A shipped config as it is, or scenario text written to a file."""
    if isinstance(scenario, Path):
        return scenario
    path = tmp_path / "scenario.cfg"
    path.write_text(scenario, encoding="utf-8")
    return path


def pinned(scenario: Path | str, command: str, code: int, digest: str, stdout: str, *, id: str | None = None):
    """One row of RUNS: scenario (a shipped config's path, or the file's text) under command (the subcommand and its
    options) exits code, prints exactly stdout and nothing on stderr, and leaves an output tree of digest. A shipped
    config's row is named <name>-<command>."""
    return pytest.param(scenario, tuple(command.split()), code, digest, stdout, id=id or f"{scenario.stem}-{command}")


IDEAL, MEASURED_S0, MEASURED_S1, ATTACK_DEMO = (
    CONFIGS_DIR / f"{name}.cfg" for name in ("ideal", "measured_s0", "measured_s1", "attack_demo")
)
SHIPPED_COMMANDS = ["transmit", "fringe-scan", *(f"attack-demo --attack {kind}" for kind in KINDS)]
PROBE = "seed = 17\njitter = 300\npair_rate = 2000\nduration = 5\n"

# Every CLI run whose outputs are pinned, each run through main and checked by check_outputs. A change to an RNG draw
# order, the engine's arithmetic or a file format shows here; a deliberate one edits the row's digest and stdout.
# The digests were made on PINNED_ON; numpy 2.3 and later need Python 3.11, so on 3.10 a digest may move with numpy.
PINNED_ON = "Python 3.11.7, numpy 2.4.6"
# fmt: off
RUNS = [
    pinned(FAST_SCENARIO, "transmit", EXIT_OK,
           "e8e2dc85c897554a66f7e227f6ea2515868db555354c5a860b25ecba51c1e1c3",
           "transmit: 3 runs, mean QBER 0.0000, anomaly fraction 0.0\n", id="transmit"),
    pinned(FAST_SCENARIO, "fringe-scan", EXIT_OK,
           "56245d1d9c1e8ad702796459b04794dbe495d6c45b1040e1dd9cd000652c3f7e",
           "fringe s0: V_D0 1.000, V_D1 0.989, phase offset 6.266 rad\n"
           "fringe s1: V_D0 1.000, V_D1 1.000, phase offset 3.144 rad\n", id="fringe-scan"),
    pinned(FAST_SCENARIO, "attack-demo --attack none --fail-on-alarm", EXIT_OK,
           "f9b3adcbca9125a7efe042afed3de88b4dbfdf6ec8cf8435157f42661a5cec9d",
           "attack-demo [none]: decision Clean, QBER 0.0, anomaly fraction 0.0000, Eve information 0.0000 bits\n",
           id="attack-demo-none"),
    pinned(FAST_SCENARIO, "attack-demo --attack which-path --fail-on-alarm", EXIT_ALARM,
           "bdf3a0c8dadd67c86602946d7e6cdb9f81c07fb5e272b06b0a7b9376201de668",
           "attack-demo [which-path]: decision QberAlarm, QBER 0.46226415094339623, anomaly fraction 0.0000, "
           "Eve information 0.0000 bits\n", id="attack-demo-which-path"),
    # an alarm without --fail-on-alarm exits 0; TestFreshProcesses adds the flag
    pinned(FAST_SCENARIO, "attack-demo --attack store-forward", EXIT_OK,
           "d55283720b606674aa192da4ee08310aa54c1f24e78c260077795c4ee2df175e",
           "attack-demo [store-forward]: decision TimingAlarm, QBER None, anomaly fraction 1.0000, "
           "Eve information 0.9926 bits\n", id="attack-demo"),
    pinned(FAST_SCENARIO, "transmit --seed 6", EXIT_OK,
           "1884ce2e7e15720c69db43498f46c859ca2e8196d0a5da15a658a75c4e33e844",
           "transmit: 3 runs, mean QBER 0.0000, anomaly fraction 0.0\n", id="transmit --seed 6"),
    pinned("runs = 1\nduration = 0.2\npair_rate = 100\n", "transmit", EXIT_OK,
           "eaa56015de5ca15f7c0e4959489c5bd9898af67639f9054849476008c5f57630",
           "transmit: 1 runs, mean QBER 0.0000, anomaly fraction 0.0\n", id="transmit, runs = 1"),
    # a fixed source_bit scans that source alone
    pinned(FAST_SCENARIO + "source_bit = 1\n", "fringe-scan", EXIT_OK,
           "397b31932cdf1c70bf262345038437ac7948d047a12d38acf64a1006fdc6d93f",
           "fringe s1: V_D0 1.000, V_D1 1.000, phase offset 3.144 rad\n", id="fringe-scan, source_bit = 1"),
    pinned(UNSCANNED + "scan_steps = 4\nscan_span = 812\n", "fringe-scan", EXIT_OK,
           "683f7ef6d81fb3ddced2d9aee69621428ad869c2dbf1839f8ae50b23d85b28e0",
           "fringe s0: V_D0 1.000, V_D1 1.000, phase offset 6.260 rad\n"
           "fringe s1: V_D0 1.000, V_D1 0.961, phase offset 3.153 rad\n", id="fringe-scan, smallest usable scan"),
    # anomaly fraction 0.0024: below the derived threshold 0.0081, above a given 0.001
    pinned(PROBE, "attack-demo --attack none --fail-on-alarm", EXIT_OK,
           "e42ac1dffc39483603c2cf17ceead1e6c637dc4252987d2b939da1774897b156",
           "attack-demo [none]: decision Clean, QBER 0.0, anomaly fraction 0.0024, Eve information 0.0000 bits\n",
           id="probe, derived anomaly threshold"),
    pinned(PROBE + "anomaly_threshold = 0.001\n", "attack-demo --attack none --fail-on-alarm", EXIT_ALARM,
           "15e929cd693b43f2ed6acf398e3db2bc02e7fd8d792e7de774ec839012321b1f",
           "attack-demo [none]: decision TimingAlarm, QBER 0.0, anomaly fraction 0.0024, "
           "Eve information 0.0000 bits\n", id="probe, anomaly_threshold = 0.001"),
    # tau + T = 3000.7 ps: whole-ps stamps put each deviation at -0.7 or +0.3 ps, inside the 1 ps window
    pinned(FAST_SCENARIO + "tau = 2000.3\ntravel_time = 1000.4\n", "attack-demo --attack none --fail-on-alarm", EXIT_OK,
           "c8565fd600eed18e2d33785eb0321e31cfb8686e76b234ae260461be4ed8188c",
           "attack-demo [none]: decision Clean, QBER 0.0, anomaly fraction 0.0000, Eve information 0.0000 bits\n",
           id="fractional offset, jitter-free"),
    # every shipped config under every command (SHIPPED_COMMANDS)
    pinned(IDEAL, "transmit", EXIT_OK,
           "fb84abfceb4a7a47a7612692c628fe1ee302235e1c978193fa27db8c4d62b559",
           "transmit: 1 runs, mean QBER 0.0000, anomaly fraction 0.0\n"),
    pinned(IDEAL, "fringe-scan", EXIT_OK,
           "e42803db86102ddc8b600d0204030d9c17adbfd3506cb87db5beb72f92275899",
           "fringe s0: V_D0 1.000, V_D1 1.000, phase offset 6.283 rad\n"
           "fringe s1: V_D0 1.000, V_D1 0.999, phase offset 3.142 rad\n"),
    pinned(IDEAL, "attack-demo --attack none", EXIT_OK,
           "633aa1b8c9bec644cae98fc8be52fa1e6e0ee0eba855bb8b81c8862aa9f7148d",
           "attack-demo [none]: decision Clean, QBER 0.0, anomaly fraction 0.0000, Eve information 0.0000 bits\n"),
    pinned(IDEAL, "attack-demo --attack which-path", EXIT_OK,
           "d18ecd00d600f217dc3daf445ac1045ca98a6416d2486eba1d96d75e4957bc8a",
           "attack-demo [which-path]: decision QberAlarm, QBER 0.49526877390779145, anomaly fraction 0.0000, "
           "Eve information 0.0000 bits\n"),
    pinned(IDEAL, "attack-demo --attack store-forward", EXIT_OK,
           "f75579c69688afa5ea6c807bf2b7ee3fc99415e1583ce8776622bbbaa85898d3",
           "attack-demo [store-forward]: decision TimingAlarm, QBER None, anomaly fraction 1.0000, "
           "Eve information 1.0000 bits\n"),
    pinned(MEASURED_S0, "transmit", EXIT_OK,
           "4a52a5c22e30aca9ce453439f78a05e6cbf5b919399bb5c9ef715a2df5a13ac9",
           "transmit: 60 runs, mean QBER 0.0732, anomaly fraction 0.002695552838848027\n"),
    pinned(MEASURED_S0, "fringe-scan", EXIT_OK,
           "28a2700387691accaf1c6fe0c1219af9f17854e63192b040936ead9c5827331c",
           "fringe s0: V_D0 0.895, V_D1 0.823, phase offset 6.283 rad\n"),
    pinned(MEASURED_S0, "attack-demo --attack none", EXIT_OK,
           "890d4140c14aca7a39c344684e1266f309c5b52b2b22cd29c46c88836631ee76",
           "attack-demo [none]: decision Clean, QBER 0.07934560327198364, anomaly fraction 0.0033, "
           "Eve information 0.0000 bits\n"),
    pinned(MEASURED_S0, "attack-demo --attack which-path", EXIT_OK,
           "9286284e8495116f107ee2029a0b377f703786df5ec67ec1ec380f14e6f04b42",
           "attack-demo [which-path]: decision QberAlarm, QBER 0.5128834355828221, anomaly fraction 0.0033, "
           "Eve information 0.0000 bits\n"),
    pinned(MEASURED_S0, "attack-demo --attack store-forward", EXIT_OK,
           "1e433e20968763eb1ef1e9e64662473f3a1ac591eb64e697e99de3e8c054a024",
           "attack-demo [store-forward]: decision TimingAlarm, QBER 0.0, anomaly fraction 0.9971, "
           "Eve information 0.0000 bits\n"),
    pinned(MEASURED_S1, "transmit", EXIT_OK,
           "ead0d1bbad5928cde6771c7a30187da6bb7ac7b2bbf4c16acce4416cd4793c1a",
           "transmit: 60 runs, mean QBER 0.0675, anomaly fraction 0.0028113569527147683\n"),
    pinned(MEASURED_S1, "fringe-scan", EXIT_OK,
           "64454f93917ce1d020980decbc585bdcbceba0ccac95fe55c0910e39233934d7",
           "fringe s1: V_D0 0.878, V_D1 0.852, phase offset 3.139 rad\n"),
    pinned(MEASURED_S1, "attack-demo --attack none", EXIT_OK,
           "4e552ccc621a15318b47bc836a5b0615be5886cd29016740bd66c5690d11c3d7",
           "attack-demo [none]: decision Clean, QBER 0.06685017695635077, anomaly fraction 0.0024, "
           "Eve information 0.0000 bits\n"),
    pinned(MEASURED_S1, "attack-demo --attack which-path", EXIT_OK,
           "ebf0c1e47ef4d790761138f92f5cea757e5ffaf8ca7b5ddb134bbbce953047c9",
           "attack-demo [which-path]: decision QberAlarm, QBER 0.5045222178529296, anomaly fraction 0.0024, "
           "Eve information 0.0000 bits\n"),
    pinned(MEASURED_S1, "attack-demo --attack store-forward", EXIT_OK,
           "f02612b7de48f7c85bef7119ae420de3b2f23c6f5a69f1bb2231142c1bda8726",
           "attack-demo [store-forward]: decision TimingAlarm, QBER 0.0, anomaly fraction 0.9978, "
           "Eve information 0.0000 bits\n"),
    pinned(ATTACK_DEMO, "transmit", EXIT_OK,
           "574e32455c9fec7143b7475bbd9cb9223c6ad53e030a576a3f3d390cbbd78793",
           "transmit: 60 runs, mean QBER 0.0000, anomaly fraction 0.0\n"),
    pinned(ATTACK_DEMO, "fringe-scan", EXIT_OK,
           "230b516ba569d44a0b2449033804cefcb6d0ed7dc7ddce99c74b2e303a878503",
           "fringe s0: V_D0 0.999, V_D1 1.000, phase offset 0.004 rad\n"
           "fringe s1: V_D0 1.000, V_D1 0.997, phase offset 3.139 rad\n"),
    pinned(ATTACK_DEMO, "attack-demo --attack none", EXIT_OK,
           "245f541fbf347ecf15ac717d53941c62a3f16e8e4a4595c1f80229b66f9c8292",
           "attack-demo [none]: decision Clean, QBER 0.0, anomaly fraction 0.0000, Eve information 0.0000 bits\n"),
    pinned(ATTACK_DEMO, "attack-demo --attack which-path", EXIT_OK,
           "8a12f9b459cd1d8bd216cda201428ba0e2b0cb54507b7b0076616c97bf5e3539",
           "attack-demo [which-path]: decision QberAlarm, QBER 0.5038121990369181, anomaly fraction 0.0000, "
           "Eve information 0.0000 bits\n"),
    pinned(ATTACK_DEMO, "attack-demo --attack store-forward", EXIT_OK,
           "0efb7744b2f918dc18791f3767551a38643ac4ffc314d2b27eda28777b58498b",
           "attack-demo [store-forward]: decision TimingAlarm, QBER None, anomaly fraction 1.0000, "
           "Eve information 1.0000 bits\n"),
]
# fmt: on
PINNED = {row.id: row.values for row in RUNS}


class TestGoldenOutputs:
    @pytest.mark.parametrize("scenario, argv, code, digest, stdout", RUNS)
    def test_output_digest(self, tmp_path, capsys, scenario, argv, code, digest, stdout):
        out_dir = tmp_path / "out"
        assert main([*argv, "--config", str(scenario_file(tmp_path, scenario)), "--out", str(out_dir)]) == code
        assert capsys.readouterr() == (stdout, "")
        ran_on = f"Python {platform.python_version()}, numpy {np.__version__}"
        assert tree_digest(out_dir) == digest, f"output digest moved on {ran_on}; the pins were made on {PINNED_ON}"
        check_outputs(out_dir)


class TestTransmitCommand:
    def test_outputs_and_summary(self, fast_config, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code = main(["transmit", "--config", str(fast_config), "--out", str(out_dir)])
        assert code == EXIT_OK
        for run_index in range(3):
            assert (out_dir / f"transcript_run{run_index:03d}.csv").is_file()
        summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
        assert summary["runs"] == 3
        assert summary["source_bit"] == "random"
        assert summary["qber_mean"] == 0.0
        assert summary["anomaly_fraction"] == 0.0
        assert summary["matched_total"] > 0
        assert summary["key_bits_total"] > 0
        assert "transmit: 3 runs" in capsys.readouterr().out

    def test_byte_identical_reruns(self, fast_config, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["transmit", "--config", str(fast_config), "--out", str(out_a)]) == EXIT_OK
        assert main(["transmit", "--config", str(fast_config), "--out", str(out_b)]) == EXIT_OK
        assert tree_digest(out_a) == tree_digest(out_b)

    def test_a_million_runs_cost_no_memory_before_the_first(self, tmp_path):
        # the run blocks are ranges: run 0's write fails before any list of the million run indices is built
        cfg = tmp_path / "million.cfg"
        cfg.write_text("pair_rate = 100\nduration = 1\nruns = 1000000\n", encoding="utf-8")
        out_dir = tmp_path / "out"
        (out_dir / "transcript_run000.csv").mkdir(parents=True)
        tracemalloc.start()
        try:
            with pytest.raises(IsADirectoryError):
                main(["transmit", "--config", str(cfg), "--out", str(out_dir)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestRerunIntoTheSameOut:
    @pytest.mark.parametrize("row", ["transmit", "fringe-scan", "attack-demo"])
    def test_each_output_file_is_replaced_not_written_through(self, tmp_path, row):
        # a hard link kept to each first-run file is made stale; the rerun must leave the link's bytes alone
        scenario, argv, code, digest, _ = PINNED[row]
        out_dir, kept = tmp_path / "out", tmp_path / "kept"
        argv = [*argv, "--config", str(scenario_file(tmp_path, scenario)), "--out", str(out_dir)]
        with redirect_stdout(io.StringIO()):
            assert main(argv) == code
            kept.mkdir()
            for path in out_dir.iterdir():
                os.link(path, kept / path.name)
                (kept / path.name).write_bytes(b"stale\n")
            assert main(argv) == code
        assert tree_digest(out_dir) == digest
        assert sorted(path.name for path in kept.iterdir()) == sorted(path.name for path in out_dir.iterdir())
        assert {path.read_bytes() for path in kept.iterdir()} == {b"stale\n"}


class TestFringeScanCommand:
    def test_scans_both_sources_by_default(self, fast_config, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code = main(["fringe-scan", "--config", str(fast_config), "--out", str(out_dir)])
        assert code == EXIT_OK
        for bit in (0, 1):
            assert (out_dir / f"fringe_s{bit}.csv").is_file()
            report = json.loads((out_dir / f"fringe_fit_s{bit}.json").read_text(encoding="utf-8"))
            assert report["visibility_d0"] == pytest.approx(1.0, abs=0.05)
            assert report["visibility_d1"] == pytest.approx(1.0, abs=0.05)
            assert report["phase_difference_rad"] == pytest.approx(math.pi, abs=0.1)
        out = capsys.readouterr().out
        assert "fringe s0:" in out and "fringe s1:" in out

    def test_byte_identical_reruns(self, fast_config, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["fringe-scan", "--config", str(fast_config), "--out", str(out_a)]) == EXIT_OK
        assert main(["fringe-scan", "--config", str(fast_config), "--out", str(out_b)]) == EXIT_OK
        assert tree_digest(out_a) == tree_digest(out_b)

    def test_fit_report_keys(self):
        fit = FringeFit(visibility=0.89, phase_offset_rad=0.0, mean_rate=1000.0, residual_rms=1.0)
        fit1 = FringeFit(visibility=0.82, phase_offset_rad=math.pi, mean_rate=1000.0, residual_rms=1.0)
        report = fit_report(fit, fit1)
        assert list(report)[:3] == ["visibility_d0", "visibility_d1", "phase_offset_rad"]
        assert report["visibility_d0"] == 0.89
        assert report["phase_difference_rad"] == pytest.approx(math.pi)


class TestAttackDemoCommand:
    def run(self, fast_config, out_dir, attack, *extra):
        return main(
            ["attack-demo", "--config", str(fast_config), "--out", str(out_dir), "--attack", attack, *extra]
        )

    def test_clean_link_passes(self, fast_config, tmp_path):
        out_dir = tmp_path / "out"
        code = self.run(fast_config, out_dir, "none", "--fail-on-alarm")
        assert code == EXIT_OK
        report = json.loads((out_dir / "verdict.json").read_text(encoding="utf-8"))
        assert list(report) == [
            "qber",
            "qber_sigma",
            "anomaly_fraction",
            "decision",
            "strategy",
            "eve_information_bits",
            "matched",
            "anomalies",
            "key_bits",
        ]
        assert report["decision"] == "Clean"
        assert report["qber"] == 0.0
        assert report["anomaly_fraction"] == 0.0
        assert report["eve_information_bits"] == 0.0

    def test_which_path_raises_qber_alarm(self, fast_config, tmp_path):
        out_dir = tmp_path / "out"
        code = self.run(fast_config, out_dir, "which-path", "--fail-on-alarm")
        assert code == EXIT_ALARM
        report = json.loads((out_dir / "verdict.json").read_text(encoding="utf-8"))
        assert report["decision"] == "QberAlarm"
        assert report["qber"] == pytest.approx(0.5, abs=0.1)
        assert report["anomaly_fraction"] == 0.0

    def test_store_forward_raises_timing_alarm(self, fast_config, tmp_path):
        out_dir = tmp_path / "out"
        code = self.run(fast_config, out_dir, "store-forward", "--fail-on-alarm")
        assert code == EXIT_ALARM
        report = json.loads((out_dir / "verdict.json").read_text(encoding="utf-8"))
        assert report["decision"] == "TimingAlarm"
        assert report["anomaly_fraction"] == 1.0
        assert report["eve_information_bits"] == pytest.approx(1.0, abs=0.01)
        assert (out_dir / "transcript.csv").is_file()

    def test_alarm_without_flag_still_exits_zero(self, fast_config, tmp_path):
        code = self.run(fast_config, tmp_path / "out", "store-forward")
        assert code == EXIT_OK


class TestExitCodes:
    def test_out_naming_a_file_exits_2(self, fast_config, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("keep\n", encoding="utf-8")
        assert main(["transmit", "--config", str(fast_config), "--out", str(taken)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"config error: --out: cannot create directory {taken}: ")
        assert taken.read_text(encoding="utf-8") == "keep\n"

    def test_empty_out_exits_2_and_writes_nothing(self, tmp_path, monkeypatch, capsys):
        # Path("") is the current directory, where the outputs would land
        monkeypatch.chdir(tmp_path)
        argv = ["attack-demo", "--config", str(CONFIGS_DIR / "attack_demo.cfg"), "--attack", "none", "--out", ""]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("config error: --out: ")
        assert list(tmp_path.iterdir()) == []

    def test_write_failure_after_mkdir_is_not_a_usage_error(self, fast_config, tmp_path):
        # only creating --out is a usage error; a failing write later propagates
        out_dir = tmp_path / "out"
        (out_dir / "summary.json").mkdir(parents=True)
        with pytest.raises(IsADirectoryError):
            main(["transmit", "--config", str(fast_config), "--out", str(out_dir)])

    def test_missing_out_is_usage_error(self, fast_config):
        with pytest.raises(SystemExit) as exc:
            main(["transmit", "--config", str(fast_config)])
        assert exc.value.code == EXIT_CONFIG

    def test_unknown_attack_rejected_by_parser(self, fast_config, tmp_path):
        argv = ["attack-demo", "--config", str(fast_config), "--out", str(tmp_path / "out"), "--attack", "beamsplit"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_CONFIG


class TestShippedScenarios:
    def test_all_shipped_configs_parse(self):
        # and each has a RUNS row under every command
        ran = {(scenario, " ".join(argv)) for scenario, argv, *_ in PINNED.values()}
        for path in sorted(CONFIGS_DIR.glob("*.cfg")):
            load_config(path)
            assert [command for command in SHIPPED_COMMANDS if (path, command) not in ran] == [], path.name

    def test_measured_source_scenarios_match_reported_link(self):
        s0 = load_config(CONFIGS_DIR / "measured_s0.cfg")
        assert s0.runs == 60
        assert s0.source_bit == 0
        assert s0.session.visibility_d0 == 0.89
        assert s0.session.visibility_d1 == 0.82
        assert s0.session.source.herald_jitter_sigma_ps == 300.0
        s1 = load_config(CONFIGS_DIR / "measured_s1.cfg")
        assert s1.source_bit == 1
        assert s1.session.visibility_d0 == 0.88
        assert s1.session.visibility_d1 == 0.85


class TestWholePicosecondStamps:
    def test_sub_picosecond_jitter_derives_the_1_ps_window(self):
        # 3 sigma = 0.42 ps would be narrower than the stamp resolution
        session = build_experiment({"jitter": "0.1"}).session
        assert 3.0 * math.hypot(0.1, 0.1) < 1.0
        assert session.accept_window_ps == 1.0


class TestFreshProcesses:
    """The commands across a real process boundary, each ending in the console script's entry()."""

    @staticmethod
    def spawn(
        cwd: Path, hash_seed: int, *argv: str, launch: tuple[str, ...] = ("-m", "gvqkd.cli"), **popen
    ) -> subprocess.Popen:
        python_path = os.pathsep.join(filter(None, [str(REPO_DIR / "src"), os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": python_path, "PYTHONHASHSEED": str(hash_seed)}
        command = [sys.executable, *launch, *argv]
        pipes = dict(stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        return subprocess.Popen(command, cwd=cwd, env=env, **pipes, **popen)

    @staticmethod
    def assert_no_process_left(proc: subprocess.Popen) -> None:
        # proc led a new session, so its group held it and every child it forked; a child left unreaped stays in it
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs os.sched_setaffinity")
    @pytest.mark.parametrize(
        "one_cpu, killed",
        [(True, False), (False, False), (False, True)],
        ids=["on one CPU", "on every CPU", "on every CPU with each child killed at fork"],
    )
    def test_transmit_writes_the_pinned_bytes_on_any_number_of_cpus(self, tmp_path, one_cpu, killed):
        # on one CPU the script runs every session itself; on more, a forked child runs each later block of the 3
        # runs, and the script runs the block of a child that sent nothing. The child calls entry() with the row's
        # command line and prints, at exit, how many forks it made and how many sessions ran in its own process
        scenario, argv, _, digest, stdout = PINNED["transmit"]
        cpus = 1 if one_cpu else len(os.sched_getaffinity(0))
        if killed and cpus < 2:
            pytest.skip("needs 2 usable CPUs")
        pin = (lambda: os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})) if one_cpu else None
        out_dir = tmp_path / "out"
        child = (
            "import atexit, os, signal, gvqkd.cli\n"
            "forks, sessions, session = [], [], gvqkd.cli._session\n"
            "gvqkd.cli._session = lambda *args: sessions.append(1) or session(*args)\n"
            "os.register_at_fork(after_in_parent=lambda: forks.append(1))\n"
            + ("os.register_at_fork(after_in_child=lambda: os.kill(os.getpid(), signal.SIGKILL))\n" if killed else "")
            + "atexit.register(lambda: print(len(forks), len(sessions)))\n"
            "gvqkd.cli.entry()\n"
        )
        argv = (*argv, "--config", str(scenario_file(tmp_path, scenario)), "--out", str(out_dir))
        proc = self.spawn(tmp_path, 0, *argv, launch=("-c", child), preexec_fn=pin, start_new_session=True)
        sessions = 3 if cpus == 1 or killed else 1
        assert proc.communicate(timeout=60) == (stdout + f"{min(cpus, 3) - 1} {sessions}\n", "")
        assert proc.returncode == EXIT_OK
        assert tree_digest(out_dir) == digest
        self.assert_no_process_left(proc)

    @pytest.mark.parametrize("failing_run", [0, 2], ids=["in the script's own block", "in a child's block"])
    def test_a_failing_run_exits_1_with_the_error_main_raises(self, tmp_path, failing_run):
        # on two CPUs or more, run 0 of the three is the script's own and run 2 a forked child's
        scenario, argv, _, _, _ = PINNED["transmit"]
        out_dir = tmp_path / "out"
        (out_dir / f"transcript_run{failing_run:03d}.csv").mkdir(parents=True)
        argv = [*argv, "--config", str(scenario_file(tmp_path, scenario)), "--out", str(out_dir)]
        proc = self.spawn(tmp_path, 0, *argv, start_new_session=True)
        stdout, stderr = proc.communicate(timeout=60)
        with pytest.raises(IsADirectoryError) as caught:
            main(argv)
        assert (proc.returncode, stdout) == (1, "")
        assert stderr.splitlines()[-1] == f"IsADirectoryError: {caught.value}"
        assert f"transcript_run{failing_run:03d}.csv" in str(caught.value)
        assert not (out_dir / "summary.json").exists()
        self.assert_no_process_left(proc)

    def test_transmit_writes_the_pinned_bytes_in_every_process(self, tmp_path):
        # the second process hashes strings differently and is given --seed at the scenario's own seed
        scenario, argv, _, digest, stdout = PINNED["transmit"]
        cfg = scenario_file(tmp_path, scenario)
        runs = {
            out_dir: self.spawn(tmp_path, hash_seed, *argv, "--config", str(cfg), "--out", str(out_dir), *extra)
            for out_dir, hash_seed, extra in [(tmp_path / "first", 0, []), (tmp_path / "second", 1, ["--seed", "5"])]
        }
        for out_dir, proc in runs.items():
            assert proc.communicate(timeout=60) == (stdout, "")
            assert proc.returncode == EXIT_OK
            assert tree_digest(out_dir) == digest
            transcripts = sorted(out_dir.glob("transcript*.csv"))
            assert len(transcripts) == 3
            for path in transcripts:
                read_transcript_csv(path)

    def test_an_alarm_exits_3(self, tmp_path):
        # the child calls entry() itself, with the row's command line as python -c's sys.argv[1:]; entry() freezes the
        # heap once main has returned, and the exit still flushes stdout and runs atexit handlers
        scenario, argv, _, digest, stdout = PINNED["attack-demo"]
        cfg, out_dir = scenario_file(tmp_path, scenario), tmp_path / "out"
        child = (
            "import atexit, gc, gvqkd.cli\n"
            "atexit.register(lambda: print(gc.get_freeze_count() > 0))\n"
            "gvqkd.cli.entry()\n"
        )
        argv = (*argv, "--fail-on-alarm", "--config", str(cfg), "--out", str(out_dir))
        proc = self.spawn(tmp_path, 0, *argv, launch=("-c", child))
        assert proc.communicate(timeout=60) == (stdout + "True\n", "")
        assert proc.returncode == EXIT_ALARM
        assert tree_digest(out_dir) == digest

    def test_main_leaves_the_heap_unfrozen(self, tmp_path):
        # only entry() freezes: tests, library callers and in-process benchmarks keep a collectable heap
        scenario, argv, code, _, _ = PINNED["attack-demo"]
        before = gc.get_freeze_count()
        assert main([*argv, "--config", str(scenario_file(tmp_path, scenario)), "--out", str(tmp_path / "out")]) == code
        assert gc.get_freeze_count() == before

    def test_an_invalid_scenario_exits_2(self, tmp_path):
        cfg = tmp_path / "invalid.cfg"
        cfg.write_text("tau = -1\n", encoding="utf-8")
        out_dir = tmp_path / "out"
        proc = self.spawn(tmp_path, 0, "transmit", "--config", str(cfg), "--out", str(out_dir))
        assert proc.communicate(timeout=60) == ("", "config error: tau: must be >= 1\n")
        assert proc.returncode == EXIT_CONFIG
        assert not out_dir.exists()


SMALL_SESSION = {"pair_rate": "100.0", "duration": "1.0", "runs": "1"}
# three runs at V = 0.7 that disclose 2 errors of 47, 3 of 44 and 5 of 52: check_outputs' QBER mean and std then see
# unequal nonzero QBERs, which the drawn scenarios almost never give
ERRORED_RUNS = {**SMALL_SESSION, "visibility": "0.7", "runs": "3", "seed": "3"}
# the sparse fringe scan that leaves a detector's fit without a mean rate at seeds 2 and 8
SPARSE_SCAN = {"shots_per_step": "1", "scan_steps": "4", "scan_span": "1624.0"}
# the upper end of each drawn value where the key's declared range has one
RULE_TOPS = {"in [0, 1]": 1.0, "in (0, 1)": 1.0, "in (0, 2**52)": STAMP_HALF_RANGE_PS, "in [1, 2**63)": 2**63 - 1}
# and where it has none (1e4 if not listed), or a top whose cost grows with the value: sizes stay small
# (about 200 sends a session, 2 runs, 41 scan steps), times and lengths near the defaults' scale
DRAW_TOPS = {"seed": 2**32, "pair_rate": 200.0, "dark_rate": 200.0, "duration": 1.0, "runs": 2, "scan_steps": 41}
# keys whose defaults make sessions large, so each draw sets them
SIZE_KEYS = ("pair_rate", "duration", "runs")


def scenario_text(values: dict[str, str]) -> str:
    return "".join(f"{key} = {value}\n" for key, value in values.items())


def drawn_value(key: str) -> st.SearchStrategy[str]:
    """Text of a value inside the key's declared range (source_bit: one of its three words)."""
    rule = key_rule(key)
    if rule is None:
        return st.sampled_from(["0", "1", "random"])
    top = DRAW_TOPS.get(key, RULE_TOPS.get(rule, 1e4))
    values = st.integers(0, top) if key in INT_KEYS else st.floats(0.0, top)
    return values.filter(RANGE_RULES[rule]).map(repr)


SCENARIOS = st.fixed_dictionaries(
    {key: drawn_value(key) for key in SIZE_KEYS},
    optional={key: drawn_value(key) for key in KEYS if key not in SIZE_KEYS},
)
COMMANDS = [["transmit"], ["fringe-scan"]] + [["attack-demo", "--attack", kind, "--fail-on-alarm"] for kind in KINDS]


class TestAcceptedScenarios:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @example({**SMALL_SESSION, "accept_window": "410.0"})
    @example({**SMALL_SESSION, "seed": "2", **SPARSE_SCAN})
    @example({**SMALL_SESSION, "seed": "8", **SPARSE_SCAN})
    @example(ERRORED_RUNS)
    @given(SCENARIOS)
    def test_no_scenario_ends_in_a_traceback(self, values):
        # each command exits 0, 2 or 3, and whatever it wrote parses, on exit 2 too
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "drawn.cfg"
            cfg.write_text(scenario_text(values), encoding="utf-8")
            for i, command in enumerate(COMMANDS):
                out_dir = Path(tmp) / str(i)
                stderr = io.StringIO()
                with redirect_stdout(io.StringIO()), redirect_stderr(stderr):
                    code = main([*command, "--config", str(cfg), "--out", str(out_dir)])
                assert code in (EXIT_OK, EXIT_CONFIG, EXIT_ALARM), command
                if code == EXIT_CONFIG:
                    assert re.fullmatch(r"config error: [^\n]+\n", stderr.getvalue()), command
                if out_dir.exists():
                    check_outputs(out_dir)

    def test_the_errored_example_discloses_unequal_qbers(self, tmp_path):
        # keeps ERRORED_RUNS from going stale: at least two runs disclose errors, at different QBERs
        cfg = scenario_file(tmp_path, scenario_text(ERRORED_RUNS))
        with redirect_stdout(io.StringIO()):
            assert main(["transmit", "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_OK
        qbers = set()
        for path in (tmp_path / "out").glob("transcript_run*.csv"):
            _, _, disclosed, errors, _ = read_transcript_csv(path)
            if errors:
                qbers.add(len(errors) / len(disclosed))
        assert len(qbers) >= 2
