"""Scenario-file parsing, validation and the three CLI subcommands."""

import hashlib
import json
import math
import re
from dataclasses import fields
from pathlib import Path

import pytest

from gvqkd.cli import EXIT_ALARM, EXIT_CONFIG, EXIT_OK, main
from gvqkd.config import KEYS, ConfigError, ExperimentConfig, build_experiment, load_config, parse_flat
from gvqkd.devices import DetectorParams, SourceParams
from gvqkd.protocol import SessionConfig

REPO_DIR = Path(__file__).resolve().parent.parent
CONFIGS_DIR = REPO_DIR / "configs"

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


def read_tree(root: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir()) if p.is_file()}


def tree_digest(root: Path) -> str:
    """sha256 over every file name and its bytes, in name order."""
    h = hashlib.sha256()
    for name, data in read_tree(root).items():
        h.update(name.encode() + b"\0" + data)
    return h.hexdigest()


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

    def test_session_visibility_is_mean_of_detector_pair(self):
        experiment = build_experiment({"visibility_d0": "0.89", "visibility_d1": "0.82"})
        assert experiment.session.visibility == pytest.approx(0.855)
        assert experiment.session.visibility_d0 == 0.89
        assert experiment.session.visibility_d1 == 0.82

    def test_explicit_visibility_wins(self):
        experiment = build_experiment({"visibility": "0.9", "visibility_d0": "0.7"})
        assert experiment.session.visibility == 0.9
        assert experiment.session.visibility_d0 == 0.7
        # unset detector inherits the session value
        assert experiment.session.visibility_d1 == 0.9

    def test_with_seed_replaces_only_seed(self):
        experiment = load_config(None).with_seed(99)
        assert experiment.session.seed == 99
        assert experiment.session.tau_ps == 2000.0


# one out-of-range or malformed value per scenario key and the rule it breaks
BAD_VALUES = {
    "seed": ("-1", "must be >= 0"),
    "tau": ("0", "must be positive"),
    "travel_time": ("-5", "must be positive"),
    "jitter": ("-1", "must be >= 0"),
    "herald_jitter": ("-1", "must be >= 0"),
    "signal_jitter": ("-1", "must be >= 0"),
    "accept_window": ("0", "must be positive"),
    "visibility": ("1.5", "must be in [0, 1]"),
    # alone, it makes the derived session visibility 1.5, a key never written
    "visibility_d0": ("2", "must be in [0, 1]"),
    "visibility_d1": ("-0.5", "must be in [0, 1]"),
    "pair_rate": ("-1", "must be >= 0"),
    "heralding_efficiency": ("1.5", "must be in [0, 1]"),
    "detector_efficiency": ("-0.1", "must be in [0, 1]"),
    "dark_rate": ("-1", "must be >= 0"),
    "duration": ("0", "must be positive"),
    "disclosure_fraction": ("1", "must be in (0, 1)"),
    "runs": ("0", "must be >= 1"),
    "source_bit": ("01", "must be 0, 1 or random"),
    "wavelength": ("0", "must be positive"),
    "scan_span": ("-1", "must be positive"),
    "scan_steps": ("1", "must be >= 2"),
    "shots_per_step": ("0", "must be >= 1"),
    "coherence_window": ("0", "must be positive"),
    "extra_delay": ("0", "must be positive"),
    "qber_threshold": ("0", "must be in (0, 1)"),
    "anomaly_threshold": ("1", "must be in (0, 1)"),
}
INT_KEYS = ("seed", "runs", "scan_steps", "shots_per_step")


def rejection_message(values: dict[str, str]) -> str:
    with pytest.raises(ConfigError) as info:
        build_experiment(values)
    return str(info.value)


class TestRejection:
    @pytest.mark.parametrize("key", [key for key, _, _ in KEYS])
    def test_every_key_names_itself(self, key):
        bad, rule = BAD_VALUES[key]
        cases = {bad: f"{key}: {rule}"}
        if key in INT_KEYS:
            cases["2.5"] = f"{key}: not an integer: '2.5'"
        elif key == "source_bit":
            cases["2"] = f"{key}: {rule}"
        else:
            cases["fast"] = f"{key}: not a number: 'fast'"
            cases.update({value: f"{key}: must be finite" for value in ("nan", "inf", "-inf")})
        for value, message in cases.items():
            assert rejection_message({key: value}) == message

    def test_unused_shared_jitter_is_still_checked(self):
        values = {"jitter": "-1", "herald_jitter": "100", "signal_jitter": "100"}
        assert rejection_message(values) == "jitter: must be >= 0"

    @pytest.mark.parametrize(
        "values, key",
        [
            ({"dark_rate": "-1", "pair_rate": "-1"}, "pair_rate"),  # source before detector
            ({"tau": "0", "dark_rate": "-1"}, "dark_rate"),  # detector before session
            ({"runs": "0", "dark_rate": "-1"}, "dark_rate"),  # detector before experiment
            ({"scan_steps": "1", "pair_rate": "fast"}, "pair_rate"),  # parsing before ranges
        ],
    )
    def test_first_invalid_key_in_construction_order(self, values, key):
        assert rejection_message(values).startswith(f"{key}:")

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown config key tilt"):
            build_experiment({"tilt": "3"})

    def test_malformed_line_names_line_number(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_flat("tau = 2000\njust words\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate config key tau"):
            parse_flat("tau = 2000\ntau = 2500\n")

    def test_first_invalid_key_is_named(self):
        with pytest.raises(ConfigError, match="visibility: must be in"):
            build_experiment({"visibility": "1.5", "runs": "0"})

    def test_non_numeric_value(self):
        with pytest.raises(ConfigError, match="pair_rate: not a number"):
            build_experiment({"pair_rate": "fast"})

    def test_bad_source_bit(self):
        with pytest.raises(ConfigError, match="source_bit"):
            build_experiment({"source_bit": "2"})

    def test_cross_field_tau_versus_jitter(self):
        # tau = 500 ps is inside the timing noise at 300 ps jitters
        with pytest.raises(ConfigError, match="tau"):
            build_experiment({"tau": "500"})

    def test_scan_steps_too_small(self):
        with pytest.raises(ConfigError, match="scan_steps: must be >= 2"):
            build_experiment({"scan_steps": "1"})

    def test_runs_too_small(self):
        with pytest.raises(ConfigError, match="runs: must be >= 1"):
            build_experiment({"runs": "0"})

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            load_config("/nonexistent/scenario.cfg")


class TestLibraryConstruction:
    @pytest.mark.parametrize(
        "field, key, value",
        [
            ("runs", "runs", 0),
            ("source_bit", "source_bit", 2),
            ("scan_span_nm", "scan_span", 0.0),
            ("scan_steps", "scan_steps", 1),
            ("shots_per_step", "shots_per_step", 0),
            ("extra_delay_ps", "extra_delay", -1.0),
            ("qber_threshold", "qber_threshold", 1.0),
            ("anomaly_threshold", "anomaly_threshold", 0.0),
        ],
    )
    def test_rejects_what_a_scenario_file_rejects(self, field, key, value):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            ExperimentConfig(SessionConfig(), **{field: value})
        with pytest.raises(ConfigError, match=f"^{key}: must be"):
            build_experiment({key: str(value)})

    def test_defaults_are_the_scenario_defaults(self):
        assert ExperimentConfig(SessionConfig()) == load_config(None)


class TestKeyTable:
    @staticmethod
    def readme_rows() -> list[tuple[str, str]]:
        """(key, default column) of each row of the README's scenario-key table."""
        readme = (REPO_DIR / "README.md").read_text(encoding="utf-8")
        section = readme.split("\n## Scenario files\n", 1)[1].split("\n## ", 1)[0]
        return re.findall(r"^\| `(\w+)` \| (.+?) \|", section, flags=re.MULTILINE)

    def test_every_key_sets_one_dataclass_field(self):
        owned = [f.name for cls in (SourceParams, DetectorParams, SessionConfig, ExperimentConfig) for f in fields(cls)]
        # unique field names let a field's error be reported under its key
        assert len(owned) == len(set(owned))
        assert all(name in owned for key, _, name in KEYS if key != "jitter")

    def test_readme_lists_every_key_in_order(self):
        assert [key for key, _ in self.readme_rows()] == [key for key, _, _ in KEYS]

    def test_readme_numeric_defaults_are_the_resolved_ones(self):
        experiment = load_config(None)
        session = experiment.session
        holders = (experiment, session, session.source, session.signal_detector)
        field_of = {key: name for key, _, name in KEYS}
        checked = []
        for key, default in self.readme_rows():
            number = re.fullmatch(r"`(-?[0-9.]+)`", default)
            if number is None:
                continue
            # jitter sets no field of its own, only both jitters
            names = [field_of[key]] if field_of[key] else ["herald_jitter_sigma_ps", "jitter_sigma_ps"]
            for name in names:
                holder = next(h for h in holders if hasattr(h, name))
                assert getattr(holder, name) == float(number.group(1)), key
            checked.append(key)
        assert len(checked) >= 19


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
        assert read_tree(out_a) == read_tree(out_b)

    def test_seed_override_changes_data(self, fast_config, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        main(["transmit", "--config", str(fast_config), "--out", str(out_a)])
        main(["transmit", "--config", str(fast_config), "--out", str(out_b), "--seed", "6"])
        name = "transcript_run000.csv"
        assert (out_a / name).read_bytes() != (out_b / name).read_bytes()

    def test_works_without_config_file(self, tmp_path):
        # all-defaults scenario, shrunk via seed only; keep it quick by
        # pointing --config at a tiny file instead of the 60-run default
        out_dir = tmp_path / "out"
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text("runs = 1\nduration = 0.2\npair_rate = 100\n", encoding="utf-8")
        assert main(["transmit", "--config", str(cfg), "--out", str(out_dir)]) == EXIT_OK
        assert (out_dir / "summary.json").is_file()


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

    def test_single_source_when_bit_fixed(self, tmp_path):
        cfg = tmp_path / "one.cfg"
        cfg.write_text(FAST_SCENARIO + "source_bit = 1\n", encoding="utf-8")
        out_dir = tmp_path / "out"
        assert main(["fringe-scan", "--config", str(cfg), "--out", str(out_dir)]) == EXIT_OK
        assert (out_dir / "fringe_s1.csv").is_file()
        assert not (out_dir / "fringe_s0.csv").exists()

    def test_byte_identical_reruns(self, fast_config, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        main(["fringe-scan", "--config", str(fast_config), "--out", str(out_a)])
        main(["fringe-scan", "--config", str(fast_config), "--out", str(out_b)])
        assert read_tree(out_a) == read_tree(out_b)


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

    def test_unknown_attack_rejected_by_parser(self, fast_config, tmp_path):
        with pytest.raises(SystemExit):
            self.run(fast_config, tmp_path / "out", "beamsplit")


class TestExitCodes:
    def test_config_error_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("visibility = 2\n", encoding="utf-8")
        code = main(["transmit", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert "config error: visibility" in capsys.readouterr().err

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        code = main(["transmit", "--config", str(tmp_path / "no.cfg"), "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert "not found" in capsys.readouterr().err

    def test_negative_seed_override_exits_2(self, fast_config, tmp_path, capsys):
        code = main(["transmit", "--config", str(fast_config), "--out", str(tmp_path / "out"), "--seed", "-1"])
        assert code == EXIT_CONFIG
        assert "seed" in capsys.readouterr().err

    def test_missing_out_is_usage_error(self, fast_config):
        with pytest.raises(SystemExit):
            main(["transmit", "--config", str(fast_config)])


class TestShippedScenarios:
    def test_all_shipped_configs_parse(self):
        paths = sorted(CONFIGS_DIR.glob("*.cfg"))
        assert len(paths) >= 4
        for path in paths:
            load_config(path)

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


class TestGoldenOutputs:
    """Pinned digests of FAST_SCENARIO's outputs: any change to an RNG draw
    order, the engine's arithmetic or the file formats shows up here, and
    must be a deliberate, documented break."""

    GOLDEN = {
        ("transmit",): "5b1d544ff8175fc857a37f9510af397dc97567221c23cc049a71acdc12a39409",
        ("attack-demo", "--attack", "store-forward"): "cbe80f244f93b07fb2a24a1c0fff5384580a7bdc74622eb322e5d1f5b93a8dc8",
    }

    @pytest.mark.parametrize("argv", list(GOLDEN), ids=lambda argv: argv[0])
    def test_output_digest(self, fast_config, tmp_path, argv):
        out_dir = tmp_path / "out"
        assert main([*argv, "--config", str(fast_config), "--out", str(out_dir)]) == EXIT_OK
        assert tree_digest(out_dir) == self.GOLDEN[argv]

