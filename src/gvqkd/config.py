"""Flat key = value scenario files -> validated run configuration.

Format: UTF-8 text, one `key = value` per line, blank lines and `#`
comments (full-line or trailing) ignored. Unknown keys, malformed lines,
duplicate keys and out-of-range values are rejected with a message naming
the offending key. Every key is optional.

KEYS maps each key, in the README's order, to the dataclass field it sets (a
shared key: a pair). A key's text parses as its field's type, int or float;
defaults and every check, finiteness included, live on the dataclasses that
own the fields, so library callers and scenario files get the same rules:
each range is declared beside its default (devices.ranged), and
__post_init__ adds only cross-field rules. The fields hold given values only;
the timing model and session V are derived by SessionConfig properties.
"""

from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from gvqkd.adversary import AttackStrategy
from gvqkd.analysis import DEFAULT_QBER_THRESHOLD, default_anomaly_threshold, fringe_design
from gvqkd.devices import DetectorParams, Ranged, SourceParams, check_range, ranged
from gvqkd.protocol import SessionConfig

# largest accepted chance that a receive lies within the window of a second send
MAX_CONTEST_PROBABILITY = 1e-2
# largest expected count of one session's draws; the top runs in about 7 s and 1 GiB (README)
MAX_SESSION_DRAWS = 2**23


class ConfigError(ValueError):
    """Invalid scenario file or configuration value."""


@dataclass(frozen=True)
class ExperimentConfig(Ranged):
    """One scenario: the physical session, the attack's parameters (a run picks the kind), and run and analysis knobs."""

    session: SessionConfig
    attack: AttackStrategy = field(default_factory=AttackStrategy)
    runs: int = ranged(60, ">= 1")
    source_bit: int | None = None
    scan_span_nm: float = ranged(1624.0, "positive")
    scan_steps: int = ranged(41, "in [4, 2**16]")  # the top scans in about 0.7 s and 56 MiB (README)
    shots_per_step: int = ranged(5000, "in [1, 2**63)")
    qber_threshold: float = ranged(DEFAULT_QBER_THRESHOLD, "in (0, 1)")
    anomaly_threshold: float | None = ranged(None, "in (0, 1)")

    def __post_init__(self):
        super().__post_init__()
        # a store-forward photon is at least tau late; a wider window would pass it (only a given one can be wider)
        if self.session.accept_window_ps > self.session.tau_ps:
            raise ValueError(
                f"accept_window_given_ps must be <= tau = {self.session.tau_ps} ps, got {self.session.accept_window_ps}"
            )
        # a given window of about sigma or less leaves the timing test no power: the derived threshold reaches 1
        if self.anomaly_threshold is None and not (threshold := default_anomaly_threshold(self.session)) < 1:
            raise ValueError(
                f"accept_window_given_ps must keep the derived anomaly threshold below 1, got {threshold:.4g} "
                f"at {self.session.accept_window_ps} ps (widen it or give anomaly_threshold)"
            )
        # the greedy matcher can hand a receive to a neighbouring send, with chance about 2 w * send rate
        if not (contest := self.session.contest_probability) <= MAX_CONTEST_PROBABILITY:
            raise ValueError(
                f"pair_rate_hz must keep 2 * accept_window * send rate <= {MAX_CONTEST_PROBABILITY}, got {contest:.3g}"
            )
        # a session's arrays must fit in memory: every emission is drawn before heralding, and each detector's darks
        pair_rate, dark_rate = self.session.source.pair_rate_hz, self.session.signal_detector.dark_rate_hz
        if not (draws := (pair_rate + 2.0 * dark_rate) * self.session.session_duration_s) <= MAX_SESSION_DRAWS:
            name = "pair_rate_hz" if pair_rate >= 2.0 * dark_rate else "dark_rate_hz"
            raise ValueError(
                f"{name} must keep (pair_rate + 2 * dark_rate) * duration <= {MAX_SESSION_DRAWS}, got {draws:.3g}"
            )
        if self.source_bit not in (None, 0, 1):
            raise ValueError("source_bit must be 0, 1 or random")
        # the fringe fit owns the rule for which scans it can use
        try:
            fringe_design(np.linspace(0.0, self.scan_span_nm, self.scan_steps), self.session.wavelength_nm)
        except ValueError as exc:
            raise ValueError(
                f"scan_span_nm must give a scan the fit can use at scan_steps = {self.scan_steps} ({exc})"
            ) from None

    def resolved_anomaly_threshold(self) -> float:
        if self.anomaly_threshold is not None:
            return self.anomaly_threshold
        return default_anomaly_threshold(self.session)

    def with_seed(self, seed: int) -> "ExperimentConfig":
        with _reported_by_key():
            return replace(self, session=replace(self.session, seed=seed))


def parse_flat(text: str) -> dict[str, str]:
    """Split flat key = value text into a raw string mapping."""
    values: dict[str, str] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, value = (part.strip() for part in line.partition("="))
        if not (key and value):
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw_line.strip()!r}")
        if key in values:
            raise ConfigError(f"duplicate config key {key}")
        values[key] = value
    return values


# key -> the field it sets, or a shared key's pair; README order, where each field's own key follows and wins
KEYS = {
    "seed": "seed",
    "tau": "tau_ps",
    "travel_time": "travel_time_ps",
    "jitter": ("herald_jitter_sigma_ps", "jitter_sigma_ps"),
    "herald_jitter": "herald_jitter_sigma_ps",
    "signal_jitter": "jitter_sigma_ps",
    "accept_window": "accept_window_given_ps",
    "visibility": ("visibility_d0", "visibility_d1"),
    "visibility_d0": "visibility_d0",
    "visibility_d1": "visibility_d1",
    "pair_rate": "pair_rate_hz",
    "heralding_efficiency": "heralding_efficiency",
    "detector_efficiency": "efficiency",
    "dark_rate": "dark_rate_hz",
    "duration": "session_duration_s",
    "disclosure_fraction": "disclosure_fraction",
    "runs": "runs",
    "source_bit": "source_bit",
    "wavelength": "wavelength_nm",
    "scan_span": "scan_span_nm",
    "scan_steps": "scan_steps",
    "shots_per_step": "shots_per_step",
    "extra_delay": "extra_delay_ps",
    "qber_threshold": "qber_threshold",
    "anomaly_threshold": "anomaly_threshold",
}

_FIELD_NAMED = {f.name: f for cls in (SourceParams, DetectorParams, SessionConfig, AttackStrategy, ExperimentConfig)
                for f in fields(cls)}
_FIELDS_OF = {key: [_FIELD_NAMED[n] for n in ([v] if isinstance(v, str) else v)] for key, v in KEYS.items()}
_KEY_OF_FIELD = {name: key for key, name in KEYS.items() if isinstance(name, str)}


def _parse(key: str, raw: str) -> int | float | str | None:
    if key == "source_bit":  # other text is passed on for ExperimentConfig to reject
        return {"0": 0, "1": 1, "random": None}.get(raw, raw)
    number, kind = (int, "an integer") if _FIELDS_OF[key][0].type is int else (float, "a number")
    try:
        return number(raw)
    except ValueError:
        raise ConfigError(f"{key}: not {kind}: {raw!r}") from None


@contextmanager
def _reported_by_key(key_of_field=_KEY_OF_FIELD):
    """Re-raise a dataclass's "<field> <rule>" ValueError as ConfigError("<key>: <rule>")."""
    try:
        yield
    except ValueError as exc:
        name, _, rule = str(exc).partition(" ")
        raise ConfigError(f"{key_of_field.get(name, name)}: {rule}") from None


def _build(cls, given: dict[str, object], **parts):
    """cls built from the given values of its own fields, plus the parts."""
    own = {f.name for f in fields(cls)}
    return cls(**{name: value for name, value in given.items() if name in own}, **parts)


def build_experiment(values: dict[str, str]) -> ExperimentConfig:
    """Validate raw key strings and assemble a full ExperimentConfig.

    Every value is parsed first, in KEYS order (a non-finite number parses);
    the shared keys are then checked against each of their fields' ranges,
    and the other ranges as the dataclasses are built: source, detector,
    session, attack, experiment, each its ranges in field order and then its
    cross-field rules.
    """
    for key in values:
        if key not in KEYS:
            raise ConfigError(f"unknown config key {key}")
    parsed = {key: _parse(key, values[key]) for key in KEYS if key in values}
    for key, value in parsed.items():
        if isinstance(KEYS[key], tuple):
            # checked under its own name against each field it sets, also when every one is given
            with _reported_by_key(dict.fromkeys(KEYS[key], key)):
                for f in _FIELDS_OF[key]:
                    check_range(f, value)
    # in KEYS order, so a field's own key overrides its shared key
    given = {f.name: value for key, value in parsed.items() for f in _FIELDS_OF[key]}

    with _reported_by_key():
        source = _build(SourceParams, given)
        detector = _build(DetectorParams, given)
        session = _build(SessionConfig, given, source=source, signal_detector=detector)
        attack = _build(AttackStrategy, given)
        return _build(ExperimentConfig, given, session=session, attack=attack)


def load_config(path: str | Path | None) -> ExperimentConfig:
    """Load and validate a scenario file; None yields the all-defaults scenario."""
    if path is None:
        return build_experiment({})
    file_path = Path(path)
    if not file_path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        text = file_path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8: {exc.reason} at byte {exc.start}") from None
    return build_experiment(parse_flat(text))
