"""Flat key = value scenario files -> validated run configuration.

Format: UTF-8 text, one `key = value` per line, blank lines and `#`
comments (full-line or trailing) ignored. Unknown keys, malformed lines,
duplicate keys and out-of-range values are rejected with a message naming
the offending key. Every key is optional.

KEYS maps each key to its parser and to the dataclass field it sets; the
README's "Scenario files" table documents the same keys in the same order.
Defaults and range checks live only on the dataclasses that own the fields
(SourceParams, DetectorParams, SessionConfig, ExperimentConfig), so library
callers and scenario files get the same rules.
"""

from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from pathlib import Path

from gvqkd.analysis import DEFAULT_QBER_THRESHOLD, default_anomaly_threshold
from gvqkd.devices import DetectorParams, SourceParams
from gvqkd.protocol import SessionConfig


class ConfigError(ValueError):
    """Invalid scenario file or configuration value."""


@dataclass(frozen=True)
class ExperimentConfig:
    """One scenario: the physical session plus run-level and analysis knobs."""

    session: SessionConfig
    runs: int = 60
    source_bit: int | None = None
    scan_span_nm: float = 1624.0
    scan_steps: int = 41
    shots_per_step: int = 5000
    extra_delay_ps: float = 500.0
    qber_threshold: float = DEFAULT_QBER_THRESHOLD
    anomaly_threshold: float | None = None

    def __post_init__(self):
        if self.runs < 1:
            raise ValueError("runs must be >= 1")
        if self.source_bit not in (None, 0, 1):
            raise ValueError("source_bit must be 0, 1 or random")
        if self.scan_span_nm <= 0:
            raise ValueError("scan_span_nm must be positive")
        if self.scan_steps < 2:
            raise ValueError("scan_steps must be >= 2")
        if self.shots_per_step < 1:
            raise ValueError("shots_per_step must be >= 1")
        if self.extra_delay_ps <= 0:
            raise ValueError("extra_delay_ps must be positive")
        if not 0.0 < self.qber_threshold < 1.0:
            raise ValueError("qber_threshold must be in (0, 1)")
        if self.anomaly_threshold is not None and not 0.0 < self.anomaly_threshold < 1.0:
            raise ValueError("anomaly_threshold must be in (0, 1)")

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
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw_line.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw_line.strip()!r}")
        if key in values:
            raise ConfigError(f"duplicate config key {key}")
        values[key] = value
    return values


def _parse_float(key: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"{key}: not a number: {raw!r}") from None
    if value != value or value in (float("inf"), float("-inf")):
        raise ConfigError(f"{key}: must be finite")
    return value


def _parse_int(key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{key}: not an integer: {raw!r}") from None


def _parse_source_bit(key: str, raw: str) -> int | str | None:
    # any other text is passed on for ExperimentConfig to reject
    return {"0": 0, "1": 1, "random": None}.get(raw, raw)


# (key, parser, dataclass field it sets); jitter sets both jitter fields
KEYS = (
    ("seed", _parse_int, "seed"),
    ("tau", _parse_float, "tau_ps"),
    ("travel_time", _parse_float, "travel_time_ps"),
    ("jitter", _parse_float, None),
    ("herald_jitter", _parse_float, "herald_jitter_sigma_ps"),
    ("signal_jitter", _parse_float, "jitter_sigma_ps"),
    ("accept_window", _parse_float, "accept_window_ps"),
    ("visibility", _parse_float, "visibility"),
    ("visibility_d0", _parse_float, "visibility_d0"),
    ("visibility_d1", _parse_float, "visibility_d1"),
    ("pair_rate", _parse_float, "pair_rate_hz"),
    ("heralding_efficiency", _parse_float, "heralding_efficiency"),
    ("detector_efficiency", _parse_float, "efficiency"),
    ("dark_rate", _parse_float, "dark_rate_hz"),
    ("duration", _parse_float, "session_duration_s"),
    ("disclosure_fraction", _parse_float, "disclosure_fraction"),
    ("runs", _parse_int, "runs"),
    ("source_bit", _parse_source_bit, "source_bit"),
    ("wavelength", _parse_float, "wavelength_nm"),
    ("scan_span", _parse_float, "scan_span_nm"),
    ("scan_steps", _parse_int, "scan_steps"),
    ("shots_per_step", _parse_int, "shots_per_step"),
    ("coherence_window", _parse_float, "coherence_window_ps"),
    ("extra_delay", _parse_float, "extra_delay_ps"),
    ("qber_threshold", _parse_float, "qber_threshold"),
    ("anomaly_threshold", _parse_float, "anomaly_threshold"),
)

_KEY_OF_FIELD = {name: key for key, _, name in KEYS if name is not None}


@contextmanager
def _reported_by_key():
    """Re-raise a dataclass's "<field> <rule>" ValueError as ConfigError("<key>: <rule>")."""
    try:
        yield
    except ValueError as exc:
        name, _, rule = str(exc).partition(" ")
        raise ConfigError(f"{_KEY_OF_FIELD.get(name, name)}: {rule}") from None


def _build(cls, given: dict[str, object], **parts):
    """cls built from the given values of its own fields, plus the parts."""
    own = {f.name for f in fields(cls)}
    return cls(**{name: value for name, value in given.items() if name in own}, **parts)


def build_experiment(values: dict[str, str]) -> ExperimentConfig:
    """Validate raw key strings and assemble a full ExperimentConfig.

    Every value is parsed first, in KEYS order; ranges are then checked as
    the dataclasses are built: source, detector, session, experiment.
    """
    known = {key for key, _, _ in KEYS}
    for key in values:
        if key not in known:
            raise ConfigError(f"unknown config key {key}")
    given = {name or key: parse(key, values[key]) for key, parse, name in KEYS if key in values}

    jitter = given.pop("jitter", None)
    if jitter is not None:
        # the one key that sets no field of its own is checked here
        if jitter < 0:
            raise ConfigError("jitter: must be >= 0")
        given.setdefault("herald_jitter_sigma_ps", jitter)
        given.setdefault("jitter_sigma_ps", jitter)
    if "visibility" not in given and ("visibility_d0" in given or "visibility_d1" in given):
        # the session visibility is the mean of the per-detector pair
        vis_d0 = given.get("visibility_d0", SessionConfig.visibility)
        vis_d1 = given.get("visibility_d1", SessionConfig.visibility)
        given["visibility"] = (vis_d0 + vis_d1) / 2.0

    with _reported_by_key():
        source = _build(SourceParams, given)
        detector = _build(DetectorParams, given)
        session = _build(SessionConfig, given, source=source, signal_detector=detector)
        return _build(ExperimentConfig, given, session=session)


def load_config(path: str | Path | None) -> ExperimentConfig:
    """Load and validate a scenario file; None yields the all-defaults scenario."""
    if path is None:
        return build_experiment({})
    file_path = Path(path)
    if not file_path.is_file():
        raise ConfigError(f"config file not found: {path}")
    return build_experiment(parse_flat(file_path.read_text(encoding="utf-8")))
