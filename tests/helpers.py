"""Shared builders and config tables for the test suite."""

from dataclasses import fields

from gvqkd.adversary import NO_ATTACK, AttackStrategy
from gvqkd.config import ExperimentConfig
from gvqkd.devices import DetectorParams, SourceParams
from gvqkd.protocol import SessionConfig, run_session, sift_transcript

CONFIG_CLASSES = (SourceParams, DetectorParams, SessionConfig, AttackStrategy, ExperimentConfig)
# (owner, field) of each field declared with a range rule
RANGED_FIELDS = [(cls, f) for cls in CONFIG_CLASSES for f in fields(cls) if "range" in f.metadata]

# one out-of-range or malformed value per scenario key and the rule it breaks
BAD_VALUES = {
    "seed": ("-1", "must be >= 0"),
    "tau": ("0", "must be >= 1"),
    "travel_time": ("-5", "must be positive"),
    "jitter": ("-1", "must be >= 0"),
    "herald_jitter": ("-1", "must be >= 0"),
    "signal_jitter": ("-1", "must be >= 0"),
    "accept_window": ("0", "must be >= 1"),
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
    "scan_steps": ("1", "must be in [4, 2**16]"),
    "shots_per_step": ("0", "must be in [1, 2**63)"),
    "extra_delay": ("0", "must be in (0, 2**52)"),
    "qber_threshold": ("0", "must be in (0, 1)"),
    "anomaly_threshold": ("1", "must be in (0, 1)"),
}


def _link_config(
    pair_rate_hz, duration_s, seed, jitter_ps, visibility=1.0, accept_window_ps=None, **overrides
) -> SessionConfig:
    """Lossless link at the given jitters; visibility sets both detectors, as the scenario key does.

    accept_window_ps is the given window (None derives it from the jitters).
    """
    params = dict(
        accept_window_given_ps=accept_window_ps,
        visibility_d0=visibility,
        visibility_d1=visibility,
        source=SourceParams(pair_rate_hz=pair_rate_hz, heralding_efficiency=1.0, herald_jitter_sigma_ps=jitter_ps),
        signal_detector=DetectorParams(efficiency=1.0, jitter_sigma_ps=jitter_ps, dark_rate_hz=0.0),
        session_duration_s=duration_s,
        seed=seed,
    )
    params.update(overrides)
    return SessionConfig(**params)


def ideal_config(pair_rate_hz=2100.0, duration_s=5.0, seed=7, **overrides) -> SessionConfig:
    """Lossless, jitter-free, perfectly interfering link."""
    return _link_config(pair_rate_hz, duration_s, seed, 0.0, **overrides)


def noisy_config(pair_rate_hz=1000.0, duration_s=5.0, seed=7, jitter_ps=300.0, **overrides) -> SessionConfig:
    """Link with the default 300 ps herald and detector jitters."""
    return _link_config(pair_rate_hz, duration_s, seed, jitter_ps, **overrides)


def run_and_sift(config, attack=NO_ATTACK, run_index=0, source_bit=None):
    """One full session through the timing test and the sift.

    Returns (transcript, match, sift).
    """
    transcript = run_session(config, attack, run_index, source_bit)
    match, sift = sift_transcript(transcript, config, run_index)
    return transcript, match, sift
