"""Shared builders for the test suite."""

from gvqkd.adversary import NO_ATTACK
from gvqkd.devices import DetectorParams, SourceParams
from gvqkd.protocol import SessionConfig, run_session, sift_transcript


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
