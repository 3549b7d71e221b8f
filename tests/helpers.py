"""Shared builders for the test suite."""

from gvqkd.devices import DetectorParams, SourceParams
from gvqkd.protocol import SessionConfig, run_session, sift_transcript
from gvqkd.streams import SessionStreams


def ideal_config(pair_rate_hz=2100.0, duration_s=5.0, seed=7, **overrides) -> SessionConfig:
    """Lossless, jitter-free, perfectly interfering link."""
    params = dict(
        visibility=1.0,
        source=SourceParams(pair_rate_hz=pair_rate_hz, heralding_efficiency=1.0, herald_jitter_sigma_ps=0.0),
        signal_detector=DetectorParams(efficiency=1.0, jitter_sigma_ps=0.0, dark_rate_hz=0.0),
        session_duration_s=duration_s,
        seed=seed,
    )
    params.update(overrides)
    return SessionConfig(**params)


def noisy_config(pair_rate_hz=1000.0, duration_s=5.0, seed=7, jitter_ps=300.0, **overrides) -> SessionConfig:
    """Link with the default 300 ps herald and detector jitters."""
    params = dict(
        visibility=1.0,
        source=SourceParams(pair_rate_hz=pair_rate_hz, heralding_efficiency=1.0, herald_jitter_sigma_ps=jitter_ps),
        signal_detector=DetectorParams(efficiency=1.0, jitter_sigma_ps=jitter_ps, dark_rate_hz=0.0),
        session_duration_s=duration_s,
        seed=seed,
    )
    params.update(overrides)
    return SessionConfig(**params)


def run_and_sift(config, attack=None, run_index=0, source_bit=None):
    """One full session through the timing test and the sift.

    Returns (transcript, match, sift).
    """
    streams = SessionStreams(config.seed, run_index)
    transcript = run_session(config, attack, streams, run_index=run_index, source_bit=source_bit)
    match, sift = sift_transcript(transcript, config, streams.sift)
    return transcript, match, sift
