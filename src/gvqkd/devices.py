"""Stochastic models of the photon-pair source and the single-photon detectors.

All times are picoseconds and durations of whole sessions seconds. The
timing resolution is 1 ps: no physics here depends on structure below that
scale. These true times are float64 and not rounded; run_session rounds
its transcript's stamps to whole ps and stores them as int64.
"""

from dataclasses import dataclass

import numpy as np

PS_PER_S = 1e12
STAMP_HALF_RANGE_PS = 2.0**52  # float64 holds every whole ps below 2**53: half for a session, half for an attack


@dataclass(frozen=True)
class SourceParams:
    """Heralded pair source: emission rate, heralding losses, herald timing jitter."""

    pair_rate_hz: float = 1000.0
    heralding_efficiency: float = 1.0
    herald_jitter_sigma_ps: float = 300.0

    def __post_init__(self):
        if not self.pair_rate_hz >= 0:
            raise ValueError("pair_rate_hz must be >= 0")
        if not 0.0 <= self.heralding_efficiency <= 1.0:
            raise ValueError("heralding_efficiency must be in [0, 1]")
        if not self.herald_jitter_sigma_ps >= 0:
            raise ValueError("herald_jitter_sigma_ps must be >= 0")


@dataclass(frozen=True)
class DetectorParams:
    """Threshold single-photon detector: efficiency, Gaussian timing jitter, dark rate."""

    efficiency: float = 1.0
    jitter_sigma_ps: float = 300.0
    dark_rate_hz: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.efficiency <= 1.0:
            raise ValueError("efficiency must be in [0, 1]")
        if not self.jitter_sigma_ps >= 0:
            raise ValueError("jitter_sigma_ps must be >= 0")
        if not self.dark_rate_hz >= 0:
            raise ValueError("dark_rate_hz must be >= 0")


def _poisson_times(rate_hz: float, duration_s: float, rng: np.random.Generator) -> np.ndarray:
    """Sorted event times (ps) of a homogeneous Poisson process on [0, duration)."""
    if duration_s <= 0:
        raise ValueError("duration_s must be positive")
    count = rng.poisson(rate_hz * duration_s)
    times = rng.uniform(0.0, duration_s * PS_PER_S, size=count)
    times.sort()
    return times


def generate_emissions(params: SourceParams, duration_s: float, rng: np.random.Generator) -> np.ndarray:
    """True emission times (ps) of the pair source over one session."""
    return _poisson_times(params.pair_rate_hz, duration_s, rng)


def herald(
    emissions_ps: np.ndarray, params: SourceParams, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Thin emissions by the heralding efficiency and stamp the survivors.

    Returns parallel arrays (t_true, t_stamped), both sorted by t_true:
    t_stamped = t_true + Gaussian herald jitter. t_true is what propagates;
    t_stamped is what the sender's log will show.
    """
    emissions_ps = np.asarray(emissions_ps, dtype=float)
    kept = rng.random(emissions_ps.size) < params.heralding_efficiency
    t_true = emissions_ps[kept]
    t_stamped = t_true + rng.normal(0.0, params.herald_jitter_sigma_ps, size=t_true.size)
    return t_true, t_stamped


def detector_click(
    t_arrival_ps: np.ndarray, params: DetectorParams, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Detect photons arriving at t_arrival_ps; returns (hit mask, click times of the hits).

    One efficiency draw per photon, then one jitter draw per hit.
    """
    t_arrival_ps = np.asarray(t_arrival_ps, dtype=float)
    hit = rng.random(t_arrival_ps.size) < params.efficiency
    t_hit = t_arrival_ps[hit]
    return hit, t_hit + rng.normal(0.0, params.jitter_sigma_ps, size=t_hit.size)


def dark_clicks(params: DetectorParams, duration_s: float, rng: np.random.Generator) -> np.ndarray:
    """Sorted dark-count times (ps) over one session."""
    return _poisson_times(params.dark_rate_hz, duration_s, rng)
