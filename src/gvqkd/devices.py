"""Stochastic models of the photon-pair source and the single-photon detectors.

All times are picoseconds and durations of whole sessions seconds. The
timing resolution is 1 ps: no physics here depends on structure below that
scale. These true times are float64 and not rounded; run_session rounds
its transcript's stamps to whole ps and stores them as int64.
"""

import math
from dataclasses import dataclass, field, fields, is_dataclass

import numpy as np

PS_PER_S = 1e12
STAMP_HALF_RANGE_PS = 2.0**52  # float64 holds every whole ps below 2**53: half for a session, half for an attack

# each range rule's wording, which is also its error text, and its test
RANGE_RULES = {
    "positive": lambda v: v > 0,
    ">= 0": lambda v: v >= 0,
    ">= 1": lambda v: v >= 1,
    ">= 2": lambda v: v >= 2,
    "in [0, 1]": lambda v: 0 <= v <= 1,
    "in (0, 1)": lambda v: 0 < v < 1,
    "in (0, 2**52)": lambda v: 0 < v < STAMP_HALF_RANGE_PS,
    "in [1, 2**63)": lambda v: 1 <= v < 2**63,
    "in [4, 2**16]": lambda v: 4 <= v <= 2**16,
}


def ranged(default, rule: str):
    """A dataclass field with its default (MISSING for none) and its RANGE_RULES rule, which Ranged enforces."""
    return field(default=default, metadata={"range": rule})


def check_range(name: str, value, rule: str, integer: bool = False) -> None:
    """Raise "<name> must be ..." at the first failure of: a number (an int but no bool, a float or a numpy one; None is
    not, but Ranged skips a None default: "not given"), finite, an integer (if integer; not a whole float),
    RANGE_RULES[rule]."""
    is_int = isinstance(value, (int, np.integer))  # finite, and may be too large for math.isfinite's float
    if isinstance(value, bool) or not (is_int or isinstance(value, (float, np.floating))):  # np.bool_ is neither kind
        raise ValueError(f"{name} must be a number")
    if not (is_int or math.isfinite(value)):
        raise ValueError(f"{name} must be finite")
    if integer and not is_int:
        raise ValueError(f"{name} must be an integer")
    if not RANGE_RULES[rule](value):
        raise ValueError(f"{name} must be {rule}")


class Ranged:
    """Base of configs and SiftResult: checks each field's range or dataclass type in order; a None default is unset."""

    def __post_init__(self):
        for f in fields(self):
            if is_dataclass(f.type) and not isinstance(getattr(self, f.name), f.type):
                raise ValueError(f"{f.name} must be {'an' if f.type.__name__[0] in 'AEIOU' else 'a'} {f.type.__name__}")
            if "range" in f.metadata and not (f.default is None and getattr(self, f.name) is None):
                check_range(f.name, getattr(self, f.name), f.metadata["range"], f.type is int)


@dataclass(frozen=True)
class SourceParams(Ranged):
    """Heralded pair source: emission rate, heralding losses, herald timing jitter."""

    pair_rate_hz: float = ranged(1000.0, ">= 0")
    heralding_efficiency: float = ranged(1.0, "in [0, 1]")
    herald_jitter_sigma_ps: float = ranged(300.0, ">= 0")


@dataclass(frozen=True)
class DetectorParams(Ranged):
    """Threshold single-photon detector: efficiency, Gaussian timing jitter, dark rate."""

    efficiency: float = ranged(1.0, "in [0, 1]")
    jitter_sigma_ps: float = ranged(300.0, ">= 0")
    dark_rate_hz: float = ranged(0.0, ">= 0")


def _poisson_times(rate_hz: float, duration_s: float, rng: np.random.Generator) -> np.ndarray:
    """Sorted event times (ps) of a homogeneous Poisson process on [0, duration)."""
    check_range("duration_s", duration_s, "positive")
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
