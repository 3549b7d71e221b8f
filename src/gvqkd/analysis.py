"""Interference characterization and eavesdropping verdicts.

Fringe scans sweep a path-length difference through the recombiner and fit
each detector's count rate to A (1 + V cos(2 pi dl / lambda + phi0)); the
two detectors sit on complementary fringes, so their fitted phase offsets
differ by pi. The fitted visibility predicts the sifted error rate through
QBER = (1 - V) / 2, closing the loop between the optical characterization
and the key-level statistics.
"""

import csv
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from gvqkd.optics import apply_phase, canonical_phase, detection_probabilities, make_state, phase_from_path_length
from gvqkd.protocol import SessionConfig, SiftResult, combined_jitter_ps, false_anomaly_rate

DEFAULT_QBER_THRESHOLD = 0.11

# floor keeps the derived default usable for jitter-free configs, where the
# analytic false-anomaly rate is exactly 0
MIN_ANOMALY_THRESHOLD = 1e-3


class Decision(str, Enum):
    CLEAN = "Clean"
    TIMING_ALARM = "TimingAlarm"
    QBER_ALARM = "QberAlarm"
    BOTH_ALARMS = "BothAlarms"


@dataclass(frozen=True)
class FringePoint:
    """One scan step: path-length difference (nm) and both detectors' count rates (1/s)."""

    delta_l_nm: float
    counts_d0: float
    counts_d1: float

    def __post_init__(self):
        if self.counts_d0 < 0 or self.counts_d1 < 0:
            raise ValueError("counts must be non-negative")


@dataclass(frozen=True)
class FringeFit:
    """Fitted fringe A (1 + V cos(2 pi dl / lambda + phi0)) for one detector."""

    visibility: float
    phase_offset_rad: float
    mean_rate: float
    residual_rms: float


@dataclass(frozen=True)
class Verdict:
    """Outcome of the two public security tests on one sifted session."""

    anomaly_fraction: float
    qber: float | None
    qber_sigma: float | None
    decision: Decision


def fringe_scan(
    config: SessionConfig,
    source_bit: int,
    delta_l_range_nm: tuple[float, float],
    n_steps: int,
    shots_per_step: int,
    rng: np.random.Generator,
) -> list[FringePoint]:
    """Sweep the path-length difference and record both detectors' counts.

    Each detector samples its own fringe, at its own configured visibility,
    as a binomial over shots_per_step photons per step.
    """
    lo, hi = delta_l_range_nm
    if not hi > lo:
        raise ValueError("delta_l_range_nm must be a nonempty (lo, hi) interval")
    if n_steps < 2:
        raise ValueError("n_steps must be >= 2")
    if shots_per_step < 1:
        raise ValueError("shots_per_step must be >= 1")
    state0 = make_state(source_bit)
    points = []
    for delta_l in np.linspace(lo, hi, n_steps):
        phi = phase_from_path_length(float(delta_l), config.wavelength_nm)
        state = apply_phase(state0, phi)
        p_d0, _ = detection_probabilities(state, config.visibility_d0)
        _, p_d1 = detection_probabilities(state, config.visibility_d1)
        counts_d0 = int(rng.binomial(shots_per_step, p_d0))
        counts_d1 = int(rng.binomial(shots_per_step, p_d1))
        points.append(FringePoint(delta_l_nm=float(delta_l), counts_d0=counts_d0, counts_d1=counts_d1))
    return points


def _fit_single(delta_l_nm: np.ndarray, counts: np.ndarray, wavelength_nm: float) -> FringeFit:
    # known period reduces the sine fit to linear least squares on the
    # basis (1, cos x, sin x)
    x = 2.0 * math.pi * delta_l_nm / wavelength_nm
    design = np.column_stack([np.ones_like(x), np.cos(x), np.sin(x)])
    coeffs, _, rank, _ = np.linalg.lstsq(design, counts, rcond=None)
    if rank < 3:
        raise ValueError("degenerate fringe fit: design matrix is rank-deficient")
    c0, c1, c2 = coeffs
    if c0 <= 0:
        raise ValueError("degenerate fringe fit: non-positive mean rate")
    visibility = math.hypot(c1, c2) / c0
    visibility = min(1.0, max(0.0, visibility))
    phase_offset = canonical_phase(math.atan2(-c2, c1))
    residuals = counts - design @ coeffs
    residual_rms = float(np.sqrt(np.mean(residuals**2)))
    return FringeFit(
        visibility=float(visibility),
        phase_offset_rad=float(phase_offset),
        mean_rate=float(c0),
        residual_rms=residual_rms,
    )


def fit_fringe(points: list[FringePoint], wavelength_nm: float) -> tuple[FringeFit, FringeFit]:
    """Fit both detectors' fringes; requires >= 4 points spanning >= one period."""
    if len(points) < 4:
        raise ValueError("fringe fit needs at least 4 points")
    delta_l = np.array([p.delta_l_nm for p in points], dtype=float)
    if delta_l.max() - delta_l.min() < wavelength_nm:
        raise ValueError("fringe fit needs a scan spanning at least one period")
    d0 = np.array([p.counts_d0 for p in points], dtype=float)
    d1 = np.array([p.counts_d1 for p in points], dtype=float)
    return (
        _fit_single(delta_l, d0, wavelength_nm),
        _fit_single(delta_l, d1, wavelength_nm),
    )


def visibility_from_extremes(n_max: float, n_min: float) -> float:
    """Textbook fringe visibility (n_max - n_min) / (n_max + n_min)."""
    if n_min < 0 or n_max < n_min:
        raise ValueError("need n_max >= n_min >= 0")
    if n_max == 0:
        raise ValueError("visibility undefined for all-zero counts")
    return (n_max - n_min) / (n_max + n_min)


def qber_from_visibility(visibility: float) -> float:
    """Expected sifted error rate of an interferometer at visibility V: (1 - V) / 2."""
    if not 0.0 <= visibility <= 1.0:
        raise ValueError("visibility must be in [0, 1]")
    return (1.0 - visibility) / 2.0


def default_anomaly_threshold(config: SessionConfig) -> float:
    """Timing alarm threshold: 3x the analytic false-anomaly rate of the clean link."""
    rate = false_anomaly_rate(
        config.accept_window_ps, combined_jitter_ps(config.source, config.signal_detector)
    )
    return max(3.0 * rate, MIN_ANOMALY_THRESHOLD)


def detect_eavesdropping(
    sift: SiftResult,
    anomaly_threshold: float,
    qber_threshold: float = DEFAULT_QBER_THRESHOLD,
) -> Verdict:
    """Apply both public tests to a sifted session and return the verdict.

    The timing alarm fires when the anomaly fraction exceeds its
    threshold; the QBER alarm when qber - 2 qber_sigma exceeds its
    threshold (the guard band suppresses alarms from estimator noise). An
    undefined QBER (nothing disclosed) cannot fire the QBER alarm.
    """
    for name, threshold in (("anomaly_threshold", anomaly_threshold), ("qber_threshold", qber_threshold)):
        if not 0.0 < threshold < 1.0:
            raise ValueError(f"{name} must be in (0, 1)")
    total = sift.anomalies + sift.matched
    if total == 0:
        raise ValueError("verdict undefined: no receives at all")
    anomaly_fraction = sift.anomalies / total
    timing_alarm = anomaly_fraction > anomaly_threshold
    qber_alarm = sift.qber is not None and (sift.qber - 2.0 * sift.qber_sigma) > qber_threshold
    if timing_alarm and qber_alarm:
        decision = Decision.BOTH_ALARMS
    elif timing_alarm:
        decision = Decision.TIMING_ALARM
    elif qber_alarm:
        decision = Decision.QBER_ALARM
    else:
        decision = Decision.CLEAN
    return Verdict(
        anomaly_fraction=anomaly_fraction,
        qber=sift.qber,
        qber_sigma=sift.qber_sigma,
        decision=decision,
    )


# --- reports and fringe serialization ----------------------------------------

FRINGE_COLUMNS = ["delta_l_nm", "counts_d0", "counts_d1"]


def write_fringe_csv(path, points: list[FringePoint]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(FRINGE_COLUMNS)
        for p in points:
            writer.writerow([repr(p.delta_l_nm), repr(p.counts_d0), repr(p.counts_d1)])


def read_fringe_csv(path) -> list[FringePoint]:
    points = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != FRINGE_COLUMNS:
            raise ValueError(f"unexpected fringe header: {header!r}")
        for row in reader:
            points.append(
                FringePoint(delta_l_nm=float(row[0]), counts_d0=float(row[1]), counts_d1=float(row[2]))
            )
    return points


def fit_report(fit_d0: FringeFit, fit_d1: FringeFit) -> dict:
    """Fit summary with fixed keys; phase_offset_rad is the D0 fringe's offset."""
    difference = canonical_phase(fit_d1.phase_offset_rad - fit_d0.phase_offset_rad)
    return {
        "visibility_d0": fit_d0.visibility,
        "visibility_d1": fit_d1.visibility,
        "phase_offset_rad": fit_d0.phase_offset_rad,
        "phase_offset_d1_rad": fit_d1.phase_offset_rad,
        "phase_difference_rad": difference,
        "mean_rate_d0": fit_d0.mean_rate,
        "mean_rate_d1": fit_d1.mean_rate,
        "residual_rms_d0": fit_d0.residual_rms,
        "residual_rms_d1": fit_d1.residual_rms,
    }


def verdict_report(verdict: Verdict) -> dict:
    """Verdict summary with fixed keys."""
    return {
        "qber": verdict.qber,
        "qber_sigma": verdict.qber_sigma,
        "anomaly_fraction": verdict.anomaly_fraction,
        "decision": verdict.decision.value,
    }
