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

from gvqkd.optics import LINK_STATES, canonical_phase, detection_p0, phase_from_path_length
from gvqkd.protocol import SessionConfig, SiftResult

DEFAULT_QBER_THRESHOLD = 0.11

MAX_FRINGE_CONDITION = 10.0  # of a scan's fit design: even scans give 1.41-1.73 (README: the fit's error above it)

# floor keeps the derived default usable for jitter-free configs, where the
# analytic false-anomaly rate is exactly 0
MIN_ANOMALY_THRESHOLD = 1e-3


class Decision(str, Enum):
    CLEAN = "Clean"
    TIMING_ALARM = "TimingAlarm"
    QBER_ALARM = "QberAlarm"
    BOTH_ALARMS = "BothAlarms"


@dataclass(frozen=True)
class FringeFit:
    """Fitted fringe A (1 + V cos(2 pi dl / lambda + phi0)) for one detector."""

    visibility: float
    phase_offset_rad: float
    mean_rate: float
    residual_rms: float


@dataclass(frozen=True)
class Verdict:
    """Outcome of the two public security tests on one sifted session; its QBER stays on the SiftResult."""

    anomaly_fraction: float
    decision: Decision


def fringe_scan(
    config: SessionConfig,
    source_bit: int,
    delta_l_range_nm: tuple[float, float],
    n_steps: int,
    shots_per_step: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Sweep the path-length difference; returns (delta_l_nm, counts).

    counts[step] holds detector 0's and detector 1's counts. Each detector
    samples its own fringe, at its own configured visibility, as a binomial
    over shots_per_step photons per step; the draws run in row order.
    """
    lo, hi = delta_l_range_nm
    if not hi > lo:
        raise ValueError("delta_l_range_nm must be a nonempty (lo, hi) interval")
    if n_steps < 2:
        raise ValueError("n_steps must be >= 2")
    if shots_per_step < 1:
        raise ValueError("shots_per_step must be >= 1")
    if source_bit not in (0, 1):
        raise ValueError(f"source_bit must be 0 or 1, got {source_bit!r}")
    delta_l_nm = np.linspace(lo, hi, n_steps)
    with np.errstate(over="ignore"):  # an overflowed phase is rejected below, before exp sees it
        phase = phase_from_path_length(delta_l_nm, config.wavelength_nm)
    if not np.isfinite(phase).all():
        raise ValueError("phase must be finite")
    amp_a, amp_b = LINK_STATES[source_bit]
    amp_b = amp_b * np.exp(1j * phase)
    p_d0 = detection_p0(amp_a, amp_b, config.visibility_d0)
    p_d1 = 1.0 - detection_p0(amp_a, amp_b, config.visibility_d1)
    return delta_l_nm, rng.binomial(shots_per_step, np.column_stack([p_d0, p_d1]))


def fringe_design(delta_l_nm: np.ndarray, wavelength_nm: float) -> np.ndarray:
    """The fit's basis (1, cos x, sin x), x = phase_from_path_length(dl, lambda); the one owner of the fit's scan rule.

    In order: at least 4 points, wavelength > 0 (optics), finite phases, a span >= lambda, condition number <= 10.
    """
    if delta_l_nm.size < 4:
        raise ValueError("fringe fit needs at least 4 points")
    with np.errstate(over="ignore"):  # an overflowed phase is rejected below, before cos sees it
        x = phase_from_path_length(delta_l_nm, wavelength_nm)
    if not np.isfinite(x).all():
        raise ValueError("fringe fit needs finite phases 2 pi delta_l / wavelength")
    if delta_l_nm.max() - delta_l_nm.min() < wavelength_nm:
        raise ValueError("fringe fit needs a scan spanning at least one period")
    design = np.column_stack([np.ones_like(x), np.cos(x), np.sin(x)])
    if not (condition := np.linalg.cond(design)) <= MAX_FRINGE_CONDITION:
        raise ValueError(f"degenerate fringe fit: condition number {condition:.3g} is above {MAX_FRINGE_CONDITION:g}")
    return design


def _fit_single(design: np.ndarray, counts: np.ndarray, detector: int) -> FringeFit:
    coeffs = np.linalg.lstsq(design, counts, rcond=None)[0]
    c0, c1, c2 = coeffs
    if c0 <= 0:
        raise ValueError(f"degenerate fringe fit: D{detector}'s fitted mean rate is not positive")
    visibility = min(1.0, max(0.0, math.hypot(c1, c2) / c0))
    residual_rms = float(np.sqrt(np.mean((counts - design @ coeffs) ** 2)))
    return FringeFit(float(visibility), float(canonical_phase(math.atan2(-c2, c1))), float(c0), residual_rms)


def fit_fringe(delta_l_nm: np.ndarray, counts: np.ndarray, wavelength_nm: float) -> tuple[FringeFit, FringeFit]:
    """Fit both detectors' fringes (the columns of counts); fringe_design decides which scans it can use."""
    counts = np.asarray(counts, dtype=float)
    if not np.isfinite(counts).all():
        raise ValueError("fringe fit needs finite counts")
    design = fringe_design(np.asarray(delta_l_nm, dtype=float), wavelength_nm)
    counts_d0, counts_d1 = counts.T
    return _fit_single(design, counts_d0, 0), _fit_single(design, counts_d1, 1)


def qber_from_visibility(visibility: float) -> float:
    """Expected sifted error rate of an interferometer at visibility V: (1 - V) / 2."""
    if not 0.0 <= visibility <= 1.0:
        raise ValueError("visibility must be in [0, 1]")
    return (1.0 - visibility) / 2.0


def default_anomaly_threshold(config: SessionConfig) -> float:
    """Timing alarm threshold: 3x the analytic false-anomaly rate of the clean link."""
    return max(3.0 * config.false_anomaly_rate, MIN_ANOMALY_THRESHOLD)


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
    return Verdict(anomaly_fraction=anomaly_fraction, decision=decision)


# --- fringe serialization ----------------------------------------------------

FRINGE_COLUMNS = ["delta_l_nm", "counts_d0", "counts_d1"]


def write_fringe_csv(path, delta_l_nm: np.ndarray, counts: np.ndarray) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(FRINGE_COLUMNS)
        # tolist() yields Python numbers, which csv writes as their repr: 2412, not np.int64(2412)
        writer.writerows([delta_l, *row] for delta_l, row in zip(delta_l_nm.tolist(), counts.tolist()))


def read_fringe_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Parse a fringe CSV back into (delta_l_nm, counts), counts as floats."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        if (header := next(reader)) != FRINGE_COLUMNS:
            raise ValueError(f"unexpected fringe header: {header!r}")
        rows = []
        for row in reader:
            if len(row) != 3:
                raise ValueError(f"line {reader.line_num}: expected 3 fields, got {len(row)}")
            try:
                values = [float(value) for value in row]
            except ValueError:
                raise ValueError(f"line {reader.line_num}: values must be numbers, got {row}") from None
            if not all(map(math.isfinite, values)) or min(values[1:]) < 0:
                raise ValueError(f"line {reader.line_num}: values must be finite and counts non-negative, got {row}")
            rows.append(values)
    table = np.array(rows).reshape(-1, 3)
    return table[:, 0], table[:, 1:]
