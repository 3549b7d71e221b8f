"""Fringe scans, fits, visibility/QBER relations, verdict logic."""

import math

import numpy as np
import pytest

from gvqkd.analysis import (
    Decision,
    FringeFit,
    FringePoint,
    canonical_phase,
    default_anomaly_threshold,
    detect_eavesdropping,
    fit_fringe,
    fit_report,
    fringe_scan,
    qber_from_visibility,
    read_fringe_csv,
    verdict_report,
    visibility_from_extremes,
    write_fringe_csv,
)
from gvqkd.protocol import SessionConfig, SiftResult
from gvqkd.streams import stream

from helpers import ideal_config, run_and_sift
from oracles import binomial_sigma

WAVELENGTH = 812.0


def synthetic_points(amplitude, visibility_d0, visibility_d1, phase_offset, n_steps=33, span=(0.0, 2.0 * WAVELENGTH)):
    """Noiseless fringes for both detectors; D1 rides the complementary fringe."""
    points = []
    for delta_l in np.linspace(span[0], span[1], n_steps):
        x = 2.0 * math.pi * delta_l / WAVELENGTH + phase_offset
        points.append(
            FringePoint(
                delta_l_nm=float(delta_l),
                counts_d0=amplitude * (1.0 + visibility_d0 * math.cos(x)),
                counts_d1=amplitude * (1.0 - visibility_d1 * math.cos(x)),
            )
        )
    return points


def table_config(**overrides):
    params = dict(visibility=0.855, visibility_d0=0.89, visibility_d1=0.82, seed=61)
    params.update(overrides)
    return SessionConfig(**params)


class TestFringeScan:
    def test_ideal_contrast_at_zero_path_difference(self):
        config = ideal_config()
        rng = np.random.default_rng(1)
        points = fringe_scan(config, 0, (0.0, 2.0 * WAVELENGTH), 9, 1000, rng)
        # step 0 sits at delta_l = 0: all counts on D0
        assert points[0].counts_d0 == 1000
        assert points[0].counts_d1 == 0

    def test_half_wave_shift_swaps_detectors(self):
        config = ideal_config()
        rng = np.random.default_rng(2)
        points = fringe_scan(config, 0, (0.0, WAVELENGTH), 3, 1000, rng)
        # middle step is delta_l = lambda/2: the pi phase turns bit 0 into bit 1
        assert points[1].counts_d0 == 0
        assert points[1].counts_d1 == 1000

    def test_source_bit_one_is_antiphase(self):
        config = ideal_config()
        rng = np.random.default_rng(3)
        points = fringe_scan(config, 1, (0.0, WAVELENGTH), 3, 1000, rng)
        assert points[0].counts_d0 == 0
        assert points[0].counts_d1 == 1000

    def test_counts_bounded_by_shots(self):
        config = table_config()
        rng = np.random.default_rng(4)
        for p in fringe_scan(config, 0, (0.0, 1624.0), 21, 500, rng):
            assert 0 <= p.counts_d0 <= 500
            assert 0 <= p.counts_d1 <= 500

    def test_deterministic_for_seed(self):
        config = table_config()
        a = fringe_scan(config, 0, (0.0, 1624.0), 11, 200, np.random.default_rng(5))
        b = fringe_scan(config, 0, (0.0, 1624.0), 11, 200, np.random.default_rng(5))
        assert a == b

    def test_rejects_bad_arguments(self):
        config = ideal_config()
        rng = np.random.default_rng(6)
        with pytest.raises(ValueError):
            fringe_scan(config, 0, (100.0, 100.0), 5, 100, rng)
        with pytest.raises(ValueError):
            fringe_scan(config, 0, (0.0, 1624.0), 1, 100, rng)
        with pytest.raises(ValueError):
            fringe_scan(config, 0, (0.0, 1624.0), 5, 0, rng)


class TestFitFringe:
    def test_exact_recovery_on_noiseless_data(self):
        for visibility in (0.3, 0.82, 1.0):
            for phase in (0.0, 0.8, math.pi, 4.0):
                points = synthetic_points(1000.0, visibility, visibility, phase)
                fit_d0, fit_d1 = fit_fringe(points, WAVELENGTH)
                assert fit_d0.visibility == pytest.approx(visibility, abs=1e-10)
                assert fit_d0.mean_rate == pytest.approx(1000.0, rel=1e-10)
                assert canonical_phase(fit_d0.phase_offset_rad - phase) == pytest.approx(0.0, abs=1e-9) or (
                    canonical_phase(fit_d0.phase_offset_rad - phase) == pytest.approx(2.0 * math.pi, abs=1e-9)
                )
                assert fit_d0.residual_rms == pytest.approx(0.0, abs=1e-9)
                # complementary fringe: D1 offset differs by pi
                diff = canonical_phase(fit_d1.phase_offset_rad - fit_d0.phase_offset_rad)
                assert diff == pytest.approx(math.pi, abs=1e-9)

    def test_visibility_clamped_to_unit_interval(self):
        fit_d0, _ = fit_fringe(synthetic_points(1000.0, 1.0, 1.0, 0.0), WAVELENGTH)
        assert 0.0 <= fit_d0.visibility <= 1.0

    def test_noisy_recovery_within_two_percent(self):
        config = table_config()
        rng = np.random.default_rng(7)
        points = fringe_scan(config, 0, (0.0, 2.0 * WAVELENGTH), 41, 5000, rng)
        fit_d0, fit_d1 = fit_fringe(points, WAVELENGTH)
        assert fit_d0.visibility == pytest.approx(0.89, abs=0.02)
        assert fit_d1.visibility == pytest.approx(0.82, abs=0.02)

    def test_rejects_too_few_points(self):
        points = synthetic_points(100.0, 0.9, 0.9, 0.0)[:3]
        with pytest.raises(ValueError, match="4 points"):
            fit_fringe(points, WAVELENGTH)

    def test_rejects_short_span(self):
        points = synthetic_points(100.0, 0.9, 0.9, 0.0, n_steps=10, span=(0.0, 400.0))
        with pytest.raises(ValueError, match="period"):
            fit_fringe(points, WAVELENGTH)

    def test_rejects_rank_deficient_design(self):
        # only full-wavelength steps: cos is constant, sin is zero
        points = [
            FringePoint(delta_l_nm=k * WAVELENGTH, counts_d0=100.0, counts_d1=100.0) for k in range(4)
        ]
        with pytest.raises(ValueError, match="degenerate"):
            fit_fringe(points, WAVELENGTH)


class TestVisibilityFromExtremes:
    def test_spec_point(self):
        assert visibility_from_extremes(945.0, 55.0) == pytest.approx(0.89, abs=1e-12)

    def test_full_contrast(self):
        assert visibility_from_extremes(1000.0, 0.0) == 1.0

    def test_flat_fringe(self):
        assert visibility_from_extremes(500.0, 500.0) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            visibility_from_extremes(10.0, 20.0)
        with pytest.raises(ValueError):
            visibility_from_extremes(10.0, -1.0)
        with pytest.raises(ValueError):
            visibility_from_extremes(0.0, 0.0)

    def test_agrees_with_fit_on_noiseless_scan(self):
        # grid hits the exact extremes: steps of lambda/8 over two periods
        points = synthetic_points(1000.0, 0.86, 0.86, 0.0, n_steps=17)
        fit_d0, _ = fit_fringe(points, WAVELENGTH)
        rates = [p.counts_d0 for p in points]
        extremes = visibility_from_extremes(max(rates), min(rates))
        assert abs(extremes - fit_d0.visibility) < 0.01


class TestQberFromVisibility:
    def test_spec_values(self):
        assert qber_from_visibility(0.86) == pytest.approx(0.07, abs=1e-12)
        assert qber_from_visibility(1.0) == 0.0
        assert qber_from_visibility(0.0) == 0.5

    def test_validation(self):
        for bad in (-0.1, 1.0001):
            with pytest.raises(ValueError):
                qber_from_visibility(bad)

    def test_consistent_with_sifted_qber(self):
        # fit a noisy fringe, predict the QBER, compare with an actual
        # sifted session at the same configured visibility
        config = ideal_config(pair_rate_hz=4000.0, duration_s=5.0, seed=63, visibility=0.86)
        rng = stream(63, "fringe")
        points = fringe_scan(config, 0, (0.0, 2.0 * WAVELENGTH), 41, 5000, rng)
        fit_d0, _ = fit_fringe(points, WAVELENGTH)
        predicted = qber_from_visibility(fit_d0.visibility)
        _, _, sift = run_and_sift(config)
        n = sum(sift.disclosed_mask)
        assert abs(sift.qber - predicted) <= 4.0 * binomial_sigma(predicted, n)


class TestVerdicts:
    def _sift(self, n_matched=1000, qber=0.0, qber_sigma=0.001, anomalies=0):
        return SiftResult(
            matched=n_matched,
            anomalies=anomalies,
            key_bits_alice="0" * (n_matched // 2),
            key_bits_bob="0" * (n_matched // 2),
            qber=qber,
            qber_sigma=qber_sigma,
            disclosed_mask=np.arange(n_matched) % 2 == 0,
        )

    def test_clean(self):
        verdict = detect_eavesdropping(self._sift(qber=0.02), 0.01, 0.11)
        assert verdict.decision is Decision.CLEAN

    def test_qber_alarm(self):
        verdict = detect_eavesdropping(self._sift(qber=0.5, qber_sigma=0.007), 0.01, 0.11)
        assert verdict.decision is Decision.QBER_ALARM

    def test_timing_alarm(self):
        verdict = detect_eavesdropping(self._sift(n_matched=10, anomalies=990), 0.01, 0.11)
        assert verdict.decision is Decision.TIMING_ALARM
        assert verdict.anomaly_fraction == 0.99

    def test_both_alarms(self):
        verdict = detect_eavesdropping(self._sift(n_matched=100, qber=0.4, qber_sigma=0.01, anomalies=900), 0.01, 0.11)
        assert verdict.decision is Decision.BOTH_ALARMS

    def test_guard_band_suppresses_marginal_qber(self):
        # qber - 2 sigma must exceed the threshold: 0.12 with sigma 0.01
        # stays below 0.11 + guard
        verdict = detect_eavesdropping(self._sift(qber=0.12, qber_sigma=0.01), 0.01, 0.11)
        assert verdict.decision is Decision.CLEAN

    def test_undefined_qber_cannot_fire_qber_alarm(self):
        sift = self._sift(n_matched=0, anomalies=100)
        sift.qber = None
        sift.qber_sigma = None
        verdict = detect_eavesdropping(sift, 0.01, 0.11)
        assert verdict.decision is Decision.TIMING_ALARM
        assert verdict.qber is None

    def test_rejects_empty_session(self):
        with pytest.raises(ValueError):
            detect_eavesdropping(self._sift(n_matched=0, anomalies=0), 0.01, 0.11)

    def test_rejects_bad_thresholds(self):
        for anomaly_threshold, qber_threshold in ((0.0, 0.11), (1.0, 0.11), (0.01, 0.0), (0.01, 1.5)):
            with pytest.raises(ValueError):
                detect_eavesdropping(self._sift(), anomaly_threshold, qber_threshold)

    def test_default_anomaly_threshold(self):
        # 3x the analytic false-anomaly rate at the default window
        config = SessionConfig()
        assert default_anomaly_threshold(config) == pytest.approx(3.0 * 0.0026998, abs=1e-5)
        # floored for jitter-free configs
        assert default_anomaly_threshold(ideal_config()) == pytest.approx(1e-3)


class TestSerializationAndReports:
    def test_fringe_csv_round_trip(self, tmp_path):
        config = table_config()
        rng = np.random.default_rng(8)
        points = fringe_scan(config, 0, (0.0, 1624.0), 21, 500, rng)
        path = tmp_path / "fringe.csv"
        write_fringe_csv(path, points)
        assert read_fringe_csv(path) == points
        header = path.read_text(encoding="utf-8").splitlines()[0]
        assert header == "delta_l_nm,counts_d0,counts_d1"

    def test_fit_report_keys(self):
        fit = FringeFit(visibility=0.89, phase_offset_rad=0.0, mean_rate=1000.0, residual_rms=1.0)
        fit1 = FringeFit(visibility=0.82, phase_offset_rad=math.pi, mean_rate=1000.0, residual_rms=1.0)
        report = fit_report(fit, fit1)
        assert list(report)[:3] == ["visibility_d0", "visibility_d1", "phase_offset_rad"]
        assert report["visibility_d0"] == 0.89
        assert report["phase_difference_rad"] == pytest.approx(math.pi)

    def test_verdict_report_keys(self):
        sift = SiftResult(
            matched=1,
            anomalies=0,
            key_bits_alice="",
            key_bits_bob="",
            qber=0.0,
            qber_sigma=0.0,
            disclosed_mask=np.array([True]),
        )
        verdict = detect_eavesdropping(sift, 0.01, 0.11)
        report = verdict_report(verdict)
        assert list(report) == ["qber", "qber_sigma", "anomaly_fraction", "decision"]
        assert report["decision"] == "Clean"
