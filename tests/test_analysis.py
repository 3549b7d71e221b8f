"""Fringe scans, fits, visibility/QBER relations, verdict logic."""

import math
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from gvqkd.analysis import (
    Decision,
    canonical_phase,
    default_anomaly_threshold,
    detect_eavesdropping,
    fit_fringe,
    fringe_scan,
    qber_from_visibility,
    read_fringe_csv,
    write_fringe_csv,
)
from gvqkd.config import load_config
from gvqkd.protocol import SessionConfig, SiftResult
from gvqkd.streams import stream

from helpers import ideal_config, run_and_sift
from oracles import binomial_sigma, reference_fringe_scan

WAVELENGTH = 812.0
CONFIGS_DIR = Path(__file__).resolve().parent.parent / "configs"


def synthetic_scan(amplitude, visibility_d0, visibility_d1, phase_offset, n_steps=33, span=(0.0, 2.0 * WAVELENGTH)):
    """Noiseless fringes as (delta_l_nm, counts); D1 rides the complementary fringe."""
    delta_l = np.linspace(span[0], span[1], n_steps)
    cos_x = np.cos(2.0 * math.pi * delta_l / WAVELENGTH + phase_offset)
    counts = amplitude * np.column_stack([1.0 + visibility_d0 * cos_x, 1.0 - visibility_d1 * cos_x])
    return delta_l, counts


def table_config(**overrides):
    params = dict(visibility_d0=0.89, visibility_d1=0.82, seed=61)
    params.update(overrides)
    return SessionConfig(**params)


class TestFringeScan:
    def test_ideal_contrast_at_zero_path_difference(self):
        config = ideal_config()
        rng = np.random.default_rng(1)
        delta_l, counts = fringe_scan(config, 0, (0.0, 2.0 * WAVELENGTH), 9, 1000, rng)
        # step 0 sits at delta_l = 0: all counts on D0
        assert delta_l[0] == 0.0
        assert counts[0].tolist() == [1000, 0]

    def test_half_wave_shift_swaps_detectors(self):
        config = ideal_config()
        rng = np.random.default_rng(2)
        delta_l, counts = fringe_scan(config, 0, (0.0, WAVELENGTH), 3, 1000, rng)
        # middle step is delta_l = lambda/2: the pi phase turns bit 0 into bit 1
        assert delta_l[1] == WAVELENGTH / 2.0
        assert counts[1].tolist() == [0, 1000]

    def test_source_bit_one_is_antiphase(self):
        config = ideal_config()
        rng = np.random.default_rng(3)
        _, counts = fringe_scan(config, 1, (0.0, WAVELENGTH), 3, 1000, rng)
        assert counts[0].tolist() == [0, 1000]

    def test_counts_bounded_by_shots(self):
        config = table_config()
        rng = np.random.default_rng(4)
        delta_l, counts = fringe_scan(config, 0, (0.0, 1624.0), 21, 500, rng)
        assert delta_l.shape == (21,)
        assert counts.shape == (21, 2)
        assert np.issubdtype(counts.dtype, np.integer)
        assert ((0 <= counts) & (counts <= 500)).all()

    def test_one_binomial_call(self):
        class CountingRng:
            def __init__(self, rng):
                self.rng = rng
                self.calls = 0

            def binomial(self, n, p):
                self.calls += 1
                return self.rng.binomial(n, p)

        rng = CountingRng(np.random.default_rng(9))
        fringe_scan(table_config(), 0, (0.0, 1624.0), 41, 5000, rng)
        assert rng.calls == 1


def shipped_scan(name, bit):
    """The scan fringe-scan runs on a shipped config for one source, on the config's own stream."""
    experiment = load_config(CONFIGS_DIR / f"{name}.cfg")
    session = experiment.session
    scan = (session, bit, (0.0, experiment.scan_span_nm), experiment.scan_steps, experiment.shots_per_step)
    return pytest.param(scan, partial(stream, session.seed, "fringe", bit), id=f"{name}-{bit}")


# each case: fringe_scan's arguments before the generator, and a maker of fresh generators all in one state
FRINGE_SCANS = [
    *(shipped_scan(name, bit) for name in ("attack_demo", "ideal", "measured_s0", "measured_s1") for bit in (0, 1)),
    # two periods in 41 steps at the measured and the ideal detector pair, over seeds
    *(
        pytest.param(
            (SessionConfig(visibility_d0=d0, visibility_d1=d1), bit, (0.0, 1624.0), 41, 5000),
            partial(np.random.default_rng, seed),
            id=f"{seed}-pair{i}-{bit}",
        )
        for seed in (0, 5, 61, 2010)
        for i, (d0, d1) in enumerate([(0.89, 0.82), (1.0, 1.0)])
        for bit in (0, 1)
    ),
]


class TestFringeScanAgainstReference:
    @pytest.mark.parametrize("scan, make_rng", FRINGE_SCANS)
    def test_equals_the_per_step_loop(self, scan, make_rng):
        # same steps, same counts, and the generator left in the same state
        scan_rng, reference_rng = make_rng(), make_rng()
        delta_l, counts = fringe_scan(*scan, scan_rng)
        ref_delta_l, ref_counts = reference_fringe_scan(*scan, reference_rng)
        assert delta_l.tolist() == ref_delta_l
        assert [tuple(row) for row in counts.tolist()] == ref_counts
        assert scan_rng.random() == reference_rng.random()


class TestFitFringe:
    def test_exact_recovery_on_noiseless_data(self):
        for visibility in (0.3, 0.82, 0.86, 1.0):
            for phase in (0.0, 0.8, math.pi, 4.0):
                fit_d0, fit_d1 = fit_fringe(*synthetic_scan(1000.0, visibility, visibility, phase), WAVELENGTH)
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
        fit_d0, _ = fit_fringe(*synthetic_scan(1000.0, 1.0, 1.0, 0.0), WAVELENGTH)
        assert 0.0 <= fit_d0.visibility <= 1.0

    def test_noisy_recovery_within_two_percent(self):
        config = table_config()
        rng = np.random.default_rng(7)
        delta_l, counts = fringe_scan(config, 0, (0.0, 2.0 * WAVELENGTH), 41, 5000, rng)
        fit_d0, fit_d1 = fit_fringe(delta_l, counts, WAVELENGTH)
        assert fit_d0.visibility == pytest.approx(0.89, abs=0.02)
        assert fit_d1.visibility == pytest.approx(0.82, abs=0.02)


class TestQberFromVisibility:
    def test_spec_values(self):
        assert qber_from_visibility(0.86) == pytest.approx(0.07, abs=1e-12)
        assert qber_from_visibility(1.0) == 0.0
        assert qber_from_visibility(0.0) == 0.5

    def test_consistent_with_sifted_qber(self):
        # fit a noisy fringe, predict the QBER, compare with an actual
        # sifted session at the same configured visibility
        config = ideal_config(pair_rate_hz=4000.0, duration_s=5.0, seed=63, visibility=0.86)
        rng = stream(63, "fringe")
        delta_l, counts = fringe_scan(config, 0, (0.0, 2.0 * WAVELENGTH), 41, 5000, rng)
        fit_d0, _ = fit_fringe(delta_l, counts, WAVELENGTH)
        predicted = qber_from_visibility(fit_d0.visibility)
        _, _, sift = run_and_sift(config)
        n = sum(sift.disclosed_mask)
        assert abs(sift.qber - predicted) <= 4.0 * binomial_sigma(predicted, n)


class TestVerdicts:
    def _sift(self, n_matched=1000, errors=0, anomalies=0):
        """Every other matched pair disclosed: errors of ceil(n_matched / 2)."""
        return SiftResult(anomalies, errors, disclosed_mask=np.arange(n_matched) % 2 == 0)

    def test_clean(self):
        verdict = detect_eavesdropping(self._sift(errors=10), 0.01, 0.11)
        assert verdict.decision is Decision.CLEAN

    def test_qber_alarm(self):
        verdict = detect_eavesdropping(self._sift(errors=250), 0.01, 0.11)
        assert verdict.decision is Decision.QBER_ALARM

    def test_timing_alarm(self):
        verdict = detect_eavesdropping(self._sift(n_matched=10, anomalies=990), 0.01, 0.11)
        assert verdict.decision is Decision.TIMING_ALARM
        assert verdict.anomaly_fraction == 0.99

    def test_both_alarms(self):
        verdict = detect_eavesdropping(self._sift(n_matched=100, errors=20, anomalies=900), 0.01, 0.11)
        assert verdict.decision is Decision.BOTH_ALARMS

    def test_guard_band_suppresses_marginal_qber(self):
        # qber - 2 sigma must exceed the threshold: 120 errors of 1000 disclosed,
        # 0.12 with sigma 0.0103, stays below 0.11 + guard
        sift = self._sift(n_matched=2000, errors=120)
        assert sift.qber == 0.12 and sift.qber_sigma == pytest.approx(0.0103, abs=1e-4)
        verdict = detect_eavesdropping(sift, 0.01, 0.11)
        assert verdict.decision is Decision.CLEAN

    def test_undefined_qber_cannot_fire_qber_alarm(self):
        sift = self._sift(n_matched=0, anomalies=100)
        assert sift.qber is None
        verdict = detect_eavesdropping(sift, 0.01, 0.11)
        assert verdict.decision is Decision.TIMING_ALARM

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
        delta_l, counts = fringe_scan(config, 0, (0.0, 1624.0), 21, 500, rng)
        path = tmp_path / "fringe.csv"
        write_fringe_csv(path, delta_l, counts)
        read_delta_l, read_counts = read_fringe_csv(path)
        assert read_delta_l.tolist() == delta_l.tolist()
        assert read_counts.tolist() == counts.tolist()
        header = path.read_text(encoding="utf-8").splitlines()[0]
        assert header == "delta_l_nm,counts_d0,counts_d1"

    def test_fringe_csv_encodings(self, tmp_path):
        # CRLF line ends, delta_l as its shortest repr, counts as decimal integers
        path = tmp_path / "fringe.csv"
        write_fringe_csv(path, np.array([0.0, 81.2, 1e-05]), np.array([[2412, 0], [7, 5000], [1, 2]]))
        assert path.read_bytes() == b"delta_l_nm,counts_d0,counts_d1\r\n0.0,2412,0\r\n81.2,7,5000\r\n1e-05,1,2\r\n"

    def test_header_only_file_is_empty(self, tmp_path):
        path = tmp_path / "fringe.csv"
        path.write_text("delta_l_nm,counts_d0,counts_d1\r\n", encoding="utf-8")
        delta_l, counts = read_fringe_csv(path)
        assert (delta_l.shape, counts.shape) == ((0,), (0, 2))
