"""Fringe scans, fits, visibility/QBER relations, verdict logic."""

import math

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
from gvqkd.protocol import SessionConfig, SiftResult
from gvqkd.streams import stream

from helpers import ideal_config, run_and_sift
from oracles import binomial_sigma, reference_fringe_scan, visibility_from_extremes

WAVELENGTH = 812.0


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

    def test_deterministic_for_seed(self):
        config = table_config()
        a = fringe_scan(config, 0, (0.0, 1624.0), 11, 200, np.random.default_rng(5))
        b = fringe_scan(config, 0, (0.0, 1624.0), 11, 200, np.random.default_rng(5))
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

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

    def test_rejects_bad_arguments(self):
        config = ideal_config()
        rng = np.random.default_rng(6)
        with pytest.raises(ValueError):
            fringe_scan(config, 0, (100.0, 100.0), 5, 100, rng)
        with pytest.raises(ValueError):
            fringe_scan(config, 0, (0.0, 1624.0), 1, 100, rng)
        with pytest.raises(ValueError):
            fringe_scan(config, 0, (0.0, 1624.0), 5, 0, rng)

    @pytest.mark.parametrize("span", [(0.0, 1e308), (1e307, 1e308)])
    def test_rejects_a_span_whose_phases_overflow(self, span):
        with pytest.raises(ValueError, match="phase must be finite"):
            fringe_scan(ideal_config(), 0, span, 5, 100, np.random.default_rng(6))

    @pytest.mark.parametrize("source_bit", [2, 3, -1, None])
    def test_rejects_a_source_bit_that_is_not_a_bit(self, source_bit):
        # the link-state table has rows past the two encodings; a scan must not index them
        with pytest.raises(ValueError, match="source_bit must be 0 or 1"):
            fringe_scan(ideal_config(), source_bit, (0.0, 1624.0), 5, 100, np.random.default_rng(6))


class TestFringeScanAgainstReference:
    @pytest.mark.parametrize("source_bit", [0, 1])
    @pytest.mark.parametrize("pair", [(0.89, 0.82), (1.0, 1.0)])
    @pytest.mark.parametrize("seed", [0, 5, 61, 2010])
    def test_equals_the_per_step_loop(self, source_bit, pair, seed):
        # same steps, same counts, and the generator left in the same state
        config = SessionConfig(visibility_d0=pair[0], visibility_d1=pair[1])
        scan_rng = np.random.default_rng(seed)
        reference_rng = np.random.default_rng(seed)
        delta_l, counts = fringe_scan(config, source_bit, (0.0, 1624.0), 41, 5000, scan_rng)
        ref_delta_l, ref_counts = reference_fringe_scan(config, source_bit, (0.0, 1624.0), 41, 5000, reference_rng)
        assert delta_l.tolist() == ref_delta_l
        assert [tuple(row) for row in counts.tolist()] == ref_counts
        assert scan_rng.random() == reference_rng.random()


class TestFitFringe:
    def test_exact_recovery_on_noiseless_data(self):
        for visibility in (0.3, 0.82, 1.0):
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

    def test_rejects_too_few_points(self):
        delta_l, counts = synthetic_scan(100.0, 0.9, 0.9, 0.0)
        with pytest.raises(ValueError, match="4 points"):
            fit_fringe(delta_l[:3], counts[:3], WAVELENGTH)

    def test_rejects_short_span(self):
        with pytest.raises(ValueError, match="period"):
            fit_fringe(*synthetic_scan(100.0, 0.9, 0.9, 0.0, n_steps=10, span=(0.0, 400.0)), WAVELENGTH)

    @pytest.mark.parametrize(
        "column, row, value",
        [(1, 3, math.nan), (2, 5, math.inf), (0, 2, math.nan)],
        ids=["nan-count", "inf-count", "nan-delta-l"],
    )
    def test_rejects_non_finite_data(self, column, row, value):
        # column 0 is delta_l_nm; columns 1 and 2 are the D0 and D1 counts
        delta_l, counts = synthetic_scan(1000.0, 0.9, 0.9, 0.0)
        table = np.column_stack([delta_l, counts])
        table[row, column] = value
        with pytest.raises(ValueError, match="finite"):
            fit_fringe(table[:, 0], table[:, 1:], WAVELENGTH)

    def test_rejects_phases_that_overflow(self):
        # 2 pi dl / lambda is inf at dl = 1e308: rejected before cos, with no RuntimeWarning
        with pytest.raises(ValueError, match="finite phases"):
            fit_fringe(np.linspace(0.0, 1e308, 5), np.full((5, 2), 100.0), WAVELENGTH)

    def test_rejects_rank_deficient_design(self):
        # only full-wavelength steps: cos is constant, sin is zero
        with pytest.raises(ValueError, match="degenerate"):
            fit_fringe(np.arange(4) * WAVELENGTH, np.full((4, 2), 100.0), WAVELENGTH)


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
        delta_l, counts = synthetic_scan(1000.0, 0.86, 0.86, 0.0, n_steps=17)
        fit_d0, _ = fit_fringe(delta_l, counts, WAVELENGTH)
        extremes = visibility_from_extremes(counts[:, 0].max(), counts[:, 0].min())
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
        delta_l, counts = fringe_scan(config, 0, (0.0, 2.0 * WAVELENGTH), 41, 5000, rng)
        fit_d0, _ = fit_fringe(delta_l, counts, WAVELENGTH)
        predicted = qber_from_visibility(fit_d0.visibility)
        _, _, sift = run_and_sift(config)
        n = sum(sift.disclosed_mask)
        assert abs(sift.qber - predicted) <= 4.0 * binomial_sigma(predicted, n)


class TestVerdicts:
    def _sift(self, n_matched=1000, qber=0.0, qber_sigma=0.001, anomalies=0):
        return SiftResult(
            matched=n_matched,
            anomalies=anomalies,
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

    def test_negative_count_in_a_file_is_rejected(self, tmp_path):
        path = tmp_path / "fringe.csv"
        path.write_text("delta_l_nm,counts_d0,counts_d1\r\n0.0,12,5\r\n81.2,-1,5\r\n", encoding="utf-8")
        with pytest.raises(ValueError, match="non-negative"):
            read_fringe_csv(path)

    def test_nan_count_in_a_file_is_rejected(self, tmp_path):
        path = tmp_path / "fringe.csv"
        path.write_text("delta_l_nm,counts_d0,counts_d1\r\n0.0,12,5\r\n81.2,nan,5\r\n", encoding="utf-8")
        with pytest.raises(ValueError, match="non-negative"):
            read_fringe_csv(path)

    def test_inf_count_in_a_file_is_rejected(self, tmp_path):
        path = tmp_path / "fringe.csv"
        path.write_text("delta_l_nm,counts_d0,counts_d1\r\n0.0,inf,5\r\n81.2,1,2\r\n", encoding="utf-8")
        with pytest.raises(ValueError, match="^line 2: .*finite"):
            read_fringe_csv(path)

    def test_nan_delta_l_in_a_file_is_rejected(self, tmp_path):
        path = tmp_path / "fringe.csv"
        path.write_text("delta_l_nm,counts_d0,counts_d1\r\n0.0,12,5\r\nnan,1,2\r\n", encoding="utf-8")
        with pytest.raises(ValueError, match="^line 3: .*finite"):
            read_fringe_csv(path)

    def test_non_numeric_field_in_a_file_is_rejected(self, tmp_path):
        path = tmp_path / "fringe.csv"
        path.write_text("delta_l_nm,counts_d0,counts_d1\r\n0.0,12,5\r\n1.0,abc,2\r\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"^line 3: values must be numbers, got \['1.0', 'abc', '2'\]$"):
            read_fringe_csv(path)

    def test_row_without_three_fields_is_rejected(self, tmp_path):
        # three 2-field rows hold six values: they must not be read as two 3-field rows
        path = tmp_path / "fringe.csv"
        path.write_text("delta_l_nm,counts_d0,counts_d1\r\n0.0,5\r\n1.0,6\r\n2.0,7\r\n", encoding="utf-8")
        with pytest.raises(ValueError, match="^line 2: expected 3 fields, got 2$"):
            read_fringe_csv(path)
        path.write_text("delta_l_nm,counts_d0,counts_d1\r\n0.0,5,1\r\n1.0,6,1,9\r\n", encoding="utf-8")
        with pytest.raises(ValueError, match="^line 3: expected 3 fields, got 4$"):
            read_fringe_csv(path)

    def test_header_only_file_is_empty(self, tmp_path):
        path = tmp_path / "fringe.csv"
        path.write_text("delta_l_nm,counts_d0,counts_d1\r\n", encoding="utf-8")
        delta_l, counts = read_fringe_csv(path)
        assert (delta_l.shape, counts.shape) == ((0,), (0, 2))

    def test_unexpected_header_is_rejected(self, tmp_path):
        path = tmp_path / "fringe.csv"
        path.write_text("delta_l,d0,d1\r\n0.0,1,1\r\n", encoding="utf-8")
        with pytest.raises(ValueError, match="header"):
            read_fringe_csv(path)
