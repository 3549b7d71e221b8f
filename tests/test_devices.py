"""Source and detector models: Poisson streams, thinning, jitter, dark counts."""

import math

import numpy as np
import pytest
from scipy import stats

from gvqkd.devices import (
    PS_PER_S,
    DetectorParams,
    SourceParams,
    dark_clicks,
    detector_click,
    generate_emissions,
    herald,
)

from oracles import binomial_sigma


class TestParams:
    def test_source_validation(self):
        with pytest.raises(ValueError):
            SourceParams(pair_rate_hz=-1.0)
        with pytest.raises(ValueError):
            SourceParams(heralding_efficiency=1.5)
        with pytest.raises(ValueError):
            SourceParams(herald_jitter_sigma_ps=-10.0)

    def test_detector_validation(self):
        with pytest.raises(ValueError):
            DetectorParams(efficiency=-0.1)
        with pytest.raises(ValueError):
            DetectorParams(jitter_sigma_ps=-1.0)
        with pytest.raises(ValueError):
            DetectorParams(dark_rate_hz=-5.0)


class TestGenerateEmissions:
    def test_count_near_rate_times_duration(self):
        rng = np.random.default_rng(42)
        params = SourceParams(pair_rate_hz=10_000.0)
        times = generate_emissions(params, 5.0, rng)
        mean = 10_000.0 * 5.0
        assert abs(times.size - mean) <= 4.0 * math.sqrt(mean)

    def test_sorted_and_in_window(self):
        rng = np.random.default_rng(43)
        times = generate_emissions(SourceParams(pair_rate_hz=2000.0), 1.0, rng)
        assert np.all(np.diff(times) >= 0.0)
        assert times.min() >= 0.0
        assert times.max() < 1.0 * PS_PER_S

    def test_zero_rate_gives_empty(self):
        rng = np.random.default_rng(44)
        assert generate_emissions(SourceParams(pair_rate_hz=0.0), 5.0, rng).size == 0

    def test_rejects_non_positive_duration(self):
        rng = np.random.default_rng(45)
        for bad in (0.0, -1.0):
            with pytest.raises(ValueError):
                generate_emissions(SourceParams(pair_rate_hz=100.0), bad, rng)

    def test_deterministic_for_seed(self):
        params = SourceParams(pair_rate_hz=5000.0)
        a = generate_emissions(params, 2.0, np.random.default_rng(46))
        b = generate_emissions(params, 2.0, np.random.default_rng(46))
        assert np.array_equal(a, b)

    def test_interarrival_gaps_are_exponential(self):
        # KS against Expon(1/rate) on ~1e4 gaps, significance 0.01
        rng = np.random.default_rng(47)
        rate = 10_000.0
        times = generate_emissions(SourceParams(pair_rate_hz=rate), 1.0, rng)
        gaps_s = np.diff(times) / PS_PER_S
        result = stats.kstest(gaps_s, "expon", args=(0.0, 1.0 / rate))
        assert result.pvalue > 0.01


class TestHerald:
    def test_unit_efficiency_keeps_all(self):
        rng = np.random.default_rng(50)
        emissions = generate_emissions(SourceParams(pair_rate_hz=1000.0), 1.0, rng)
        t_true, t_stamped = herald(emissions, SourceParams(heralding_efficiency=1.0, herald_jitter_sigma_ps=0.0), rng)
        assert np.array_equal(t_true, emissions)
        assert np.array_equal(t_stamped, emissions)

    def test_zero_efficiency_keeps_none(self):
        rng = np.random.default_rng(51)
        emissions = np.linspace(0.0, 1e9, 100)
        t_true, t_stamped = herald(emissions, SourceParams(heralding_efficiency=0.0), rng)
        assert t_true.size == 0
        assert t_stamped.size == 0

    def test_thinning_fraction(self):
        rng = np.random.default_rng(52)
        n = 20_000
        emissions = np.linspace(0.0, 1e12, n)
        efficiency = 0.35
        t_true, _ = herald(emissions, SourceParams(heralding_efficiency=efficiency, herald_jitter_sigma_ps=0.0), rng)
        assert abs(t_true.size / n - efficiency) <= 4.0 * binomial_sigma(efficiency, n)

    def test_jitter_moments(self):
        rng = np.random.default_rng(53)
        n = 20_000
        emissions = np.linspace(0.0, 1e12, n)
        sigma = 300.0
        t_true, t_stamped = herald(emissions, SourceParams(heralding_efficiency=1.0, herald_jitter_sigma_ps=sigma), rng)
        residual = t_stamped - t_true
        assert abs(residual.mean()) <= 4.0 * sigma / math.sqrt(n)
        assert abs(residual.std() - sigma) <= 0.05 * sigma

    def test_output_sorted_by_true_time(self):
        rng = np.random.default_rng(54)
        emissions = generate_emissions(SourceParams(pair_rate_hz=5000.0), 1.0, rng)
        t_true, _ = herald(emissions, SourceParams(heralding_efficiency=0.6, herald_jitter_sigma_ps=300.0), rng)
        assert np.all(np.diff(t_true) >= 0.0)


class TestDetectorClick:
    def test_unit_efficiency_always_clicks(self):
        rng = np.random.default_rng(60)
        params = DetectorParams(efficiency=1.0, jitter_sigma_ps=0.0)
        t = np.array([0.0, 1e6, 5e12])
        hit, t_click = detector_click(t, params, rng)
        assert hit.all()
        np.testing.assert_array_equal(t_click, t)

    def test_zero_efficiency_never_clicks(self):
        rng = np.random.default_rng(61)
        params = DetectorParams(efficiency=0.0)
        hit, t_click = detector_click(np.full(100, 1e6), params, rng)
        assert not hit.any()
        assert t_click.size == 0

    def test_click_fraction(self):
        rng = np.random.default_rng(62)
        params = DetectorParams(efficiency=0.7, jitter_sigma_ps=0.0)
        n = 20_000
        hit, t_click = detector_click(np.zeros(n), params, rng)
        clicks = int(hit.sum())
        assert t_click.size == clicks
        assert abs(clicks / n - 0.7) <= 4.0 * binomial_sigma(0.7, n)

    def test_jitter_moments(self):
        rng = np.random.default_rng(63)
        sigma = 300.0
        params = DetectorParams(efficiency=1.0, jitter_sigma_ps=sigma)
        n = 20_000
        _, offsets = detector_click(np.zeros(n), params, rng)
        assert offsets.size == n
        assert abs(offsets.mean()) <= 4.0 * sigma / math.sqrt(n)
        assert abs(offsets.std() - sigma) <= 0.05 * sigma

    def test_jitter_follows_its_own_photon(self):
        # losses thin the arrivals without reordering them
        rng = np.random.default_rng(64)
        params = DetectorParams(efficiency=0.5, jitter_sigma_ps=1.0)
        t = 1e6 * np.arange(1000.0)
        hit, t_click = detector_click(t, params, rng)
        assert np.all(np.abs(t_click - t[hit]) < 10.0)


class TestDarkClicks:
    def test_zero_rate_gives_none(self):
        rng = np.random.default_rng(70)
        assert dark_clicks(DetectorParams(dark_rate_hz=0.0), 5.0, rng).size == 0

    def test_count_near_rate_times_duration(self):
        rng = np.random.default_rng(71)
        times = dark_clicks(DetectorParams(dark_rate_hz=400.0), 5.0, rng)
        mean = 400.0 * 5.0
        assert abs(times.size - mean) <= 4.0 * math.sqrt(mean)
        assert np.all(np.diff(times) >= 0.0)

    def test_rejects_non_positive_duration(self):
        rng = np.random.default_rng(72)
        with pytest.raises(ValueError):
            dark_clicks(DetectorParams(dark_rate_hz=10.0), 0.0, rng)
