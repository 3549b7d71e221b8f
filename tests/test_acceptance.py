"""End-to-end acceptance gate for the simulator.

Eight numbered criteria, one test each, covering deterministic ideal
operation, the reported two-source error rates, fringe recovery, the
visibility/QBER relation, both eavesdropping demonstrations, clean-link
timing statistics, and the reproducibility/property suites. Run with -v
for one pass/fail line per criterion.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from gvqkd.adversary import AttackStrategy, eve_information
from gvqkd.analysis import (
    Decision,
    detect_eavesdropping,
    fit_fringe,
    fringe_scan,
    qber_from_visibility,
)
from gvqkd.cli import EXIT_OK, main
from gvqkd.config import load_config
from gvqkd.protocol import run_session, sift_transcript
from gvqkd.streams import stream

from helpers import ideal_config, noisy_config, run_and_sift
from oracles import beam_splitter, binomial_sigma
from test_optics import random_states

CONFIGS_DIR = Path(__file__).resolve().parent.parent / "configs"

FAST_SCENARIO = """\
seed = 5
jitter = 0
pair_rate = 400
duration = 1
runs = 2
scan_steps = 9
shots_per_step = 200
"""


def test_01_ideal_link_is_deterministic():
    """Perfect devices: zero errors and exact arrival times over >= 1e4 photons."""
    started = time.perf_counter()
    config = ideal_config(seed=101)
    transcript, match, sift = run_and_sift(config)
    assert transcript.t_s.size >= 10_000
    assert match.send.size == transcript.t_s.size
    assert match.anomalies.size == 0
    offset = config.expected_offset_ps()
    t_s, t_r = transcript.t_s[match.send], transcript.t_r[match.receive]
    assert np.all(t_r == t_s + offset)  # bit-exact, no tolerance
    assert np.all(transcript.detector[match.receive] == transcript.bit[match.send])
    assert sift.qber == 0.0
    kept = ~sift.disclosed_mask
    assert np.array_equal(transcript.bit[match.send][kept], transcript.detector[match.receive][kept])
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    print(f"PASS 1: {match.send.size} photons, QBER 0, exact timing, {elapsed:.2f} s")


def test_02_two_source_error_rates_match_reported_values():
    """Shipped two-source scenarios: 60 runs each, mean QBER inside the reported bands."""
    started = time.perf_counter()
    means = {}
    for name, low, high in (("measured_s0", 0.055, 0.085), ("measured_s1", 0.055, 0.085)):
        experiment = load_config(CONFIGS_DIR / f"{name}.cfg")
        session = experiment.session
        assert experiment.runs == 60
        assert session.session_duration_s == 5.0
        qbers = []
        for run_index in range(experiment.runs):
            transcript = run_session(session, run_index=run_index, source_bit=experiment.source_bit)
            match, sift = sift_transcript(transcript, session, run_index)
            assert match.send.size >= 1000  # enough sifted bits per run
            qbers.append(sift.qber)
        mean = float(np.mean(qbers))
        assert low <= mean <= high, f"{name}: mean QBER {mean:.4f} outside [{low}, {high}]"
        means[name] = mean
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(f"PASS 2: mean QBER {means['measured_s0']:.4f} / {means['measured_s1']:.4f}, {elapsed:.1f} s")


def test_03_fringe_scan_recovers_visibilities_and_phase_offset():
    """Two-period scans recover both detector visibilities +-0.02 and a pi fringe offset."""
    cases = {"measured_s0": (0, 0.89, 0.82), "measured_s1": (1, 0.88, 0.85)}
    for name, (source_bit, expected_d0, expected_d1) in cases.items():
        session = load_config(CONFIGS_DIR / f"{name}.cfg").session
        rng = stream(session.seed, "fringe", run_index=source_bit)
        span = 2.0 * session.wavelength_nm
        delta_l_nm, counts = fringe_scan(session, source_bit, (0.0, span), 41, 5000, rng)
        fit_d0, fit_d1 = fit_fringe(delta_l_nm, counts, session.wavelength_nm)
        assert fit_d0.visibility == pytest.approx(expected_d0, abs=0.02)
        assert fit_d1.visibility == pytest.approx(expected_d1, abs=0.02)
        diff = (fit_d1.phase_offset_rad - fit_d0.phase_offset_rad) % (2.0 * math.pi)
        assert diff == pytest.approx(math.pi, abs=0.05)
    print("PASS 3: visibilities within 0.02, detector fringes pi apart")


def test_04_sifted_error_rate_tracks_visibility():
    """QBER = (1 - V)/2 within 4 sigma of binomial noise at >= 1e4 disclosed bits."""
    for seed, visibility in ((201, 0.80), (202, 0.86), (203, 0.95)):
        config = ideal_config(pair_rate_hz=4100.0, seed=seed, visibility=visibility)
        _, _, sift = run_and_sift(config)
        disclosed = sum(sift.disclosed_mask)
        assert disclosed >= 10_000
        expected = qber_from_visibility(visibility)
        sigma = binomial_sigma(expected, disclosed)
        assert abs(sift.qber - expected) <= 4.0 * sigma, (
            f"V={visibility}: QBER {sift.qber:.4f} vs {expected:.4f} (sigma {sigma:.4f})"
        )
    print("PASS 4: QBER matches (1 - V)/2 at V = 0.80, 0.86, 0.95")


def test_05_which_path_attack_trips_the_error_test():
    """Intercept-resend: half the sifted bits flip, timing stays clean, Eve learns nothing."""
    config = ideal_config(seed=301)
    attack = AttackStrategy(kind="which-path")
    transcript, match, sift = run_and_sift(config, attack=attack)
    assert transcript.t_s.size >= 10_000
    assert sift.qber == pytest.approx(0.50, abs=0.02)
    assert match.anomalies.size == 0  # same anomaly fraction as the jitter-free clean baseline
    info = eve_information(transcript.eve_guess, transcript.bit)
    assert info < 0.01
    verdict = detect_eavesdropping(sift, 1e-3, 0.11)
    assert verdict.decision is Decision.QBER_ALARM
    print(f"PASS 5: QBER {sift.qber:.3f}, Eve info {info:.5f} bits, verdict QberAlarm")


def test_06_store_and_forward_attack_trips_the_timing_test():
    """Hold-and-release: every arrival 2500 ps late against a 1273 ps window, bits intact."""
    window = 3.0 * math.hypot(300.0, 300.0)  # the window a jittery link would use
    config = ideal_config(seed=302, accept_window_ps=window)
    attack = AttackStrategy(kind="store-forward", extra_delay_ps=500.0)
    transcript, match, sift = run_and_sift(config, attack=attack)
    assert transcript.t_s.size >= 10_000

    # every detection is late by tau + extra delay, well past the window
    assert match.send.size == 0
    assert match.anomalies.size == transcript.t_s.size
    offset = config.expected_offset_ps()
    lateness = transcript.t_r - (transcript.t_s + offset)
    assert np.all(lateness == 2500.0)  # exact: tau 2000 + extra 500
    assert np.all(lateness >= config.tau_ps)
    verdict = detect_eavesdropping(sift, 1e-3, 0.11)
    assert verdict.anomaly_fraction == 1.0
    assert verdict.decision is Decision.TIMING_ALARM

    # Eve reads the bit perfectly, and the bits she forwards are unaltered:
    # a wide acceptance window shows zero errors among matched pairs
    info = eve_information(transcript.eve_guess, transcript.bit)
    assert info == pytest.approx(1.0, abs=0.01)
    # low rate keeps neighbouring emissions from contesting the wide window
    wide = ideal_config(pair_rate_hz=400.0, seed=302, accept_window_ps=10_000.0)
    _, match_wide, sift_wide = run_and_sift(wide, attack=attack)
    assert match_wide.anomalies.size == 0
    assert match_wide.send.size > 0
    assert sift_wide.qber == 0.0
    print(f"PASS 6: anomaly fraction 1.0, Eve info {info:.4f} bits, verdict TimingAlarm")


def test_07_clean_link_false_anomaly_rate_matches_gaussian_tail():
    """At 300 ps jitters and a 3-sigma window, ~0.27% of clean detections fall outside."""
    config = noisy_config(pair_rate_hz=20_400.0, seed=401)
    assert config.source.herald_jitter_sigma_ps == 300.0
    assert config.signal_detector.jitter_sigma_ps == 300.0
    assert config.accept_window_ps == pytest.approx(3.0 * math.hypot(300.0, 300.0))
    _, match, _ = run_and_sift(config)
    total = match.send.size + match.anomalies.size
    assert total >= 100_000
    fraction = match.anomalies.size / total
    assert fraction == pytest.approx(0.0027, abs=0.001)
    print(f"PASS 7: false-anomaly fraction {fraction:.5f} over {total} photons")


def test_08_property_suites_and_reproducibility(tmp_path):
    """Optics invariants at 1e-12, device statistics, byte-identical CLI reruns."""
    # recombiner unitarity and state normalization over 1e3 random states
    for state in random_states(1000, seed=501):
        assert abs(state.norm_squared() - 1.0) < 1e-12
        assert abs(beam_splitter(state).norm_squared() - 1.0) < 1e-12

    # device statistics: Poisson count and Gaussian jitter moments
    from gvqkd.devices import DetectorParams, SourceParams, detector_click, generate_emissions

    source = SourceParams(pair_rate_hz=5000.0)
    emissions = generate_emissions(source, 10.0, np.random.default_rng(502))
    expected = 50_000.0
    assert abs(len(emissions) - expected) <= 4.0 * math.sqrt(expected)

    detector = DetectorParams(jitter_sigma_ps=300.0)
    det_rng = np.random.default_rng(503)
    hit, residuals = detector_click(np.zeros(20_000), detector, det_rng)
    assert hit.all()
    assert abs(residuals.mean()) <= 4.0 * 300.0 / math.sqrt(len(residuals))
    assert residuals.std() == pytest.approx(300.0, rel=0.05)

    # byte-identical reruns of every subcommand
    cfg = tmp_path / "fast.cfg"
    cfg.write_text(FAST_SCENARIO, encoding="utf-8")
    commands = {
        "transmit": ["transmit"],
        "fringe-scan": ["fringe-scan"],
        "attack-demo": ["attack-demo", "--attack", "store-forward"],
    }
    for label, argv in commands.items():
        trees = []
        for attempt in ("a", "b"):
            out_dir = tmp_path / f"{label}-{attempt}"
            code = main([*argv, "--config", str(cfg), "--out", str(out_dir)])
            assert code == EXIT_OK
            trees.append({p.name: p.read_bytes() for p in sorted(out_dir.iterdir())})
        assert trees[0] == trees[1], f"{label}: rerun outputs differ"
    print("PASS 8: optics/device properties hold; all subcommands byte-reproducible")
