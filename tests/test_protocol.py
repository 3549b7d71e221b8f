"""Session engine: reception, timing test, sift, serialization."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gvqkd.adversary import NO_ATTACK, AttackStrategy, apply_attack
from gvqkd.devices import DetectorParams, SourceParams
from gvqkd.optics import PathState, detection_probabilities, link_states, make_state
from gvqkd.protocol import (
    SessionConfig,
    bob_receive,
    combined_jitter_ps,
    detection_table,
    false_anomaly_rate,
    read_transcript_csv,
    run_session,
    sift_and_qber,
    sift_transcript,
    timing_test,
    write_transcript_csv,
)
from gvqkd.streams import SessionStreams

from helpers import ideal_config, noisy_config, run_and_sift
from oracles import binomial_sigma, gaussian_two_sided_tail, reference_timing_test, reference_transcript_csv

TRANSCRIPT_COLUMNS = ("t_s", "bit", "t_r", "detector", "eve_guess", "eve_delay")


def assert_same_transcript(first, second):
    for name in TRANSCRIPT_COLUMNS:
        np.testing.assert_array_equal(getattr(first, name), getattr(second, name), err_msg=name)


class TestSessionConfig:
    def test_defaults(self):
        config = SessionConfig()
        assert config.tau_ps == 2000.0
        assert config.travel_time_ps == 1000.0
        assert config.wavelength_nm == 812.0
        assert config.coherence_window_ps == 10.0
        # accept window defaults to 3x the combined jitter
        assert config.accept_window_ps == pytest.approx(3.0 * math.sqrt(2.0) * 300.0)
        # per-detector visibilities default to the session visibility
        assert config.visibility_d0 == config.visibility == 1.0

    def test_rejects_tau_below_timing_noise(self):
        # tau = 500 ps against 300/300 ps jitters: the timing test could
        # not tell a held packet from ordinary jitter
        with pytest.raises(ValueError, match="tau"):
            SessionConfig(tau_ps=500.0)

    def test_tau_invariant_scales_with_jitter(self):
        source = SourceParams(herald_jitter_sigma_ps=100.0)
        detector = DetectorParams(jitter_sigma_ps=100.0)
        SessionConfig(tau_ps=500.0, source=source, signal_detector=detector)

    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            SessionConfig(visibility=1.5)
        with pytest.raises(ValueError):
            SessionConfig(disclosure_fraction=0.0)
        with pytest.raises(ValueError):
            SessionConfig(tau_ps=-1.0)
        with pytest.raises(ValueError):
            SessionConfig(session_duration_s=0.0)

    def test_expected_offset(self):
        assert SessionConfig().expected_offset_ps() == 3000.0


class TestAlicePrepare:
    def test_launches_are_tau_apart(self):
        # store-forward Eve holds packet a exactly until packet b launches,
        # and her ideal recombiner reads each photon's prepared state
        config = ideal_config(pair_rate_hz=200.0, duration_s=1.0, seed=10)
        transcript = run_session(config, AttackStrategy("store-forward", extra_delay_ps=500.0))
        assert transcript.t_s.size
        assert np.all(transcript.eve_delay - 500.0 == config.tau_ps)
        np.testing.assert_array_equal(transcript.eve_guess, transcript.bit)

    def test_heralded_stamp_overrides_true_time(self):
        # herald jitter only: the click time follows the true emission, the
        # sender's log carries the jittered stamp
        config = noisy_config(
            pair_rate_hz=2000.0,
            duration_s=1.0,
            seed=11,
            signal_detector=DetectorParams(efficiency=1.0, jitter_sigma_ps=0.0),
        )
        transcript, match, _ = run_and_sift(config)
        residual = transcript.t_r[match.receive] - config.expected_offset_ps() - transcript.t_s[match.send]
        assert np.count_nonzero(residual) == residual.size
        assert abs(residual.std() - 300.0) <= 0.05 * 300.0

    def test_channel_occupancy_disjoint_when_tau_exceeds_travel(self):
        # with tau > T the leading packet has fully arrived before the
        # delayed one launches: the channel never holds both
        tau, travel = 2000.0, 1000.0
        t_emit = np.array([0.0, 123.4, 9.9e11])
        launch_b = t_emit + tau
        _, arrival_a, _, _, _ = apply_attack(
            NO_ATTACK, np.zeros(3, dtype=np.int64), t_emit, launch_b, travel, np.random.default_rng(0)
        )
        assert np.all(arrival_a < launch_b)


class TestDetectionTable:
    def test_equals_scalar_detection_rule_bit_for_bit(self):
        for visibility in (1.0, 0.855, 0.3, 0.0):
            table = detection_table(visibility)
            assert table.shape == (4, 2)
            for index, state in enumerate(link_states()):
                for column, v_eff in enumerate((visibility, 0.0)):
                    assert table[index, column] == detection_probabilities(state, v_eff)[0]

    def test_encoded_and_localized_states(self):
        v = SessionConfig(visibility=0.855).visibility
        table = detection_table(v)
        for bit in (0, 1):
            assert table[bit, 0] == detection_probabilities(make_state(bit), v)[0]
            assert table[bit, 1] == detection_probabilities(make_state(bit), 0.0)[0]
        # which-path localized states never interfere
        assert link_states()[2:] == (PathState(1.0, 0.0), PathState(0.0, 1.0))
        assert table[2:].tolist() == [[0.5, 0.5], [0.5, 0.5]]

    def test_every_state_passes_validation(self):
        for state in link_states():
            assert PathState(state.amp_a, state.amp_b) == state


class TestBobReceive:
    def test_ideal_photon_is_deterministic(self):
        config = ideal_config()
        rng = np.random.default_rng(1)
        t_emit = np.array([5000.0, 5000.0, 7.5e11])
        bits = np.array([0, 1, 1])
        detector, t_click = bob_receive(
            bits, t_emit + config.travel_time_ps, (t_emit + config.tau_ps) + config.travel_time_ps, config, rng
        )
        np.testing.assert_array_equal(detector, bits)
        assert t_click[0] == 5000.0 + config.tau_ps + config.travel_time_ps
        np.testing.assert_array_equal(t_click, (t_emit + config.tau_ps) + config.travel_time_ps)

    def test_late_packet_destroys_interference(self):
        # delayed packet 10 ns late: no overlap at the recombiner, the
        # detector choice degrades to a fair coin
        config = ideal_config()
        rng = np.random.default_rng(2)
        n = 4000
        zeros = np.zeros(n)
        detector, _ = bob_receive(
            np.zeros(n, dtype=np.int64),
            zeros + config.travel_time_ps,
            zeros + config.tau_ps + config.travel_time_ps + 10_000.0,
            config,
            rng,
        )
        assert detector.size == n
        assert abs(detector.sum() / n - 0.5) <= 4.0 * binomial_sigma(0.5, n)

    def test_late_packet_sets_click_time(self):
        config = ideal_config()
        rng = np.random.default_rng(3)
        late = config.tau_ps + config.travel_time_ps + 10_000.0
        _, t_click = bob_receive(np.zeros(1, dtype=np.int64), np.array([config.travel_time_ps]), np.array([late]), config, rng)
        assert t_click.tolist() == [late]

    def test_dead_detector_returns_none(self):
        config = ideal_config(signal_detector=DetectorParams(efficiency=0.0, jitter_sigma_ps=0.0))
        rng = np.random.default_rng(4)
        detector, t_click = bob_receive(np.zeros(5, dtype=np.int64), np.full(5, 1000.0), np.full(5, 3000.0), config, rng)
        assert detector.size == 0
        assert t_click.size == 0


class TestRunSession:
    def test_deterministic_for_seed(self):
        config = noisy_config(pair_rate_hz=500.0, duration_s=1.0, seed=99)
        assert_same_transcript(run_session(config), run_session(config))

    def test_receives_bounded_by_sends_without_darks(self):
        config = noisy_config(pair_rate_hz=1000.0, duration_s=1.0, seed=5)
        transcript = run_session(config)
        assert transcript.t_r.size <= transcript.t_s.size
        assert transcript.detector.size == transcript.t_r.size
        for name in ("bit", "eve_guess", "eve_delay"):
            assert getattr(transcript, name).size == transcript.t_s.size

    def test_send_log_ordered_by_stamp(self):
        config = noisy_config(pair_rate_hz=2000.0, duration_s=1.0, seed=6)
        transcript = run_session(config)
        assert np.all(np.diff(transcript.t_s) >= 0.0)
        assert np.all(np.diff(transcript.t_r) >= 0.0)

    def test_fixed_source_bit(self):
        config = ideal_config(pair_rate_hz=200.0, duration_s=1.0, seed=7)
        transcript = run_session(config, source_bit=1)
        assert transcript.t_s.size
        assert np.all(transcript.bit == 1)

    def test_random_bits_are_balanced(self):
        config = ideal_config(pair_rate_hz=4000.0, duration_s=5.0, seed=8)
        transcript = run_session(config)
        n = transcript.bit.size
        assert abs(transcript.bit.sum() / n - 0.5) <= 4.0 * binomial_sigma(0.5, n)

    def test_dark_counts_add_receives(self):
        config = ideal_config(
            pair_rate_hz=100.0,
            duration_s=1.0,
            seed=9,
            signal_detector=DetectorParams(efficiency=1.0, jitter_sigma_ps=0.0, dark_rate_hz=500.0),
        )
        transcript = run_session(config)
        assert transcript.t_r.size > transcript.t_s.size
        assert set(transcript.detector.tolist()) == {0, 1}

    def test_rejects_bad_source_bit(self):
        with pytest.raises(ValueError):
            run_session(ideal_config(pair_rate_hz=10.0, duration_s=0.1), source_bit=2)


def pairs(match):
    return list(zip(match.send.tolist(), match.receive.tolist()))


class TestTimingTest:
    def _config(self):
        return ideal_config(accept_window_ps=100.0)

    def test_exact_arrivals_all_match(self):
        config = self._config()
        offset = config.expected_offset_ps()
        t_s = 1e6 * np.arange(5)
        match = timing_test(t_s, t_s + offset, config)
        assert pairs(match) == [(i, i) for i in range(5)]
        assert match.anomalies.size == 0

    def test_deviation_beyond_window_is_anomalous(self):
        config = self._config()
        offset = config.expected_offset_ps()
        match = timing_test([0.0], [offset + 101.0], config)
        assert match.send.size == 0
        assert match.anomalies.tolist() == [0]

    def test_deviation_at_window_edge_matches(self):
        config = self._config()
        offset = config.expected_offset_ps()
        match = timing_test([0.0], [offset + 100.0], config)
        assert pairs(match) == [(0, 0)]
        assert match.anomalies.size == 0

    def test_matching_is_one_to_one(self):
        # two receives pointing at the same send: the later one loses
        config = self._config()
        offset = config.expected_offset_ps()
        match = timing_test([0.0], [offset + 1.0, offset + 2.0], config)
        assert pairs(match) == [(0, 0)]
        assert match.anomalies.tolist() == [1]

    def test_first_claimant_in_time_order_wins(self):
        # receives handed over out of time order: the earlier click wins
        config = self._config()
        offset = config.expected_offset_ps()
        match = timing_test([0.0], [offset + 2.0, offset + 1.0], config)
        assert pairs(match) == [(0, 1)]
        assert match.anomalies.tolist() == [0]

    def test_picks_nearest_send(self):
        config = self._config()
        offset = config.expected_offset_ps()
        match = timing_test([0.0, 50.0], [offset + 49.0], config)
        assert match.send.tolist() == [1]

    def test_tie_goes_to_earlier_send_without_fallback(self):
        # equidistant from both neighbours: the earlier send wins; once it
        # is taken, a tying receive is an anomaly even though the later
        # send is free
        config = self._config()
        offset = config.expected_offset_ps()
        match = timing_test([0.0, 50.0], [offset + 25.0, offset + 25.0], config)
        assert pairs(match) == [(0, 0)]
        assert match.anomalies.tolist() == [1]

    def test_empty_inputs(self):
        config = self._config()
        match = timing_test([], [], config)
        assert match.send.size == match.receive.size == match.anomalies.size == 0
        match = timing_test([], [1.0], config)
        assert match.send.size == 0
        assert match.anomalies.tolist() == [0]
        match = timing_test([1.0], [], config)
        assert match.send.size == match.anomalies.size == 0


OFFSET = 3000.0
WINDOW = 100.0

# times on a coarse grid so exact ties and shared claims are common
grid_times = st.lists(st.integers(min_value=0, max_value=400).map(lambda k: 12.5 * k), max_size=40)


@st.composite
def matcher_cases(draw):
    send_times = sorted(draw(grid_times))
    # clean arrivals with small deviations, plus dark counts anywhere
    clicks = [t + OFFSET + draw(st.sampled_from((-150.0, -100.0, -12.5, 0.0, 6.25, 100.0, 112.5))) for t in send_times
              if draw(st.booleans())]
    darks = [t + OFFSET for t in draw(grid_times)]
    receive_times = draw(st.permutations(clicks + darks))
    return send_times, receive_times


class TestTimingTestAgainstReference:
    @settings(max_examples=400, deadline=None)
    @given(matcher_cases())
    def test_equals_scalar_reference(self, case):
        send_times, receive_times = case
        config = ideal_config(accept_window_ps=WINDOW)
        assert config.expected_offset_ps() == OFFSET
        match = timing_test(np.array(send_times), np.array(receive_times), config)
        matched, anomalies = reference_timing_test(send_times, receive_times, OFFSET, WINDOW)
        assert pairs(match) == matched
        assert match.anomalies.tolist() == anomalies

        # invariants: one-to-one, within the window, every receive accounted for
        assert len(set(match.send.tolist())) == match.send.size
        assert len(set(match.receive.tolist())) == match.receive.size
        deviation = np.array(receive_times)[match.receive] - OFFSET - np.array(send_times)[match.send]
        assert np.all(np.abs(deviation) <= WINDOW)
        assert match.send.size + match.anomalies.size == len(receive_times)
        assert sorted(match.receive.tolist() + match.anomalies.tolist()) == list(range(len(receive_times)))

    def test_dense_dark_counts(self):
        # dark counts far denser than the sends: most receives contest a send
        rng = np.random.default_rng(12)
        config = ideal_config(accept_window_ps=WINDOW)
        send_times = np.sort(rng.uniform(0.0, 1e5, size=300))
        receive_times = np.concatenate([send_times + OFFSET + rng.normal(0.0, 40.0, 300), rng.uniform(0.0, 1.1e5, 3000)])
        match = timing_test(send_times, receive_times, config)
        matched, anomalies = reference_timing_test(send_times.tolist(), receive_times.tolist(), OFFSET, WINDOW)
        assert pairs(match) == matched
        assert match.anomalies.tolist() == anomalies
        assert match.anomalies.size > 0


class TestFalseAnomalyRate:
    def test_matches_quadrature_oracle(self):
        sigma = math.sqrt(300.0**2 + 300.0**2)
        for window in (sigma, 2.0 * sigma, 3.0 * sigma):
            assert false_anomaly_rate(window, sigma) == pytest.approx(
                gaussian_two_sided_tail(window, sigma), abs=1e-9
            )

    def test_three_sigma_value(self):
        # frozen: two-sided 3 sigma Gaussian tail
        sigma = math.sqrt(2.0) * 300.0
        assert false_anomaly_rate(3.0 * sigma, sigma) == pytest.approx(0.0026998, abs=1e-6)

    def test_zero_jitter_never_false_alarms(self):
        assert false_anomaly_rate(100.0, 0.0) == 0.0

    def test_empirical_rate_on_clean_link(self):
        # default window = 3x combined jitter; observed anomaly fraction
        # agrees with the analytic tail at 4 sigma of its own counting error
        config = noisy_config(pair_rate_hz=4000.0, duration_s=5.0, seed=31)
        _, match, _ = run_and_sift(config)
        total = match.send.size + match.anomalies.size
        expected = false_anomaly_rate(config.accept_window_ps, combined_jitter_ps(config.source, config.signal_detector))
        assert abs(match.anomalies.size / total - expected) <= 4.0 * binomial_sigma(expected, total)


class TestSiftAndQber:
    def _pairs(self, n, wrong_indices=()):
        alice = np.arange(n) % 2
        bob = alice.copy()
        wrong = list(wrong_indices)
        bob[wrong] = 1 - alice[wrong]
        return alice, bob

    def test_disclosure_consumes_pairs(self):
        rng = np.random.default_rng(20)
        sift = sift_and_qber(*self._pairs(100), 0.5, rng)
        assert sift.matched == 100
        assert sum(sift.disclosed_mask) == 50
        assert len(sift.key_bits_alice) == 50
        assert len(sift.key_bits_bob) == 50

    def test_error_free_pairs_give_zero_qber(self):
        rng = np.random.default_rng(21)
        sift = sift_and_qber(*self._pairs(100), 0.5, rng)
        assert sift.qber == 0.0
        assert sift.qber_sigma == 0.0
        assert sift.key_bits_alice == sift.key_bits_bob

    def test_key_keeps_undisclosed_pairs_in_order(self):
        alice, bob = self._pairs(60, wrong_indices=(3, 10, 41))
        sift = sift_and_qber(alice, bob, 0.5, np.random.default_rng(26))
        kept = ~sift.disclosed_mask
        assert sift.key_bits_alice == "".join(str(b) for b in alice[kept].tolist())
        assert sift.key_bits_bob == "".join(str(b) for b in bob[kept].tolist())

    def test_qber_counts_disclosed_errors_only(self):
        rng = np.random.default_rng(22)
        alice, bob = self._pairs(200, wrong_indices=set(range(0, 200, 4)))
        sift = sift_and_qber(alice, bob, 0.5, rng)
        disclosed_wrong = sum(
            1 for a, b, disclosed in zip(alice, bob, sift.disclosed_mask) if disclosed and a != b
        )
        n_disclosed = sum(sift.disclosed_mask)
        assert sift.qber == pytest.approx(disclosed_wrong / n_disclosed)
        assert sift.qber_sigma == pytest.approx(
            math.sqrt(sift.qber * (1.0 - sift.qber) / n_disclosed)
        )

    def test_empty_matched_flags_undefined(self):
        rng = np.random.default_rng(23)
        sift = sift_and_qber(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), 0.5, rng, anomalies=7)
        assert sift.qber is None
        assert sift.qber_sigma is None
        assert sift.anomalies == 7
        assert sift.matched == 0
        assert sift.key_bits_alice == ""

    def test_rejects_bad_fraction(self):
        rng = np.random.default_rng(24)
        for bad in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError):
                sift_and_qber(*self._pairs(10), bad, rng)

    def test_deterministic_for_seed(self):
        alice, bob = self._pairs(100)
        a = sift_and_qber(alice, bob, 0.5, np.random.default_rng(25))
        b = sift_and_qber(alice, bob, 0.5, np.random.default_rng(25))
        np.testing.assert_array_equal(a.disclosed_mask, b.disclosed_mask)
        assert a.key_bits_alice == b.key_bits_alice

    def test_one_choice_call_on_the_sift_stream(self):
        # the disclosed subset is exactly one rng.choice(n, round(n f)) draw
        alice, bob = self._pairs(101)
        sift = sift_and_qber(alice, bob, 0.3, np.random.default_rng(27))
        expected = np.random.default_rng(27).choice(101, size=30, replace=False)
        assert np.flatnonzero(sift.disclosed_mask).tolist() == sorted(expected.tolist())


class TestVisibilityQberRelation:
    def test_sifted_qber_tracks_one_minus_v_over_two(self):
        # spot check at the Table-like operating point; the full sweep is
        # acceptance criterion 4
        config = ideal_config(pair_rate_hz=4000.0, duration_s=5.0, seed=33, visibility=0.86)
        _, _, sift = run_and_sift(config)
        expected = (1.0 - 0.86) / 2.0
        n = sum(sift.disclosed_mask)
        assert abs(sift.qber - expected) <= 4.0 * binomial_sigma(expected, n)


def lossy_session():
    """Jittered link whose transcript carries matched rows, unmatched sends
    (detector losses) and anomalous receives (dark counts)."""
    config = noisy_config(
        pair_rate_hz=2000.0,
        duration_s=1.0,
        seed=37,
        signal_detector=DetectorParams(efficiency=0.8, jitter_sigma_ps=300.0, dark_rate_hz=200.0),
    )
    transcript, match, sift = run_and_sift(config)
    assert match.anomalies.size, "scenario must produce anomalous receives"
    assert match.send.size < transcript.t_s.size, "scenario must produce unmatched sends"
    return transcript, match, sift


class TestTranscriptRoundTrip:
    def test_csv_round_trip_exact(self, tmp_path):
        transcript, match, sift = lossy_session()
        path = tmp_path / "transcript.csv"
        write_transcript_csv(path, transcript, match, sift)
        sends, matches, disclosed, errors, read_anomalies = read_transcript_csv(path)

        assert sends == list(zip(range(transcript.t_s.size), transcript.bit.tolist(), transcript.t_s.tolist()))
        assert matches == {
            send: (transcript.t_r[receive], transcript.detector[receive]) for send, receive in pairs(match)
        }
        expected_disclosed = {send for send, flag in zip(match.send.tolist(), sift.disclosed_mask) if flag}
        assert disclosed == expected_disclosed
        expected_errors = {
            send
            for (send, receive), flag in zip(pairs(match), sift.disclosed_mask)
            if flag and transcript.bit[send] != transcript.detector[receive]
        }
        assert errors == expected_errors
        assert read_anomalies == list(zip(transcript.t_r[match.anomalies].tolist(), transcript.detector[match.anomalies].tolist()))

    def test_bytes_equal_row_by_row_csv_writer(self, tmp_path):
        transcript, match, sift = lossy_session()
        path = tmp_path / "transcript.csv"
        write_transcript_csv(path, transcript, match, sift)
        assert path.read_bytes() == reference_transcript_csv(transcript, match, sift)

    def test_chunked_rows_equal_row_by_row_csv_writer(self, tmp_path, monkeypatch):
        # chunk boundaries inside both the send rows and the anomaly rows
        monkeypatch.setattr("gvqkd.protocol._CHUNK_ROWS", 7)
        transcript, match, sift = lossy_session()
        path = tmp_path / "transcript.csv"
        write_transcript_csv(path, transcript, match, sift)
        assert path.read_bytes() == reference_transcript_csv(transcript, match, sift)

    def test_header_is_stable(self, tmp_path):
        config = ideal_config(pair_rate_hz=50.0, duration_s=0.5, seed=38)
        streams = SessionStreams(config.seed, 0)
        transcript = run_session(config, streams=streams)
        match, sift = sift_transcript(transcript, config, streams.sift)
        path = tmp_path / "t.csv"
        write_transcript_csv(path, transcript, match, sift)
        header = path.read_text(encoding="utf-8").splitlines()[0]
        assert header == "index,bit,t_s_ps,matched,t_r_ps,detector,disclosed,error"
