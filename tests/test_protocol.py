"""Session engine: reception, timing test, sift, serialization."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gvqkd.adversary import AttackStrategy
from gvqkd.devices import DetectorParams, SourceParams
from gvqkd.protocol import (
    Match,
    SessionConfig,
    SiftResult,
    Transcript,
    _stamp_text,
    bob_receive,
    read_transcript_csv,
    run_session,
    sift_and_qber,
    sift_transcript,
    timing_test,
    write_transcript_csv,
)

from helpers import ideal_config, noisy_config, run_and_sift
from oracles import binomial_sigma, gaussian_two_sided_tail, reference_timing_test, reference_transcript_csv


class TestSendTimes:
    def test_launches_are_tau_apart(self):
        # store-forward Eve holds packet a exactly until packet b launches,
        # so every click is late by tau plus her overhead, and her ideal
        # recombiner reads each photon's prepared state
        config = ideal_config(pair_rate_hz=200.0, duration_s=1.0, seed=10)
        transcript = run_session(config, AttackStrategy("store-forward", extra_delay_ps=500.0))
        assert transcript.t_s.size
        assert transcript.t_r.size == transcript.t_s.size
        lateness = transcript.t_r - (transcript.t_s + config.expected_offset_ps())
        assert np.all(lateness - 500.0 == config.tau_ps)
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
        # whole-ps stamps: a residual is zero only where the 300 ps herald jitter rounds away
        np.testing.assert_array_equal(residual, np.rint(residual))
        p_zero = 1.0 / (300.0 * math.sqrt(2.0 * math.pi))
        n = residual.size
        assert n - np.count_nonzero(residual) <= n * p_zero + 6.0 * n * binomial_sigma(p_zero, n) + 36
        assert abs(residual.std() - 300.0) <= 0.05 * 300.0


class TestBobReceive:
    def test_ideal_photon_is_deterministic(self):
        config = ideal_config()
        rng = np.random.default_rng(1)
        t_emit = np.array([5000.0, 5000.0, 7.5e11])
        bits = np.array([0, 1, 1])
        detector, t_click = bob_receive(bits, (t_emit + config.tau_ps) + config.travel_time_ps, config, rng)
        np.testing.assert_array_equal(detector, bits)
        assert t_click[0] == 5000.0 + config.tau_ps + config.travel_time_ps
        np.testing.assert_array_equal(t_click, (t_emit + config.tau_ps) + config.travel_time_ps)

    def test_dead_detector_returns_none(self):
        config = ideal_config(signal_detector=DetectorParams(efficiency=0.0, jitter_sigma_ps=0.0))
        rng = np.random.default_rng(4)
        detector, t_click = bob_receive(np.zeros(5, dtype=np.int64), np.full(5, 3000.0), config, rng)
        assert detector.size == 0
        assert t_click.size == 0


class TestRunSession:
    def test_receives_bounded_by_sends_without_darks(self):
        config = noisy_config(pair_rate_hz=1000.0, duration_s=1.0, seed=5)
        transcript = run_session(config)
        assert transcript.t_r.size <= transcript.t_s.size
        assert transcript.detector.size == transcript.t_r.size
        for name in ("bit", "eve_guess"):
            assert getattr(transcript, name).size == transcript.t_s.size

    def test_stamps_are_int64(self):
        transcript = run_session(noisy_config(pair_rate_hz=500.0, duration_s=1.0, seed=6))
        assert transcript.t_s.size and transcript.t_r.size
        assert transcript.t_s.dtype == transcript.t_r.dtype == np.int64

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

    def test_detectors_draw_different_dark_counts(self):
        # both detectors draw from one dark stream in turn, not from two equal ones
        config = ideal_config(
            pair_rate_hz=100.0,
            duration_s=1.0,
            seed=9,
            signal_detector=DetectorParams(efficiency=0.0, jitter_sigma_ps=0.0, dark_rate_hz=500.0),
        )
        transcript = run_session(config)
        d0, d1 = (transcript.t_r[transcript.detector == d] for d in (0, 1))
        assert d0.size and d1.size
        assert not np.array_equal(d0, d1)


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
    # in time order, as run_session emits them
    return send_times, sorted(clicks + darks)


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
        clicks = send_times + OFFSET + rng.normal(0.0, 40.0, 300)
        receive_times = np.sort(np.concatenate([clicks, rng.uniform(0.0, 1.1e5, 3000)]))
        match = timing_test(send_times, receive_times, config)
        matched, anomalies = reference_timing_test(send_times.tolist(), receive_times.tolist(), OFFSET, WINDOW)
        assert pairs(match) == matched
        assert match.anomalies.tolist() == anomalies
        assert match.anomalies.size > 0


class TestTimingModel:
    @pytest.mark.parametrize("herald, detector", [(300.0, 300.0), (0.0, 250.0), (123.4, 0.0), (0.0, 0.0)])
    def test_sigma_is_the_jitters_in_quadrature(self, herald, detector):
        config = SessionConfig(
            source=SourceParams(herald_jitter_sigma_ps=herald), signal_detector=DetectorParams(jitter_sigma_ps=detector)
        )
        assert config.sigma_ps == math.hypot(herald, detector)


class TestFalseAnomalyRate:
    def test_matches_quadrature_oracle(self):
        sigma = math.sqrt(300.0**2 + 300.0**2)
        for window in (sigma, 2.0 * sigma, 3.0 * sigma):
            assert SessionConfig(accept_window_given_ps=window).false_anomaly_rate == pytest.approx(
                gaussian_two_sided_tail(window, sigma), abs=1e-9
            )

    def test_three_sigma_value(self):
        # frozen: two-sided 3 sigma Gaussian tail, at the derived window of the default jitters
        assert SessionConfig().false_anomaly_rate == pytest.approx(0.0026998, abs=1e-6)

    def test_zero_jitter_never_false_alarms(self):
        assert ideal_config(accept_window_ps=100.0).false_anomaly_rate == 0.0


class TestSiftAndQber:
    def _pairs(self, n, wrong_indices=()):
        alice = np.arange(n) % 2
        bob = alice.copy()
        wrong = list(wrong_indices)
        bob[wrong] = 1 - alice[wrong]
        return alice, bob

    def test_disclosure_consumes_pairs(self):
        rng = np.random.default_rng(20)
        sift = sift_and_qber(*self._pairs(100), 0.5, rng, anomalies=0)
        assert sift.matched == 100
        assert sum(sift.disclosed_mask) == 50
        assert sift.key_bits == 50

    def test_error_free_pairs_give_zero_qber(self):
        rng = np.random.default_rng(21)
        sift = sift_and_qber(*self._pairs(100), 0.5, rng, anomalies=0)
        assert sift.qber == 0.0
        assert sift.qber_sigma == 0.0

    def test_key_keeps_the_undisclosed_pairs(self):
        alice, bob = self._pairs(60, wrong_indices=(3, 10, 41))
        sift = sift_and_qber(alice, bob, 0.5, np.random.default_rng(26), anomalies=0)
        assert sift.key_bits == np.count_nonzero(~sift.disclosed_mask) == 30

    def test_key_bits_of_an_all_disclosed_sift_is_zero(self):
        # round(2 * 0.75) discloses both pairs
        sift = sift_and_qber(*self._pairs(2), 0.75, np.random.default_rng(28), anomalies=0)
        assert sift.disclosed_mask.tolist() == [True, True]
        assert sift.key_bits == 0

    def test_qber_counts_disclosed_errors_only(self):
        rng = np.random.default_rng(22)
        alice, bob = self._pairs(200, wrong_indices=set(range(0, 200, 4)))
        sift = sift_and_qber(alice, bob, 0.5, rng, anomalies=0)
        disclosed_wrong = sum(
            1 for a, b, disclosed in zip(alice, bob, sift.disclosed_mask) if disclosed and a != b
        )
        n_disclosed = sum(sift.disclosed_mask)
        assert (sift.errors, sift.disclosed) == (disclosed_wrong, n_disclosed)
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
        assert sift.key_bits == 0

    def test_matched_pairs_with_none_disclosed(self):
        # round(1 * 0.3) = 0: the draw takes no pair, and the one pair is key
        sift = sift_and_qber(*self._pairs(1), 0.3, np.random.default_rng(29), anomalies=0)
        assert sift.disclosed_mask.tolist() == [False]
        assert (sift.matched, sift.key_bits, sift.qber) == (1, 1, None)

    def test_one_choice_call_on_the_sift_stream(self):
        # the disclosed subset is exactly one rng.choice(n, round(n f)) draw
        alice, bob = self._pairs(101)
        sift = sift_and_qber(alice, bob, 0.3, np.random.default_rng(27), anomalies=0)
        expected = np.random.default_rng(27).choice(101, size=30, replace=False)
        assert np.flatnonzero(sift.disclosed_mask).tolist() == sorted(expected.tolist())


def whole_ps_session():
    """Hand-built transcript of whole-ps stamps: negative, zero and 16-digit ones
    on matched, unmatched and anomaly rows, next to ordinary ones."""
    stamps = [-2500, -1, 0, 17, 4096, 242508580, 4 * 10**12, 10**15 - 1, 10**15, 2**52, 2**53 - 1]
    t_s = np.array(stamps, dtype=np.int64)
    t_r = np.sort(np.array(stamps + [-(2**53 - 1), -7, 0, 9999, 10000, 123456, 3 * 10**9, 9 * 10**15], dtype=np.int64))
    # each matched send takes the first receive of its own stamp
    send = np.array([0, 2, 3, 5, 6, 8, 10])
    receive = np.searchsorted(t_r, t_s[send])
    anomalies = np.setdiff1d(np.arange(t_r.size), receive)
    transcript = Transcript(
        t_s=t_s,
        bit=np.arange(t_s.size) % 2,
        t_r=t_r,
        detector=(np.arange(t_r.size) // 3) % 2,
        eve_guess=np.full(t_s.size, -1),
    )
    disclosed = np.array([True, False, True, True, False, True, True])
    errors = np.count_nonzero((transcript.bit[send] != transcript.detector[receive])[disclosed])
    sift = SiftResult(anomalies=anomalies.size, errors=errors, disclosed_mask=disclosed)
    return transcript, Match(send=send, receive=receive, anomalies=anomalies), sift


def mixed_chunk_session():
    """Ten sends and five anomalies. In 7-row chunks, rows 7..13 hold sends 7, 8 and 9
    (disclosed without an error, disclosed with one, unmatched) and the first four anomalies."""
    t_s = 4_000_000_000 + 1001 * np.arange(10)
    t_r = 4_000_003_000 + 1003 * np.arange(9)
    send, receive = np.array([1, 3, 7, 8]), np.array([0, 2, 4, 5])
    transcript = Transcript(
        t_s=t_s,
        bit=np.array([0, 1, 0, 1, 0, 1, 0, 1, 0, 1]),
        t_r=t_r,
        detector=np.array([0, 0, 1, 0, 1, 1, 0, 1, 1]),
        eve_guess=np.full(t_s.size, -1),
    )
    disclosed = np.array([False, True, True, True])
    sift = SiftResult(anomalies=5, errors=1, disclosed_mask=disclosed)
    return transcript, Match(send=send, receive=receive, anomalies=np.array([1, 3, 6, 7, 8])), sift


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

    def test_chunk_holding_the_last_sends_and_the_first_anomalies(self, tmp_path, monkeypatch):
        monkeypatch.setattr("gvqkd.protocol._CHUNK_ROWS", 7)
        transcript, match, sift = mixed_chunk_session()
        path = tmp_path / "transcript.csv"
        write_transcript_csv(path, transcript, match, sift)
        assert path.read_bytes() == reference_transcript_csv(transcript, match, sift)
        # the header, then rows 0..6, then the chunk of rows 7..13
        assert path.read_bytes().split(b"\r\n")[8:15] == [
            b"7,1,4000007007.0,1,4000007012.0,D1,1,0",
            b"8,0,4000008008.0,1,4000008015.0,D1,1,1",
            b"9,1,4000009009.0,0,,,0,",
            b",,,0,4000004003.0,D0,0,",
            b",,,0,4000006009.0,D0,0,",
            b",,,0,4000009018.0,D0,0,",
            b",,,0,4000010021.0,D1,0,",
        ]

    @pytest.mark.parametrize("chunk_rows", [None, 7])
    def test_whole_ps_rows_equal_row_by_row_csv_writer(self, tmp_path, monkeypatch, chunk_rows):
        if chunk_rows:
            monkeypatch.setattr("gvqkd.protocol._CHUNK_ROWS", chunk_rows)
        transcript, match, sift = whole_ps_session()
        assert match.anomalies.size > 7, "anomaly rows must span a chunk boundary"
        path = tmp_path / "transcript.csv"
        write_transcript_csv(path, transcript, match, sift)
        assert path.read_bytes() == reference_transcript_csv(transcript, match, sift)
        sends, _, _, _, anomalies = read_transcript_csv(path)
        assert [t for _, _, t in sends] == transcript.t_s.tolist()
        assert [t for t, _ in anomalies] == transcript.t_r[match.anomalies].tolist()

    # the text after the header and send 0; its last line is the one rejected ("\udcff" writes the byte 0xff)
    MALFORMED_ROWS = {
        "short-row": "0,1,5.0,1\r\n",
        "detector-X1": "0,1,5.0,1,9.0,X1,0,\r\n",
        "detector-D7": ",,,0,9.0,D7,0,\r\n",
        "long-row": "0,1,5.0,1,9.0,D1,0,,\r\n",
        "anomaly-without-detector": ",,,0,9.0,,0,\r\n",
        "matched-2": "1,1,5.0,2,9.0,D1,1,1\r\n",
        "bit-7": "1,7,5.0,0,,,0,\r\n",
        "error-on-undisclosed-pair": "1,1,5.0,1,9.0,D1,0,1\r\n",
        "disclosed-unmatched-send": "1,1,5.0,0,,,1,\r\n",
        "t_r-on-unmatched-send": "1,1,5.0,0,9.0,,0,\r\n",
        "nan-stamp": "1,1,nan,0,,,0,\r\n",
        "negative-zero-stamp": "1,1,-0.0,0,,,0,\r\n",
        "index-abc": "abc,1,5.0,0,,,0,\r\n",
        "index-arabic-indic-1": "\u0661,1,5.0,0,,,0,\r\n",
        "byte-ff": "\udcff1,1,5.0,0,,,0,\r\n",
        "duplicated-send": "0,0,1.0,1,3001.0,D0,0,\r\n",
        "send-after-anomaly": ",,,0,9.0,D0,0,\r\n1,1,5.0,0,,,0,\r\n",
        "last-row-cut-before-error": "1,1,5.0,1,9.0,D1,1,",
    }

    @pytest.mark.parametrize("rows", MALFORMED_ROWS.values(), ids=MALFORMED_ROWS.keys())
    def test_malformed_row_is_rejected_by_line(self, tmp_path, rows):
        path = tmp_path / "t.csv"
        header = "index,bit,t_s_ps,matched,t_r_ps,detector,disclosed,error"
        data = f"{header}\r\n0,0,1.0,0,,,0,\r\n{rows}".encode("utf-8", "surrogateescape")
        path.write_bytes(data)
        lines = data.decode("utf-8", "replace").splitlines(keepends=True)
        message = f"line {len(lines)}: not a transcript row: {lines[-1]!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            read_transcript_csv(path)

    def test_header_is_stable(self, tmp_path):
        config = ideal_config(pair_rate_hz=50.0, duration_s=0.5, seed=38)
        transcript = run_session(config)
        match, sift = sift_transcript(transcript, config)
        path = tmp_path / "t.csv"
        write_transcript_csv(path, transcript, match, sift)
        header = path.read_text(encoding="utf-8").splitlines()[0]
        assert header == "index,bit,t_s_ps,matched,t_r_ps,detector,disclosed,error"


class TestWriterMemory:
    def test_peak_does_not_grow_with_the_session(self, tmp_path):
        # about 160k rows, many chunks: the writer holds one chunk, not a copy of the session
        transcript, match, sift = run_and_sift(ideal_config(pair_rate_hz=32000.0))
        assert transcript.t_s.size + match.anomalies.size > 150_000
        tracemalloc.start()
        try:
            write_transcript_csv(tmp_path / "transcript.csv", transcript, match, sift)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20


def stamp_texts(values):
    text = _stamp_text(np.asarray(values, dtype=np.int64))
    return [row[row != 0].tobytes().decode("ascii") for row in text]


def assert_stamp_texts_are_repr(values):
    values = np.asarray(values, dtype=np.int64)
    for value, got in zip(values.tolist(), stamp_texts(values)):
        assert got == repr(float(value)), value


# the largest stamp the writer takes; float64 holds every whole number up to it
STAMP_MAX = 2**53 - 1
# where the sign or the digit count changes, and the ends of the range
STAMP_EDGES = [0, -1, -12] + [sign * (10**k + d) for k in range(16) for d in (-1, 1) for sign in (1, -1)]


class TestStampText:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(-STAMP_MAX, STAMP_MAX), min_size=1, max_size=40))
    @example(STAMP_EDGES + [STAMP_MAX, -STAMP_MAX])
    def test_equals_repr_on_whole_numbers(self, values):
        assert_stamp_texts_are_repr(values)

    def test_powers_of_two_and_their_neighbours(self):
        # where float64's spacing doubles, up to 2**52 + 1
        powers = 2 ** np.arange(53, dtype=np.int64)
        assert_stamp_texts_are_repr(np.concatenate([powers, powers - 1, powers + 1, -powers]))

    def test_rounding_carries_into_a_new_digit(self):
        tens = 10 ** np.arange(7, 16, dtype=np.int64)
        assert_stamp_texts_are_repr(np.concatenate([tens, tens + 1, tens - 1]))

    def test_whole_numbers_and_the_fast_edge(self):
        # every stamp up to 2**53 - 1 prints as its digits and ".0", negative ones with a sign
        tens = 10 ** np.arange(16, dtype=np.int64)
        assert_stamp_texts_are_repr([0, -1, -12, -4096, -10**15, 9999, 10000, STAMP_MAX, -STAMP_MAX])
        assert_stamp_texts_are_repr(np.concatenate([tens, tens - 1, tens + 1]))
        assert stamp_texts([0, 242508580, STAMP_MAX]) == ["0.0", "242508580.0", "9007199254740991.0"]

    def test_session_times_including_negative_stamps(self):
        transcript = run_session(noisy_config(pair_rate_hz=2000.0, duration_s=1.0, seed=6))
        assert_stamp_texts_are_repr(np.concatenate([transcript.t_s, transcript.t_r]))
        assert_stamp_texts_are_repr(np.random.default_rng(2026).integers(-10**4, 5 * 10**12, 20000))
