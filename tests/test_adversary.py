"""Attack models and their detection signatures."""

import math

import numpy as np
import pytest

from gvqkd.adversary import (
    NO_ATTACK,
    NO_GUESS,
    AttackStrategy,
    apply_attack,
    eve_information,
)
from gvqkd.analysis import Decision, default_anomaly_threshold, detect_eavesdropping
from gvqkd.optics import STATE_MODE_A, STATE_MODE_B
from gvqkd.protocol import run_session

from helpers import ideal_config, run_and_sift
from oracles import PathState, binomial_sigma, link_states


class TestStrategy:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            AttackStrategy(kind="replay")

    def test_rejects_non_positive_delay(self):
        with pytest.raises(ValueError):
            AttackStrategy(kind="store-forward", extra_delay_ps=0.0)

    def test_rejects_delay_past_half_the_whole_ps_range(self):
        with pytest.raises(ValueError, match=r"^extra_delay_ps must be in \(0, 2\*\*52\)$"):
            AttackStrategy(kind="store-forward", extra_delay_ps=2.0**52)
        with pytest.raises(ValueError, match=r"^extra_delay_ps must be finite$"):
            AttackStrategy(kind="store-forward", extra_delay_ps=math.nan)
        AttackStrategy(kind="store-forward", extra_delay_ps=2.0**52 - 1.0)


def photons(bits, t_emit=0.0, tau=2000.0):
    """State indices and launch times of photons prepared at t_emit."""
    bits = np.asarray(bits, dtype=np.int64)
    launch_a = np.full(bits.size, t_emit)
    return bits, launch_a, launch_a + tau


class TestNoAttack:
    def test_identity_on_state_and_timing(self):
        rng = np.random.default_rng(1)
        state = np.array([0, 1], dtype=np.int64)
        out_state, arrival, guess = apply_attack(NO_ATTACK, state, np.full(2, 100.0), np.full(2, 2100.0), 1000.0, rng)
        np.testing.assert_array_equal(out_state, state)
        assert arrival.tolist() == [3100.0, 3100.0]
        assert guess.tolist() == [NO_GUESS, NO_GUESS]

    def test_session_identical_with_and_without(self):
        config = ideal_config(pair_rate_hz=500.0, duration_s=1.0, seed=41)
        clean = run_session(config)
        with_none = run_session(config, NO_ATTACK)
        for name in ("t_s", "bit", "t_r", "detector"):
            np.testing.assert_array_equal(getattr(clean, name), getattr(with_none, name))

    def test_attack_leaves_the_other_streams_alone(self):
        # each role draws from its own stream with an attack-independent
        # count: switching an attack on keeps the bits and emissions, and
        # the receiver's detector choices where the state is unchanged
        config = ideal_config(pair_rate_hz=500.0, duration_s=1.0, seed=41, accept_window_ps=10_000.0)
        clean = run_session(config)
        for kind in ("which-path", "store-forward"):
            attacked = run_session(config, AttackStrategy(kind))
            np.testing.assert_array_equal(clean.t_s, attacked.t_s)
            np.testing.assert_array_equal(clean.bit, attacked.bit)
        held = run_session(config, AttackStrategy("store-forward"))
        np.testing.assert_array_equal(clean.detector, held.detector)


class TestWhichPathInterceptResend:
    def test_state_is_localized_and_timing_untouched(self):
        rng = np.random.default_rng(2)
        strategy = AttackStrategy("which-path")
        out_state, arrival, guess = apply_attack(strategy, *photons([1] * 20), 1000.0, rng)
        localized = (STATE_MODE_A, STATE_MODE_B)
        assert set(out_state.tolist()) <= set(localized)
        assert [link_states()[i] for i in localized] == [PathState(1.0, 0.0), PathState(0.0, 1.0)]
        assert set(arrival.tolist()) == {3000.0}
        assert set(guess.tolist()) <= {0, 1}

    def test_frequencies_follow_born_rule(self):
        # 1e5 encoded photons of both bits: |a|^2 = 1/2 each, 4 sigma gate
        rng = np.random.default_rng(11)
        n = 100_000
        out_state, *_ = apply_attack(AttackStrategy("which-path"), *photons(np.arange(n) % 2), 1000.0, rng)
        hits_a = np.count_nonzero(out_state == STATE_MODE_A)
        assert abs(hits_a / n - 0.5) <= 4.0 * binomial_sigma(0.5, n)

    def test_localized_input_stays_in_its_mode(self):
        rng = np.random.default_rng(4)
        state = [STATE_MODE_A, STATE_MODE_B] * 50
        out_state, *_ = apply_attack(AttackStrategy("which-path"), *photons(state), 1000.0, rng)
        assert out_state.tolist() == state

    def test_qber_jumps_to_one_half(self):
        config = ideal_config(pair_rate_hz=2100.0, duration_s=5.0, seed=42)
        _, match, sift = run_and_sift(config, AttackStrategy("which-path"))
        assert match.anomalies.size == 0
        n = sum(sift.disclosed_mask)
        assert abs(sift.qber - 0.5) <= 4.0 * binomial_sigma(0.5, n)

    def test_guess_carries_no_information(self):
        config = ideal_config(pair_rate_hz=2100.0, duration_s=5.0, seed=43)
        transcript = run_session(config, AttackStrategy("which-path"))
        info = eve_information(transcript.eve_guess, transcript.bit)
        assert info < 0.01

    def test_verdict_is_qber_alarm(self):
        config = ideal_config(pair_rate_hz=2100.0, duration_s=5.0, seed=44)
        _, _, sift = run_and_sift(config, AttackStrategy("which-path"))
        verdict = detect_eavesdropping(sift, default_anomaly_threshold(config))
        assert verdict.decision is Decision.QBER_ALARM


class TestStoreMeasureForward:
    def test_learns_bit_exactly_and_delays_both_packets(self):
        rng = np.random.default_rng(3)
        strategy = AttackStrategy("store-forward", extra_delay_ps=500.0)
        bits = np.array([0, 1, 1, 0])
        out_state, arrival, guess = apply_attack(strategy, *photons(bits), 1000.0, rng)
        np.testing.assert_array_equal(guess, bits)
        # Eve re-prepares the state she read
        np.testing.assert_array_equal(out_state, bits)
        # the recombination, at packet b's arrival, is late by exactly tau + extra_delay
        assert set(arrival.tolist()) == {3000.0 + 2500.0}

    def test_every_receive_is_anomalous_at_default_window(self):
        config = ideal_config(pair_rate_hz=2100.0, duration_s=5.0, seed=45)
        transcript, match, sift = run_and_sift(config, AttackStrategy("store-forward"))
        assert match.send.size == 0
        assert match.anomalies.size == transcript.t_r.size
        assert transcript.t_r.size == run_session(config, AttackStrategy("store-forward")).t_r.size
        assert sift.qber is None

    def test_matched_bits_are_never_altered(self):
        # widen the accept window so the delayed photons still match: the
        # QBER test alone cannot see this attack; the rate stays low so
        # neighbouring emissions cannot contest the same window
        config = ideal_config(pair_rate_hz=400.0, duration_s=5.0, seed=46, accept_window_ps=10_000.0)
        transcript, match, sift = run_and_sift(config, AttackStrategy("store-forward"))
        assert match.send.size
        assert match.anomalies.size == 0
        assert sift.qber == 0.0
        np.testing.assert_array_equal(transcript.bit[match.send], transcript.detector[match.receive])
        # exact one-to-one check, independent of the matching heuristic
        np.testing.assert_array_equal(transcript.detector, transcript.bit)

    def test_eve_learns_one_bit(self):
        config = ideal_config(pair_rate_hz=2100.0, duration_s=5.0, seed=47)
        transcript = run_session(config, AttackStrategy("store-forward"))
        np.testing.assert_array_equal(transcript.eve_guess, transcript.bit)
        info = eve_information(transcript.eve_guess, transcript.bit)
        assert info == pytest.approx(1.0, abs=0.01)

    def test_verdict_is_timing_alarm(self):
        config = ideal_config(pair_rate_hz=2100.0, duration_s=5.0, seed=48)
        _, _, sift = run_and_sift(config, AttackStrategy("store-forward"))
        verdict = detect_eavesdropping(sift, default_anomaly_threshold(config))
        assert verdict.anomaly_fraction == 1.0
        assert verdict.decision is Decision.TIMING_ALARM


class TestEveInformation:
    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            eve_information([], [])

    def test_no_guesses_is_zero(self):
        assert eve_information([NO_GUESS] * 10, [0, 1] * 5) == 0.0

    def test_perfect_correlation_is_one_bit(self):
        assert eve_information([0, 0, 1, 1], [0, 0, 1, 1]) == pytest.approx(1.0, abs=1e-12)

    def test_uniform_independence_is_zero_bits(self):
        assert eve_information([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(0.0, abs=1e-12)

    def test_photons_without_a_guess_are_skipped(self):
        assert eve_information([0, NO_GUESS, 1, NO_GUESS], [0, 0, 1, 1]) == pytest.approx(1.0, abs=1e-12)

    def test_misaligned_inputs_rejected(self):
        with pytest.raises(ValueError):
            eve_information([NO_GUESS], [0, 1])


class TestSecurityDichotomy:
    def test_information_implies_disturbance(self):
        # any strategy that learns anything must trip at least one public
        # test: at 1e4 photons with ideal hardware, information > 0.1 bits
        # forces anomaly fraction > 0.9 or QBER > 0.3
        for kind in ("none", "which-path", "store-forward"):
            config = ideal_config(pair_rate_hz=2100.0, duration_s=5.0, seed=49)
            transcript, match, sift = run_and_sift(config, AttackStrategy(kind))
            info = eve_information(transcript.eve_guess, transcript.bit)
            if info > 0.1:
                total = match.send.size + match.anomalies.size
                anomaly_fraction = match.anomalies.size / total
                qber = sift.qber if sift.qber is not None else 0.0
                assert anomaly_fraction > 0.9 or qber > 0.3, kind
