"""Core state algebra: preparation, recombination, phase, detection."""

import cmath
import math

import numpy as np
import pytest

from gvqkd.optics import (
    PathState,
    apply_phase,
    beam_splitter,
    canonical_phase,
    detection_probabilities,
    make_state,
    overlap,
    phase_from_path_length,
)

from oracles import born_probabilities, hadamard_apply

TOL = 1e-12


def random_states(count: int, seed: int = 123) -> list[PathState]:
    """Normalized two-mode states with uniform random moduli and phases."""
    rng = np.random.default_rng(seed)
    states = []
    for _ in range(count):
        theta = rng.uniform(0.0, math.pi / 2.0)
        phi_a, phi_b = rng.uniform(0.0, 2.0 * math.pi, size=2)
        states.append(
            PathState(
                math.cos(theta) * cmath.exp(1j * phi_a),
                math.sin(theta) * cmath.exp(1j * phi_b),
            )
        )
    return states


class TestPathState:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="normalized"):
            PathState(1.0, 1.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            PathState(float("nan"), 0.0)

    def test_coerces_to_complex(self):
        state = PathState(1, 0)
        assert isinstance(state.amp_a, complex)
        assert state.norm_squared() == pytest.approx(1.0, abs=TOL)


class TestMakeState:
    def test_bit0_amplitudes(self):
        state = make_state(0)
        assert state.amp_a == pytest.approx(1.0 / math.sqrt(2.0), abs=TOL)
        assert state.amp_b == pytest.approx(1.0 / math.sqrt(2.0), abs=TOL)

    def test_bit1_sign_flip(self):
        state = make_state(1)
        assert state.amp_a == pytest.approx(1.0 / math.sqrt(2.0), abs=TOL)
        assert state.amp_b == pytest.approx(-1.0 / math.sqrt(2.0), abs=TOL)

    def test_states_are_orthogonal(self):
        assert abs(overlap(make_state(0), make_state(1))) == pytest.approx(0.0, abs=TOL)

    def test_states_are_normalized(self):
        for bit in (0, 1):
            assert make_state(bit).norm_squared() == pytest.approx(1.0, abs=TOL)

    def test_rejects_non_bit(self):
        for bad in (2, -1, 0.5, None):
            with pytest.raises(ValueError):
                make_state(bad)


class TestBeamSplitter:
    def test_bit0_exits_port_a(self):
        out = beam_splitter(make_state(0))
        assert out.amp_a == pytest.approx(1.0, abs=TOL)
        assert out.amp_b == pytest.approx(0.0, abs=TOL)

    def test_bit1_exits_port_b(self):
        out = beam_splitter(make_state(1))
        assert out.amp_a == pytest.approx(0.0, abs=TOL)
        # only the modulus matters; this convention lands on +1
        assert out.amp_b == pytest.approx(1.0, abs=TOL)
        assert abs(out.amp_b) ** 2 == pytest.approx(1.0, abs=TOL)

    def test_matches_matrix_oracle(self):
        for state in random_states(200):
            expected_a, expected_b = hadamard_apply(state.amp_a, state.amp_b)
            out = beam_splitter(state)
            assert out.amp_a == pytest.approx(expected_a, abs=TOL)
            assert out.amp_b == pytest.approx(expected_b, abs=TOL)

    def test_preserves_norm_on_random_states(self):
        # unitarity sweep, tolerance 1e-12
        for state in random_states(1000):
            assert beam_splitter(state).norm_squared() == pytest.approx(1.0, abs=TOL)

    def test_self_inverse(self):
        for state in random_states(50, seed=5):
            twice = beam_splitter(beam_splitter(state))
            assert twice.amp_a == pytest.approx(state.amp_a, abs=TOL)
            assert twice.amp_b == pytest.approx(state.amp_b, abs=TOL)


class TestApplyPhase:
    def test_preserves_norm(self):
        for state in random_states(200, seed=9):
            shifted = apply_phase(state, 1.234)
            assert shifted.norm_squared() == pytest.approx(1.0, abs=TOL)

    def test_pi_maps_bit0_onto_bit1(self):
        shifted = apply_phase(make_state(0), math.pi)
        # equal up to global phase: unit overlap with the other code state
        assert abs(overlap(make_state(1), shifted)) == pytest.approx(1.0, abs=TOL)

    def test_leaves_leading_mode_alone(self):
        state = make_state(0)
        shifted = apply_phase(state, 0.7)
        assert shifted.amp_a == state.amp_a

    def test_rejects_non_finite_phase(self):
        with pytest.raises(ValueError):
            apply_phase(make_state(0), float("inf"))


class TestPhaseHelpers:
    def test_full_wavelength_is_two_pi(self):
        assert phase_from_path_length(812.0, 812.0) == pytest.approx(2.0 * math.pi, abs=TOL)

    def test_half_wavelength_is_pi(self):
        assert phase_from_path_length(406.0, 812.0) == pytest.approx(math.pi, abs=TOL)

    def test_rejects_bad_wavelength(self):
        with pytest.raises(ValueError):
            phase_from_path_length(100.0, 0.0)

    def test_canonical_phase_range(self):
        for phi in (-7.0, -math.pi, 0.0, 1.0, 2.0 * math.pi, 9.5, -1e-9):
            reduced = canonical_phase(phi)
            assert 0.0 <= reduced < 2.0 * math.pi
            assert cmath.exp(1j * reduced) == pytest.approx(cmath.exp(1j * phi), abs=1e-9)


class TestDetectionProbabilities:
    def test_ideal_bit0(self):
        assert detection_probabilities(make_state(0), 1.0) == pytest.approx((1.0, 0.0), abs=TOL)

    def test_ideal_bit1(self):
        assert detection_probabilities(make_state(1), 1.0) == pytest.approx((0.0, 1.0), abs=TOL)

    def test_table_operating_point(self):
        # V = 0.86 at zero phase: (1 +- V)/2 = (0.93, 0.07)
        p0, p1 = detection_probabilities(make_state(0), 0.86)
        assert p0 == pytest.approx(0.93, abs=1e-9)
        assert p1 == pytest.approx(0.07, abs=1e-9)

    def test_localized_state_is_fifty_fifty(self):
        for visibility in (0.0, 0.5, 1.0):
            for localized in (PathState(1.0, 0.0), PathState(0.0, 1.0)):
                assert detection_probabilities(localized, visibility) == pytest.approx((0.5, 0.5), abs=TOL)

    def test_zero_visibility_kills_interference(self):
        for bit in (0, 1):
            assert detection_probabilities(make_state(bit), 0.0) == pytest.approx((0.5, 0.5), abs=TOL)

    def test_cosine_law_against_density_matrix_oracle(self):
        for bit in (0, 1):
            for visibility in (0.0, 0.25, 0.82, 0.86, 1.0):
                for phi in np.linspace(0.0, 2.0 * math.pi, 17):
                    state = apply_phase(make_state(bit), float(phi))
                    expected = born_probabilities(state.amp_a, state.amp_b, visibility)
                    got = detection_probabilities(state, visibility)
                    assert got == pytest.approx(expected, abs=TOL)
                    # and the closed form
                    sign = 1.0 if bit == 0 else -1.0
                    assert got[0] == pytest.approx((1.0 + sign * visibility * math.cos(phi)) / 2.0, abs=1e-9)

    def test_probabilities_are_valid_on_random_states(self):
        for state in random_states(500, seed=21):
            for visibility in (0.0, 0.5, 1.0):
                p0, p1 = detection_probabilities(state, visibility)
                assert 0.0 <= p0 <= 1.0
                assert 0.0 <= p1 <= 1.0
                assert p0 + p1 == pytest.approx(1.0, abs=TOL)

    def test_rejects_bad_visibility(self):
        for bad in (-0.1, 1.1):
            with pytest.raises(ValueError):
                detection_probabilities(make_state(0), bad)

