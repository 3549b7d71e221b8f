"""The scalar state algebra (the spec, kept in oracles) and the amplitude arrays of gvqkd.optics held to it."""

import cmath
import math
from pathlib import Path

import numpy as np
import pytest

from gvqkd.adversary import STORE_FORWARD_P0, WHICH_PATH_P_A
from gvqkd.analysis import fringe_scan
from gvqkd.config import load_config
from gvqkd.optics import (
    LINK_STATES,
    STATE_MODE_A,
    STATE_MODE_B,
    canonical_phase,
    detection_p0,
    phase_from_path_length,
)
from gvqkd.streams import stream

from oracles import (
    PathState,
    apply_phase,
    beam_splitter,
    born_probabilities,
    detection_probabilities,
    hadamard_apply,
    link_states,
    make_state,
    overlap,
    reference_fringe_scan,
)

TOL = 1e-12

CONFIGS_DIR = Path(__file__).resolve().parent.parent / "configs"


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


def amplitudes(states: list[PathState]) -> tuple[np.ndarray, np.ndarray]:
    return np.array([s.amp_a for s in states]), np.array([s.amp_b for s in states])


class TestArraysAgainstTheSpec:
    def test_link_state_rows_are_the_spec_states(self):
        assert LINK_STATES.shape == (4, 2)
        for row, state in zip(LINK_STATES.tolist(), link_states()):
            assert row == [state.amp_a, state.amp_b]
        assert link_states()[STATE_MODE_A] == PathState(1.0, 0.0)
        assert link_states()[STATE_MODE_B] == PathState(0.0, 1.0)

    @pytest.mark.parametrize("visibility", [0.0, 0.3, 0.855, 1.0])
    def test_detection_p0_equals_the_scalar_rule_bit_for_bit(self, visibility):
        states = random_states(1000)
        expected = [detection_probabilities(s, visibility)[0] for s in states]
        assert detection_p0(*amplitudes(states), visibility).tolist() == expected

    @pytest.mark.parametrize("bad", [-0.1, 1.1, float("nan")])
    def test_detection_p0_rejects_bad_visibility(self, bad):
        with pytest.raises(ValueError, match=r"visibility must be in \[0, 1\]"):
            detection_p0(LINK_STATES[:, 0], LINK_STATES[:, 1], bad)

    def test_ideal_detection_p0_is_the_born_rule_on_port_a(self):
        states = random_states(1000, seed=77)
        p0 = detection_p0(*amplitudes(states), 1.0)
        assert ((0.0 <= p0) & (p0 <= 1.0)).all()
        born = [abs(beam_splitter(s).amp_a) ** 2 for s in states]
        np.testing.assert_allclose(p0, born, rtol=0.0, atol=TOL)

    def test_attack_tables_equal_the_spec_bit_for_bit(self):
        # Eve's draws compare against these, so a last-bit change would move them
        assert STORE_FORWARD_P0.tolist() == [abs(beam_splitter(s).amp_a) ** 2 for s in link_states()]
        assert WHICH_PATH_P_A.tolist() == [abs(s.amp_a) ** 2 for s in link_states()]

    @pytest.mark.parametrize("source_bit", [0, 1])
    @pytest.mark.parametrize("name", ["attack_demo", "ideal", "measured_s0", "measured_s1"])
    def test_fringe_scan_equals_the_per_step_spec_on_shipped_configs(self, name, source_bit):
        # the scan fringe-scan runs on this config: same steps, same counts, same generator state after
        experiment = load_config(CONFIGS_DIR / f"{name}.cfg")
        session = experiment.session
        scan = (session, source_bit, (0.0, experiment.scan_span_nm), experiment.scan_steps, experiment.shots_per_step)
        scan_rng = stream(session.seed, "fringe", run_index=source_bit)
        reference_rng = stream(session.seed, "fringe", run_index=source_bit)
        delta_l, counts = fringe_scan(*scan, scan_rng)
        ref_delta_l, ref_counts = reference_fringe_scan(*scan, reference_rng)
        assert delta_l.tolist() == ref_delta_l
        assert [tuple(row) for row in counts.tolist()] == ref_counts
        assert scan_rng.random() == reference_rng.random()
