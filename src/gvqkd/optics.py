"""Two-mode single-photon state algebra for a Mach-Zehnder link.

A photon occupies a superposition of two localized wave-packet modes, one
per interferometer arm. Key bits map to the two orthogonal equal-weight
superpositions that differ by the sign of the second mode; the recombining
beam splitter is the real Hadamard map, so on an ideal link bit i exits
toward detector i with certainty.

Imperfect interference is modeled by a single effective visibility V in
[0, 1] that scales the cross term of the detection probabilities. V = 1 is
the ideal interferometer, V = 0 a fully incoherent (which-path) mixture.
"""

import cmath
import math
from dataclasses import dataclass

SQRT1_2 = 1.0 / math.sqrt(2.0)

# Normalization slack for fp roundoff; chains of splitter/phase ops stay
# well inside this.
NORM_TOL = 1e-12


@dataclass(frozen=True)
class PathState:
    """Normalized amplitudes over the leading (a) and delayed (b) wave-packet modes."""

    amp_a: complex
    amp_b: complex

    def __post_init__(self):
        amp_a = complex(self.amp_a)
        amp_b = complex(self.amp_b)
        for amp in (amp_a, amp_b):
            if not (math.isfinite(amp.real) and math.isfinite(amp.imag)):
                raise ValueError("amplitudes must be finite")
        object.__setattr__(self, "amp_a", amp_a)
        object.__setattr__(self, "amp_b", amp_b)
        norm_sq = self.norm_squared()
        if abs(norm_sq - 1.0) > NORM_TOL:
            raise ValueError(f"state not normalized: |a|^2 + |b|^2 = {norm_sq!r}")

    def norm_squared(self) -> float:
        return abs(self.amp_a) ** 2 + abs(self.amp_b) ** 2


def make_state(bit: int) -> PathState:
    """Encoding state for a key bit: equal-weight superposition, bit 1 flips the sign of mode b."""
    if bit not in (0, 1):
        raise ValueError(f"bit must be 0 or 1, got {bit!r}")
    sign = 1.0 if bit == 0 else -1.0
    return PathState(SQRT1_2, sign * SQRT1_2)


# Index of each state a photon can carry through the link: the encodings of
# bits 0 and 1 (so a bit is its own state index), then the two localized
# states a which-path measurement leaves behind.
STATE_MODE_A = 2
STATE_MODE_B = 3


def link_states() -> tuple[PathState, PathState, PathState, PathState]:
    """Every state a photon can carry through the link, in state-index order."""
    return make_state(0), make_state(1), PathState(1.0, 0.0), PathState(0.0, 1.0)


def overlap(state_x: PathState, state_y: PathState) -> complex:
    """Inner product <x|y>."""
    return (
        state_x.amp_a.conjugate() * state_y.amp_a
        + state_x.amp_b.conjugate() * state_y.amp_b
    )


def beam_splitter(state: PathState) -> PathState:
    """Recombine the two modes on a balanced splitter (real Hadamard).

    out_a = (a + b) / sqrt(2), out_b = (a - b) / sqrt(2). Output port a
    feeds detector D0, port b feeds detector D1.
    """
    return PathState(
        (state.amp_a + state.amp_b) * SQRT1_2,
        (state.amp_a - state.amp_b) * SQRT1_2,
    )


def apply_phase(state: PathState, phi_rad: float) -> PathState:
    """Phase shift on the delayed mode only: amp_b -> amp_b * exp(i phi)."""
    if not math.isfinite(phi_rad):
        raise ValueError("phase must be finite")
    return PathState(state.amp_a, state.amp_b * cmath.exp(1j * phi_rad))


def phase_from_path_length(delta_l_nm: float, wavelength_nm: float) -> float:
    """Interferometric phase of a path-length difference: 2 pi delta_l / lambda."""
    if wavelength_nm <= 0:
        raise ValueError("wavelength must be positive")
    return 2.0 * math.pi * delta_l_nm / wavelength_nm


def canonical_phase(phi_rad: float) -> float:
    """Reduce an angle to its canonical representative in [0, 2 pi)."""
    two_pi = 2.0 * math.pi
    phi = phi_rad % two_pi
    # fp edge: x % 2pi can return 2pi itself for tiny negative x
    return 0.0 if phi >= two_pi else phi


def detection_probabilities(state: PathState, visibility: float) -> tuple[float, float]:
    """Click probabilities (p_D0, p_D1) after recombination at effective visibility V.

    p_D0 = (|a|^2 + |b|^2)/2 + V * Re(a conj(b)); p_D1 = 1 - p_D0. Equals
    the Born rule on beam_splitter output at V = 1; V < 1 scales only the
    interference cross term, leaving a which-path mixture at V = 0.
    """
    if not 0.0 <= visibility <= 1.0:
        raise ValueError(f"visibility must be in [0, 1], got {visibility!r}")
    p0 = state.norm_squared() / 2.0 + visibility * (state.amp_a * state.amp_b.conjugate()).real
    # clamp: fp roundoff can push the ideal points a few ulp outside [0, 1]
    p0 = min(1.0, max(0.0, p0))
    return p0, 1.0 - p0

