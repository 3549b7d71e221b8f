"""Link-state amplitudes and the detection rule of a Mach-Zehnder link.

A photon occupies a superposition of two localized wave-packet modes, one
per interferometer arm, held as a pair of complex amplitudes (amp_a,
amp_b). Key bits map to the two orthogonal equal-weight superpositions
that differ by the sign of the second mode; the recombining beam splitter
is the real Hadamard map, so on an ideal link bit i exits toward detector
i with certainty.

Imperfect interference is modeled by a single effective visibility V in
[0, 1] that scales the cross term of the detection probabilities. V = 1 is
the ideal interferometer, V = 0 a which-path mixture with no cross term.
The scalar state algebra this rule is checked against lives in the tests.
"""

import math

import numpy as np

from gvqkd.devices import check_range

SQRT1_2 = 1.0 / math.sqrt(2.0)

# Every state a photon can carry through the link, as (amp_a, amp_b) rows:
# the encodings of bits 0 and 1 (so a bit is its own state index), then the
# two localized states a which-path measurement leaves behind.
LINK_STATES = np.array([[SQRT1_2, SQRT1_2], [SQRT1_2, -SQRT1_2], [1.0, 0.0], [0.0, 1.0]], dtype=complex)
STATE_MODE_A = 2
STATE_MODE_B = 3


def check_states(state) -> None:
    """Refuse all but an integer array of LINK_STATES rows: numpy would read -1 as row 3."""
    if not (isinstance(state, np.ndarray) and state.dtype.kind in "iu" and ((0 <= state) & (state < 4)).all()):
        raise ValueError("state must hold link-state indices 0 to 3")


def detection_p0(amp_a: np.ndarray, amp_b: np.ndarray, visibility: float) -> np.ndarray:
    """P(D0) after recombination at effective visibility V, elementwise over amplitude arrays.

    p_D0 = (|a|^2 + |b|^2)/2 + V * Re(a conj(b)); p_D1 = 1 - p_D0. Equals
    the Born rule on the splitter's port a at V = 1; V < 1 scales only the
    interference cross term, leaving a which-path mixture at V = 0.
    """
    check_range("visibility", visibility, "in [0, 1]")
    # |z| as hypot and Re(a conj(b)) written out, as Python's complex abs and product compute them;
    # numpy's complex abs and multiply can differ from those in the last bit
    norm_sq = np.hypot(amp_a.real, amp_a.imag) ** 2 + np.hypot(amp_b.real, amp_b.imag) ** 2
    p0 = norm_sq / 2.0 + visibility * (amp_a.real * amp_b.real + amp_a.imag * amp_b.imag)
    # clamp: fp roundoff can push the ideal points a few ulp outside [0, 1]
    return np.clip(p0, 0.0, 1.0)


def phase_from_path_length(delta_l_nm: float | np.ndarray, wavelength_nm: float) -> float | np.ndarray:
    """Interferometric phase of a path-length difference, elementwise over an array: 2 pi delta_l / lambda."""
    check_range("wavelength", wavelength_nm, "positive")
    with np.errstate(over="ignore"):  # an overflowed phase is rejected below, before a caller's exp or cos sees it
        phase = 2.0 * math.pi * delta_l_nm / wavelength_nm
    if not np.isfinite(phase).all():
        raise ValueError("phase must be finite")
    return phase


def canonical_phase(phi_rad: float) -> float:
    """Reduce an angle to its canonical representative in [0, 2 pi)."""
    if not math.isfinite(phi_rad):
        raise ValueError("phase must be finite")
    two_pi = 2.0 * math.pi
    phi = phi_rad % two_pi
    # fp edge: x % 2pi can return 2pi itself for tiny negative x
    return 0.0 if phi >= two_pi else phi
