"""Independent reference computations the tests freeze their expectations against.

The scalar two-mode state algebra is the spec that the amplitude arrays of
`gvqkd.optics` are checked against: one validated `PathState` per photon,
with preparation, the phase shift, recombination on the splitter and the
scalar detection rule. The tests hold `LINK_STATES`, `detection_p0`, the
attack tables and the fringe scan to it.

Each other oracle takes a different route than the implementation:
detection probabilities via explicit 2x2 density matrices instead of the
scalar cross-term formula, the splitter via a literal Hadamard matrix
product, the false-anomaly rate via numerical quadrature of the Gaussian
density instead of erfc, the timing test as a scalar loop over receives
instead of array searches, the transcript CSV through csv.writer one row
at a time instead of joined column chunks, and the fringe scan as one
scalar binomial draw per detector per step instead of one draw over the
whole table. The inner product of two states is kept here as spec: the
simulator itself never needs it.
"""

import cmath
import csv
import io
import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from gvqkd.optics import SQRT1_2, phase_from_path_length

# --- scalar state algebra: the spec of gvqkd.optics ---------------------------

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


def link_states() -> tuple[PathState, PathState, PathState, PathState]:
    """Every state a photon can carry through the link, in state-index order."""
    return make_state(0), make_state(1), PathState(1.0, 0.0), PathState(0.0, 1.0)


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


# --- other oracles ------------------------------------------------------------

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)


def hadamard_apply(amp_a: complex, amp_b: complex) -> tuple[complex, complex]:
    """Splitter action as an explicit matrix product."""
    out = HADAMARD @ np.array([amp_a, amp_b], dtype=complex)
    return complex(out[0]), complex(out[1])


def overlap(state_x, state_y) -> complex:
    """Inner product <x|y> of two PathStates."""
    return state_x.amp_a.conjugate() * state_y.amp_a + state_x.amp_b.conjugate() * state_y.amp_b


def born_probabilities(amp_a: complex, amp_b: complex, visibility: float) -> tuple[float, float]:
    """Detection probabilities from the dephasing-channel density matrix.

    The partially coherent state is  rho = V |psi><psi| + (1 - V) D(|psi><psi|),
    with D zeroing the off-diagonals; the splitter conjugates rho and the
    detectors read the output diagonal.
    """
    psi = np.array([amp_a, amp_b], dtype=complex)
    rho = np.outer(psi, psi.conjugate())
    dephased = np.diag(np.diag(rho))
    rho_v = visibility * rho + (1.0 - visibility) * dephased
    rho_out = HADAMARD @ rho_v @ HADAMARD.conjugate().T
    return float(rho_out[0, 0].real), float(rho_out[1, 1].real)


def gaussian_two_sided_tail(window: float, sigma: float) -> float:
    """P(|X| > window) for X ~ N(0, sigma), by quadrature of the density."""
    if sigma == 0:
        return 0.0

    def density(x):
        return math.exp(-0.5 * (x / sigma) ** 2) / (sigma * math.sqrt(2.0 * math.pi))

    tail, _ = integrate.quad(density, window, 20.0 * sigma)
    return 2.0 * tail


def binomial_sigma(p: float, n: int) -> float:
    return math.sqrt(p * (1.0 - p) / n)


def reference_timing_test(send_times, receive_times, offset, window):
    """Scalar nearest-send matcher, taking one receive at a time in time order.

    send_times must be sorted. Returns (matched, anomalies): matched lists
    (send index, receive index) pairs in receive time order, anomalies the
    unmatched receive indices in time order.
    """
    taken = [False] * len(send_times)
    matched = []
    anomalies = []
    for r in sorted(range(len(receive_times)), key=lambda k: receive_times[k]):
        target = receive_times[r] - offset
        pos = bisect_left(send_times, target)
        best = None
        best_dev = math.inf
        for j in (pos - 1, pos):
            if 0 <= j < len(send_times):
                dev = abs(send_times[j] - target)
                if dev < best_dev:
                    best = j
                    best_dev = dev
        if best is None or best_dev > window or taken[best]:
            anomalies.append(r)
        else:
            taken[best] = True
            matched.append((best, r))
    return matched, anomalies


def reference_transcript_csv(transcript, match, sift) -> bytes:
    """Transcript CSV bytes written row by row with csv.writer."""
    by_index = {}
    for send, receive, disclosed in zip(match.send.tolist(), match.receive.tolist(), sift.disclosed_mask.tolist()):
        by_index[send] = (receive, disclosed)
    fh = io.StringIO(newline="")
    writer = csv.writer(fh)
    writer.writerow(["index", "bit", "t_s_ps", "matched", "t_r_ps", "detector", "disclosed", "error"])
    for index, (bit, t_s) in enumerate(zip(transcript.bit.tolist(), transcript.t_s.tolist())):
        hit = by_index.get(index)
        if hit is None:
            writer.writerow([index, bit, repr(float(t_s)), 0, "", "", 0, ""])
        else:
            receive, disclosed = hit
            detector = int(transcript.detector[receive])
            error = "" if not disclosed else int(detector != bit)
            t_r = float(transcript.t_r[receive])
            writer.writerow([index, bit, repr(float(t_s)), 1, repr(t_r), f"D{detector}", int(disclosed), error])
    for receive in match.anomalies.tolist():
        t_r = float(transcript.t_r[receive])
        writer.writerow(["", "", "", 0, repr(t_r), f"D{int(transcript.detector[receive])}", 0, ""])
    return fh.getvalue().encode("utf-8")


def reference_fringe_scan(config, source_bit, delta_l_range_nm, n_steps, shots_per_step, rng):
    """The fringe scan step by step: detector 0's draw, then detector 1's, at each delta_l.

    Returns (delta_l_nm, counts) as lists: floats, and (count_d0, count_d1) pairs of ints.
    """
    state0 = make_state(source_bit)
    delta_l_nm, counts = [], []
    for delta_l in np.linspace(delta_l_range_nm[0], delta_l_range_nm[1], n_steps):
        phi = phase_from_path_length(float(delta_l), config.wavelength_nm)
        state = apply_phase(state0, phi)
        p_d0, _ = detection_probabilities(state, config.visibility_d0)
        _, p_d1 = detection_probabilities(state, config.visibility_d1)
        counts_d0 = int(rng.binomial(shots_per_step, p_d0))
        counts_d1 = int(rng.binomial(shots_per_step, p_d1))
        delta_l_nm.append(float(delta_l))
        counts.append((counts_d0, counts_d1))
    return delta_l_nm, counts
