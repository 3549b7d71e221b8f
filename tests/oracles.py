"""Independent reference computations the tests freeze their expectations against.

Each oracle takes a different route than the implementation: detection
probabilities via explicit 2x2 density matrices instead of the scalar
cross-term formula, the splitter via a literal Hadamard matrix product,
the false-anomaly rate via numerical quadrature of the Gaussian density
instead of erfc, the timing test as a scalar loop over receives instead of
array searches, and the transcript CSV through csv.writer one row at a time
instead of joined column chunks.
"""

import csv
import io
import math
from bisect import bisect_left

import numpy as np
from scipy import integrate

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)


def hadamard_apply(amp_a: complex, amp_b: complex) -> tuple[complex, complex]:
    """Splitter action as an explicit matrix product."""
    out = HADAMARD @ np.array([amp_a, amp_b], dtype=complex)
    return complex(out[0]), complex(out[1])


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
            writer.writerow([index, bit, repr(t_s), 0, "", "", 0, ""])
        else:
            receive, disclosed = hit
            detector = int(transcript.detector[receive])
            error = "" if not disclosed else int(detector != bit)
            t_r = float(transcript.t_r[receive])
            writer.writerow([index, bit, repr(t_s), 1, repr(t_r), f"D{detector}", int(disclosed), error])
    for receive in match.anomalies.tolist():
        t_r = float(transcript.t_r[receive])
        writer.writerow(["", "", "", 0, repr(t_r), f"D{int(transcript.detector[receive])}", 0, ""])
    return fh.getvalue().encode("utf-8")
