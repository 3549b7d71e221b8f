"""Session engine for the delayed-wave-packet key distribution link.

Timeline of one photon, all times in ps:

    t_emit                photon pair born; herald stamps t_s ~ t_emit
    t_emit                leading packet (mode a) enters the channel
    t_emit + tau          delayed packet (mode b) enters the channel
    launch + T            each packet arrives after travel time T
    arrival of the later  receiver recombines; one detector clicks at t_r

With tau > T the two packets are never in the channel simultaneously, so
an eavesdropper can only ever touch one packet of an orthogonal-state pair
on time; holding both costs at least tau of delay. Security is therefore
checked publicly on two axes: every t_r must sit within an accept window w
of t_s + tau + T (timing test), and a disclosed random subset of the
matched bits must show a low error rate (QBER test).
"""

import csv
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from gvqkd import adversary
from gvqkd.devices import (
    DetectorParams,
    SourceParams,
    dark_clicks,
    detector_click,
    generate_emissions,
    herald,
)
from gvqkd.optics import detection_probabilities, link_states
from gvqkd.streams import SessionStreams

# Packets recombine only if their overlap mismatch is below this; beyond it
# the interference term is dropped entirely (sharp threshold, no partial
# coherence model).
COHERENCE_WINDOW_PS = 10.0

WAVELENGTH_NM = 812.0


def combined_jitter_ps(source: SourceParams, detector: DetectorParams) -> float:
    """Std dev of t_r - (t_s + tau + T) on a clean link: herald and click jitters in quadrature."""
    return math.hypot(source.herald_jitter_sigma_ps, detector.jitter_sigma_ps)


def false_anomaly_rate(accept_window_ps: float, sigma_ps: float) -> float:
    """Probability a clean detection falls outside the accept window (two-sided Gaussian tail)."""
    if accept_window_ps <= 0:
        raise ValueError("accept_window_ps must be positive")
    if sigma_ps == 0:
        return 0.0
    return math.erfc(accept_window_ps / (sigma_ps * math.sqrt(2.0)))


@dataclass(frozen=True)
class SessionConfig:
    """Physical and protocol parameters of one transmission session.

    accept_window_ps, visibility_d0 and visibility_d1 may be left None to
    take their derived defaults: 3x the combined timing jitter, and the
    session visibility, respectively.
    """

    tau_ps: float = 2000.0
    travel_time_ps: float = 1000.0
    accept_window_ps: float | None = None
    visibility: float = 1.0
    visibility_d0: float | None = None
    visibility_d1: float | None = None
    source: SourceParams = field(default_factory=SourceParams)
    signal_detector: DetectorParams = field(default_factory=DetectorParams)
    session_duration_s: float = 5.0
    disclosure_fraction: float = 0.5
    seed: int = 0
    coherence_window_ps: float = COHERENCE_WINDOW_PS
    wavelength_nm: float = WAVELENGTH_NM

    def __post_init__(self):
        if self.tau_ps <= 0:
            raise ValueError("tau_ps must be positive")
        if self.travel_time_ps <= 0:
            raise ValueError("travel_time_ps must be positive")
        # the detector pair first: a session V derived from an invalid
        # detector value must be reported under the detector's name
        for name in ("visibility_d0", "visibility_d1", "visibility"):
            value = getattr(self, name)
            if value is not None and not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        for name in ("visibility_d0", "visibility_d1"):
            if getattr(self, name) is None:
                object.__setattr__(self, name, self.visibility)
        if self.session_duration_s <= 0:
            raise ValueError("session_duration_s must be positive")
        if not 0.0 < self.disclosure_fraction < 1.0:
            raise ValueError("disclosure_fraction must be in (0, 1)")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.coherence_window_ps <= 0:
            raise ValueError("coherence_window_ps must be positive")
        if self.wavelength_nm <= 0:
            raise ValueError("wavelength_nm must be positive")
        sigma = combined_jitter_ps(self.source, self.signal_detector)
        if self.accept_window_ps is None:
            # degenerate jitter-free configs still need a usable window
            object.__setattr__(self, "accept_window_ps", 3.0 * sigma if sigma > 0 else 1.0)
        elif self.accept_window_ps <= 0:
            raise ValueError("accept_window_ps must be positive")
        # the storage delay must dominate timing noise or the timing test
        # cannot separate held packets from jitter
        if self.tau_ps < 3.0 * sigma:
            raise ValueError(f"tau_ps must be >= 3*combined jitter = {3.0 * sigma:.1f} ps, got {self.tau_ps}")

    def expected_offset_ps(self) -> float:
        """Nominal t_r - t_s of an untouched photon."""
        return self.tau_ps + self.travel_time_ps


@dataclass
class Transcript:
    """Everything one session produced, before any public comparison, as columns.

    Sends are indexed in the order of the sender's log (heralded stamps):
    t_s, bit, and what Eve took from that photon, her guess (NO_GUESS for
    none) and the delay she added. Receives are sorted by time: t_r and the
    detector that fired (0 or 1).
    """

    t_s: np.ndarray
    bit: np.ndarray
    t_r: np.ndarray
    detector: np.ndarray
    eve_guess: np.ndarray
    eve_delay: np.ndarray


class Match(NamedTuple):
    """Timing-test outcome as index arrays; matched pairs are listed in receive time order."""

    send: np.ndarray
    receive: np.ndarray
    anomalies: np.ndarray


@dataclass
class SiftResult:
    """Outcome of the public comparison over one transcript.

    qber and qber_sigma are None when no pairs were disclosed (undefined
    estimate); disclosed_mask marks which matched pairs were sacrificed.
    """

    matched: int
    anomalies: int
    key_bits_alice: str
    key_bits_bob: str
    qber: float | None
    qber_sigma: float | None
    disclosed_mask: np.ndarray


def detection_table(visibility: float) -> np.ndarray:
    """P(D0) for each link state (rows) at effective visibility V and at 0 (columns).

    Built from the scalar optics so the engine carries no copy of the
    detection rule.
    """
    return np.array([[detection_probabilities(s, v)[0] for v in (visibility, 0.0)] for s in link_states()])


def bob_receive(
    state: np.ndarray,
    arrival_a_ps: np.ndarray,
    arrival_b_ps: np.ndarray,
    config: SessionConfig,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Recombine each photon's two packets; returns (detector, click time) of the photons that clicked.

    The receiver delays the leading packet by tau, so packet a is ready at
    arrival_a + tau. If that misses arrival_b by more than the coherence
    window the packets no longer interfere and the effective visibility
    drops to zero. The later packet sets the exit time; inside the
    coherence window the delayed-arm arrival is used so the clean-path
    timestamp carries no fp ordering artifact. Draws one detector choice
    per photon, then the detector's efficiency and jitter draws.
    """
    a_ready = arrival_a_ps + config.tau_ps
    mismatch = a_ready - arrival_b_ps
    incoherent = np.abs(mismatch) > config.coherence_window_ps
    detection_ps = np.where(mismatch <= config.coherence_window_ps, arrival_b_ps, a_ready)
    p0 = detection_table(config.visibility)[state, incoherent.astype(np.intp)]
    detector = (rng.random(state.size) >= p0).astype(np.int64)
    hit, t_click = detector_click(detection_ps, config.signal_detector, rng)
    return detector[hit], t_click


def run_session(
    config: SessionConfig,
    attack: "adversary.AttackStrategy | None" = None,
    streams: SessionStreams | None = None,
    run_index: int = 0,
    source_bit: int | None = None,
) -> Transcript:
    """Simulate one full session and return its transcript.

    source_bit = None draws a fresh uniform bit per photon (the keying
    mode); 0 or 1 sends that state only (the characterization mode).
    Deterministic for a given (config.seed, run_index, attack).
    """
    if attack is None:
        attack = adversary.NO_ATTACK
    if streams is None:
        streams = SessionStreams(config.seed, run_index)
    if source_bit not in (None, 0, 1):
        raise ValueError("source_bit must be None, 0 or 1")

    emissions = generate_emissions(config.source, config.session_duration_s, streams.source)
    t_true, t_stamped = herald(emissions, config.source, streams.herald)
    # the sender's log is ordered by what it observes: the heralded stamps
    order = np.argsort(t_stamped, kind="stable")
    t_true = t_true[order]
    t_stamped = t_stamped[order]
    n = t_true.size
    if source_bit is None:
        bits = streams.bits.integers(0, 2, size=n)
    else:
        bits = np.full(n, source_bit, dtype=np.int64)

    # a bit is its own link-state index; packet b launches tau after packet a
    state, arrival_a, arrival_b, guess, delay = adversary.apply_attack(
        attack, bits, t_true, t_true + config.tau_ps, config.travel_time_ps, streams.attack
    )
    detector, t_r = bob_receive(state, arrival_a, arrival_b, config, streams.detector)

    t_r_parts, detector_parts = [t_r], [detector]
    if config.signal_detector.dark_rate_hz > 0:
        for dark_detector in (0, 1):
            darks = dark_clicks(config.signal_detector, config.session_duration_s, streams.dark)
            t_r_parts.append(darks)
            detector_parts.append(np.full(darks.size, dark_detector, dtype=np.int64))
    t_r = np.concatenate(t_r_parts)
    order = np.argsort(t_r, kind="stable")
    return Transcript(
        t_s=t_stamped,
        bit=bits,
        t_r=t_r[order],
        detector=np.concatenate(detector_parts)[order],
        eve_guess=guess,
        eve_delay=delay,
    )


def timing_test(t_s: np.ndarray, t_r: np.ndarray, config: SessionConfig) -> Match:
    """Match receives to sends at the nominal delay; the rest are anomalies.

    t_s must be sorted. Taking receives in time order, each claims the send
    nearest to t_r - (tau + T) among its two neighbours in t_s, the earlier
    one on a tie. The claim matches when the deviation is within the accept
    window and no earlier receive matched that send; otherwise the receive
    is an anomaly and does not fall back to the other neighbour. Matching
    is one-to-one by construction.
    """
    t_s = np.asarray(t_s, dtype=float)
    t_r = np.asarray(t_r, dtype=float)
    order = np.argsort(t_r, kind="stable")
    target = t_r[order] - config.expected_offset_ps()
    pos = np.searchsorted(t_s, target, side="left")
    padded = np.concatenate(([-np.inf], t_s, [np.inf]))
    dev_left = np.abs(padded[pos] - target)
    dev_right = np.abs(padded[pos + 1] - target)
    best = np.where(dev_right < dev_left, pos, pos - 1)
    claims = np.flatnonzero(np.minimum(dev_left, dev_right) <= config.accept_window_ps)
    _, first = np.unique(best[claims], return_index=True)
    won = np.zeros(order.size, dtype=bool)
    won[claims[first]] = True
    return Match(send=best[won], receive=order[won], anomalies=order[~won])


def _bit_string(bits: np.ndarray) -> str:
    return (bits.astype(np.uint8) + ord("0")).tobytes().decode("ascii")


def sift_and_qber(
    alice_bits: np.ndarray,
    bob_bits: np.ndarray,
    disclosure_fraction: float,
    rng: np.random.Generator,
    anomalies: int = 0,
) -> SiftResult:
    """Sacrifice a random fraction of the matched pairs to estimate the QBER.

    alice_bits and bob_bits are the sent bit and the firing detector of each
    matched pair. Disclosed pairs are consumed: the key is built from the
    remainder only. The QBER is wrong/(right + wrong) over the disclosed
    subset with a binomial standard error; both are None if nothing was
    disclosed.
    """
    if not 0.0 < disclosure_fraction < 1.0:
        raise ValueError("disclosure_fraction must be in (0, 1)")
    alice_bits = np.asarray(alice_bits)
    bob_bits = np.asarray(bob_bits)
    n = alice_bits.size
    n_disclosed = int(round(n * disclosure_fraction))
    disclosed_mask = np.zeros(n, dtype=bool)
    qber = qber_sigma = None
    if n_disclosed > 0:
        disclosed_mask[rng.choice(n, size=n_disclosed, replace=False)] = True
        qber = int(np.count_nonzero(alice_bits[disclosed_mask] != bob_bits[disclosed_mask])) / n_disclosed
        qber_sigma = math.sqrt(qber * (1.0 - qber) / n_disclosed)
    kept = ~disclosed_mask
    return SiftResult(
        matched=n,
        anomalies=anomalies,
        key_bits_alice=_bit_string(alice_bits[kept]),
        key_bits_bob=_bit_string(bob_bits[kept]),
        qber=qber,
        qber_sigma=qber_sigma,
        disclosed_mask=disclosed_mask,
    )


def sift_transcript(
    transcript: Transcript, config: SessionConfig, rng: np.random.Generator
) -> tuple[Match, SiftResult]:
    """Run the timing test then the QBER sift on one transcript."""
    match = timing_test(transcript.t_s, transcript.t_r, config)
    sift = sift_and_qber(
        transcript.bit[match.send],
        transcript.detector[match.receive],
        config.disclosure_fraction,
        rng,
        anomalies=match.anomalies.size,
    )
    return match, sift


# --- transcript serialization ------------------------------------------------
#
# One flat csv file per session that round-trips exactly. A chunk of rows is built as
# one uint8 matrix, each field in fixed columns padded with NUL bytes, dropped on output.

TRANSCRIPT_COLUMNS = ["index", "bit", "t_s_ps", "matched", "t_r_ps", "detector", "disclosed", "error"]

# rows built per write, so transient memory does not grow with session size
_CHUNK_ROWS = 1 << 16
_POW10 = 10 ** np.arange(19, dtype=np.int64)
# uint32 words of ASCII (small dtypes: int64 temporaries would add megabytes to peak
# memory). _DIGITS4[g + 10000 * v], g = 0000..9999: v = 0 leading zeros NUL but "0",
# 1 all digits, 2 trailing zeros NUL. _DOT3[g + 1000 * v]: ".000".."999", v = 1 as 2.
_GROUPS = (np.arange(10000, dtype=np.int16)[:, None] // _POW10[3::-1].astype(np.int16) % 10).astype(np.uint8) + 48
_LEAD = np.logical_or.accumulate(_GROUPS != 48, axis=1) | (np.arange(4) == 3)
_TRAIL = np.logical_or.accumulate(_GROUPS[:, ::-1] != 48, axis=1)[:, ::-1]
_DIGITS4 = np.concatenate([_GROUPS * _LEAD, _GROUPS, _GROUPS * _TRAIL]).view(np.uint32).ravel()
_DOT3 = np.where(np.arange(4) == 0, np.uint8(ord(".")), _GROUPS[:1000])
_DOT3 = np.concatenate([_DOT3, _DOT3 * (_TRAIL[:1000] | (np.arange(4) < 2))]).view(np.uint32).ravel()
_FLOAT_WIDTH = 28


def _digit_words(values: np.ndarray, words: int) -> np.ndarray:
    """Decimal text of non-negative ints as uint32 words, right-aligned in 4 * words bytes, leading zeros NUL."""
    out = np.empty((values.size, words), dtype=np.uint32)
    for j in range(words - 1, -1, -1):
        higher = values // 10000
        out[:, j] = _DIGITS4[values - 10000 * higher + 10000 * (higher > 0)] * ((values > 0) | (j == words - 1))
        values = higher
    return out


def _float_text(x: np.ndarray) -> np.ndarray:
    """repr of each float, as rows of _FLOAT_WIDTH bytes padded with NUL (no repr exceeds 24).

    x in [2**24, 2**52) is I + F / 2**k, k = 1..28, and prints "I.f": f has
    the fewest digits d whose nearest decimal (ties to even) is within half
    an ulp; the ends need k + 1 digits, where x is exact, so never decide.
    That holds for all d past the shortest and by d = 17 - digits(I) <= 9,
    so d is bisected in 0..9 (int64 products stay below 2**58). f never
    ends in 0, so it prints as 11 digits less trailing zeros, and as ".0"
    with I rounded when d = 0. Other values take repr.
    """
    fast = (x >= 2.0**24) & (x < 2.0**52)
    m, e = np.frexp(np.where(fast, x, 2.0**24))
    mant, k = (m * 2.0**53).astype(np.int64), 53 - e.astype(np.int64)
    whole, ulp = mant >> k, np.int64(1) << k
    def nearest(d):
        scaled = (mant & (ulp - 1)) * _POW10[d]
        q, twice_rem = scaled >> k, 2 * (scaled & (ulp - 1))
        cand = q + ((twice_rem > ulp) | ((twice_rem == ulp) & (q & 1 == 1)))
        return cand, 2 * np.abs((cand << k) - scaled) < _POW10[d]
    lo, hi = np.zeros(x.size, dtype=np.intp), np.full(x.size, 9)
    while (lo < hi).any():
        ok = nearest(mid := (lo + hi) // 2)[1]
        lo, hi = np.where(ok, lo, mid + 1), np.where(ok, mid, hi)
    shortest, ok = nearest(lo)
    assert ok.all()
    high, low = np.divmod(shortest * (lo > 0) * _POW10[11 - lo], 10**8)
    mid4, low4 = np.divmod(low, 10000)
    words = np.empty((x.size, 7), dtype=np.uint32)
    words[:, :4] = _digit_words(whole + shortest * (lo == 0), 4)
    words[:, 4] = _DOT3[high + 1000 * (low == 0)]
    words[:, 5] = _DIGITS4[mid4 + 10000 * (1 + (low4 == 0))]
    words[:, 6] = _DIGITS4[low4 + 20000]
    text = words.view(np.uint8)
    for row in np.flatnonzero(~fast).tolist():
        text[row] = np.frombuffer(repr(x.item(row)).encode("ascii").ljust(_FLOAT_WIDTH, b"\0"), dtype=np.uint8)
    return text


def _rows(n: int, *fields) -> bytes:
    """n rows of fields (uint8 matrices, or bytes for every row) joined, NULs dropped."""
    fields = [np.tile(np.frombuffer(f, np.uint8), (n, 1)) if isinstance(f, bytes) else f for f in fields]
    table = np.concatenate(fields, axis=1)
    return table[table != 0].tobytes()


def write_transcript_csv(path, transcript: Transcript, match: Match, sift: SiftResult) -> None:
    """Write one session's evaluated transcript as CSV.

    Header TRANSCRIPT_COLUMNS, "\r\n" line ends. One row per send in index
    order: index, bit, t_s_ps, matched 0/1, the matched receive's t_r_ps and
    detector D0/D1 (else both empty), disclosed 0/1 and, for a disclosed pair
    only, error 0/1. Then one row per anomalous receive in time order: ",,,0,"
    t_r_ps, detector, disclosed 0, error empty. Floats are shortest round-trip repr.
    """
    n = transcript.t_s.size
    partner = np.full(n, -1, dtype=np.intp)
    partner[match.send] = match.receive
    told = match.send[sift.disclosed_mask]
    # each send row's "{matched}," and ",D{detector},{disclosed},{error}\r\n", NUL-padded
    flags = np.tile(np.frombuffer(b"0,,\0\0,0,\0\r\n", dtype=np.uint8), (n, 1))
    flags[match.send, 0] = ord("1")
    flags[match.send, 3] = ord("D")
    flags[match.send, 4] = transcript.detector[match.receive] + ord("0")
    flags[told, 6] = ord("1")
    flags[told, 8] = (flags[told, 4] != transcript.bit[told] + ord("0")) + ord("0")
    with open(path, "wb") as fh:
        fh.write((",".join(TRANSCRIPT_COLUMNS) + "\r\n").encode("ascii"))
        for lo in range(0, n, _CHUNK_ROWS):
            hi = min(lo + _CHUNK_ROWS, n)
            rows = np.flatnonzero(partner[lo:hi] >= 0)
            t_r = np.zeros((hi - lo, _FLOAT_WIDTH), dtype=np.uint8)
            t_r[rows] = _float_text(transcript.t_r[partner[lo + rows]])
            index = _digit_words(np.arange(lo, hi), -(-len(str(n)) // 4)).view(np.uint8)
            bit = (transcript.bit[lo:hi, None] + ord("0")).astype(np.uint8)
            t_s, tails = _float_text(transcript.t_s[lo:hi]), flags[lo:hi]
            fh.write(_rows(hi - lo, index, b",", bit, b",", t_s, b",", tails[:, :2], t_r, tails[:, 2:]))
        for lo in range(0, match.anomalies.size, _CHUNK_ROWS):
            chunk = match.anomalies[lo : lo + _CHUNK_ROWS]
            detector = (transcript.detector[chunk, None] + ord("0")).astype(np.uint8)
            fh.write(_rows(chunk.size, b",,,0,", _float_text(transcript.t_r[chunk]), b",D", detector, b",0,\r\n"))


def read_transcript_csv(path):
    """Parse a transcript CSV back into (sends, matches, disclosed, errors, anomalies).

    sends is a list of (index, bit, t_s_ps) in file order; matches maps
    send index -> (t_r_ps, detector); disclosed and errors are sets of send
    indices; anomalies is a list of (t_r_ps, detector).
    """
    sends: list[tuple[int, int, float]] = []
    matches: dict[int, tuple[float, int]] = {}
    disclosed: set[int] = set()
    errors: set[int] = set()
    anomalies: list[tuple[float, int]] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != TRANSCRIPT_COLUMNS:
            raise ValueError(f"unexpected transcript header: {header!r}")
        for row in reader:
            idx_str, bit_str, t_s_str, matched_str, t_r_str, det_str, disc_str, err_str = row
            if idx_str == "":
                anomalies.append((float(t_r_str), int(det_str[1:])))
                continue
            index = int(idx_str)
            sends.append((index, int(bit_str), float(t_s_str)))
            if matched_str == "1":
                matches[index] = (float(t_r_str), int(det_str[1:]))
                if disc_str == "1":
                    disclosed.add(index)
                    if err_str == "1":
                        errors.add(index)
    return sends, matches, disclosed, errors, anomalies
