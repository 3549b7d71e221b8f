"""Session engine for the delayed-wave-packet key distribution link.

Timeline of one photon, all times in ps:

    t_emit                photon pair born; herald stamps t_s ~ t_emit
    t_emit                leading packet (mode a) enters the channel
    t_emit + tau          delayed packet (mode b) enters the channel
    t_emit + T            packet a arrives; the receiver delays it by tau
    t_emit + tau + T      packet b arrives and recombines with the delayed
                          packet a; one detector clicks at t_r

With tau > T the two packets are never in the channel simultaneously, so
an eavesdropper can only ever touch one packet of an orthogonal-state pair
on time; holding both costs at least tau of delay. Security is therefore
checked publicly on two axes: every t_r must sit within an accept window w
of t_s + tau + T (timing test), and a disclosed random subset of the
matched bits must show a low error rate (QBER test).
"""

import math
import re
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from gvqkd import adversary
from gvqkd.devices import (
    PS_PER_S,
    STAMP_HALF_RANGE_PS,
    DetectorParams,
    Ranged,
    SourceParams,
    dark_clicks,
    detector_click,
    generate_emissions,
    herald,
    ranged,
)
from gvqkd.optics import LINK_STATES, detection_p0
from gvqkd.streams import stream

WAVELENGTH_NM = 812.0


@dataclass(frozen=True)
class SessionConfig(Ranged):
    """Physical and protocol parameters of one transmission session.

    Every field is a value the caller gave (accept_window_given_ps None to
    derive the window). The clean link's timing model (sigma_ps, accept_window_ps,
    false_anomaly_rate, contest_probability) and visibility are derived on each
    read, so dataclasses.replace re-derives them from the replaced fields. tau
    and a given window share the 1 ps stamp resolution as their floor, so the
    derived window max(3 sigma, 1) fits under any tau >= 3 sigma.
    """

    tau_ps: float = ranged(2000.0, ">= 1")
    travel_time_ps: float = ranged(1000.0, "positive")
    accept_window_given_ps: float | None = ranged(None, ">= 1")
    visibility_d0: float = ranged(1.0, "in [0, 1]")
    visibility_d1: float = ranged(1.0, "in [0, 1]")
    source: SourceParams = field(default_factory=SourceParams)
    signal_detector: DetectorParams = field(default_factory=DetectorParams)
    session_duration_s: float = ranged(5.0, "positive")
    disclosure_fraction: float = ranged(0.5, "in (0, 1)")
    seed: int = ranged(0, ">= 0")
    wavelength_nm: float = ranged(WAVELENGTH_NM, "positive")

    def __post_init__(self):
        super().__post_init__()
        # the scheme's premise: the two packets are never in the channel together
        if not self.tau_ps > self.travel_time_ps:
            raise ValueError(f"tau_ps must be > travel time T = {self.travel_time_ps} ps, got {self.tau_ps}")
        # the storage delay must dominate timing noise, or the timing test cannot tell held packets from jitter
        if self.tau_ps < 3.0 * (sigma := self.sigma_ps):
            raise ValueError(f"tau_ps must be >= 3*combined jitter = {3.0 * sigma:.1f} ps, got {self.tau_ps}")
        # 6 tau covers a 12 sigma jitter tail (sigma <= tau/3), the receiver's tau and store-forward's
        span = self.session_duration_s * PS_PER_S + self.travel_time_ps + 6.0 * self.tau_ps
        if not span < STAMP_HALF_RANGE_PS:
            name = "session_duration_s" if self.session_duration_s * PS_PER_S >= 6.0 * self.tau_ps else "tau_ps"
            raise ValueError(f"{name} must keep duration + T + 6*tau below 2**52 ps, got {span:.6g} ps")

    @property
    def sigma_ps(self) -> float:
        """Std dev of t_r - (t_s + tau + T) on a clean link: herald and click jitters in quadrature."""
        return math.hypot(self.source.herald_jitter_sigma_ps, self.signal_detector.jitter_sigma_ps)

    @property
    def accept_window_ps(self) -> float:
        """Timing-test half-width w: the given window, else 3x the combined jitter but at least 1 ps."""
        if self.accept_window_given_ps is not None:
            return self.accept_window_given_ps
        return max(3.0 * self.sigma_ps, 1.0)

    @property
    def false_anomaly_rate(self) -> float:
        """Jitter tail: the chance a clean click falls outside the window, erfc(w / (sigma sqrt 2)), 0 at sigma 0."""
        if (sigma := self.sigma_ps) == 0:
            return 0.0
        return math.erfc(self.accept_window_ps / (sigma * math.sqrt(2.0)))

    @property
    def contest_probability(self) -> float:
        """The matcher's contest share: about the chance a receive lies within the window of a second send."""
        return 2.0 * self.accept_window_ps * self.source.pair_rate_hz * self.source.heralding_efficiency / PS_PER_S

    @property
    def visibility(self) -> float:
        """Session V that transmission uses: the mean of the detector pair that fringe scans sample."""
        return (self.visibility_d0 + self.visibility_d1) / 2.0

    def expected_offset_ps(self) -> float:
        """Nominal t_r - t_s of an untouched photon."""
        return self.tau_ps + self.travel_time_ps


@dataclass
class Transcript:
    """Everything one session produced, before any public comparison, as columns.

    Sends are indexed in the order of the sender's log (heralded stamps):
    t_s, bit and Eve's guess of that photon's bit (NO_GUESS for none).
    Receives are sorted by time: t_r and the detector that fired (0 or 1).
    t_s and t_r are int64 whole-ps stamps: run_session rounds them after
    sorting; the true emission and arrival times behind them stay float64.
    """

    t_s: np.ndarray
    bit: np.ndarray
    t_r: np.ndarray
    detector: np.ndarray
    eve_guess: np.ndarray


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
    qber: float | None
    qber_sigma: float | None
    disclosed_mask: np.ndarray

    @property
    def key_bits(self) -> int:
        """Length of the sifted key: the matched pairs that were not disclosed."""
        return self.matched - int(np.count_nonzero(self.disclosed_mask))


def detection_table(visibility: float) -> np.ndarray:
    """P(D0) of each link state at effective visibility V: optics' detection rule, of which the engine keeps no copy."""
    return detection_p0(LINK_STATES[:, 0], LINK_STATES[:, 1], visibility)


def bob_receive(
    state: np.ndarray, arrival_ps: np.ndarray, config: SessionConfig, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Recombine each photon's two packets; returns (detector, click time) of the photons that clicked.

    arrival_ps is when packet b reaches the receiver. The receiver has
    delayed packet a by tau, so the two recombine then at the session
    visibility. Draws one detector choice per photon, then the detector's
    efficiency and jitter draws.
    """
    p0 = detection_table(config.visibility)[state]
    detector = (rng.random(state.size) >= p0).astype(np.int64)
    hit, t_click = detector_click(arrival_ps, config.signal_detector, rng)
    return detector[hit], t_click


def run_session(
    config: SessionConfig,
    attack: adversary.AttackStrategy = adversary.NO_ATTACK,
    run_index: int = 0,
    source_bit: int | None = None,
) -> Transcript:
    """Simulate one full session and return its transcript.

    source_bit = None draws a fresh uniform bit per photon (the keying
    mode); 0 or 1 sends that state only (the characterization mode).
    Every role draws from its own stream keyed by (config.seed, run_index),
    so the result is deterministic for a given (config.seed, run_index,
    attack) and switching the attack on leaves the other roles' draws alone.
    """
    if source_bit not in (None, 0, 1):
        raise ValueError("source_bit must be None, 0 or 1")

    def rng(role):
        return stream(config.seed, role, run_index)

    emissions = generate_emissions(config.source, config.session_duration_s, rng("source"))
    t_true, t_stamped = herald(emissions, config.source, rng("herald"))
    # the sender's log is ordered by what it observes: the heralded stamps
    order = np.argsort(t_stamped, kind="stable")
    t_true = t_true[order]
    # stamps are kept at the 1 ps timing resolution; rounding after the sort keeps the order
    t_stamped = np.rint(t_stamped[order]).astype(np.int64)
    n = t_true.size
    if source_bit is None:
        bits = rng("bits").integers(0, 2, size=n)
    else:
        bits = np.full(n, source_bit, dtype=np.int64)

    # a bit is its own link-state index; packet b launches tau after packet a
    state, arrival, guess = adversary.apply_attack(
        attack, bits, t_true, t_true + config.tau_ps, config.travel_time_ps, rng("attack")
    )
    detector, t_r = bob_receive(state, arrival, config, rng("detector"))

    t_r_parts, detector_parts = [t_r], [detector]
    # one dark stream per session: detector 0 draws first, then detector 1
    dark = rng("dark")
    for dark_detector in (0, 1):
        darks = dark_clicks(config.signal_detector, config.session_duration_s, dark)
        t_r_parts.append(darks)
        detector_parts.append(np.full(darks.size, dark_detector, dtype=np.int64))
    t_r = np.concatenate(t_r_parts)
    order = np.argsort(t_r, kind="stable")
    return Transcript(
        t_s=t_stamped,
        bit=bits,
        t_r=np.rint(t_r[order]).astype(np.int64),
        detector=np.concatenate(detector_parts)[order],
        eve_guess=guess,
    )


def timing_test(t_s: np.ndarray, t_r: np.ndarray, config: SessionConfig) -> Match:
    """Match receives to sends at the nominal delay; the rest are anomalies.

    t_s and t_r must be sorted (else ValueError), as run_session returns
    them. Taking receives in time order, each claims the send nearest to
    t_r - (tau + T) among its two neighbours in t_s, the earlier one on a
    tie. The claim matches when the deviation is within the accept window
    and no earlier receive matched that send; otherwise the receive is an
    anomaly and does not fall back to the other neighbour. One-to-one.
    """
    t_s, t_r = np.asarray(t_s), np.asarray(t_r)
    for name, t in (("t_s", t_s), ("t_r", t_r)):
        if np.any(t[1:] < t[:-1]):
            raise ValueError(f"{name} must be sorted")
    target = t_r - config.expected_offset_ps()
    padded = np.concatenate(([-np.inf], t_s, [np.inf]))
    pos = np.searchsorted(padded[1:-1], target, side="left")
    dev_left = np.abs(padded[pos] - target)
    dev_right = np.abs(padded[pos + 1] - target)
    best = np.where(dev_right < dev_left, pos, pos - 1)
    claims = np.flatnonzero(np.minimum(dev_left, dev_right) <= config.accept_window_ps)
    # best never decreases over sorted targets: a send's first claimant heads its run of claims
    won = np.zeros(t_r.size, dtype=bool)
    won[claims[np.diff(best[claims], prepend=-1) != 0]] = True
    return Match(send=best[won], receive=np.flatnonzero(won), anomalies=np.flatnonzero(~won))


def sift_and_qber(
    alice_bits: np.ndarray,
    bob_bits: np.ndarray,
    disclosure_fraction: float,
    rng: np.random.Generator,
    *,
    anomalies: int,
) -> SiftResult:
    """Sacrifice a random fraction of the matched pairs to estimate the QBER.

    alice_bits and bob_bits are the sent bit and the firing detector of each
    matched pair. Disclosed pairs are consumed: the key is built from the
    remainder only. The QBER is wrong/(right + wrong) over the disclosed
    subset with a binomial standard error; both are None if nothing was
    disclosed. anomalies is the timing test's count of unmatched receives;
    it has no default, because a count left out would read as a clean link.
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
    return SiftResult(
        matched=n,
        anomalies=anomalies,
        qber=qber,
        qber_sigma=qber_sigma,
        disclosed_mask=disclosed_mask,
    )


def sift_transcript(transcript: Transcript, config: SessionConfig, run_index: int = 0) -> tuple[Match, SiftResult]:
    """Run the timing test then the QBER sift on one transcript of run run_index.

    The disclosed subset is drawn from the run's own sift stream.
    """
    match = timing_test(transcript.t_s, transcript.t_r, config)
    sift = sift_and_qber(
        transcript.bit[match.send],
        transcript.detector[match.receive],
        config.disclosure_fraction,
        stream(config.seed, "sift", run_index),
        anomalies=match.anomalies.size,
    )
    return match, sift


# --- transcript serialization ------------------------------------------------
#
# One flat csv file per session that round-trips exactly. A chunk of rows is built as
# one uint8 matrix, each field in fixed columns padded with NUL bytes, dropped on output.

TRANSCRIPT_COLUMNS = ["index", "bit", "t_s_ps", "matched", "t_r_ps", "detector", "disclosed", "error"]
# the writer's rows: send "i,b,t,0,,,0," / "i,b,t,1,t,Dd,0," / "i,b,t,1,t,Dd,1,e", anomaly ",,,0,t,Dd,0,"
_STAMP = r"(-?[1-9]\d*\.0|0\.0)"
_SEND_ROW = re.compile(rf"(0|[1-9]\d*),([01]),{_STAMP},(?:0,,,0,|1,{_STAMP},D([01]),(?:0,|1,([01])))\r\n", re.ASCII)
_ANOMALY_ROW = re.compile(rf",,,0,{_STAMP},D([01]),0,\r\n", re.ASCII)

# rows built per write, so transient memory does not grow with session size
_CHUNK_ROWS = 1 << 13
# uint32 words of ASCII (small dtypes: int64 temporaries would add megabytes to peak
# memory). _DIGITS4[g + 10000 * v], g = 0000..9999: v = 0 leading zeros NUL but "0", 1 all digits.
_GROUPS = (np.arange(10000, dtype=np.int16)[:, None] // np.int16([1000, 100, 10, 1]) % 10).astype(np.uint8) + 48
_LEAD = np.logical_or.accumulate(_GROUPS != 48, axis=1) | (np.arange(4) == 3)
_DIGITS4 = np.concatenate([_GROUPS * _LEAD, _GROUPS]).view(np.uint32).ravel()
_MINUS, _POINT_ZERO = np.frombuffer(b"-\0\0\0.0\0\0", dtype=np.uint32)
_STAMP_WIDTH = 24


def _digit_words(values: np.ndarray, words: int) -> np.ndarray:
    """Decimal text of non-negative ints as uint32 words, right-aligned in 4 * words bytes, leading zeros NUL."""
    out = np.empty((values.size, words), dtype=np.uint32)
    for j in range(words - 1, -1, -1):
        higher = values // 10000
        out[:, j] = _DIGITS4[values - 10000 * higher + 10000 * (higher > 0)] * ((values > 0) | (j == words - 1))
        values = higher
    return out


def _stamp_text(t: np.ndarray) -> np.ndarray:
    """Whole-ps int64 stamps as rows of _STAMP_WIDTH bytes padded with NUL: a sign word ("-" or NUL),
    the digits of |t| (at most 16, as |t| < 2**53) and the word ".0"."""
    return np.column_stack([(t < 0) * _MINUS, _digit_words(np.abs(t), 4), np.full(t.size, _POINT_ZERO)]).view(np.uint8)


def write_transcript_csv(path, transcript: Transcript, match: Match, sift: SiftResult) -> None:
    """Write one session's evaluated transcript as CSV.

    Header TRANSCRIPT_COLUMNS, "\r\n" line ends. One row per send in index
    order: index, bit, t_s_ps, matched 0/1, the matched receive's t_r_ps and
    detector D0/D1 (else both empty), disclosed 0/1 and, for a disclosed pair
    only, error 0/1. Then one row per anomalous receive in time order: ",,,0,"
    t_r_ps, detector, disclosed 0, error empty. Stamps are int64 whole ps,
    |t| < 2**53, printed as a sign, their digits and ".0" (242508580.0, -12.0).
    """
    n = transcript.t_s.size
    # rows 0..n-1 are the sends, n.. the anomalies; each row's receive, or -1
    receive = np.concatenate([np.full(n, -1, dtype=np.intp), match.anomalies])
    receive[match.send] = match.receive
    told = np.zeros(n, dtype=bool)
    told[match.send[sift.disclosed_mask]] = True
    # an empty row, matched and disclosed 0, in fixed byte columns; "D", detector, disclosed, error at tail + 0, 1, 3, 5
    w = 4 * -(-len(str(n)) // 4)
    bit, t_s, matched, t_r, tail = w + 1, w + 3, w + _STAMP_WIDTH + 4, w + _STAMP_WIDTH + 6, w + 2 * _STAMP_WIDTH + 7
    empty = b"\0" * w + b",\0," + b"\0" * _STAMP_WIDTH + b",0," + b"\0" * _STAMP_WIDTH + b",\0\0,0,\0\r\n"
    empty = np.frombuffer(empty, dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write((",".join(TRANSCRIPT_COLUMNS) + "\r\n").encode("ascii"))
        for lo in range(0, receive.size, _CHUNK_ROWS):
            chunk = receive[lo : lo + _CHUNK_ROWS]
            sends = np.arange(lo, min(lo + chunk.size, n))
            s, rows = sends.size, np.flatnonzero(chunk >= 0)
            text = _stamp_text(np.concatenate([transcript.t_s[sends], transcript.t_r[chunk[rows]]]))
            table = np.tile(empty, (chunk.size, 1))
            table[:s, :w] = _digit_words(sends, w // 4).view(np.uint8)
            table[:s, bit] = transcript.bit[sends] + ord("0")
            table[:s, t_s : t_s + _STAMP_WIDTH] = text[:s]
            table[rows, t_r : t_r + _STAMP_WIDTH] = text[s:]
            table[rows[rows < s], matched] = ord("1")
            table[rows, tail] = ord("D")
            table[rows, tail + 1] = transcript.detector[chunk[rows]] + ord("0")
            disclosed = np.flatnonzero(told[sends])
            table[disclosed, tail + 3] = ord("1")
            table[disclosed, tail + 5] = (table[disclosed, tail + 1] != table[disclosed, bit]) + ord("0")
            fh.write(table[table != 0].tobytes())


def read_transcript_csv(path):
    """Parse a transcript CSV back into (sends, matches, disclosed, errors, anomalies).

    sends is a list of (index, bit, t_s_ps) in file order; matches maps send index -> (t_r_ps, detector);
    disclosed and errors are sets of send indices; anomalies is a list of (t_r_ps, detector). A line other
    than the writer's rows in its order (sends indexed 0, 1, ..., then anomalies) is a ValueError naming it.
    """
    sends: list[tuple[int, int, float]] = []
    matches: dict[int, tuple[float, int]] = {}
    disclosed: set[int] = set()
    errors: set[int] = set()
    anomalies: list[tuple[float, int]] = []
    with open(path, newline="", encoding="utf-8", errors="replace") as fh:
        if (header := fh.readline().removesuffix("\r\n").split(",")) != TRANSCRIPT_COLUMNS:
            raise ValueError(f"unexpected transcript header: {header!r}")
        for number, line in enumerate(fh, 2):
            if (row := _SEND_ROW.fullmatch(line)) and not anomalies and row[1] == str(index := len(sends)):
                _, bit, t_s, t_r, detector, error = row.groups()
                sends.append((index, int(bit), float(t_s)))
                if t_r is not None:
                    matches[index] = (float(t_r), int(detector))
                    if error is not None:
                        disclosed.add(index)
                        if error == "1":
                            errors.add(index)
            elif row := _ANOMALY_ROW.fullmatch(line):
                anomalies.append((float(row[1]), int(row[2])))
            else:
                raise ValueError(f"line {number}: not a transcript row: {line!r}")
    return sends, matches, disclosed, errors, anomalies
