"""Every guard a library caller meets, as one table: the call, and the exact error it raises.

The range rows are generated from the declared ranges (RANGED_FIELDS) and the scenario keys' bad values
(BAD_VALUES), so a new ranged field or key gets its rows with no edit here; a new guard adds a row. The scenarios a
command refuses are REJECTED in test_cli.py.
"""

from dataclasses import fields
from functools import partial
from math import inf, nan

import numpy as np
import pytest

from gvqkd.adversary import NO_ATTACK, NO_GUESS, AttackStrategy, apply_attack, eve_information
from gvqkd.analysis import detect_eavesdropping, fit_fringe, fringe_scan, qber_from_visibility, read_fringe_csv
from gvqkd.config import KEYS, ExperimentConfig, _parse
from gvqkd.devices import DetectorParams, SourceParams, dark_clicks, generate_emissions
from gvqkd.optics import LINK_STATES, canonical_phase, detection_p0, phase_from_path_length
from gvqkd.protocol import (
    SessionConfig,
    SiftResult,
    bob_receive,
    read_transcript_csv,
    run_session,
    sift_and_qber,
    timing_test,
)
from gvqkd.streams import stream

from helpers import BAD_VALUES, CONFIG_CLASSES, RANGED_FIELDS, ideal_config

OWNER_OF = {f.name: cls for cls in CONFIG_CLASSES for f in fields(cls)}
INT_FIELDS = [f.name for _, f in RANGED_FIELDS if f.type is int]
WAVELENGTH = 812.0
NO_JITTER = dict(source=SourceParams(herald_jitter_sigma_ps=0.0), signal_detector=DetectorParams(jitter_sigma_ps=0.0))
# no row draws: every guard runs before the first draw
RNG = np.random.default_rng(6)
PAIRS = (np.arange(10) % 2, np.arange(10) % 2)
MISALIGNED = (np.zeros(2, dtype=np.int64), np.zeros(3), np.zeros(3))
TWO_PHOTONS = (np.array([0, 1]), np.array([0.0, 1.0]), np.array([2000.0, 2001.0]))
SIFT = SiftResult(0, 0, np.arange(1000) % 2 == 0)
EMPTY_SIFT = SiftResult(0, 0, np.zeros(0, dtype=bool))
TWO_OF_FOUR = np.array([True, True, False, False])
FRINGE_HEADER = b"delta_l_nm,counts_d0,counts_d1\r\n"
BELOW_T = "tau_ps must be > travel time T = 1000.0 ps, got "
JITTER_RULE = "tau_ps must be >= 3*combined jitter = 1272.8 ps, got "
STAMPS = "must keep duration + T + 6*tau below 2**52 ps, got "
WIDE = "accept_window_given_ps must be <= tau = 2000.0 ps, got "
DENSE = "pair_rate_hz must keep 2 * accept_window * send rate <= 0.01, got "
UNKNOWN_KIND = "unknown attack kind 'replay'; expected one of ('none', 'which-path', 'store-forward')"
DELAY = "extra_delay_ps must be in (0, 2**52)"
VISIBILITY = "visibility must be in [0, 1]"
DURATION = "duration_s must be positive"
DISCLOSURE = "disclosure_fraction must be in (0, 1)"
BITS = "alice_bits and bob_bits must be 0 or 1"
ERRORS = "errors must be in [0, disclosed]"
MASK = "disclosed_mask must be a one-dimensional boolean array"
ALIGNED = "alice_bits and bob_bits must be aligned"
PHOTONS = "state, launch_a_ps and launch_b_ps must be aligned"
STATES = "state must hold link-state indices 0 to 3"
FRINGE_SHAPE = "counts must be an (n, 2) table aligned with delta_l_nm, got shape "
DEGENERATE = "degenerate fringe fit: condition number "
FRINGE_VALUES = "line {}: values must be finite and counts non-negative, got {}"
NOT_NUMBERS = "line {}: values must be numbers, got {}"
NO_COUNT = "sift_and_qber() missing 1 required keyword-only argument: 'anomalies'"
POSITIONAL_COUNT = "sift_and_qber() takes 4 positional arguments but 5 were given"
TRANSCRIPT_HEADER = "unexpected transcript header: ['index', 'bit', 't_s_ps']"


def build(owner, **values):
    """owner built from values; an ExperimentConfig gets the default session."""
    return owner(**({"session": SessionConfig()} if owner is ExperimentConfig else {}), **values)


def flat_scan(n_steps=33, span=2.0 * WAVELENGTH, entry=None):
    """(delta_l_nm, counts) of a flat scan; entry = (column, row, value) replaces one value, column 0 being delta_l."""
    table = np.column_stack([np.linspace(0.0, span, n_steps), np.full((n_steps, 2), 100.0)])
    if entry:
        column, row, value = entry
        table[row, column] = value
    return table[:, 0], table[:, 1:]


def rejected(call, message, error=ValueError, *, prefix=False, file=None, id):
    """A row: call raises error, and str(exc) is message (with prefix, starts with it: numpy or Python words the rest).

    With file, call takes the path of a file holding those bytes.
    """
    return pytest.param(call, file, error, message, prefix, id=id)


def field_row(name, value, message, label=None):
    """A row building the owner of field name, with name = value (an ExperimentConfig on the default session)."""
    return rejected(partial(build, OWNER_OF[name], **{name: value}), message, id=f"{name} = {label or value}")


LIBRARY_REJECTED = [
    # a value that is not finite (a NaN tau would cast to int64 as -2**63), or not an integer in an integer field, is
    # named before its range; range(runs) and the seeded streams need a true integer, so a whole float is refused too
    *(field_row(f.name, value, f"{f.name} must be finite") for _, f in RANGED_FIELDS for value in (nan, inf, -inf)),
    *(field_row(name, value, f"{name} must be an integer") for name in INT_FIELDS for value in (4.5, 4.0)),
    # None is "not given" only where it is the declared default; elsewhere it, and a number's text, is not a number
    *(
        field_row(f.name, value, f"{f.name} must be a number", label=repr(value))
        for _, f in RANGED_FIELDS
        if f.default is not None
        for value in (None, str(f.default))
    ),
    # each key's bad value, as the loader parses it, given to the field the key sets
    *(
        field_row(KEYS[key], _parse(key, bad), f"{KEYS[key]} {rule}", label=bad)
        for key, (bad, rule) in BAD_VALUES.items()
        if isinstance(KEYS[key], str)
    ),
    # more values outside the fields' rules; numpy sizes and draws scan_steps and shots_per_step in int64, and the
    # loader builds the whole grid (2**63 - 1: an IndexError in np.linspace; 10**11: 745 GiB)
    field_row("herald_jitter_sigma_ps", -10.0, "herald_jitter_sigma_ps must be >= 0"),
    field_row("dark_rate_hz", -5.0, "dark_rate_hz must be >= 0"),
    field_row("tau_ps", -1.0, "tau_ps must be >= 1"),
    field_row("visibility_d1", 1.5, "visibility_d1 must be in [0, 1]"),
    field_row("disclosure_fraction", 0.0, DISCLOSURE),
    field_row("extra_delay_ps", -1.0, DELAY),
    field_row("extra_delay_ps", 2.0**52, DELAY, "2**52"),
    field_row("source_bit", 2, "source_bit must be 0, 1 or random"),
    field_row("scan_span_nm", 0.0, "scan_span_nm must be positive"),
    *(field_row("scan_steps", n, "scan_steps must be in [4, 2**16]") for n in (2**63, 2**63 - 1, 10**11, 2**62, 65537)),
    field_row("shots_per_step", 10**400, "shots_per_step must be in [1, 2**63)", "10**400"),
    field_row("qber_threshold", 1.0, "qber_threshold must be in (0, 1)"),
    field_row("anomaly_threshold", 0.0, "anomaly_threshold must be in (0, 1)"),
    # a Python bool is an int and built one run, or a seed of True; numpy's bool was already refused
    field_row("seed", True, "seed must be a number"),
    field_row("runs", True, "runs must be a number"),
    field_row("seed", np.True_, "seed must be a number", "np.True_"),
    # a nested field of the wrong type raised an AttributeError from a derived property, naming no argument
    field_row("source", None, "source must be a SourceParams"),
    field_row("signal_detector", SourceParams(), "signal_detector must be a DetectorParams", "SourceParams()"),
    rejected(partial(ExperimentConfig, None), "session must be a SessionConfig", id="session = None"),
    field_row("attack", "store-forward", "attack must be an AttackStrategy", "'store-forward'"),
    rejected(partial(generate_emissions, SourceParams(100.0), 0.0, RNG), DURATION, id="emissions over 0 s"),
    rejected(partial(generate_emissions, SourceParams(100.0), -1.0, RNG), DURATION, id="emissions over -1 s"),
    rejected(partial(dark_clicks, DetectorParams(dark_rate_hz=10.0), 0.0, RNG), DURATION, id="dark counts over 0 s"),
    # numpy's poisson raised "lam < 0 or lam is NaN"
    rejected(
        partial(generate_emissions, SourceParams(100.0), nan, RNG), "duration_s must be finite", id="emissions over nan s"
    ),
    # math.isfinite raised a TypeError on the text
    rejected(partial(SessionConfig, tau_ps="2000"), "tau_ps must be a number", id="tau '2000'"),
    # tau = 500 ps is inside the timing noise at 300 ps jitters, but below T = 1000 ps tau > T is what rejects it;
    # T < tau < 3 sigma: the timing test could not tell a held packet from ordinary jitter
    rejected(partial(SessionConfig, tau_ps=500.0), f"{BELOW_T}500.0", id="tau 500"),
    rejected(partial(SessionConfig, tau_ps=1100.0), f"{JITTER_RULE}1100.0", id="tau 1100, inside the jitter"),
    rejected(partial(SessionConfig, tau_ps=500.0, travel_time_ps=400.0), f"{JITTER_RULE}500.0", id="tau 500, T 400"),
    # the GV premise tau > T: both packets of a pair would share the channel
    rejected(partial(SessionConfig, tau_ps=1000.0, **NO_JITTER), f"{BELOW_T}1000.0", id="tau = T, no jitter"),
    rejected(partial(SessionConfig, tau_ps=999.0, **NO_JITTER), f"{BELOW_T}999.0", id="tau 999, no jitter"),
    rejected(partial(SessionConfig, tau_ps=1.0, **NO_JITTER), f"{BELOW_T}1.0", id="tau 1, no jitter"),
    # duration + T + 6 tau must stay below 2**52 ps, named by the larger of its two terms
    rejected(partial(SessionConfig, tau_ps=1e16), f"tau_ps {STAMPS}6.0005e+16 ps", id="tau 1e16"),
    rejected(partial(SessionConfig, session_duration_s=4600.0), f"session_duration_s {STAMPS}4.6e+15 ps", id="4600 s"),
    # a bare SessionConfig may take a wide window (acceptance test_06 builds one on purpose); a scenario may not
    rejected(partial(ExperimentConfig, SessionConfig(accept_window_given_ps=2500.0)), f"{WIDE}2500.0", id="2500 ps"),
    rejected(partial(ExperimentConfig, SessionConfig(source=SourceParams(4e6))), f"{DENSE}0.0102", id="4 MHz"),
    rejected(partial(AttackStrategy, "replay"), UNKNOWN_KIND, id="replay"),
    rejected(partial(AttackStrategy, "store-forward", extra_delay_ps=0.0), DELAY, id="store-forward 0"),
    rejected(partial(AttackStrategy, "store-forward", extra_delay_ps=2.0**52), DELAY, id="store-forward 2**52"),
    rejected(partial(AttackStrategy, "store-forward", extra_delay_ps=nan), "extra_delay_ps must be finite", id="nan"),
    # under every kind, 2 states against 3 launch times returned columns of 2, 3 and 2 entries
    *(
        rejected(partial(apply_attack, AttackStrategy(kind), *MISALIGNED, 1000.0, RNG), PHOTONS, id=f"{kind}, 2 of 3")
        for kind in ("none", "which-path")
    ),
    # a NaN travel time came back as arrivals [nan nan]
    rejected(partial(apply_attack, NO_ATTACK, *TWO_PHOTONS, nan, RNG), "travel_time_ps must be finite", id="T nan"),
    rejected(partial(apply_attack, NO_ATTACK, *TWO_PHOTONS, -1.0, RNG), "travel_time_ps must be positive", id="T -1"),
    # numpy read a state of -1 as row 3: which-path turned [-1, 0] into [3, 2], and the receiver clicked as if the
    # photon were in mode b; 4 and 0.5 raised numpy's IndexError, which named no argument
    *(
        row
        for state in (-1, 4, 0.5)
        for row in (
            rejected(
                partial(apply_attack, AttackStrategy("which-path"), np.array([state, 0]), *TWO_PHOTONS[1:], 1e3, RNG),
                STATES,
                id=f"which-path, state {state}",
            ),
            rejected(
                partial(bob_receive, np.array([state, 0]), TWO_PHOTONS[2], ideal_config(), RNG),
                STATES,
                id=f"receive, state {state}",
            ),
        )
    ),
    rejected(partial(eve_information, [], []), "eve_information undefined on empty input", id="Eve, no photons"),
    rejected(partial(eve_information, [NO_GUESS], [0, 1]), "guesses and alice_bits must be aligned", id="Eve, 1 of 2"),
    # values outside the two bits reached numpy's reshape or bincount, which named no argument
    rejected(partial(eve_information, [2], [0]), "guesses must be 0, 1 or NO_GUESS", id="Eve, guess 2"),
    rejected(partial(eve_information, [0, 1], [0, 3]), "alice_bits must be 0 or 1", id="Eve, bit 3"),
    rejected(partial(eve_information, [0], [-1]), "alice_bits must be 0 or 1", id="Eve, bit -1"),
    rejected(partial(phase_from_path_length, 100.0, 0.0), "wavelength must be positive", id="wavelength 0"),
    rejected(partial(detection_p0, *LINK_STATES.T, -0.1), VISIBILITY, id="V -0.1"),
    rejected(partial(detection_p0, *LINK_STATES.T, 1.1), VISIBILITY, id="V 1.1"),
    rejected(partial(detection_p0, *LINK_STATES.T, nan), "visibility must be finite", id="V nan"),
    *(rejected(partial(qber_from_visibility, v), VISIBILITY, id=f"QBER at V {v}") for v in (-0.1, 1.0001)),
    # fringe scan; the link-state table has rows past the two encodings, and a scan must not index them
    *(
        rejected(partial(fringe_scan, ideal_config(), bit, *args, RNG), message, id=f"scan {bit} {args}")
        for bit, args, message in [
            (0, ((100.0, 100.0), 5, 100), "delta_l_range_nm must be a nonempty (lo, hi) interval"),
            (0, ((0.0, 1624.0), 1, 100), "n_steps must be >= 2"),
            (0, ((0.0, 1624.0), 5, 0), "shots_per_step must be >= 1"),
            # 2.5 shots a step scanned 2; numpy's linspace refused 5.5 steps with a TypeError
            (0, ((0.0, 1624.0), 5, 2.5), "shots_per_step must be an integer"),
            (0, ((0.0, 1624.0), 5.5, 100), "n_steps must be an integer"),
            (0, ((0.0, 1e308), 5, 100), "phase must be finite"),
            (0, ((1e307, 1e308), 5, 100), "phase must be finite"),
            *((bit, ((0.0, 1624.0), 5, 100), f"source_bit must be 0 or 1, got {bit}") for bit in (2, 3, -1, None)),
        ]
    ),
    # fringe fit; 2 pi dl / lambda is inf at dl = 1e308, rejected before cos with no RuntimeWarning
    *(
        rejected(partial(fit_fringe, *scan, WAVELENGTH), message, id=f"fit {name}")
        for name, scan, message in [
            ("3 points", flat_scan(3), "fringe fit needs at least 4 points"),
            ("short span", flat_scan(10, 400.0), "fringe fit needs a scan spanning at least one period"),
            ("nan count", flat_scan(entry=(1, 3, nan)), "fringe fit needs finite counts"),
            ("inf count", flat_scan(entry=(2, 5, inf)), "fringe fit needs finite counts"),
            ("nan delta_l", flat_scan(entry=(0, 2, nan)), "phase must be finite"),
            ("past 1e308 nm", flat_scan(5, 1e308), "phase must be finite"),
            # a badly shaped table raised "too many values to unpack" or numpy's LinAlgError, naming no argument
            ("1-d counts", (flat_scan()[0], flat_scan()[1][:, 0]), f"{FRINGE_SHAPE}(33,)"),
            ("3 columns", (flat_scan()[0], np.full((33, 3), 100.0)), f"{FRINGE_SHAPE}(33, 3)"),
            ("30 rows, 33 steps", (flat_scan()[0], flat_scan(30)[1]), f"{FRINGE_SHAPE}(30, 2)"),
        ]
    ),
    # only full-wavelength steps: cos is constant, sin is zero
    rejected(partial(fit_fringe, *flat_scan(4, 3 * WAVELENGTH), WAVELENGTH), DEGENERATE, prefix=True, id="fit, rank 2"),
    # fringe files; three 2-field rows hold six values, and must not be read as two 3-field rows
    *(
        rejected(read_fringe_csv, message, file=data, id=f"fringe file, {name}")
        for name, data, message in [
            ("negative", FRINGE_HEADER + b"0.0,12,5\r\n81.2,-1,5\r\n", FRINGE_VALUES.format(3, ["81.2", "-1", "5"])),
            ("nan count", FRINGE_HEADER + b"0.0,12,5\r\n81.2,nan,5\r\n", FRINGE_VALUES.format(3, ["81.2", "nan", "5"])),
            ("inf count", FRINGE_HEADER + b"0.0,inf,5\r\n81.2,1,2\r\n", FRINGE_VALUES.format(2, ["0.0", "inf", "5"])),
            ("nan delta_l", FRINGE_HEADER + b"0.0,12,5\r\nnan,1,2\r\n", FRINGE_VALUES.format(3, ["nan", "1", "2"])),
            ("abc", FRINGE_HEADER + b"0.0,12,5\r\n1.0,abc,2\r\n", NOT_NUMBERS.format(3, ["1.0", "abc", "2"])),
            ("2 fields", FRINGE_HEADER + b"0.0,5\r\n1.0,6\r\n2.0,7\r\n", "line 2: expected 3 fields, got 2"),
            ("4 fields", FRINGE_HEADER + b"0.0,5,1\r\n1.0,6,1,9\r\n", "line 3: expected 3 fields, got 4"),
            ("byte ff", FRINGE_HEADER + b"0.0,1\xff,2\r\n", NOT_NUMBERS.format(2, ["0.0", "1\ufffd", "2"])),
            ("header", b"delta_l,d0,d1\r\n0.0,1,1\r\n", "unexpected fringe header: ['delta_l', 'd0', 'd1']"),
            ("empty", b"", "unexpected fringe header: []"),
        ]
    ),
    # protocol; an unsorted column would leave one of two clean receives an anomaly
    rejected(partial(run_session, ideal_config(), source_bit=2), "source_bit must be None, 0 or 1", id="session bit 2"),
    rejected(partial(timing_test, [1e6, 0.0], [3001.0, 1003001.0], ideal_config()), "t_s must be sorted", id="t_s"),
    rejected(partial(timing_test, [0.0, 1e6], [1003001.0, 3001.0], ideal_config()), "t_r must be sorted", id="t_r"),
    # a NaN passes the sort rule: it matched the receive to send 0, or made it an anomaly
    rejected(partial(timing_test, [0.0, nan, 5.0], [3000.0], ideal_config()), "t_s must be finite", id="t_s nan"),
    rejected(partial(timing_test, [nan], [3000.0], ideal_config()), "t_s must be finite", id="t_s only nan"),
    rejected(partial(timing_test, [0.0], [nan, 3000.0], ideal_config()), "t_r must be finite", id="t_r nan"),
    # a table in place of a column raised numpy's ValueError from concatenate, or its IndexError
    rejected(partial(timing_test, [[0.0]], [3000.0], ideal_config()), "t_s must be one-dimensional", id="t_s 2-d"),
    rejected(partial(timing_test, [0.0], [[3000.0]], ideal_config()), "t_r must be one-dimensional", id="t_r 2-d"),
    # a left-out anomaly count would read as a clean link and silence the timing alarm
    rejected(partial(sift_and_qber, *PAIRS, 0.5, RNG), NO_COUNT, TypeError, prefix=True, id="sift, no count"),
    rejected(partial(sift_and_qber, *PAIRS, 0.5, RNG, 3), POSITIONAL_COUNT, TypeError, prefix=True, id="sift, 5 args"),
    *(rejected(partial(sift_and_qber, *PAIRS, f, RNG, anomalies=0), DISCLOSURE, id=f"f {f}") for f in (0.0, 1.0, -0.5)),
    rejected(
        partial(sift_and_qber, *PAIRS, None, RNG, anomalies=0), "disclosure_fraction must be a number", id="f None"
    ),
    # 10 bits against 4 raised numpy's IndexError from the disclosed mask
    rejected(partial(sift_and_qber, PAIRS[0], PAIRS[1][:4], 0.5, RNG, anomalies=0), ALIGNED, id="sift, 10 and 4 bits"),
    # two aligned (2, 5) tables raised numpy's IndexError from the disclosed mask
    rejected(
        partial(sift_and_qber, *(bits.reshape(2, 5) for bits in PAIRS), 0.5, RNG, anomalies=0),
        "alice_bits and bob_bits must be one-dimensional",
        id="sift, 2-d bits",
    ),
    # a negative count made a Clean verdict with anomaly fraction -0.0101, and bits of 2 a QBER of 0; no pair, no draw
    rejected(partial(sift_and_qber, [], [], 0.5, RNG, anomalies=-1), "anomalies must be >= 0", id="sift, -1 anomalies"),
    rejected(partial(sift_and_qber, [2] * 100, [2] * 100, 0.5, RNG, anomalies=0), BITS, id="sift, bits 2"),
    # a record built directly holds its counts to the same rules; 1.5 errors of 2 disclosed read as a QBER of 0.75
    rejected(partial(SiftResult, 0, 3, TWO_OF_FOUR), ERRORS, id="3 errors of 2 disclosed"),
    rejected(partial(SiftResult, 0.5, 0, TWO_OF_FOUR), "anomalies must be an integer", id="0.5 anomalies"),
    rejected(partial(SiftResult, 0, 1.5, TWO_OF_FOUR), "errors must be an integer", id="1.5 errors"),
    # None read as a count built a record whose anomaly_fraction raised a TypeError
    rejected(partial(SiftResult, None, 0, np.zeros(3, dtype=bool)), "anomalies must be a number", id="None anomalies"),
    # an integer mask counted 1 disclosed pair of [0, 1, 0], while the transcript writer disclosed sends 0 and 1
    rejected(partial(SiftResult, 0, 0, np.array([0, 1, 0])), MASK, id="integer mask"),
    rejected(partial(SiftResult, 0, 0, np.ones((2, 2), dtype=bool)), MASK, id="2-d mask"),
    rejected(read_transcript_csv, TRANSCRIPT_HEADER, file=b"index,bit,t_s_ps\r\n0,1,5.0\r\n", id="transcript header"),
    rejected(partial(detect_eavesdropping, EMPTY_SIFT, 0.01), "verdict undefined: no receives at all", id="empty sift"),
    rejected(partial(detect_eavesdropping, SIFT, 0.0, 0.11), "anomaly_threshold must be in (0, 1)", id="anomaly 0"),
    rejected(partial(detect_eavesdropping, SIFT, 1.0, 0.11), "anomaly_threshold must be in (0, 1)", id="anomaly 1"),
    rejected(partial(detect_eavesdropping, SIFT, 0.01, 0.0), "qber_threshold must be in (0, 1)", id="qber 0"),
    rejected(partial(detect_eavesdropping, SIFT, 0.01, 1.5), "qber_threshold must be in (0, 1)", id="qber 1.5"),
    rejected(partial(stream, 0, "nope"), "unknown stream name 'nope'", id="stream nope"),
    # numpy's "expected non-negative integer" and "seed must be integer" named neither argument
    rejected(partial(run_session, ideal_config(), run_index=-1), "run_index must be >= 0", id="session run -1"),
    rejected(partial(run_session, ideal_config(), run_index=1.5), "run_index must be an integer", id="session run 1.5"),
    rejected(partial(stream, -1, "fringe"), "seed must be >= 0", id="stream seed -1"),
    # nan and inf came back as nan
    rejected(partial(canonical_phase, nan), "phase must be finite", id="canonical phase nan"),
]


@pytest.mark.parametrize("call, file, error, message, prefix", LIBRARY_REJECTED)
def test_raises_its_message(tmp_path, call, file, error, message, prefix):
    args = ()
    if file is not None:
        args = (tmp_path / "input",)
        args[0].write_bytes(file)
    with pytest.raises(error) as caught:
        call(*args)
    assert type(caught.value) is error
    assert str(caught.value).startswith(message) if prefix else str(caught.value) == message


@pytest.mark.parametrize(
    "owner, values",
    [
        # the stamp-range rule's longest session at the default tau, and store-forward's longest delay
        (SessionConfig, {"session_duration_s": 4500.0}),
        (AttackStrategy, {"kind": "store-forward", "extra_delay_ps": 2.0**52 - 1.0}),
        # numpy integers are integers
        *((OWNER_OF[name], {name: np.int64(7)}) for name in INT_FIELDS),
        # None is the declared default of these two: not given, the window and the threshold derived
        (SessionConfig, {"accept_window_given_ps": None}),
        (ExperimentConfig, {"anomaly_threshold": None}),
    ],
)
def test_accepts_at_the_edge(owner, values):
    built = build(owner, **values)
    assert {name: getattr(built, name) for name in values} == values
