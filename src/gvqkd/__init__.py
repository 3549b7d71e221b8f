"""Simulator and analysis toolkit for a two-state orthogonal-encoding QKD link.

The protocol encodes each key bit in one of two orthogonal single-photon
superpositions spread over two wave packets that travel the channel one
after the other, separated by a storage delay larger than their travel
time. Security rests on two public checks: arrival-time consistency of
every detection and the error rate of a disclosed subset of the key.

Modules
-------
optics     two-mode state algebra (preparation, phase, recombination)
devices    stochastic source / detector models, picosecond timestamps
protocol   columnar session engine: transmit, receive, timing test, sift, CSV
adversary  intercept-resend and store-and-forward attack models
analysis   fringe scans and fits, QBER/visibility relations, verdicts
config     flat key=value scenario files -> validated run configuration
cli        transmit / fringe-scan / attack-demo subcommands
"""

from gvqkd.optics import (
    PathState,
    apply_phase,
    beam_splitter,
    detection_probabilities,
    make_state,
)
from gvqkd.protocol import (
    Match,
    SessionConfig,
    SiftResult,
    Transcript,
    run_session,
    sift_and_qber,
    sift_transcript,
    timing_test,
)
from gvqkd.adversary import NO_ATTACK, AttackStrategy, apply_attack, eve_information
from gvqkd.analysis import (
    Decision,
    Verdict,
    default_anomaly_threshold,
    detect_eavesdropping,
    fit_fringe,
    fringe_scan,
)
from gvqkd.streams import SessionStreams

__version__ = "0.1.0"

__all__ = [
    "PathState",
    "make_state",
    "beam_splitter",
    "apply_phase",
    "detection_probabilities",
    "SessionConfig",
    "SessionStreams",
    "Transcript",
    "Match",
    "SiftResult",
    "run_session",
    "timing_test",
    "sift_and_qber",
    "sift_transcript",
    "AttackStrategy",
    "NO_ATTACK",
    "apply_attack",
    "eve_information",
    "Decision",
    "Verdict",
    "fringe_scan",
    "fit_fringe",
    "detect_eavesdropping",
    "default_anomaly_threshold",
    "__version__",
]
