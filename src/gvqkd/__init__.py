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

__version__ = "0.1.0"
