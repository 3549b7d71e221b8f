"""Named deterministic random sub-streams derived from one session seed.

Every source of randomness in a session draws from its own generator keyed
by (role, run index, seed), so changing one ingredient (say, switching the
attack on) never perturbs the others: the bit sequence, emission times and
detector noise of run k are identical across scenarios that share a seed.
protocol draws the session roles; the fringe scan draws "fringe".
"""

import numpy as np

from gvqkd.devices import check_range

_STREAM_IDS = {
    "source": 1,
    "herald": 2,
    "bits": 3,
    "detector": 4,
    "attack": 5,
    "sift": 6,
    "dark": 7,
    "fringe": 8,
}


def stream(seed: int, name: str, run_index: int = 0) -> np.random.Generator:
    """Independent generator for one named randomness role of one run."""
    check_range("seed", seed, ">= 0", integer=True)
    check_range("run_index", run_index, ">= 0", integer=True)
    try:
        stream_id = _STREAM_IDS[name]
    except KeyError:
        raise ValueError(f"unknown stream name {name!r}") from None
    return np.random.default_rng([stream_id, run_index, seed])

