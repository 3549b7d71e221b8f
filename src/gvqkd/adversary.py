"""Eavesdropping strategies against the delayed-wave-packet link.

The two active strategies span the detection dichotomy the protocol is
built on:

* which-path: measure the one packet present in the channel. Timing is
  untouched, but the collapse destroys the superposition, so the guess is
  a coin flip and the receiver's error rate jumps to 1/2.
* store-forward: hold the leading packet until its partner appears,
  interfere them, learn the bit exactly, re-prepare and forward. Every
  bit is read and none is flipped, but each detection is late by at least
  the storage delay, which the timing test flags.

Eve's own optics and resent packets are ideal; only the honest hardware
carries imperfections.
"""

import math
from dataclasses import dataclass

import numpy as np

from gvqkd.devices import Ranged, ranged
from gvqkd.optics import LINK_STATES, SQRT1_2, STATE_MODE_A, STATE_MODE_B

KIND_NONE = "none"
KIND_WHICH_PATH = "which-path"
KIND_STORE_FORWARD = "store-forward"

KINDS = (KIND_NONE, KIND_WHICH_PATH, KIND_STORE_FORWARD)


@dataclass(frozen=True)
class AttackStrategy(Ranged):
    """Eavesdropping strategy selector; extra_delay_ps, range-checked for every kind, applies to store-forward only."""

    kind: str = KIND_NONE
    extra_delay_ps: float = ranged(500.0, "in (0, 2**52)")

    def __post_init__(self):
        super().__post_init__()
        if self.kind not in KINDS:
            raise ValueError(f"unknown attack kind {self.kind!r}; expected one of {KINDS}")


NO_ATTACK = AttackStrategy(KIND_NONE)

# Eve's ideal optics on each link state: which-path finds the photon in
# packet a with probability |a|^2; store-forward's recombiner sends it to
# her D0 with probability |(a + b) / sqrt 2|^2, the Born rule on port a
WHICH_PATH_P_A = np.abs(LINK_STATES[:, 0]) ** 2
STORE_FORWARD_P0 = np.abs((LINK_STATES[:, 0] + LINK_STATES[:, 1]) * SQRT1_2) ** 2


# Eve's guess for a photon she took no guess on
NO_GUESS = -1


def apply_attack(
    strategy: AttackStrategy,
    state: np.ndarray,
    launch_a_ps: np.ndarray,
    launch_b_ps: np.ndarray,
    travel_time_ps: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pass every photon of a session through the channel under a strategy.

    state holds link-state indices (rows of optics.LINK_STATES). Returns
    (state at the receiver, arrival, Eve's guess), one entry per photon.
    arrival is when packet b reaches the receiver, where it recombines with
    packet a: every strategy delays both packets or neither. The guess is
    NO_GUESS where Eve took none.
    """
    n = state.size
    arrival = launch_b_ps + travel_time_ps
    if strategy.kind == KIND_NONE:
        return state, arrival, np.full(n, NO_GUESS)

    if strategy.kind == KIND_WHICH_PATH:
        # the localized packet is resent on schedule; nothing to learn,
        # the guess is a coin flip
        found_a = rng.random(n) < WHICH_PATH_P_A[state]
        guess = rng.integers(0, 2, size=n)
        return np.where(found_a, STATE_MODE_A, STATE_MODE_B), arrival, guess

    # store-forward: Eve reads the packet separation off the launch times
    # she observes, interferes the pair on her own ideal recombiner, and
    # forwards a fresh copy. Holding packet a until b exists costs the
    # separation itself; extra_delay is her processing overhead.
    learned = (rng.random(n) >= STORE_FORWARD_P0[state]).astype(np.int64)
    delay = (launch_b_ps - launch_a_ps) + strategy.extra_delay_ps
    return learned, arrival + delay, learned


def eve_information(guesses: np.ndarray, alice_bits: np.ndarray) -> float:
    """Empirical mutual information (bits) between Eve's guesses and the sent bits.

    Photons without a guess (NO_GUESS) contribute nothing; if none carries
    a guess the information is 0. Raises on empty input (undefined).
    """
    guesses = np.asarray(guesses)
    alice_bits = np.asarray(alice_bits)
    if guesses.size == 0:
        raise ValueError("eve_information undefined on empty input")
    if guesses.shape != alice_bits.shape:
        raise ValueError("guesses and alice_bits must be aligned")
    guessed = guesses != NO_GUESS
    joint = np.bincount(2 * guesses[guessed] + alice_bits[guessed], minlength=4).reshape(2, 2).astype(float)
    total = joint.sum()
    if total == 0:
        return 0.0
    joint /= total
    p_guess = joint.sum(axis=1)
    p_bit = joint.sum(axis=0)
    info = 0.0
    for g in (0, 1):
        for b in (0, 1):
            if joint[g, b] > 0:
                info += joint[g, b] * math.log2(joint[g, b] / (p_guess[g] * p_bit[b]))
    return info
