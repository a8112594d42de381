"""``Broadcast_Single_Bit`` backends.

Algorithm 1 disseminates all of its control information (M vectors,
Detected flags, diagnosis symbols, Trust vectors) through an error-free
1-bit Byzantine broadcast the paper treats as a black box of cost ``B``
bits per broadcast bit (``B = Θ(n²)`` for the bit-optimal algorithms it
cites).  Five interchangeable backends implement the same contract:

* :class:`~repro.broadcast_bit.ideal.AccountedIdealBroadcast` — behaves as
  a correct broadcast and *charges* a configurable ``B(n)``; reproduces the
  paper's complexity formulas exactly (the substitution documented in
  ``docs/BENCHMARKS.md``).
* :class:`~repro.broadcast_bit.phase_king.PhaseKingBroadcast` — a real,
  error-free protocol (source round + ``t+1``-phase King consensus,
  ``t < n/3``), ``B = Θ(n²t)`` measured bits.
* :class:`~repro.broadcast_bit.eig.EIGBroadcast` — Exponential Information
  Gathering (the classic ``OM(t)`` of Lamport, Shostak and Pease), used for
  cross-validation at small ``n``.
* :class:`~repro.broadcast_bit.dolev_strong.DolevStrongBroadcast` — an
  authenticated, probabilistically-correct broadcast built on simulated
  pseudo-signatures, enabling the paper's §4 variant for ``t >= n/3``.
* :class:`~repro.broadcast_bit.mostefaoui.MostefaouiBroadcast` — a
  randomized common-coin broadcast in the Mostefaoui-Raynal/Ben-Or
  style (EST/AUX phases, ``bin_values`` thresholds); deterministic
  safety, probabilistic round count metered per round.
"""

from repro.broadcast_bit.dolev_strong import (
    BernoulliForgingAdversary,
    DolevStrongBroadcast,
)
from repro.broadcast_bit.eig import EIGBroadcast
from repro.broadcast_bit.ideal import AccountedIdealBroadcast
from repro.broadcast_bit.interface import BroadcastBackend, BroadcastStats
from repro.broadcast_bit.mostefaoui import (
    CommonCoin,
    MostefaouiBroadcast,
    RiggedCoin,
    SeededCoin,
)
from repro.broadcast_bit.phase_king import PhaseKingBroadcast, phase_king_bits

__all__ = [
    "BroadcastBackend",
    "BroadcastStats",
    "AccountedIdealBroadcast",
    "PhaseKingBroadcast",
    "phase_king_bits",
    "EIGBroadcast",
    "DolevStrongBroadcast",
    "BernoulliForgingAdversary",
    "MostefaouiBroadcast",
    "CommonCoin",
    "SeededCoin",
    "RiggedCoin",
]
