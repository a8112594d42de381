"""Naive baseline: L-bit consensus as ``L`` independent 1-bit consensuses.

This is the strawman of the paper's §1: with ``Ω(n²)`` a lower bound per
bit, the approach costs ``Ω(n²L)`` in total, a factor ``~n/3`` worse than
the paper's algorithm for large ``L``.  Two interchangeable binary-consensus
substrates:

* ``"phase_king"`` — the real King algorithm per bit (``Θ(n²t)`` measured);
* ``"ideal"`` — a modelled optimal binary consensus charged at ``B(n)``
  bits per bit (agreement/validity by construction), mirroring the
  accounted-ideal broadcast substitution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.broadcast_bit.ideal import default_b
from repro.broadcast_bit.phase_king import run_king_consensus
from repro.core.result import ConsensusOutcome, ground_truth
from repro.network.metrics import BitMeter, MeterSnapshot
from repro.processors.adversary import Adversary, GlobalView, check_tolerated
from repro.processors.answers import substituted_inputs
from repro.utils.bits import bits_to_int, int_to_bits
from repro.utils.boundary import check_choice, check_input_value, check_int

#: The binary-consensus substrates a baseline runs on.
SUBSTRATES = ("ideal", "phase_king")


def binary_consensus(
    substrate: str, n: int, t: int, inputs: Dict[int, int],
    adversary: Adversary, meter: BitMeter, view: Callable[[], GlobalView],
    tag: str, index: int,
) -> Dict[int, int]:
    """One binary consensus on ``inputs`` (pid -> bit): pid -> decision.

    ``phase_king`` runs the King algorithm as instance ``index``;
    ``ideal`` has agreement and validity by construction, a mixed honest
    input resolving to the honest majority (ties toward 0), charged
    ``B(n)`` bits and ``n(n - 1)`` messages under ``tag``."""
    if substrate == "phase_king":
        return run_king_consensus(
            n, t, inputs, adversary, meter, view(), tag, instance=index,
        )
    honest_bits = [
        inputs[pid] for pid in range(n) if not adversary.controls(pid)
    ]
    outcome = 1 if 2 * sum(honest_bits) > len(honest_bits) else 0
    meter.add(tag, default_b(n), n * (n - 1))
    return {pid: outcome for pid in range(n)}


@dataclass
class BitwiseResult(ConsensusOutcome):
    """Outcome of an L x 1-bit consensus run."""

    decisions: Dict[int, int]
    meter: MeterSnapshot
    honest_inputs_equal: bool
    common_input: Optional[int] = None


class BitwiseConsensus:
    """``L`` independent binary consensus instances, one per bit."""

    def __init__(
        self,
        n: int,
        t: int,
        l_bits: int,
        substrate: str = "ideal",
        adversary: Optional[Adversary] = None,
        meter: Optional[BitMeter] = None,
    ):
        for name, value in (("n", n), ("t", t), ("l_bits", l_bits)):
            check_int(value, name)
        check_choice(substrate, SUBSTRATES, "substrate")
        if n < 3 * t + 1:
            raise ValueError("binary consensus requires n >= 3t + 1")
        self.n = n
        self.t = t
        self.l_bits = l_bits
        self.substrate = substrate
        self.adversary = adversary if adversary is not None else Adversary()
        check_tolerated(self.adversary, n, t)
        self.meter = meter if meter is not None else BitMeter()

    def _view(self) -> GlobalView:
        return GlobalView(
            n=self.n, t=self.t, faulty=set(self.adversary.faulty)
        )

    def run(self, inputs: Sequence[int]) -> BitwiseResult:
        """Agree on each of the L bits independently."""
        if len(inputs) != self.n:
            raise ValueError(
                "expected %d inputs, got %d" % (self.n, len(inputs))
            )
        for value in inputs:
            check_input_value(value, self.l_bits)
        bit_rows = {
            pid: int_to_bits(value, self.l_bits)
            for pid, value in substituted_inputs(
                self.adversary, inputs, self.l_bits, self._view
            ).items()
        }

        decided_bits: Dict[int, List[int]] = {
            pid: []
            for pid in range(self.n)
            if not self.adversary.controls(pid)
        }
        for index in range(self.l_bits):
            outcome = binary_consensus(
                self.substrate, self.n, self.t,
                {pid: bit_rows[pid][index] for pid in range(self.n)},
                self.adversary, self.meter, self._view,
                "bitwise.bit%d" % index, index,
            )
            for pid in decided_bits:
                decided_bits[pid].append(outcome[pid])

        decisions = {
            pid: bits_to_int(bits) for pid, bits in decided_bits.items()
        }
        return BitwiseResult(
            decisions=decisions,
            meter=self.meter.snapshot(),
            **ground_truth([inputs[pid] for pid in range(self.n)
                            if not self.adversary.controls(pid)]),
        )
