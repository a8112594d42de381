"""Error-free 1-bit broadcast from Phase-King consensus (``t < n/3``).

Construction: the source sends its bit to everybody (one round), then all
processors run the King algorithm (Berman-Garay-Perry style; the version
below follows the standard three-round-per-phase formulation) on what they
received.  Consensus validity and agreement give the broadcast contract:

* honest source -> every honest processor inputs the source's bit, so
  consensus validity delivers exactly that bit;
* faulty source -> consensus agreement still yields a common bit.

The King algorithm runs ``t + 1`` phases with kings ``0, 1, ..., t`` — at
least one king is fault-free — and each phase has three rounds:

1. everyone sends its current bit to everyone;
2. a processor that saw a value ``y`` at least ``n - t`` times proposes
   ``y``; a processor that receives more than ``t`` proposals for ``z``
   adopts ``z`` (at most one such ``z`` can exist), and records whether the
   support was *strong* (``>= n - t`` proposals);
3. the phase king sends its bit; processors without strong support adopt
   the king's bit.

:func:`run_king_consensus` exposes the consensus core on its own — the
bitwise baseline (L independent binary consensus instances) and the
Fitzi-Hirt digest agreement reuse it directly.

Measured cost per broadcast instance is ``(n-1) + (t+1)·(~2n(n-1) + (n-1))``
bits — ``Θ(n²t)``.  The paper assumes the ``Θ(n²)`` bit-optimal broadcasts
of its references [1, 2]; see :mod:`repro.broadcast_bit.ideal` for the
accounted substitution and benchmark E10 for the measured gap.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional

from repro.broadcast_bit.interface import BroadcastBackend
from repro.network.metrics import BitMeter
from repro.processors.adversary import Adversary, GlobalView
from repro.processors.answers import message_bit


def phase_king_bits(n: int, t: int) -> int:
    """Worst-case bits of one source round + King consensus instance.

    Round 1 and round 2 are all-to-all single-bit exchanges (round 2
    proposals are optional, we bound with everyone proposing); round 3 is
    one king-to-all message.  Plus the initial source round.
    """
    return (n - 1) + king_consensus_bits(n, t)


def king_consensus_bits(n: int, t: int) -> int:
    """Worst-case bits of one King binary-consensus instance."""
    per_phase = 2 * n * (n - 1) + (n - 1)
    return (t + 1) * per_phase


def run_king_consensus(
    n: int,
    t: int,
    inputs: Dict[int, int],
    adversary: Adversary,
    meter: BitMeter,
    view: GlobalView,
    tag: str,
    ignored: FrozenSet[int] = frozenset(),
    instance: int = 0,
) -> Dict[int, int]:
    """The King algorithm on binary inputs; returns pid -> decided bit.

    Fault-free processors are guaranteed agreement, and validity when they
    share an input.  ``ignored`` processors neither send nor are counted.
    Missing inputs default to 0.
    """
    active = [pid for pid in range(n) if pid not in ignored]
    recipients = {pid: [q for q in active if q != pid] for pid in active}
    current: Dict[int, int] = {
        pid: inputs.get(pid, 0) if inputs.get(pid, 0) in (0, 1) else 0
        for pid in active
    }

    for phase in range(t + 1):
        king = phase
        # Round 1: everyone sends its current bit to everyone.
        counts: Dict[int, List[int]] = {pid: [0, 0] for pid in active}
        sent = 0
        for sender in active:
            for recipient in recipients[sender]:
                payload: Optional[int] = current[sender]
                if adversary.controls(sender):
                    payload = message_bit("king_value", adversary.king_value(
                        sender, recipient, phase, current[sender],
                        instance, view,
                    ))
                sent += 1
                if payload is not None:
                    counts[recipient][payload] += 1
        for pid in active:
            counts[pid][current[pid]] += 1  # own value, not transmitted
        meter.add("%s.king.r1" % tag, sent, sent)

        # Round 2: propose values seen >= n - t times.
        proposals: Dict[int, Optional[int]] = {}
        for pid in active:
            if counts[pid][0] >= n - t:
                proposals[pid] = 0
            elif counts[pid][1] >= n - t:
                proposals[pid] = 1
            else:
                proposals[pid] = None
        proposal_counts: Dict[int, List[int]] = {
            pid: [0, 0] for pid in active
        }
        sent = 0
        for sender in active:
            for recipient in recipients[sender]:
                payload = proposals[sender]
                if adversary.controls(sender):
                    payload = message_bit(
                        "king_proposal",
                        adversary.king_proposal(
                            sender, recipient, phase, proposals[sender],
                            instance, view,
                        ),
                    )
                if payload is not None:
                    sent += 1
                    proposal_counts[recipient][payload] += 1
        for pid in active:
            if proposals[pid] in (0, 1):
                proposal_counts[pid][proposals[pid]] += 1
        meter.add("%s.king.r2" % tag, sent, sent)

        strong: Dict[int, bool] = {}
        for pid in active:
            tally = proposal_counts[pid]
            # At most one value can clear t proposals (an honest proposer
            # is needed, and honest processors propose at most one common
            # value); ties broken toward 0 defensively.
            if tally[0] > t or tally[1] > t:
                adopted = 0 if tally[0] >= tally[1] else 1
                current[pid] = adopted
                strong[pid] = tally[adopted] >= n - t
            else:
                strong[pid] = False

        # Round 3: the king sends its bit; weak processors adopt it.
        king_broadcast: Dict[int, Optional[int]] = {}
        sent = 0
        if king in active:
            for recipient in recipients[king]:
                payload = current[king]
                if adversary.controls(king):
                    payload = message_bit("king_bit", adversary.king_bit(
                        king, recipient, phase, current[king],
                        instance, view,
                    ))
                sent += 1
                king_broadcast[recipient] = payload
        meter.add("%s.king.r3" % tag, sent, sent)
        for pid in active:
            if pid == king:
                continue
            if not strong[pid]:
                received = king_broadcast.get(pid)
                current[pid] = received if received in (0, 1) else 0

    return {pid: current.get(pid, 0) for pid in range(n)}


class PhaseKingBroadcast(BroadcastBackend):
    """Real error-free broadcast; every message individually metered.

    Every instance simulates its full King phases, because even an
    honest source's instance carries per-round adversary hooks
    (``king_value``/``king_proposal``/``king_bit`` fire for every faulty
    processor, source or not).  Nothing is priced
    (``constant_cost_honest`` stays False), so the consensus engines run
    their scalar reference over it.
    """

    name = "phase_king"
    error_free = True

    def _broadcast_one(
        self, source: int, bit: int, tag: str, ignored: FrozenSet[int]
    ) -> Dict[int, int]:
        instance = self._next_instance()
        view = self._view()
        adversary = self.adversary
        active = [pid for pid in range(self.n) if pid not in ignored]

        # -- source round: source sends its bit to everyone ------------------
        value = self._source_bits(source, bit, active, instance, view)
        self._charge("%s.source" % tag, len(value), messages=len(value))
        value[source] = bit
        inputs = {
            pid: value[pid] if value[pid] in (0, 1) else 0 for pid in active
        }
        before = self.meter.total_bits
        result = run_king_consensus(
            self.n, self.t, inputs, adversary, self.meter, view, tag,
            ignored, instance,
        )
        self.stats.bits_charged += self.meter.total_bits - before
        return result

    def bits_per_instance(self) -> float:
        return float(phase_king_bits(self.n, self.t))
