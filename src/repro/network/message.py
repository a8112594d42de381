"""Message records for the synchronous simulator.

Two granularities share the same on-wire semantics:

* :class:`Message` — one payload on one directed channel (the scalar
  unit of the simulator's original API, still used by tests, scalar
  inboxes and adversarial paths; a journal keeps rows instead);
* :class:`SymbolBatch` — every payload sent under one ``(tag, round)``
  as parallel sender/receiver/payload arrays, the unit of the
  vectorized :meth:`~repro.network.simulator.SyncNetwork.send_many`
  path.  A batch can always be :meth:`~SymbolBatch.materialize`-d back
  into the equivalent list of :class:`Message` objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Sequence

import numpy as np


@dataclass(frozen=True)
class Message:
    """One message on a directed point-to-point channel.

    The receiver can rely on ``sender`` being authentic: the paper's model
    states that a message received on a channel is known to come from the
    processor at the other end.  ``bits`` is the accounted size — the number
    of bits this message contributes to communication complexity — which is
    fixed by the protocol step, never by the (possibly Byzantine) payload.
    """

    sender: int
    receiver: int
    payload: Any
    bits: int
    tag: str
    round_index: int = -1

    def __post_init__(self) -> None:
        if self.sender == self.receiver:
            raise ValueError("no self-channels: sender == receiver == %d" % self.sender)
        if self.bits < 0:
            raise ValueError("bits must be non-negative, got %d" % self.bits)


@dataclass(frozen=True)
class SymbolBatch:
    """All messages of one ``(tag, round)`` as parallel edge arrays.

    ``senders`` and ``receivers`` are equal-length int arrays;
    ``payloads`` is the aligned payload sequence in one of two carrier
    forms:

    * a Python list of exact scalars (the scalar-compatible form, and
      the only form for payloads wider than an int64 lane);
    * a 1-D integer ndarray — the *packed payload lane* of the
      vectorized data plane, which moves no per-edge Python objects.

    Consumers go through :meth:`payload_list`, which normalizes either
    form to Python scalars (receivers' exact-type payload validation
    must never see ``np.int64``).  ``bits`` is the accounted size *per
    message* — every message in a batch is the same protocol step, so
    all carry the same bit count, and the batch meters ``bits * len`` in
    one accounting entry regardless of carrier form.
    """

    tag: str
    senders: np.ndarray
    receivers: np.ndarray
    payloads: Sequence[Any]
    bits: int
    round_index: int = -1

    def __post_init__(self) -> None:
        if self.bits < 0:
            raise ValueError("bits must be non-negative, got %d" % self.bits)
        if not (
            len(self.senders) == len(self.receivers) == len(self.payloads)
        ):
            raise ValueError(
                "batch arrays disagree on length: %d senders, %d "
                "receivers, %d payloads"
                % (len(self.senders), len(self.receivers), len(self.payloads))
            )

    def __len__(self) -> int:
        return len(self.senders)

    def payload_list(self) -> List[Any]:
        """The payloads as Python scalars, whatever the carrier form.

        The scalar consumers' accessor: ``tolist()`` converts lane
        elements to exact ints, so the downstream exact-type symbol
        validation behaves identically to the scalar send path.
        """
        payloads = self.payloads
        if isinstance(payloads, np.ndarray):
            return payloads.tolist()
        return list(payloads)

    def materialize(self) -> List[Message]:
        """The batch as scalar :class:`Message` objects (journal order is
        the caller's concern; this preserves batch order).  ``tolist()``
        already made the pids exact ints."""
        bits, tag, round_index = self.bits, self.tag, self.round_index
        return [
            Message(sender, receiver, payload, bits, tag, round_index)
            for sender, receiver, payload in zip(
                self.senders.tolist(),
                self.receivers.tolist(),
                self.payload_list(),
            )
        ]
