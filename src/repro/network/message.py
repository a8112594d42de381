"""The simulator's unit of traffic.

A :class:`SymbolBatch` carries the messages of one round, one tag and
one bit width as parallel sender/receiver/payload arrays: what one
:meth:`~repro.network.simulator.SyncNetwork.send_many` call put on the
wire or, when a fault schedule touched some of its edges, the edges
that passed or one faulted edge.  The receiver can rely on each
``sender`` being authentic: the paper's model states that a message
received on a channel is known to come from the processor at the other
end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Sequence

import numpy as np

from repro.utils.boundary import engine_int


@dataclass(frozen=True)
class SymbolBatch:
    """The messages of one round, tag and bit width as parallel edge
    arrays.

    ``senders`` and ``receivers`` are equal-length int arrays;
    ``payloads`` is the aligned payload sequence in one of two carrier
    forms:

    * a Python list of exact scalars (the only form for payloads wider
      than an int64 lane, or that are not integers);
    * a 1-D integer ndarray — the *packed payload lane* of the
      vectorized data plane, which moves no per-edge Python objects.

    Consumers go through :meth:`payload_list`, which normalizes either
    form to Python scalars (receivers' exact-type payload validation
    must never see ``np.int64``).  ``bits`` is the accounted size *per
    message* — the number of bits each contributes to communication
    complexity, fixed by the protocol step, never by the (possibly
    Byzantine) payload — so a batch meters ``bits * len`` in one
    accounting entry regardless of carrier form.  ``round_index`` is the
    round the batch was sent in.
    """

    tag: str
    senders: np.ndarray
    receivers: np.ndarray
    payloads: Sequence[Any]
    bits: int
    round_index: int = -1

    def __post_init__(self) -> None:
        if type(self.bits) is not int:
            object.__setattr__(self, "bits", engine_int(self.bits, "bits"))
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
        """The payloads as Python scalars, whatever the carrier form:
        ``tolist()`` converts lane elements to exact ints, so the
        receivers' exact-type symbol validation never sees a numpy
        integer.
        """
        payloads = self.payloads
        if isinstance(payloads, np.ndarray):
            return payloads.tolist()
        return list(payloads)
