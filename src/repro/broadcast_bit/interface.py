"""Common contract for ``Broadcast_Single_Bit`` implementations.

A backend broadcasts one bit from a designated source to all processors
and returns, for *every* processor, the bit that processor ends up with.
An error-free backend guarantees:

* **Agreement** — all fault-free processors return the same bit;
* **Validity** — if the source is fault-free, that bit is the source's.

The probabilistic backend (:mod:`repro.broadcast_bit.dolev_strong`) may
violate agreement with small probability; engines built for ``t < n/3``
assert agreement and engines for the §4 variant record violations as the
algorithm's (substrate-inherited) error events.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.network.metrics import BitMeter
from repro.processors.adversary import Adversary, GlobalView
from repro.processors.answers import message_bit
from repro.utils.boundary import check_pid

@dataclass
class BroadcastStats:
    """Counters a backend keeps across its lifetime."""

    instances: int = 0
    bits_charged: int = 0
    disagreements: int = 0
    extras: Dict[str, int] = field(default_factory=dict)


class BroadcastBackend(abc.ABC):
    """Base class wiring up metering, adversary access and instance ids.

    Two batched entry points layer on top of the per-instance
    :meth:`broadcast_bit` primitive, each with the same contract — the
    observable execution (outcomes, meter ``Counter`` state, instance
    ids, the adversary hooks asked and their arguments) is identical to
    the scalar loop it replaces:

    * :meth:`broadcast_bits` — one source, a bit string, one backend
      instance per bit;
    * :meth:`broadcast_bits_many` — several ``(source, bits)`` rows
      known up front, under one tag (the scalar reference's unit).

    A backend whose honest broadcasts are pure accounting
    (:attr:`constant_cost_honest`) also defines the vectorized engines'
    entry points — ``charge_honest_instances`` and
    ``broadcast_bits_many_grouped``
    (:class:`~repro.broadcast_bit.ideal.AccountedIdealBroadcast`); every
    other backend runs real rounds and serves the scalar reference only.
    """

    #: short name used in configs and reports
    name = "abstract"
    #: whether agreement is guaranteed in all executions
    error_free = True
    #: True when an honest, live source's broadcast has no per-instance
    #: hooks and a cost chargeable in O(1) via
    #: ``charge_honest_instances`` (the accounted-ideal backend).
    #: Protocol-simulating backends (Phase-King, EIG, Dolev-Strong) run
    #: real rounds whose faulty *non-source* processors still get hooks,
    #: so their cost cannot be replayed without executing the protocol.
    constant_cost_honest = False
    #: largest t the backend tolerates, as a function of n
    @staticmethod
    def max_faults(n: int) -> int:
        return (n - 1) // 3

    def __init__(
        self,
        n: int,
        t: int,
        meter: Optional[BitMeter] = None,
        adversary: Optional[Adversary] = None,
        view_provider: Optional[Callable[[], GlobalView]] = None,
    ):
        if n < 1:
            raise ValueError("n must be positive, got %d" % n)
        if t < 0:
            raise ValueError("t must be non-negative, got %d" % t)
        self.n = n
        self.t = t
        self.meter = meter if meter is not None else BitMeter()
        self.adversary = adversary if adversary is not None else Adversary()
        self._view_provider = view_provider
        self.stats = BroadcastStats()

    def _view(self) -> GlobalView:
        if self._view_provider is not None:
            return self._view_provider()
        return GlobalView(n=self.n, t=self.t, faulty=set(self.adversary.faulty))

    def _next_instance(self) -> int:
        self.stats.instances += 1
        return self.stats.instances - 1

    def _charge(self, tag: str, bits: int, messages: int = 1) -> None:
        self.meter.add(tag, bits, messages)
        self.stats.bits_charged += bits

    def _source_bits(
        self, source: int, bit: int, active: Sequence[int], instance: int,
        view: GlobalView,
    ) -> Dict[int, Optional[int]]:
        """What each of ``active`` bar ``source`` gets in a source round:
        ``bit``, or a controlled source's ``bsb_source_bit`` answers."""
        if not self.adversary.controls(source):
            return {r: bit for r in active if r != source}
        return {
            r: message_bit("bsb_source_bit", self.adversary.bsb_source_bit(
                source, r, bit, instance, view
            ))
            for r in active if r != source
        }

    # -- public API -----------------------------------------------------------

    def broadcast_bit(
        self,
        source: int,
        bit: int,
        tag: str,
        ignored: FrozenSet[int] = frozenset(),
    ) -> Dict[int, int]:
        """Broadcast one bit; returns pid -> received bit for every pid.

        ``ignored`` holds processors the fault-free have isolated via the
        diagnosis graph: they neither send nor are listened to.  An ignored
        source yields the default bit 0 everywhere without communication.
        """
        if bit not in (0, 1):
            raise ValueError("bit must be 0 or 1, got %r" % (bit,))
        if type(source) is not int or not 0 <= source < self.n:
            check_pid(source, self.n, "source")
        if source in ignored:
            return {pid: 0 for pid in range(self.n)}
        result = self._broadcast_one(source, bit, tag, ignored)
        honest = [
            value
            for pid, value in result.items()
            if pid not in self.adversary.faulty
        ]
        if honest and any(value != honest[0] for value in honest):
            self.stats.disagreements += 1
            if self.error_free:
                raise AssertionError(
                    "error-free backend %s produced disagreement %r"
                    % (self.name, result)
                )
        return result

    def broadcast_bits(
        self,
        source: int,
        bits: Sequence[int],
        tag: str,
        ignored: FrozenSet[int] = frozenset(),
    ) -> Dict[int, List[int]]:
        """Broadcast a bit string: one backend instance per bit (as the
        paper specifies), results collected per pid.

        Args:
            source: broadcasting processor id (``0 <= source < n``).
            bits: the bit string; each bit costs one backend instance.
            tag: hierarchical meter tag all instances charge under.
            ignored: processors the fault-free have isolated; an ignored
                source yields all-zero results without communication
                (and without metering).

        Returns:
            ``pid -> list of received bits`` for every pid, aligned with
            ``bits``.  Under an error-free backend every fault-free
            pid's list is equal.
        """
        results: Dict[int, List[int]] = {pid: [] for pid in range(self.n)}
        for bit in bits:
            outcome = self.broadcast_bit(source, bit, tag, ignored)
            for pid in range(self.n):
                results[pid].append(outcome[pid])
        return results

    def broadcast_bits_many(
        self,
        rows: Sequence[Tuple[int, Sequence[int]]],
        tag: str,
        ignored: FrozenSet[int] = frozenset(),
    ) -> List[Dict[int, List[int]]]:
        """Broadcast several bit strings under one tag: ``rows`` holds
        ``(source, bits)`` pairs; the result aligns with ``rows``.

        Semantically identical to one :meth:`broadcast_bits` call per
        row (and this default implementation is exactly that); backends
        with a cheaper bulk path override it with byte-identical
        accounting.  This is the unit of each of the scalar reference's
        four broadcast sub-stages — M vectors, Detected flags, diagnosis
        symbols and Trust vectors — one call per (sub-stage, generation)
        with every row's bits known up front.

        >>> from repro.broadcast_bit.ideal import AccountedIdealBroadcast
        >>> backend = AccountedIdealBroadcast(4, 1)
        >>> outcomes = backend.broadcast_bits_many(
        ...     [(0, [1, 0]), (1, [1, 1])], "demo")
        >>> [outcome[3] for outcome in outcomes]
        [[1, 0], [1, 1]]
        """
        return [
            self.broadcast_bits(source, bits, tag, ignored)
            for source, bits in rows
        ]

    @abc.abstractmethod
    def _broadcast_one(
        self, source: int, bit: int, tag: str, ignored: FrozenSet[int]
    ) -> Dict[int, int]:
        """Run one broadcast instance and return pid -> decided bit."""

    @abc.abstractmethod
    def bits_per_instance(self) -> float:
        """Analytic ``B``: bits charged by one instance (for formulas)."""
