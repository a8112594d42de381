"""Round-based synchronous network.

Traffic moves in batches: :meth:`SyncNetwork.send_many` buffers one
:class:`SymbolBatch` (parallel sender/receiver/payload arrays, one bit
width, one tag) for the current round, and
:meth:`SyncNetwork.deliver_arrays` ends the round and hands the round's
batches back untouched, advancing the round counter — the standard
lockstep synchronous model of the paper, in which a round carries every
processor's messages at once.  No per-edge Python object is built.  By
default the network never drops, duplicates or forges messages;
Byzantine behaviour lives entirely in *what* faulty processors choose
to send (see :mod:`repro.processors.byzantine`), not in the network.
Timing faults are opt-in: a compiled :class:`repro.faults.FaultSchedule`
installed with :meth:`SyncNetwork.install_faults` may omit, delay (to a
later round), or duplicate individual edges — deterministically, from a
seed — with every decision journalled for audit replay (see
``docs/FAULTS.md``).

A batch of ``m`` messages of ``b`` bits meters ``m * b`` bits in one
:class:`BitMeter` entry.  A journal keeps every delivered message as one
row, a plain tuple, zipped straight from a batch's columns (see
:attr:`SyncNetwork.journal`).

A traffic-free granularity serves the cohort engine:
:meth:`SyncNetwork.charge_round` accounts a full round's bits/messages
and advances the round clock without materializing anything — the
bookkeeping-only replay of a round whose delivered payloads are known
never to be read (see ``docs/ARCHITECTURE.md``).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat
from operator import itemgetter
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.network.message import SymbolBatch
from repro.network.metrics import BitMeter
from repro.utils.boundary import check_int, engine_int

#: A round's journal order: receiver, sender, tag of a journal row.
_JOURNAL_ORDER = itemgetter(2, 1, 3)

#: Validated batch shapes a network keeps (least recently used goes
#: first).  A round sends at most two batches: the honest and the faulty
#: symbol batch of a generation, or a broadcast's dispersal and relay.
#: An old diagnosis-graph state never comes back and a faulty shape that
#: changes every generation never hits, so a third slot holds only dead
#: shapes (measured: 2 slots hit exactly as often as an unbounded table).
_SHAPE_TABLE_SIZE = 2


class NetworkError(RuntimeError):
    """Raised on misuse of the simulator (bad pid, self-send, duplicates)."""


class FaultInjectionError(NetworkError):
    """A fault-injection site was misused; carries round + edge context.

    Every error raised at an injection point (an invalid schedule
    decision, a conflicting install, accounting shortcuts that cannot
    coexist with injected faults) is typed, so drivers can distinguish
    "the fault layer is misconfigured" from plain simulator misuse — and
    the message always names the round and, when one exists, the edge.
    """

    def __init__(
        self,
        reason: str,
        round_index: int,
        sender: Optional[int] = None,
        receiver: Optional[int] = None,
        kind: Optional[str] = None,
    ):
        edge = (
            " on edge %s->%s" % (sender, receiver)
            if sender is not None or receiver is not None
            else ""
        )
        fault = " (fault kind %r)" % kind if kind is not None else ""
        super().__init__(
            "%s in round %d%s%s" % (reason, round_index, edge, fault)
        )
        self.reason = reason
        self.round_index = round_index
        self.sender = sender
        self.receiver = receiver
        self.kind = kind


@dataclass
class RoundDelivery:
    """Everything delivered at the end of one round: the round's
    :class:`SymbolBatch` objects in send order, then the batches a delay
    fault carried into it (each keeps the ``round_index`` it was sent
    in)."""

    round_index: int
    batches: List[SymbolBatch]


class SyncNetwork:
    """A synchronous, fully connected network of ``n`` processors.

    >>> net = SyncNetwork(3)
    >>> net.send_many([0, 2], [1, 1], [5, 6], bits=4, tag="demo")
    >>> [batch] = net.deliver_arrays().batches
    >>> batch.senders.tolist(), batch.payload_list()
    ([0, 2], [5, 6])
    >>> net.meter.total_bits, net.round_index
    (8, 1)
    """

    def __init__(
        self,
        n: int,
        meter: Optional[BitMeter] = None,
        journal: bool = False,
    ):
        if check_int(n, "n") < 1:
            raise ValueError("n must be positive, got %d" % n)
        self.n = n
        self.meter = meter if meter is not None else BitMeter()
        self.round_index = 0
        self._pending_batches: List[SymbolBatch] = []
        #: packed (sender * n + receiver) edge ids per tag, covering the
        #: round's sends — the one duplicate check every later send of
        #: the round tests against.
        self._round_edges: Dict[str, set] = {}
        #: validated batch shapes, ``senders.tobytes() +
        #: receivers.tobytes()`` -> the shape's sorted packed edge ids
        #: (see :meth:`_shape_edges`).
        self._shapes: Dict[bytes, tuple] = {}
        #: When journalling, every delivered message is retained here in
        #: delivery order as one row ``(round_index, sender, receiver,
        #: tag, bits, payload)`` — an execution trace for debugging and
        #: audits.
        self.journal: Optional[List[tuple]] = [] if journal else None
        #: Installed fault schedule (see repro.faults), or None for the
        #: fault-free network.  Duck-typed: anything with a
        #: ``decide(round_index, sender, receiver, tag)`` method returning
        #: a decision with ``kind``/``delay``/``copies`` fields works.
        self.fault_schedule = None
        #: Delayed one-edge batches keyed by the *absolute* round index
        #: in which they will be delivered; each keeps the round_index it
        #: was sent in, so journals and audits can see the displacement.
        self._delayed: Dict[int, List[SymbolBatch]] = {}

    def install_faults(self, schedule) -> None:
        """Install a compiled fault schedule on this network.

        Every subsequent :meth:`send_many` edge is routed through
        ``schedule.decide``; the schedule must be installed while
        the network is quiet (no buffered traffic) and at most once.
        """
        if self.fault_schedule is not None:
            raise FaultInjectionError(
                "a fault schedule is already installed", self.round_index
            )
        if self._pending_batches:
            raise FaultInjectionError(
                "cannot install a fault schedule with traffic buffered",
                self.round_index,
            )
        self.fault_schedule = schedule

    def _raise_duplicate(self, edge: int, tag: str) -> None:
        key = (edge // self.n, edge % self.n, tag)
        raise NetworkError(
            "duplicate message %r in round %d" % (key, self.round_index)
        )

    def send_many(
        self,
        senders: Sequence[int],
        receivers: Sequence[int],
        payloads: Sequence[Any],
        bits: int,
        tag: str,
    ) -> None:
        """Buffer one message per ``(senders[i], receivers[i])`` edge.

        Every message is ``bits`` bits under ``tag``.  Pids must lie in
        ``[0, n)``, no processor sends to itself, and a round carries at
        most one message per (sender, receiver, tag) — the protocols
        here never need more, and the restriction catches orchestration
        bugs early.

        The checks that depend only on the edges (pid ranges, self-sends,
        repeats inside the batch) run once per shape: a shape that
        passed is kept in a small table (:meth:`_shape_edges`), so a
        symbol round over an unchanged diagnosis graph pays only the
        checks that depend on the round — repeats against the round's
        earlier sends under ``tag``, the fault schedule, buffering and
        metering.  A shape that fails is never kept and fails again.

        Args:
            senders: 1-d integer array/sequence of sender pids.
            receivers: matching 1-d integer array/sequence of receiver
                pids.
            payloads: one payload per edge; an integer ndarray is kept
                as the batch's packed payload lane (symbols wider than
                an int64 lane stay Python-int lists; consumers read
                either form through
                :meth:`~repro.network.message.SymbolBatch.payload_list`,
                which restores exact Python ints).
            bits: metered width of every message in the batch (an int
                or a numpy integer; never a bool or a float).
            tag: hierarchical meter tag.

        Metering: one accounting entry with the batch totals.  Raises
        :class:`NetworkError` on any validation failure (the whole batch
        is rejected, nothing is buffered).
        """
        senders = np.asarray(senders)
        receivers = np.asarray(receivers)
        if senders.shape != receivers.shape or senders.ndim != 1:
            raise NetworkError(
                "senders/receivers must be equal-length 1-d arrays, got "
                "%r and %r" % (senders.shape, receivers.shape)
            )
        if len(payloads) != senders.shape[0]:
            raise NetworkError(
                "payload count %d does not match edge count %d"
                % (len(payloads), senders.shape[0])
            )
        if type(bits) is not int:
            bits = engine_int(bits, "bits")
        if bits < 0:
            raise ValueError("bits must be non-negative, got %d" % bits)
        if senders.shape[0] == 0:
            return
        if senders.dtype.kind not in "iu" or receivers.dtype.kind not in "iu":
            raise NetworkError(
                "processor ids must be integers, got dtypes %s and %s"
                % (senders.dtype, receivers.dtype)
            )
        senders = senders.astype(np.int64, copy=False)
        receivers = receivers.astype(np.int64, copy=False)
        edges = self._shape_edges(senders, receivers, tag)
        sent = self._round_edges.setdefault(tag, set())
        if sent and not sent.isdisjoint(edges):
            self._raise_duplicate(
                next(edge for edge in edges if edge in sent), tag
            )
        sent.update(edges)
        if self.fault_schedule is not None:
            decisions = [
                self.fault_schedule.decide(self.round_index, s, r, tag)
                for s, r in zip(senders.tolist(), receivers.tolist())
            ]
            if any(d.kind != "pass" for d in decisions):
                self._send_many_faulted(
                    senders, receivers, payloads, bits, tag, decisions
                )
                return
        self._buffer_batch(senders, receivers, payloads, bits, tag)

    def _shape_edges(
        self, senders: np.ndarray, receivers: np.ndarray, tag: str
    ) -> tuple:
        """The sorted packed edge ids of a batch shape, validated once.

        A shape is its ``(senders, receivers)`` int64 arrays.  A shape
        in the table is a hit and skips validation; a miss runs
        :meth:`_validate_shape`, which raises before anything is kept.
        The table holds :data:`_SHAPE_TABLE_SIZE` shapes, the least
        recently used evicted first.
        """
        key = senders.tobytes() + receivers.tobytes()
        edges = self._shapes.pop(key, None)
        if edges is None:
            edges = self._validate_shape(senders, receivers, tag)
            if len(self._shapes) == _SHAPE_TABLE_SIZE:
                del self._shapes[next(iter(self._shapes))]
        self._shapes[key] = edges
        return edges

    def _validate_shape(
        self, senders: np.ndarray, receivers: np.ndarray, tag: str
    ) -> tuple:
        """Check a batch's edges on their own (pid ranges, self-sends,
        repeated edges) and return its sorted packed edge ids; ``tag``
        only names a repeated edge."""
        pids = np.concatenate((senders, receivers))
        bad = pids[(pids < 0) | (pids >= self.n)]
        if bad.shape[0]:
            raise NetworkError(
                "processor id %d out of range [0, %d)" % (int(bad[0]), self.n)
            )
        self_mask = senders == receivers
        if self_mask.any():
            raise NetworkError(
                "self-send: processor %d to itself in round %d"
                % (int(senders[self_mask][0]), self.round_index)
            )
        packed = senders * self.n + receivers
        unique, counts = np.unique(packed, return_counts=True)
        if unique.shape[0] != packed.shape[0]:
            self._raise_duplicate(int(unique[counts > 1][0]), tag)
        return tuple(unique.tolist())

    def _batch(self, senders, receivers, payloads, bits, tag) -> SymbolBatch:
        # Carrier form: an integer ndarray stays a packed payload lane
        # (consumers normalize through SymbolBatch.payload_list, so
        # np.int64 never leaks to receiver-side validation); object or
        # bool dtypes fall back to the list form.  A lane that is a view
        # of a caller-owned buffer (an arena slice) is copied — the
        # buffer may be reset before the batch is consumed.
        if isinstance(payloads, np.ndarray):
            if payloads.dtype == object or payloads.dtype == np.bool_:
                payloads = payloads.tolist()
            elif payloads.base is not None or not payloads.flags.owndata:
                payloads = payloads.copy()
        else:
            payloads = list(payloads)
        return SymbolBatch(
            tag=tag,
            senders=senders,
            receivers=receivers,
            payloads=payloads,
            bits=bits,
            round_index=self.round_index,
        )

    def _buffer_batch(self, senders, receivers, payloads, bits, tag) -> None:
        count = senders.shape[0]
        self.meter.add(tag, bits * count, messages=count)
        self._pending_batches.append(
            self._batch(senders, receivers, payloads, bits, tag)
        )

    def _send_many_faulted(
        self, senders, receivers, payloads, bits, tag, decisions
    ) -> None:
        """Route a batch whose edges drew at least one non-pass decision.

        The edges that pass stay one batch (one meter entry, untouched
        carrier lane).  Each faulted edge, in edge order, is metered as
        sent — the sender pays whatever the network does with it, so
        the cost the meter observes is independent of the faults — and
        then:

        * an omitted edge is dropped;
        * a delayed edge is kept as a one-edge batch for its later
          round, carrying its send round as ``round_index``;
        * a duplicated edge is buffered ``1 + copies`` times, as a
          one-edge batch.

        The journal and the meter are deterministic functions of
        (traffic, schedule).
        """
        pass_idx = [
            i for i, decision in enumerate(decisions)
            if decision.kind == "pass"
        ]
        if pass_idx:
            keep = np.asarray(pass_idx, dtype=np.int64)
            kept_payloads = (
                payloads[keep] if isinstance(payloads, np.ndarray)
                else [payloads[i] for i in pass_idx]
            )
            self._buffer_batch(
                senders[keep], receivers[keep], kept_payloads, bits, tag
            )
        for i, decision in enumerate(decisions):
            kind = decision.kind
            if kind == "pass":
                continue
            sent = 1
            if kind == "delay":
                delay = int(decision.delay)
                if delay < 1:
                    self._raise_fault(
                        "delay fault needs delay >= 1, got %d" % delay,
                        senders[i], receivers[i], kind,
                    )
            elif kind == "duplicate":
                sent = 1 + int(decision.copies)
                if sent < 2:
                    self._raise_fault(
                        "duplicate fault needs copies >= 1, got %d"
                        % (sent - 1), senders[i], receivers[i], kind,
                    )
            elif kind != "omit":
                self._raise_fault(
                    "unknown fault kind %r" % kind,
                    senders[i], receivers[i], kind,
                )
            self.meter.add(tag, bits * sent, messages=sent)
            if kind == "omit":
                continue
            edge = self._batch(
                senders[i:i + 1], receivers[i:i + 1], payloads[i:i + 1],
                bits, tag,
            )
            if kind == "delay":
                self._delayed.setdefault(
                    self.round_index + delay, []
                ).append(edge)
            else:
                self._pending_batches.extend([edge] * sent)

    def _raise_fault(self, reason, sender, receiver, kind) -> None:
        raise FaultInjectionError(
            reason, self.round_index, int(sender), int(receiver), kind
        )

    def _end_round(self) -> None:
        self._pending_batches = []
        self._round_edges = {}
        self.round_index += 1

    def _journal_round(self, batches: Sequence[SymbolBatch]) -> None:
        """Journal a round's batches as rows sorted by receiver, sender
        and tag; a batch's rows are zipped from its columns
        (``tolist()`` keeps pids exact ints)."""
        shapes = {(b.round_index, b.tag, b.bits) for b in batches}
        if len(shapes) == 1:
            # Batches of one round, tag and size: their rows in receiver,
            # then sender order, by a stable sort of the columns.
            [(round_index, tag, bits)] = shapes
            senders = np.concatenate([batch.senders for batch in batches])
            receivers = np.concatenate([batch.receivers for batch in batches])
            order = np.lexsort((senders, receivers))
            payloads = list(chain.from_iterable(
                batch.payload_list() for batch in batches
            ))
            self.journal.extend(zip(
                repeat(round_index), senders[order].tolist(),
                receivers[order].tolist(), repeat(tag), repeat(bits),
                map(payloads.__getitem__, order.tolist()),
            ))
            return
        rows = []
        for batch in batches:
            rows.extend(zip(
                repeat(batch.round_index), batch.senders.tolist(),
                batch.receivers.tolist(), repeat(batch.tag),
                repeat(batch.bits), batch.payload_list(),
            ))
        rows.sort(key=_JOURNAL_ORDER)
        self.journal.extend(rows)

    def charge_round(self, tag: str, count: int, bits: int) -> None:
        """Account one full round of ``count`` messages of ``bits`` bits
        each and advance the round clock, without materializing any
        traffic.

        The bookkeeping equivalent of :meth:`send_many` over ``count``
        edges followed by :meth:`deliver_arrays` with the delivery
        discarded: meter ``Counter`` state and the round clock end up
        byte-identical.  This is the cohort engine's unit — replaying
        a symbol round whose delivered payloads are known never to be
        read (honest senders deliver their shared-codeword symbol;
        faulty payloads are classified at the hook, not on receipt).

        Refuses to run when traffic is already buffered in the current
        round (the caller would silently swallow
        it) or when journalling is on (the journal must see every
        delivered message, so such networks take the real send path).

        >>> net = SyncNetwork(3)
        >>> net.charge_round("replay", count=6, bits=4)
        >>> net.meter.total_bits, net.round_index
        (24, 1)
        """
        count = engine_int(count, "count")
        bits = engine_int(bits, "bits")
        if count < 0:
            raise ValueError("count must be non-negative, got %d" % count)
        if bits < 0:
            raise ValueError("bits must be non-negative, got %d" % bits)
        if self._pending_batches:
            raise NetworkError(
                "charge_round with traffic buffered in round %d"
                % self.round_index
            )
        if self.fault_schedule is not None:
            raise FaultInjectionError(
                "charge_round under an installed fault schedule: "
                "injected faults require materialized traffic",
                self.round_index,
            )
        if self.journal is not None:
            raise NetworkError(
                "charge_round on a journalling network: the journal "
                "must observe materialized messages"
            )
        if count:
            # A zero-edge round must not touch the meter: the real path
            # (send_many of zero edges + deliver_arrays) records nothing, and a
            # Counter entry of 0 bits would still show up in snapshots.
            self.meter.add(tag, bits * count, messages=count)
        self._end_round()

    def deliver_arrays(self) -> RoundDelivery:
        """End the round: its batches in send order, then the batches a
        delay fault carried into it.  When journalling is on, their rows
        go into the journal."""
        batches = self._pending_batches
        if self._delayed:
            batches = batches + self._delayed.pop(self.round_index, [])
        if self.journal is not None:
            self._journal_round(batches)
        delivery = RoundDelivery(self.round_index, batches)
        self._end_round()
        return delivery
