"""Round-based synchronous network.

Messages buffered with :meth:`SyncNetwork.send` during a round are delivered
together by :meth:`SyncNetwork.deliver`, which advances the round counter —
the standard lockstep synchronous model of the paper.  By default the
network never drops, duplicates, reorders within a (sender, receiver)
pair, or forges messages; Byzantine behaviour lives entirely in *what*
faulty processors choose to send (see :mod:`repro.processors.byzantine`),
not in the network.  Timing faults are opt-in: a compiled
:class:`repro.faults.FaultSchedule` installed with
:meth:`SyncNetwork.install_faults` may omit, delay (to a later round),
or duplicate individual edges — deterministically, from a seed — with
every decision journalled for audit replay (see ``docs/FAULTS.md``).

Two delivery granularities coexist:

* the scalar path — :meth:`SyncNetwork.send` one :class:`Message` per
  edge, :meth:`SyncNetwork.deliver` per-receiver inboxes — kept for
  tests, journals and adversarial paths;
* the vectorized path — :meth:`SyncNetwork.send_many` one
  :class:`SymbolBatch` (parallel sender/receiver/payload arrays) per
  ``(tag, round)``, :meth:`SyncNetwork.deliver_arrays` the batches
  untouched — which moves no per-edge Python objects at all.

Both paths share the round clock, the duplicate-detection bookkeeping and
the :class:`BitMeter`, and their accounting is byte-identical: a batch of
``m`` messages of ``b`` bits meters exactly like ``m`` scalar sends of
``b`` bits.  Mixing the two in one round is allowed; ``deliver`` always
reports everything (materializing batches into messages), while
``deliver_arrays`` keeps batches as arrays.  A journal keeps every
delivered message as one row, a plain tuple, zipped straight from a
batch's columns (see :attr:`SyncNetwork.journal`).

A third, traffic-free granularity serves the cohort engine:
:meth:`SyncNetwork.charge_round` accounts a full round's bits/messages
and advances the round clock without materializing anything — the
bookkeeping-only replay of a round whose delivered payloads are known
never to be read (see ``docs/ARCHITECTURE.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, repeat
from operator import itemgetter
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.network.message import Message, SymbolBatch
from repro.network.metrics import BitMeter
from repro.utils.boundary import engine_int

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
    """Everything delivered at the end of one round, arrays kept as arrays.

    ``inboxes`` holds the round's *scalar* messages exactly as
    :meth:`SyncNetwork.deliver` would report them; ``batches`` holds the
    round's :class:`SymbolBatch` objects in send order, unmaterialized.
    """

    round_index: int
    inboxes: Dict[int, List[Message]]
    batches: List[SymbolBatch] = field(default_factory=list)


class SyncNetwork:
    """A synchronous, fully connected network of ``n`` processors.

    >>> net = SyncNetwork(3)
    >>> net.send(0, 1, payload=1, bits=1, tag="demo")
    >>> inboxes = net.deliver()
    >>> inboxes[1][0].payload
    1
    >>> net.meter.total_bits
    1
    """

    def __init__(
        self,
        n: int,
        meter: Optional[BitMeter] = None,
        journal: bool = False,
    ):
        if n < 1:
            raise ValueError("n must be positive, got %d" % n)
        self.n = n
        self.meter = meter if meter is not None else BitMeter()
        self.round_index = 0
        self._pending: List[Message] = []
        self._pending_batches: List[SymbolBatch] = []
        #: packed (sender * n + receiver) edge ids per tag, covering the
        #: round's scalar and batched sends — the one duplicate check
        #: every later send of the round tests against.
        self._round_edges: Dict[str, set] = {}
        #: validated batch shapes, ``senders.tobytes() +
        #: receivers.tobytes()`` -> the shape's sorted packed edge ids
        #: (see :meth:`_shape_edges`).
        self._shapes: Dict[bytes, tuple] = {}
        #: When journalling, every delivered message is retained here in
        #: delivery order as one row ``(round_index, sender, receiver,
        #: tag, bits, payload)`` — an execution trace for debugging and
        #: audits, identical whichever send path produced the traffic.
        self.journal: Optional[List[tuple]] = [] if journal else None
        #: Installed fault schedule (see repro.faults), or None for the
        #: fault-free network.  Duck-typed: anything with a
        #: ``decide(round_index, sender, receiver, tag)`` method returning
        #: a decision with ``kind``/``delay``/``copies`` fields works.
        self.fault_schedule = None
        #: Delayed messages keyed by the *absolute* round index in which
        #: they will be delivered; each keeps the round_index it was sent
        #: in, so journals and audits can see the displacement.
        self._delayed: Dict[int, List[Message]] = {}

    def install_faults(self, schedule) -> None:
        """Install a compiled fault schedule on this network.

        Every subsequent :meth:`send`/:meth:`send_many` edge is routed
        through ``schedule.decide``; the schedule must be installed while
        the network is quiet (no buffered traffic) and at most once.
        """
        if self.fault_schedule is not None:
            raise FaultInjectionError(
                "a fault schedule is already installed", self.round_index
            )
        if self._pending or self._pending_batches:
            raise FaultInjectionError(
                "cannot install a fault schedule with traffic buffered",
                self.round_index,
            )
        self.fault_schedule = schedule

    def _check_pid(self, pid: int) -> int:
        if type(pid) is not int:
            pid = engine_int(pid, "processor id", NetworkError)
        if not 0 <= pid < self.n:
            raise NetworkError("processor id %d out of range [0, %d)" % (pid, self.n))
        return pid

    def send(
        self, sender: int, receiver: int, payload: Any, bits: int, tag: str
    ) -> None:
        """Buffer one message for delivery at the end of the current round.

        At most one message per (sender, receiver, tag) per round — the
        protocols here never need more, and the restriction catches
        orchestration bugs early.
        """
        sender = self._check_pid(sender)
        receiver = self._check_pid(receiver)
        if type(bits) is not int:
            bits = engine_int(bits, "bits")
        if sender == receiver:
            raise NetworkError(
                "self-send: processor %d to itself in round %d"
                % (sender, self.round_index)
            )
        edge = sender * self.n + receiver
        edges = self._round_edges.setdefault(tag, set())
        if edge in edges:
            self._raise_duplicate(edge, tag)
        message = Message(
            sender=sender,
            receiver=receiver,
            payload=payload,
            bits=bits,
            tag=tag,
            round_index=self.round_index,
        )
        edges.add(edge)
        if self.fault_schedule is not None:
            decision = self.fault_schedule.decide(
                self.round_index, sender, receiver, tag
            )
            if decision.kind != "pass":
                self._apply_fault(message, decision)
                return
        self.meter.add(tag, bits)
        self._pending.append(message)

    def _apply_fault(self, message: Message, decision) -> None:
        """Route one scalar message according to a non-pass decision.

        Metering is always "sender pays": an omitted or delayed message
        is charged in the round it was *sent*, exactly as if it had gone
        through, so the cost model observed by the meter is independent
        of what the network did to the traffic.
        """
        kind = decision.kind
        if kind == "omit":
            self.meter.add(message.tag, message.bits)
        elif kind == "delay":
            delay = int(decision.delay)
            if delay < 1:
                raise FaultInjectionError(
                    "delay fault needs delay >= 1, got %d" % delay,
                    self.round_index,
                    message.sender,
                    message.receiver,
                    kind,
                )
            self.meter.add(message.tag, message.bits)
            self._delayed.setdefault(
                self.round_index + delay, []
            ).append(message)
        elif kind == "duplicate":
            copies = int(decision.copies)
            if copies < 1:
                raise FaultInjectionError(
                    "duplicate fault needs copies >= 1, got %d" % copies,
                    self.round_index,
                    message.sender,
                    message.receiver,
                    kind,
                )
            self.meter.add(
                message.tag,
                message.bits * (1 + copies),
                messages=1 + copies,
            )
            for _ in range(1 + copies):
                self._pending.append(message)
        else:
            raise FaultInjectionError(
                "unknown fault kind %r" % kind,
                self.round_index,
                message.sender,
                message.receiver,
                kind,
            )

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

        The batched equivalent of ``len(senders)`` :meth:`send` calls of
        ``bits`` bits each under ``tag`` — same validation (pid ranges,
        no self-sends, at most one message per (sender, receiver, tag)
        per round, including against scalar sends), same metering totals
        — without constructing any per-edge :class:`Message` objects.

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
                an int64 lane stay Python-int lists; scalar consumers
                read either form through
                :meth:`~repro.network.message.SymbolBatch.payload_list`,
                which restores exact Python ints).
            bits: metered width of every message in the batch (an int
                or a numpy integer; never a bool or a float).
            tag: hierarchical meter tag.

        Metering invariant: one accounting entry with the batch totals,
        byte-identical ``Counter`` state to the per-edge scalar sends it
        replaces.  Raises :class:`NetworkError` on any validation
        failure (the whole batch is rejected, nothing is buffered).
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

    def _buffer_batch(self, senders, receivers, payloads, bits, tag) -> None:
        # Carrier form: an integer ndarray stays a packed payload lane
        # (scalar consumers normalize through SymbolBatch.payload_list,
        # so np.int64 never leaks to receiver-side validation); object
        # or bool dtypes fall back to the scalar list form.  A lane that
        # is a view of a caller-owned buffer (an arena slice) is copied —
        # the buffer may be reset before the batch is consumed.
        count = senders.shape[0]
        if isinstance(payloads, np.ndarray):
            if payloads.dtype == object or payloads.dtype == np.bool_:
                payloads = payloads.tolist()
            elif payloads.base is not None or not payloads.flags.owndata:
                payloads = payloads.copy()
        else:
            payloads = list(payloads)
        batch = SymbolBatch(
            tag=tag,
            senders=senders,
            receivers=receivers,
            payloads=payloads,
            bits=bits,
            round_index=self.round_index,
        )
        # One accounting entry with the batch totals — byte-identical to
        # `count` scalar sends of `bits` bits (Counter sums are equal).
        self.meter.add(tag, bits * count, messages=count)
        self._pending_batches.append(batch)

    def _send_many_faulted(
        self, senders, receivers, payloads, bits, tag, decisions
    ) -> None:
        """Split a batch whose edges drew at least one non-pass decision.

        Edges that pass stay batched (one :class:`SymbolBatch`, one meter
        entry, untouched carrier lane); every faulted edge is
        materialized into a scalar :class:`Message` and routed through
        :meth:`_apply_fault`, in edge order, so the journal and meter are
        deterministic functions of (traffic, schedule).
        """
        is_array = isinstance(payloads, np.ndarray)
        pass_idx = [
            i for i, decision in enumerate(decisions)
            if decision.kind == "pass"
        ]
        if pass_idx:
            keep = np.asarray(pass_idx, dtype=np.int64)
            kept_payloads = (
                payloads[keep] if is_array
                else [payloads[i] for i in pass_idx]
            )
            self._buffer_batch(
                senders[keep], receivers[keep], kept_payloads, bits, tag
            )
        for i, decision in enumerate(decisions):
            if decision.kind == "pass":
                continue
            payload = payloads[i]
            if is_array:
                payload = payload.item()
            message = Message(
                sender=int(senders[i]),
                receiver=int(receivers[i]),
                payload=payload,
                bits=bits,
                tag=tag,
                round_index=self.round_index,
            )
            self._apply_fault(message, decision)

    def _materialize_pending_batches(self) -> List[Message]:
        messages: List[Message] = []
        for batch in self._pending_batches:
            messages.extend(batch.materialize())
        return messages

    def _end_round(self) -> None:
        self._pending = []
        self._pending_batches = []
        self._round_edges = {}
        self.round_index += 1

    def _journal_round(
        self, messages: List[Message], batches: Sequence[SymbolBatch] = ()
    ) -> None:
        """Journal a round's scalar messages, then its batches, as rows
        sorted by receiver, sender and tag; a batch's rows are zipped
        from its columns (``tolist()`` keeps pids exact ints)."""
        shapes = {(b.round_index, b.tag, b.bits) for b in batches}
        if not messages and len(shapes) == 1:
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
        rows = [
            (m.round_index, m.sender, m.receiver, m.tag, m.bits, m.payload)
            for m in messages
        ]
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

        Refuses to run when scalar or batched traffic is already
        buffered in the current round (the caller would silently swallow
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
        if self._pending or self._pending_batches:
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
            # (send_many of zero edges + deliver) records nothing, and a
            # Counter entry of 0 bits would still show up in snapshots.
            self.meter.add(tag, bits * count, messages=count)
        self._end_round()

    def deliver(self) -> Dict[int, List[Message]]:
        """End the round: deliver all buffered messages, keyed by receiver.

        Every processor appears in the result (possibly with an empty
        inbox), and each inbox is sorted by sender for determinism.
        Batched sends are materialized into scalar messages here, so
        legacy callers observe identical traffic whichever send path
        produced it.
        """
        delivered = self._pending + self._materialize_pending_batches()
        if self._delayed:
            # Messages a delay fault carried into this round; each keeps
            # the round_index it was sent in.
            delivered = delivered + self._delayed.pop(self.round_index, [])
        inboxes: Dict[int, List[Message]] = {pid: [] for pid in range(self.n)}
        for message in delivered:
            inboxes[message.receiver].append(message)
        for inbox in inboxes.values():
            inbox.sort(key=lambda m: (m.sender, m.tag))
        if self.journal is not None:
            self._journal_round(delivered)
        self._end_round()
        return inboxes

    def deliver_arrays(self) -> RoundDelivery:
        """End the round without materializing batches.

        Scalar sends come back as per-receiver inboxes (exactly as
        :meth:`deliver` reports them); batched sends come back as the
        :class:`SymbolBatch` objects in send order.  When journalling is
        on, the batches' rows go into the journal, the same rows the
        scalar path journals.
        """
        inboxes: Dict[int, List[Message]] = {pid: [] for pid in range(self.n)}
        scalar = self._pending
        if self._delayed:
            scalar = scalar + self._delayed.pop(self.round_index, [])
        for message in scalar:
            inboxes[message.receiver].append(message)
        for inbox in inboxes.values():
            inbox.sort(key=lambda m: (m.sender, m.tag))
        batches = list(self._pending_batches)
        if self.journal is not None:
            self._journal_round(scalar, batches)
        delivery = RoundDelivery(
            round_index=self.round_index, inboxes=inboxes, batches=batches
        )
        self._end_round()
        return delivery
