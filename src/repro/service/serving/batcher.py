"""The micro-batching request queue and its admission-control errors.

:class:`MicroBatcher` is the serving tier's bounded request queue.  It
is a pure, event-loop-agnostic data structure (the server supplies the
clock), which is what makes its flush policy unit-testable without
timers:

* Requests are grouped by a **compatibility key** — the resolved
  :class:`~repro.service.spec.RunSpec` of the deployment they target.
  A flush never mixes deployments: each drained group becomes exactly
  one ``run_many`` cohort on one service, so the cross-instance
  batching (template pricing, attack-shape cohorts, shared encodes)
  engages per group.  Requests with incompatible specs queued in the
  same window *split* into separate groups.
* The queue is **bounded** (``max_queue``): an offer beyond capacity
  raises :class:`QueueFullError` — the explicit backpressure signal —
  rather than queueing unboundedly and converting overload into
  latency.
* A flush is due when either the **window** expires (``window_s``
  measured from the *oldest* queued request — so the first request of
  a quiet period waits at most one window) or any group reaches the
  **size cap** (``max_batch`` — a full cohort gains nothing by
  waiting).

>>> batcher = MicroBatcher(window_s=0.005, max_batch=2, max_queue=4)
>>> batcher.offer("deploy-a", "r1", now=10.0)
False
>>> batcher.due(now=10.004), batcher.due(now=10.006)
(False, True)
>>> batcher.offer("deploy-a", "r2", now=10.001)   # hits the size cap
True
>>> [(key, items) for key, items in batcher.drain_capped()]
[('deploy-a', ['r1', 'r2'])]
>>> batcher.pending
0
"""

from __future__ import annotations

from typing import Dict, Generic, Hashable, List, Optional, Tuple, TypeVar

from repro.utils.boundary import check_duration, check_int

T = TypeVar("T")


class AdmissionError(RuntimeError):
    """Base class for serving-tier admission-control rejections.

    Subclasses carry a stable wire ``code`` so rejections survive the
    TCP boundary: the server maps the raised class to the code, the
    client SDK maps the code back to the same class.
    """

    #: Stable machine-readable rejection code (used on the wire).
    code = "admission_rejected"


class QueueFullError(AdmissionError):
    """The bounded request queue is at capacity (backpressure).

    The request was **not** queued; the client should back off and
    retry.  See ``docs/SERVING.md`` ("Backpressure and rejection
    semantics").
    """

    code = "queue_full"


class InvalidRequestError(AdmissionError):
    """The request can never succeed (wrong input arity for the
    deployment, unknown attack name, a ``faulty`` set the deployment
    cannot run, malformed wire payload) and is rejected immediately —
    retrying without change will not help."""

    code = "invalid_request"


class ServerClosedError(AdmissionError):
    """The server is shutting down (or has shut down) and no longer
    admits requests; in-flight and queued work still completes when
    the shutdown is draining."""

    code = "server_closed"


class MicroBatcher(Generic[T]):
    """Bounded queue grouping compatible requests into flushable batches.

    Args:
        window_s: collection window in seconds (a float or an int,
            finite and at least 0), measured from the oldest queued
            request.
        max_batch: per-group size cap; a group reaching it is ready to
            flush immediately.
        max_queue: total queued-request bound across all groups.
    """

    def __init__(
        self, window_s: float, max_batch: int, max_queue: int
    ):
        check_duration(window_s, "window_s")
        check_int(max_batch, "max_batch")
        check_int(max_queue, "max_queue")
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1, got %r" % max_batch)
        if max_queue < 1:
            raise ValueError("max_queue must be >= 1, got %r" % max_queue)
        self.window_s = window_s
        self.max_batch = max_batch
        self.max_queue = max_queue
        self._groups: Dict[Hashable, List[T]] = {}
        self._pending = 0
        self._oldest: Optional[float] = None

    @property
    def pending(self) -> int:
        """Total queued requests across all groups."""
        return self._pending

    def group_sizes(self) -> Dict[Hashable, int]:
        """Queued request count per compatibility key (for ``ps``)."""
        return {key: len(items) for key, items in self._groups.items()}

    def offer(self, key: Hashable, item: T, now: float) -> bool:
        """Queue ``item`` under ``key``; returns True when the group
        just reached the size cap (flush immediately).

        Raises:
            QueueFullError: the queue is at ``max_queue``; the item was
                not queued.
        """
        if self._pending >= self.max_queue:
            raise QueueFullError(
                "request queue full (%d queued, max_queue=%d)"
                % (self._pending, self.max_queue)
            )
        group = self._groups.setdefault(key, [])
        group.append(item)
        self._pending += 1
        if self._oldest is None:
            self._oldest = now
        return len(group) >= self.max_batch

    def deadline(self) -> Optional[float]:
        """When the window of the oldest queued request expires, or
        ``None`` when nothing is queued."""
        if self._oldest is None:
            return None
        return self._oldest + self.window_s

    def due(self, now: float) -> bool:
        """Has the collection window of the oldest request expired?"""
        deadline = self.deadline()
        return deadline is not None and now >= deadline

    def drain_capped(self) -> List[Tuple[Hashable, List[T]]]:
        """Pop full-cap cohorts from the groups at the size cap (the
        window keeps running for everything left behind)."""
        ready = [
            key
            for key, items in self._groups.items()
            if len(items) >= self.max_batch
        ]
        return self._pop(ready, full_chunks_only=True)

    def drain_all(self) -> List[Tuple[Hashable, List[T]]]:
        """Pop every queued request — the window-expiry (and shutdown)
        flush.  Incompatible specs come back as separate cohorts, in
        first-arrival order; a group larger than ``max_batch`` splits
        into consecutive cap-sized cohorts (``max_batch`` bounds every
        flush, so one burst cannot stretch a single cohort's — hence
        every rider's — execution time arbitrarily)."""
        return self._pop(list(self._groups), full_chunks_only=False)

    def _pop(
        self, keys, full_chunks_only: bool
    ) -> List[Tuple[Hashable, List[T]]]:
        drained = []
        for key in keys:
            items = self._groups.pop(key)
            while len(items) >= self.max_batch:
                drained.append((key, items[: self.max_batch]))
                self._pending -= self.max_batch
                items = items[self.max_batch:]
            if items:
                if full_chunks_only:
                    self._groups[key] = items  # tail keeps its window
                else:
                    drained.append((key, items))
                    self._pending -= len(items)
        if not self._pending:
            self._oldest = None
        return drained
