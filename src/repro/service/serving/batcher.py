"""The micro-batching request queue and its admission-control errors.

:class:`MicroBatcher` is the serving tier's bounded request queue.  It
is a pure, event-loop-agnostic data structure, which is what makes its
grouping rules unit-testable without timers:

* Requests are grouped by a **compatibility key** — the resolved
  :class:`~repro.service.spec.RunSpec` of the deployment they target.
  A drain never mixes deployments: each drained group becomes one
  ``run_many`` cohort on one service, so the cross-instance batching
  (template pricing, attack-shape cohorts, shared encodes) engages per
  group.  Requests with incompatible specs queued together *split*
  into separate groups.
* The queue is **bounded** (``max_queue``): an offer beyond capacity
  raises :class:`QueueFullError` — the explicit backpressure signal —
  rather than queueing unboundedly and converting overload into
  latency.
* A drain takes **everything** queued, a group larger than the
  **size cap** (``max_batch``) split into cap-sized cohorts.  The
  server drains whenever its worker thread is free
  (:mod:`repro.service.serving.server`), so what queues while one
  cohort runs is the next, and no request waits for company.

>>> batcher = MicroBatcher(max_batch=2, max_queue=4)
>>> for key, item in [("a", "r1"), ("b", "r2"), ("a", "r3"), ("a", "r4")]:
...     batcher.offer(key, item)
>>> batcher.drain_all()
[('a', ['r1', 'r3']), ('a', ['r4']), ('b', ['r2'])]
>>> batcher.pending
0
"""

from __future__ import annotations

from typing import Dict, Generic, Hashable, List, Tuple, TypeVar

from repro.utils.boundary import check_int

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
    """Bounded queue grouping compatible requests into cohorts.

    Args:
        max_batch: per-cohort size cap; a drain splits a larger group.
        max_queue: total queued-request bound across all groups.
    """

    def __init__(self, max_batch: int, max_queue: int):
        check_int(max_batch, "max_batch")
        check_int(max_queue, "max_queue")
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1, got %r" % max_batch)
        if max_queue < 1:
            raise ValueError("max_queue must be >= 1, got %r" % max_queue)
        self.max_batch = max_batch
        self.max_queue = max_queue
        self._groups: Dict[Hashable, List[T]] = {}
        self._pending = 0

    @property
    def pending(self) -> int:
        """Total queued requests across all groups."""
        return self._pending

    def group_sizes(self) -> Dict[Hashable, int]:
        """Queued request count per compatibility key (for ``ps``)."""
        return {key: len(items) for key, items in self._groups.items()}

    def offer(self, key: Hashable, item: T) -> None:
        """Queue ``item`` under ``key``.

        Raises:
            QueueFullError: the queue is at ``max_queue``; the item was
                not queued.
        """
        if self._pending >= self.max_queue:
            raise QueueFullError(
                "request queue full (%d queued, max_queue=%d)"
                % (self._pending, self.max_queue)
            )
        self._groups.setdefault(key, []).append(item)
        self._pending += 1

    def drain_all(self) -> List[Tuple[Hashable, List[T]]]:
        """Pop every queued request.  Incompatible specs come back as
        separate cohorts, in first-arrival order of their keys; a group
        larger than ``max_batch`` splits into consecutive cap-sized
        cohorts (``max_batch`` bounds every cohort, so one burst cannot
        stretch a single cohort's — hence every rider's — execution
        time arbitrarily)."""
        cap = self.max_batch
        drained = [
            (key, items[start:start + cap])
            for key, items in self._groups.items()
            for start in range(0, len(items), cap)
        ]
        self._groups = {}
        self._pending = 0
        return drained
