"""Serving-tier counters and client-observed latency percentiles.

The pod paper (see ``PAPERS.md``) treats client-observed latency as a
first-class consensus property, so the serving tier measures it from
day one: one latency sample per served request, covering the whole
admission-to-result interval (queue wait + batch execution), i.e.
what a client actually waits.  Percentiles are exact
over a bounded sample window (the most recent ``sample_cap`` samples),
not estimates.

>>> stats = ServingStats()
>>> for ms in (1, 2, 3, 4, 100):
...     stats.record_latency(ms / 1000.0)
>>> stats.served
5
>>> round(stats.percentile(50) * 1000)
3
>>> round(stats.percentile(99) * 1000)
100
>>> stats.record_rejection("queue_full")
>>> stats.snapshot()["rejected"]
{'queue_full': 1}
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict

from repro.utils.boundary import check_int


class ServingStats:
    """Counters and latency samples for one server's lifetime.

    Args:
        sample_cap: latency samples retained for percentile queries
            (oldest evicted first).  Totals (``served``, ``rejected``,
            ``flushes``) are never windowed.
    """

    def __init__(self, sample_cap: int = 65536):
        check_int(sample_cap, "sample_cap")
        if sample_cap < 1:
            raise ValueError("sample_cap must be >= 1, got %r" % sample_cap)
        self.sample_cap = sample_cap
        self._samples: Deque[float] = deque(maxlen=sample_cap)
        self.served = 0
        self.rejected: Dict[str, int] = {}
        self.flushes = 0
        self.flushed_instances = 0
        self.max_batch_seen = 0
        self.execute_seconds = 0.0

    # -- recording ----------------------------------------------------------

    def record_latency(self, seconds: float) -> None:
        """One served request's admission-to-result latency."""
        self._samples.append(seconds)
        self.served += 1

    def record_rejection(self, code: str) -> None:
        """One admission-control rejection, by wire code."""
        self.rejected[code] = self.rejected.get(code, 0) + 1

    def record_flush(self, instances: int, seconds: float) -> None:
        """One flushed cohort: its size and its execution time."""
        self.flushes += 1
        self.flushed_instances += instances
        self.max_batch_seen = max(self.max_batch_seen, instances)
        self.execute_seconds += seconds

    # -- reading ------------------------------------------------------------

    def percentile(self, p: float) -> float:
        """Exact p-th percentile (nearest-rank) of the retained latency
        samples, in seconds; 0.0 when nothing has been served."""
        if not 0 <= p <= 100:
            raise ValueError("percentile must be in [0, 100], got %r" % p)
        if not self._samples:
            return 0.0
        ordered = sorted(self._samples)
        rank = max(1, -(-len(ordered) * p // 100))  # ceil, nearest-rank
        return ordered[int(rank) - 1]

    @property
    def mean_batch(self) -> float:
        """Mean flushed-cohort size; 0.0 before the first flush."""
        if not self.flushes:
            return 0.0
        return self.flushed_instances / self.flushes

    def snapshot(self) -> dict:
        """Plain-dict view (JSON-safe) for ``ps`` and the benchmark
        report; latencies in milliseconds, the scale a request's
        queue wait and execution are read in."""
        return {
            "served": self.served,
            "rejected": dict(self.rejected),
            "rejected_total": sum(self.rejected.values()),
            "flushes": self.flushes,
            "mean_batch": round(self.mean_batch, 2),
            "max_batch": self.max_batch_seen,
            "latency_ms": {
                "p50": round(self.percentile(50) * 1000, 3),
                "p99": round(self.percentile(99) * 1000, 3),
                "max": round(
                    max(self._samples) * 1000 if self._samples else 0.0, 3
                ),
            },
            "latency_samples": len(self._samples),
            "execute_seconds": round(self.execute_seconds, 4),
        }
