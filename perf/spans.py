"""In-memory span recorder and the self-time arithmetic.

A span is ``(name, start, end, parent)`` on one thread; spans of one
workload run share the recorder's trace id.  Three wrapper kinds feed a
recorder:

* ``wrap_span`` — one span per call (layer boundaries);
* ``wrap_leaf`` — hot leaves (``PackedBits`` conversions run hundreds of
  thousands of times): no span, only per-seam call/time totals plus a
  per-*parent-span* time counter so the parent's self time still
  excludes them;
* ``wrap_count`` — calls only.

Self time is a span's duration minus its child spans and minus the leaf
time charged to it.  Per thread the self times add up to the top-level
spans' durations exactly; :func:`summarize` reports the residual so a
broken wrapper shows up as a number rather than a silent skew.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: One finished span: (name id, start, end, parent index or -1).
Span = Tuple[int, float, float, int]

_clock = time.perf_counter


def _named(wrapper: Callable, fn: Callable, name: str) -> Callable:
    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", name)
    wrapper.__doc__ = getattr(fn, "__doc__", None)
    return wrapper


class ThreadTrace:
    """Everything one thread recorded (spans are appended in entry
    order, so a parent always precedes its children)."""

    __slots__ = (
        "thread", "spans", "leaf_in_span", "stack", "leaf_depth",
        "leaves", "counts",
    )

    def __init__(self, thread: str):
        self.thread = thread
        self.spans: List[Span] = []
        #: leaf seconds charged to the span at the same index.
        self.leaf_in_span: List[float] = []
        self.stack: List[int] = []
        self.leaf_depth = 0
        #: leaf seam -> [calls, seconds]
        self.leaves: Dict[int, List] = {}
        self.counts: Dict[int, int] = {}


class Recorder:
    """Span store for one traced workload run (one trace id)."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.threads: List[ThreadTrace] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def name_id(self, name: str) -> int:
        with self._lock:
            if name not in self._ids:
                self._ids[name] = len(self.names)
                self.names.append(name)
            return self._ids[name]

    def _thread_trace(self) -> ThreadTrace:
        trace = getattr(self._local, "trace", None)
        if trace is None:
            trace = ThreadTrace(threading.current_thread().name)
            self._local.trace = trace
            with self._lock:
                self.threads.append(trace)
        return trace

    def reset(self) -> None:
        """Drop everything recorded so far (set-up and warm-up), with no
        span open on any thread."""
        with self._lock:
            for trace in self.threads:
                if trace.stack:
                    raise RuntimeError(
                        "reset with a span open on %s" % trace.thread
                    )
                trace.__init__(trace.thread)

    # -- recording ----------------------------------------------------------

    def span(self, name: str) -> "_SpanContext":
        """Context manager recording one span (the harness's own root
        spans; wrapped callables go through :meth:`wrap_span`)."""
        return _SpanContext(self, self.name_id(name))

    # The wrappers below run on every call of a hot function, so they
    # inline their bookkeeping (about 1 us a call) instead of sharing it.

    def wrap_span(self, name: str, fn: Callable) -> Callable:
        name_id = self.name_id(name)
        local, new_trace, clock = self._local, self._thread_trace, _clock

        def traced(*args, **kwargs):
            try:
                trace = local.trace
            except AttributeError:
                trace = new_trace()
            spans, stack = trace.spans, trace.stack
            index = len(spans)
            parent = stack[-1] if stack else -1
            stack.append(index)
            trace.leaf_in_span.append(0.0)
            # The clock is read last on entry and first on exit, so the
            # recorder's own bookkeeping lands in the parent's self time.
            spans.append(None)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index] = (name_id, start, clock(), parent)
                stack.pop()

        return _named(traced, fn, name)

    def wrap_leaf(self, name: str, fn: Callable) -> Callable:
        name_id = self.name_id(name)
        local, new_trace, clock = self._local, self._thread_trace, _clock

        def traced(*args, **kwargs):
            try:
                trace = local.trace
            except AttributeError:
                trace = new_trace()
            try:
                cell = trace.leaves[name_id]
            except KeyError:
                cell = trace.leaves[name_id] = [0, 0.0]
            cell[0] += 1
            if trace.leaf_depth:
                # A leaf inside a leaf (to_int -> to_array): the outer
                # one already owns this interval.
                return fn(*args, **kwargs)
            trace.leaf_depth = 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                trace.leaf_depth = 0
                cell[1] += elapsed
                stack = trace.stack
                if stack:
                    trace.leaf_in_span[stack[-1]] += elapsed

        return _named(traced, fn, name)

    def wrap_count(self, name: str, fn: Callable) -> Callable:
        name_id = self.name_id(name)
        thread_trace = self._thread_trace

        def counted(*args, **kwargs):
            counts = thread_trace().counts
            counts[name_id] = counts.get(name_id, 0) + 1
            return fn(*args, **kwargs)

        return _named(counted, fn, name)

    # -- reading ------------------------------------------------------------

    def summary(self) -> dict:
        """Per-seam totals over every thread (see :func:`summarize`)."""
        for trace in self.threads:
            if trace.stack:
                raise RuntimeError("span still open on %s" % trace.thread)
        return summarize(
            self.names,
            [
                (t.spans, t.leaf_in_span, t.leaves, t.counts)
                for t in self.threads
            ],
        )

    def write_jsonl(self, path: str, **header) -> None:
        """One header line, then one line per span:
        ``[thread, index, name id, start, end, parent index]``."""
        with open(path, "w") as out:
            out.write(json.dumps(
                dict(
                    header,
                    trace_id=self.trace_id,
                    names=self.names,
                    threads=[t.thread for t in self.threads],
                    columns=[
                        "thread", "index", "name", "start", "end", "parent"
                    ],
                )
            ) + "\n")
            for thread_no, trace in enumerate(self.threads):
                out.writelines(
                    "[%d,%d,%d,%.9f,%.9f,%d]\n"
                    % (thread_no, index, span[0], span[1], span[2], span[3])
                    for index, span in enumerate(trace.spans)
                )


class _SpanContext:
    __slots__ = ("_recorder", "_name_id", "_entered")

    def __init__(self, recorder: Recorder, name_id: int):
        self._recorder = recorder
        self._name_id = name_id

    def __enter__(self):
        trace = self._recorder._thread_trace()
        index = len(trace.spans)
        parent = trace.stack[-1] if trace.stack else -1
        trace.stack.append(index)
        trace.leaf_in_span.append(0.0)
        trace.spans.append(None)
        self._entered = (trace, index, parent, _clock())
        return self

    def __exit__(self, *exc_info):
        trace, index, parent, start = self._entered
        trace.spans[index] = (self._name_id, start, _clock(), parent)
        trace.stack.pop()


def self_times(
    spans: Sequence[Span], leaf_in_span: Optional[Sequence[float]] = None
) -> List[float]:
    """Self time of each span of **one thread**: its duration minus the
    durations of its direct children minus the leaf time charged to it.
    ``spans[i][3]`` is the index of span ``i``'s parent (``-1``: none)."""
    own = [end - start for _, start, end, _ in spans]
    if leaf_in_span is not None:
        own = [d - leaf for d, leaf in zip(own, leaf_in_span)]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def summarize(names: Sequence[str], threads: Sequence[tuple]) -> dict:
    """Fold per-thread recordings into per-seam totals.

    ``threads`` holds ``(spans, leaf_in_span, leaves, counts)`` per
    thread, ``leaves`` mapping a name id to ``[calls, seconds]``.
    Returns::

        {"seams": {name: {"calls", "self_s", "total_s"}},
         "leaves": {name: {"calls", "total_s"}},
         "counts": {name: calls},
         "top_level_s": summed duration of spans that have no parent,
         "identity_residual": |top_level_s - all self - all leaf| / top_level_s}

    ``total_s`` is inclusive (sum of the seam's span durations).
    """
    seams: Dict[str, Dict[str, float]] = {}
    leaves: Dict[str, Dict[str, float]] = {}
    counts: Dict[str, int] = {}
    top_level = 0.0
    accounted = 0.0
    for spans, leaf_in_span, thread_leaves, thread_counts in threads:
        own = self_times(spans, leaf_in_span)
        for (name_id, start, end, parent), self_s in zip(spans, own):
            row = seams.setdefault(
                names[name_id], {"calls": 0, "self_s": 0.0, "total_s": 0.0}
            )
            row["calls"] += 1
            row["self_s"] += self_s
            row["total_s"] += end - start
            accounted += self_s
            if parent < 0:
                top_level += end - start
        for name_id, (calls, seconds) in thread_leaves.items():
            row = leaves.setdefault(
                names[name_id], {"calls": 0, "total_s": 0.0}
            )
            row["calls"] += calls
            row["total_s"] += seconds
        accounted += sum(leaf_in_span)
        for name_id, calls in thread_counts.items():
            counts[names[name_id]] = counts.get(names[name_id], 0) + calls
    residual = abs(top_level - accounted) / top_level if top_level else 0.0
    return {
        "seams": seams,
        "leaves": leaves,
        "counts": counts,
        "top_level_s": top_level,
        "identity_residual": residual,
    }
