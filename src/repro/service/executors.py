"""Pluggable batch executors for :class:`ConsensusService.run_many`.

An :class:`Executor` receives the service and the coerced
:class:`~repro.service.spec.InstanceSpec` batch and returns one
:class:`~repro.core.result.ConsensusResult` per instance, in order.

* :class:`SerialExecutor` — the in-process reference: delegates straight
  to the service's local batching path.
* :class:`ProcessExecutor` — shards the batch over ``multiprocessing``
  worker processes.  Workers receive only declarative state (the
  service's :class:`~repro.service.spec.RunSpec` plus their shard of
  instance specs), rebuild an identical :class:`ConsensusService` from
  it, and batch their shard exactly like the serial path — so results,
  including stateful seeded adversaries reconstructed from
  ``(attack, seed, faulty)``, are byte-identical to serial execution
  whatever the shard boundaries.
* :class:`AsyncExecutor` — event-loop integration: the batch runs on
  one dedicated worker thread while an ``asyncio`` caller awaits
  :meth:`~AsyncExecutor.run_async`, so a serving loop keeps admitting
  and micro-batching new requests during a flush.  This is the
  executor the serving tier (:mod:`repro.service.serving`) drives.

Choosing between them: static sharding has no queue traffic and each
shard amortizes its own template and batched encodes over the longest
possible run of instances; against that, every ``run`` starts a fresh
pool, each worker rebuilds the deployment cold and results are pickled
back, so a batch has to be long enough to repay all three.  The
async executor is not about parallelism at all (one worker thread,
GIL-bound): it exists so that batch execution does not block an event
loop.

>>> from repro.service import ConsensusService, RunSpec
>>> service = ConsensusService(RunSpec(n=4, l_bits=16))
>>> [r.value for r in service.run_many([1, 2, 3], executor="async")]
[1, 2, 3]
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
from concurrent.futures import ThreadPoolExecutor
from typing import List, Optional, Sequence, Tuple

from repro.core.result import ConsensusResult
from repro.service.spec import InstanceSpec, RunSpec


def _usable_cpus() -> int:
    """CPUs this process may actually use (cgroup/taskset aware)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class Executor:
    """Strategy interface: run a coerced batch for a service."""

    def run(
        self, service, specs: Sequence[InstanceSpec]
    ) -> List[ConsensusResult]:
        raise NotImplementedError


class SerialExecutor(Executor):
    """In-process execution (the default and the byte-identity
    reference for every other executor)."""

    def run(self, service, specs):
        return service._run_many_local(list(specs))


def _run_shard(
    payload: Tuple[RunSpec, bool, Tuple[InstanceSpec, ...]]
) -> List[ConsensusResult]:
    """Worker entry point: rebuild the service, batch the shard.

    Module-level so it imports (rather than pickles) under the spawn
    start method.
    """
    # Imported here, not at module top: the worker may be a spawned
    # interpreter where importing via the function's module is the
    # canonical path and top-level circularity must stay impossible.
    from repro.service.service import ConsensusService

    spec, reuse_results, instances = payload
    service = ConsensusService(spec, reuse_results=reuse_results)
    return service._run_many_local(list(instances))


class ProcessExecutor(Executor):
    """Shard a batch over worker processes.

    Args:
        shards: worker process count; default the process's usable CPU
            count (``os.sched_getaffinity`` where available, so cgroup
            and taskset limits are respected), capped at the instance
            count.
        start_method: ``multiprocessing`` start method; default prefers
            ``fork`` (cheap, shares the warm interpreter) and falls
            back to ``spawn`` where fork is unavailable.

    The deployment must be fully declarative: a config carrying a live
    ``b_function`` callable cannot be shipped to workers and is
    rejected.  Instance results (plain dataclasses) pickle back
    unchanged.
    """

    def __init__(
        self,
        shards: Optional[int] = None,
        start_method: Optional[str] = None,
    ):
        self.shards = shards
        self.start_method = start_method

    def run(self, service, specs):
        specs = list(specs)
        if not specs:
            return []
        if service.config.b_function is not None:
            raise ValueError(
                "ProcessExecutor cannot ship a config with a live "
                "b_function callable to worker processes; use the "
                "serial executor for this deployment"
            )
        shards = self.shards if self.shards is not None else _usable_cpus()
        shards = max(1, min(shards or 1, len(specs)))
        if shards == 1:
            return service._run_many_local(specs)
        bounds = [
            (len(specs) * i) // shards for i in range(shards + 1)
        ]
        payloads = [
            (
                service.spec,
                service.reuse_results,
                tuple(specs[bounds[i]:bounds[i + 1]]),
            )
            for i in range(shards)
            if bounds[i] < bounds[i + 1]
        ]
        start_method = self.start_method
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else "spawn"
        ctx = multiprocessing.get_context(start_method)
        with ctx.Pool(processes=len(payloads)) as pool:
            shard_results = pool.map(_run_shard, payloads)
        results: List[ConsensusResult] = []
        for shard in shard_results:
            results.extend(shard)
        return results


class AsyncExecutor(Executor):
    """Run batches off an ``asyncio`` event loop, on one worker thread.

    The engines are synchronous, CPU-bound Python; executing a batch
    directly inside an event loop would stall every other coroutine —
    including the serving tier's admission path — for the whole flush.
    :meth:`run_async` instead submits the batch to a single dedicated
    worker thread and awaits its completion, so the loop stays
    responsive (accepting, validating and queueing new requests) while
    the flush executes.

    Exactly **one** worker thread, deliberately: the service contract
    (see :mod:`repro.service.arena`) allows one generation in flight
    per service arena, and a second thread would buy no parallelism
    under the GIL anyway.  Batches submitted concurrently are executed
    in submission order.  Execution itself delegates to the same local
    batching path as :class:`SerialExecutor`, so results are
    byte-identical to serial execution.

    The synchronous :meth:`run` entry point (the ``Executor``
    interface, used by ``run_many(executor="async")``) drives a private
    event loop; calling it *from inside* a running loop raises — await
    :meth:`run_async` there instead.
    """

    def __init__(self):
        self._pool: Optional[ThreadPoolExecutor] = None

    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-batch"
            )
        return self._pool

    async def run_async(
        self, service, specs: Sequence[InstanceSpec], transcript=None
    ) -> List[ConsensusResult]:
        """Await the batch from an event loop without blocking it.

        ``transcript`` is an optional
        :class:`~repro.audit.TranscriptRecorder`, forwarded to the
        local batching path — recording stays on the single worker
        thread, so it serializes with every other batch of this
        executor (the arena contract)."""
        specs = list(specs)
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            self._ensure_pool(),
            lambda: service._run_many_local(specs, transcript=transcript),
        )

    def run(self, service, specs):
        try:
            asyncio.get_running_loop()
        except RuntimeError:
            return asyncio.run(self.run_async(service, specs))
        raise RuntimeError(
            "AsyncExecutor.run() called from inside a running event "
            "loop; await run_async(service, specs) instead"
        )

    def shutdown(self) -> None:
        """Join the worker thread (idempotent; the executor stays
        usable — a later batch lazily builds a fresh thread)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


#: Executors selectable by name in ``run_many(executor=...)``.
EXECUTORS = {
    "serial": SerialExecutor,
    "process": ProcessExecutor,
    "async": AsyncExecutor,
}
