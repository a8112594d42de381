"""The thread bridge between an ``asyncio`` loop and a batch.

The engines are synchronous, CPU-bound Python; executing a batch inside
an event loop would stall every other coroutine — the serving tier's
admission path included — for the whole flush.  :class:`AsyncExecutor`
runs the batch on one dedicated worker thread while the caller awaits
:meth:`~AsyncExecutor.run_async`, so the loop keeps admitting and
micro-batching requests.  It is what
:class:`~repro.service.serving.server.ConsensusServer` flushes through,
and nothing else: a synchronous caller calls ``run_many``.

Exactly **one** worker thread, deliberately: the service contract (see
:mod:`repro.service.arena`) allows one generation in flight per
context's arena, and a second thread would buy no parallelism under the GIL
anyway.  Batches submitted concurrently execute in submission order, on
the same local batching path ``run_many`` takes, so results are
byte-identical to it.

>>> import asyncio
>>> from repro.service import ConsensusService, InstanceSpec, RunSpec
>>> service = ConsensusService(RunSpec(n=4, l_bits=16))
>>> batch = [InstanceSpec(inputs=(v,) * 4) for v in (1, 2, 3)]
>>> bridge = AsyncExecutor()
>>> [r.value for r in asyncio.run(bridge.run_async(service, batch))]
[1, 2, 3]
>>> bridge.shutdown()
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from typing import List, Optional, Sequence

from repro.core.result import ConsensusResult
from repro.service.spec import InstanceSpec


class AsyncExecutor:
    """Run batches off an ``asyncio`` event loop, on one worker thread."""

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

        ``specs`` are validated :class:`InstanceSpec` objects (the
        server validates at admission).  ``transcript`` is an optional
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

    def shutdown(self) -> None:
        """Join the worker thread (idempotent; the executor stays
        usable — a later batch lazily builds a fresh thread)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
