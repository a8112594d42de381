"""The long-lived serving front-end: admission, batching, flush.

:class:`ConsensusServer` is the deployment shape ROADMAP item 1 asks
for — a process that *receives* consensus traffic rather than a buffer
the caller drains.  One server owns one
:class:`~repro.service.service.ConsensusService` per deployment
(:class:`~repro.service.spec.RunSpec`) it has seen, a bounded
:class:`~repro.service.serving.batcher.MicroBatcher` admission queue,
and a single flush task.  The flush is work-conserving: whenever the
server's one worker thread is free, everything queued drains, and each
compatible group (split at ``max_batch``) runs as **one** ``run_many``
cohort there, keeping the event loop free to admit the next cohort's
traffic.  Load makes the batch: a lone request on an idle server runs
at once, and the requests that arrive while a cohort runs form the
next one, so the service layer's 4–13× cross-instance batching win
engages exactly when there is traffic to amortise, with no timer.

Every served result is byte-identical to a direct ``run_many`` on the
same :class:`~repro.service.spec.InstanceSpec`s — micro-batching
changes *when* instances execute, never what they return
(``tests/test_serving.py::TestConsensusServer`` and
``::TestServingOverTCP`` assert this, extending the PR 5/6 equivalence
discipline to the serving tier).

In-process use (the TCP front-end in :meth:`ConsensusServer.serve_tcp`
and the client SDK in :mod:`repro.service.serving.sdk` layer on top):

>>> import asyncio
>>> from repro.service import RunSpec
>>> async def demo():
...     server = ConsensusServer(RunSpec(n=4, l_bits=16))
...     await server.start()
...     results = await asyncio.gather(
...         server.submit(0xBEEF), server.submit(0xF00D, attack="corrupt")
...     )
...     await server.stop()
...     return [r.value for r in results], server.stats.flushes
>>> asyncio.run(demo())
([48879, 61453], 1)
"""

from __future__ import annotations

import asyncio
import json
import logging
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Sequence, Union

from repro.core.result import ConsensusResult
from repro.service.service import ConsensusService, InstanceLike
from repro.service.serving.batcher import (
    AdmissionError,
    InvalidRequestError,
    MicroBatcher,
    QueueFullError,
    ServerClosedError,
)
from repro.service.serving.stats import ServingStats
from repro.service.serving.wire import (
    INTERNAL_ERROR,
    WIRE_VERSION,
    instance_from_wire,
    result_to_wire,
    runspec_from_wire,
    runspec_to_wire,
    value_from_wire,
)
from repro.service.spec import InstanceSpec, RunSpec
from repro.utils.boundary import check_int

logger = logging.getLogger(__name__)

#: Default TCP port for ``repro-sim serve`` (overridable everywhere).
DEFAULT_PORT = 7411

#: Longest request line the TCP front-end reads (asyncio's 64 KiB
#: default is below one instance at n=4, L=2^16: n × L/4 hex digits).
MAX_FRAME_BYTES = 1 << 24

#: How long :meth:`ConsensusServer.stop` gives the open connections to
#: send their last replies and close before it aborts them: a client
#: that stopped reading leaves its replies unsent for ever.
_CLOSE_GRACE_S = 5.0


class _Request:
    """One admitted request: its instance, deployment, future, clock."""

    __slots__ = ("instance", "spec", "future", "enqueued_at")

    def __init__(
        self,
        instance: InstanceSpec,
        spec: RunSpec,
        future: "asyncio.Future[ConsensusResult]",
        enqueued_at: float,
    ):
        self.instance = instance
        self.spec = spec
        self.future = future
        self.enqueued_at = enqueued_at


class ConsensusServer:
    """Async serving front-end over one or more consensus deployments.

    Args:
        spec: the default deployment (requests may target others by
            passing their own :class:`RunSpec`; each distinct spec gets
            its own long-lived service, and one flush never mixes
            deployments).
        max_batch: size cap per cohort; a flush splits a larger group
            into cap-sized cohorts.
        max_queue: bounded admission queue across all deployments;
            beyond it, :meth:`submit` raises
            :class:`~repro.service.serving.batcher.QueueFullError`.
    """

    def __init__(
        self,
        spec: Union[RunSpec, "ConsensusService"],
        max_batch: int = 64,
        max_queue: int = 1024,
    ):
        if isinstance(spec, ConsensusService):
            self.spec = spec.spec
            self._services: Dict[RunSpec, ConsensusService] = {
                spec.spec: spec
            }
        elif isinstance(spec, RunSpec):
            self.spec = spec
            self._services = {}
        else:
            raise TypeError(
                "expected a RunSpec or ConsensusService, got %r"
                % type(spec).__name__
            )
        self.max_batch = check_int(max_batch, "max_batch")
        self.max_queue = check_int(max_queue, "max_queue")
        self._batcher: MicroBatcher[_Request] = MicroBatcher(
            max_batch=self.max_batch,
            max_queue=self.max_queue,
        )
        #: The one worker thread every flush and recorded submit runs
        #: on, from :meth:`start` to :meth:`stop`: on the loop, a
        #: synchronous engine run would stall admission.  One thread,
        #: deliberately: a context's arena holds one generation in
        #: flight (:mod:`repro.service.arena`), so a recording must
        #: serialize with every flush, and a second thread would buy no
        #: parallelism under the GIL anyway.
        self._pool: Optional[ThreadPoolExecutor] = None
        self.stats = ServingStats()
        self._flush_task: Optional[asyncio.Task] = None
        #: set on any admission and on shutdown — wakes an idle flush
        #: loop.
        self._wake: Optional[asyncio.Event] = None
        self._closing = False
        self._in_flight: Optional[dict] = None
        self._tcp: Optional[asyncio.AbstractServer] = None
        #: Each open TCP connection's handler task, and its reader,
        #: writer and submit tasks.
        self._connections: Dict[asyncio.Task, tuple] = {}
        #: The stop a TCP ``shutdown`` op started.
        self._stopping: Optional[asyncio.Task] = None
        self._closed = asyncio.Event()
        self._started_at: Optional[float] = None

    # -- lifecycle ----------------------------------------------------------

    @property
    def running(self) -> bool:
        """True between :meth:`start` and the end of :meth:`stop`."""
        return self._flush_task is not None and not self._flush_task.done()

    async def start(self) -> None:
        """Start the flush loop (idempotent; must run inside a loop)."""
        if self.running:
            return
        self._closing = False
        self._closed = asyncio.Event()
        self._wake = asyncio.Event()
        self._started_at = time.monotonic()
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-batch"
            )
        self._flush_task = asyncio.create_task(
            self._flush_loop(), name="repro-serve-flush"
        )

    async def stop(self, drain: bool = True) -> None:
        """Stop admitting and shut the flush loop down.

        With ``drain=True`` (the default, the clean shutdown) every
        already-admitted request still executes and resolves before
        this returns; with ``drain=False`` queued requests fail with
        :class:`ServerClosedError` (a batch already executing on the
        worker thread still completes and resolves — the engine is not
        preemptible, and killing results that are milliseconds away
        helps nobody).  Then the TCP front-end closes: the listener, and
        every open connection once its in-flight submits are answered.
        """
        self._closing = True
        if self._wake is not None:
            self._wake.set()
        if not drain:
            for _, requests in self._batcher.drain_all():
                for request in requests:
                    if not request.future.done():
                        request.future.set_exception(
                            ServerClosedError("server stopped before flush")
                        )
        if self._flush_task is not None:
            await self._flush_task
            self._flush_task = None
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        await self._close_tcp()
        self._closed.set()

    async def wait_closed(self) -> None:
        """Block until :meth:`stop` has completed (however initiated —
        directly or via a TCP ``shutdown`` op)."""
        await self._closed.wait()

    # -- admission ----------------------------------------------------------

    def service_for(self, spec: Optional[RunSpec] = None) -> ConsensusService:
        """The long-lived service hosting ``spec`` (default: the
        server's default deployment), built on first need."""
        spec = spec if spec is not None else self.spec
        service = self._services.get(spec)
        if service is None:
            service = ConsensusService(spec)
            self._services[spec] = service
        return service

    async def submit(
        self,
        inputs: InstanceLike,
        attack: Optional[str] = None,
        seed: Optional[int] = None,
        faulty: Optional[Sequence[int]] = None,
        spec: Optional[RunSpec] = None,
        transcript: bool = False,
    ) -> ConsensusResult:
        """Admit one instance and await its result.

        ``inputs`` is anything ``run_many`` accepts (an
        :class:`InstanceSpec`, the per-processor sequence, or one value
        every processor holds); ``spec`` targets a non-default
        deployment.  The coroutine resolves when the request's cohort
        has flushed — byte-identical to a direct ``run_many``.

        With ``transcript=True`` the request is recorded: it executes
        individually through :meth:`ConsensusService.record
        <repro.service.service.ConsensusService.record>` (recording is
        per-instance; it still runs on the server's one worker thread,
        serialized with batched flushes) and the coroutine resolves to
        ``(result, Transcript)`` — the authenticated journal
        ``repro-sim audit`` can verify, replay and prove against.  The result itself stays
        byte-identical to the batched path.

        Raises:
            QueueFullError: the admission queue is at capacity.
            InvalidRequestError: the request can never succeed.
            ServerClosedError: the server is shutting down.
        """
        if self._closing or self._wake is None:
            self.stats.record_rejection(ServerClosedError.code)
            raise ServerClosedError("server is not admitting requests")
        spec = spec if spec is not None else self.spec
        try:
            # Refused at admission: an instance that can never run
            # would otherwise fail mid-flush and take its cohort-mates'
            # batch down with it.
            instance = (
                self.service_for(spec)
                ._coerce(inputs, attack=attack, seed=seed, faulty=faulty)
                .validate(spec)
            )
        except (TypeError, ValueError) as exc:
            self.stats.record_rejection(InvalidRequestError.code)
            raise InvalidRequestError(str(exc)) from exc
        if transcript:
            return await self._submit_recorded(spec, instance)
        future: "asyncio.Future[ConsensusResult]" = (
            asyncio.get_running_loop().create_future()
        )
        request = _Request(instance, spec, future, time.monotonic())
        try:
            self._batcher.offer(spec, request)
        except QueueFullError:
            self.stats.record_rejection(QueueFullError.code)
            raise
        self._wake.set()
        return await future

    async def _submit_recorded(self, spec: RunSpec, instance: InstanceSpec):
        """Run one admitted instance with transcript recording; returns
        ``(result, Transcript)``.  Bypasses the micro-batch queue but
        not the worker thread, so it never interleaves with a flush."""
        service = self.service_for(spec)
        enqueued = time.monotonic()
        started = time.perf_counter()
        recorded = await asyncio.get_running_loop().run_in_executor(
            self._pool, service.record, instance
        )
        self.stats.record_flush(1, time.perf_counter() - started)
        self.stats.record_latency(time.monotonic() - enqueued)
        return recorded

    # -- the flush loop -----------------------------------------------------

    async def _flush_loop(self) -> None:
        # Work-conserving: whenever the worker is free, run everything
        # queued; what arrives meanwhile is the next drain's.
        assert self._wake is not None
        while True:
            while not self._batcher.pending and not self._closing:
                self._wake.clear()
                await self._wake.wait()
            if not self._batcher.pending:
                return
            for spec, requests in self._batcher.drain_all():
                await self._execute(spec, requests)

    async def _execute(
        self, spec: RunSpec, requests: List[_Request]
    ) -> None:
        """Flush one cohort: one ``run_many`` on the deployment's
        service, off-loop; resolve futures and record latencies."""
        service = self.service_for(spec)
        batch = [request.instance for request in requests]
        self._in_flight = {
            "spec": spec,
            "instances": len(batch),
            "started_at": time.monotonic(),
        }
        started = time.perf_counter()
        try:
            # Looked up per flush: a wrapper patched onto the service
            # class between flushes sees the next one.
            results = await asyncio.get_running_loop().run_in_executor(
                self._pool, service._run_many_local, batch
            )
        except Exception as exc:  # engine failure: fail the cohort
            for request in requests:
                if not request.future.done():
                    request.future.set_exception(exc)
            return
        finally:
            self._in_flight = None
        done = time.monotonic()
        self.stats.record_flush(len(batch), time.perf_counter() - started)
        for request, result in zip(requests, results):
            self.stats.record_latency(done - request.enqueued_at)
            if not request.future.done():
                request.future.set_result(result)

    # -- introspection ------------------------------------------------------

    def ps(self) -> dict:
        """A JSON-safe snapshot of queue depth, in-flight batch and
        lifetime stats — what ``repro-sim ps`` renders."""
        now = time.monotonic()
        in_flight = None
        if self._in_flight is not None:
            in_flight = {
                "deployment": runspec_to_wire(self._in_flight["spec"]),
                "instances": self._in_flight["instances"],
                "age_ms": round(
                    (now - self._in_flight["started_at"]) * 1000, 3
                ),
            }
        return {
            "wire_version": WIRE_VERSION,
            "running": self.running,
            "closing": self._closing,
            "uptime_s": (
                round(now - self._started_at, 3)
                if self._started_at is not None
                else 0.0
            ),
            "default_deployment": runspec_to_wire(self.spec),
            "deployments": [
                {
                    "deployment": runspec_to_wire(spec),
                    "queued": queued,
                }
                for spec, queued in self._batcher.group_sizes().items()
            ],
            "queued": self._batcher.pending,
            "in_flight": in_flight,
            "knobs": {
                "max_batch": self.max_batch,
                "max_queue": self.max_queue,
            },
            "stats": self.stats.snapshot(),
        }

    # -- TCP front-end ------------------------------------------------------

    async def serve_tcp(
        self, host: str = "127.0.0.1", port: int = DEFAULT_PORT
    ) -> asyncio.AbstractServer:
        """Expose this server over newline-delimited JSON on TCP.

        Ops: ``submit`` (an instance, optionally a ``spec`` for a
        non-default deployment), ``ps``, ``shutdown``.  Every request
        may carry an ``id``, echoed in its response, so clients can
        pipeline submits over one connection; error responses carry the
        :class:`AdmissionError` wire ``code``, or ``internal_error``
        when the handler itself failed — every submit is answered.
        Returns the listening ``asyncio`` server (``port=0`` picks an
        ephemeral port).
        """
        await self.start()
        self._tcp = await asyncio.start_server(
            self._handle_connection, host, port, limit=MAX_FRAME_BYTES
        )
        return self._tcp

    async def _close_tcp(self) -> None:
        """Close the TCP listener and end every open connection: its
        reading stops and its handler reads end of file, answers the
        submits it has in flight, closes the connection and returns.  A
        connection whose handler is not done within ``_CLOSE_GRACE_S``
        (a client that stopped reading) is aborted and its submits
        cancelled.  A handler left running when the loop ends would be
        cancelled, which asyncio reports as an error in the stream's
        callback.  The listener is awaited last: from Python 3.12.1 its
        ``wait_closed`` waits for every connection it accepted."""
        listener, self._tcp = self._tcp, None
        if listener is not None:
            listener.close()
        connections = dict(self._connections)
        for reader, writer, _ in connections.values():
            writer.transport.pause_reading()
            reader.feed_eof()
        if connections:
            _, stuck = await asyncio.wait(
                list(connections), timeout=_CLOSE_GRACE_S
            )
            for handler in stuck:
                _, writer, submits = connections[handler]
                writer.transport.abort()
                for submit in submits:
                    submit.cancel()
            if stuck:
                await asyncio.wait(stuck)
        if listener is not None:
            await listener.wait_closed()

    async def _handle_connection(self, reader, writer) -> None:
        write_lock = asyncio.Lock()
        submits: List[asyncio.Task] = []
        handler = asyncio.current_task()
        self._connections[handler] = (reader, writer, submits)
        if self._tcp is None:
            # Accepted just before the listener closed: nothing reads it.
            reader.feed_eof()

        async def respond(payload: dict) -> None:
            async with write_lock:
                writer.write(json.dumps(payload).encode() + b"\n")
                await writer.drain()

        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError as exc:
                    # Over MAX_FRAME_BYTES; the stream dropped part of it.
                    await respond(_error(None, InvalidRequestError(str(exc))))
                    break
                if not line:
                    break
                try:
                    message = json.loads(line)
                    if not isinstance(message, dict):
                        raise ValueError("request must be a JSON object")
                except ValueError as exc:
                    await respond(_error(None, InvalidRequestError(str(exc))))
                    continue
                op = message.get("op")
                if op == "submit":
                    # Each submit is its own task: the connection keeps
                    # reading, so one client's pipelined submits queue
                    # together and flush together.
                    submits.append(
                        asyncio.create_task(
                            self._handle_submit(message, respond)
                        )
                    )
                elif op == "ps":
                    await respond(
                        {"id": message.get("id"), "ok": True, "ps": self.ps()}
                    )
                elif op == "shutdown":
                    await respond({"id": message.get("id"), "ok": True})
                    # A draining stop, kept so the loop holds it strongly.
                    self._stopping = asyncio.create_task(
                        self.stop(drain=True), name="repro-serve-shutdown"
                    )
                    break
                else:
                    await respond(
                        _error(
                            message.get("id"),
                            InvalidRequestError("unknown op %r" % (op,)),
                        )
                    )
        except ConnectionError:
            pass  # the client went away, or stop() aborted the connection
        finally:
            if submits:
                await asyncio.gather(*submits, return_exceptions=True)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._connections.pop(handler, None)

    async def _handle_submit(self, message: dict, respond) -> None:
        request_id = message.get("id")
        want_transcript = bool(message.get("transcript"))
        try:
            try:
                spec = (
                    runspec_from_wire(message["spec"])
                    if message.get("spec") is not None
                    else None
                )
                if "instance" in message:
                    inputs: InstanceLike = instance_from_wire(
                        message["instance"]
                    )
                    overrides: dict = {}
                elif "value" in message:
                    # The bare-value shorthand: the server broadcasts
                    # it to all n processors of the target deployment.
                    inputs = value_from_wire(message["value"])
                    overrides = {
                        "attack": message.get("attack"),
                        "seed": message.get("seed"),
                        "faulty": (
                            tuple(message["faulty"])
                            if message.get("faulty") is not None
                            else None
                        ),
                    }
                else:
                    raise KeyError("instance")
            except (IndexError, KeyError, TypeError, ValueError) as exc:
                raise InvalidRequestError(
                    "malformed submit payload: %s" % exc
                ) from exc
            if want_transcript:
                result, transcript = await self.submit(
                    inputs, spec=spec, transcript=True, **overrides
                )
            else:
                result = await self.submit(inputs, spec=spec, **overrides)
                transcript = None
            payload = {
                "id": request_id,
                "ok": True,
                "result": result_to_wire(result),
            }
            if transcript is not None:
                payload["transcript"] = transcript.to_wire()
        except AdmissionError as exc:
            payload = _error(request_id, exc)
        except Exception as exc:
            # Every submit is answered: a client left without a reply
            # blocks until its socket times out.
            logger.exception("submit %r failed", request_id)
            payload = _error(request_id, exc)
        await respond(payload)


def _error(request_id, exc: Exception) -> dict:
    """The reply to a failed request: an :class:`AdmissionError` crosses
    under its wire code, anything else is the server's own failure."""
    if isinstance(exc, AdmissionError):
        code, message = exc.code, str(exc)
    else:
        code, message = INTERNAL_ERROR, "%s: %s" % (type(exc).__name__, exc)
    return {
        "id": request_id,
        "ok": False,
        "error": code,
        "message": message,
    }
