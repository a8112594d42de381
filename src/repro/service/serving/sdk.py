"""Thin typed client SDK for a running ``repro-sim serve`` process.

:class:`ServingClient` is the blocking client: one TCP connection,
newline-delimited JSON, typed results —
:meth:`~ServingClient.submit` returns a real
:class:`~repro.core.result.ConsensusResult` (decoded losslessly by the
:mod:`~repro.service.serving.wire` codec, so it equals the in-process
result field for field), and admission rejections surface as the same
exception classes the server raises
(:class:`~repro.service.serving.batcher.QueueFullError`,
:class:`~repro.service.serving.batcher.InvalidRequestError`,
:class:`~repro.service.serving.batcher.ServerClosedError`).
:meth:`~ServingClient.submit_many` pipelines a whole batch over the
connection, so it queues at once and flushes together, in cohorts of
at most the server's ``max_batch``.

:func:`serve_background` hosts a server on a daemon thread (its own
event loop, ephemeral port) and yields a connected client — the
one-liner the tests, doctests and benchmark use:

>>> from repro.service import RunSpec
>>> with serve_background(RunSpec(n=4, l_bits=16)) as client:
...     client.submit(0xBEEF).value
48879
"""

from __future__ import annotations

import contextlib
import json
import queue
import socket
import threading
from typing import List, Optional, Sequence

from repro.core.result import ConsensusResult
from repro.service.serving.batcher import AdmissionError
from repro.service.serving.wire import (
    INTERNAL_ERROR,
    instance_to_wire,
    result_from_wire,
    runspec_to_wire,
    value_to_wire,
)
from repro.service.spec import InstanceSpec, RunSpec


class ServingError(RuntimeError):
    """Transport- or protocol-level client failure (cannot connect,
    connection dropped, malformed response) or the server's
    ``internal_error`` reply — distinct from an :class:`AdmissionError`,
    which is the *server* refusing a request."""


def _rejection(code: str, message: str) -> AdmissionError:
    """The admission exception class a wire rejection code maps to."""
    for cls in AdmissionError.__subclasses__():
        if cls.code == code:
            return cls(message)
    return AdmissionError(message)


class ServingClient:
    """Blocking typed client for the serving front-end.

    Args:
        host / port: where ``repro-sim serve`` listens.
        timeout: per-response socket timeout in seconds.  It bounds the
            wait for one reply line — covering queue wait and batch
            execution — not the lifetime of the connection.

    The connection opens lazily on first use and the client is a
    context manager (``with ServingClient(...) as client:``) that
    closes it on exit.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 7411,
        timeout: float = 30.0,
    ):
        self.host = host
        self.port = port
        self.timeout = timeout
        self._sock: Optional[socket.socket] = None
        self._file = None
        self._next_id = 0

    # -- connection plumbing ------------------------------------------------

    def _connect(self):
        if self._sock is None:
            try:
                self._sock = socket.create_connection(
                    (self.host, self.port), timeout=self.timeout
                )
            except OSError as exc:
                raise ServingError(
                    "cannot connect to %s:%d: %s"
                    % (self.host, self.port, exc)
                ) from exc
            self._file = self._sock.makefile("rwb")
        return self._file

    def close(self) -> None:
        """Close the connection (idempotent; a later call reconnects)."""
        if self._sock is not None:
            try:
                self._file.close()
                self._sock.close()
            except OSError:
                pass
            self._sock = None
            self._file = None

    def __enter__(self) -> "ServingClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _send(self, payloads: Sequence[dict]) -> List[int]:
        """Number and send request lines — however many, one ``write``
        and one ``flush``, so a pipelined chunk reaches the server
        together and queues at once."""
        ids = []
        lines = []
        for payload in payloads:
            self._next_id += 1
            payload["id"] = self._next_id
            ids.append(self._next_id)
            lines.append(json.dumps(payload).encode() + b"\n")
        stream = self._connect()
        try:
            stream.write(b"".join(lines))
            stream.flush()
        except OSError as exc:
            self.close()
            raise ServingError("connection lost while sending") from exc
        return ids

    def _read_response(self) -> dict:
        stream = self._connect()
        try:
            line = stream.readline()
        except OSError as exc:
            self.close()
            raise ServingError("connection lost while receiving") from exc
        if not line:
            self.close()
            raise ServingError("server closed the connection")
        try:
            response = json.loads(line)
        except ValueError as exc:
            raise ServingError("malformed response line") from exc
        return response

    @staticmethod
    def _unwrap(response: dict) -> dict:
        if response.get("ok"):
            return response
        code = response.get("error", "admission_rejected")
        message = response.get("message", "request rejected")
        if code == INTERNAL_ERROR:
            # Not a refusal: the server failed while handling it.
            raise ServingError("server failed on the request: %s" % message)
        raise _rejection(code, message)

    def _request(self, payload: dict) -> dict:
        self._send([payload])
        return self._unwrap(self._read_response())

    # -- typed operations ---------------------------------------------------

    def submit(
        self,
        inputs,
        attack: Optional[str] = None,
        seed: Optional[int] = None,
        faulty: Optional[Sequence[int]] = None,
        spec: Optional[RunSpec] = None,
        transcript: bool = False,
    ) -> ConsensusResult:
        """Submit one instance and block for its result.

        ``inputs`` is one value every processor holds (the server
        broadcasts it to all ``n`` — the client never needs to know
        ``n``), the full per-processor sequence, or an
        :class:`InstanceSpec`; ``spec`` targets a non-default
        deployment.  The decoded result is field-for-field equal to a
        direct in-process ``run_many``.

        With ``transcript=True`` the server records the run and the
        call returns ``(result, Transcript)`` — the authenticated
        journal :mod:`repro.audit` can verify, replay and prove
        against (see ``docs/AUDIT.md``).
        """
        payload = self._submit_payload(inputs, attack, seed, faulty, spec)
        if not transcript:
            return result_from_wire(self._request(payload)["result"])
        payload["transcript"] = True
        response = self._request(payload)
        from repro.audit import Transcript

        return (
            result_from_wire(response["result"]),
            Transcript.from_wire(response["transcript"]),
        )

    def submit_many(
        self,
        batch: Sequence,
        spec: Optional[RunSpec] = None,
    ) -> List[ConsensusResult]:
        """Pipeline a batch of instances over the connection and block
        for all results, returned in submission order.

        All requests go out in one write before any reply is read, so
        the batch queues at once and flushes together, in cohorts of at
        most the server's ``max_batch``.
        """
        ids = self._send([
            self._submit_payload(inputs, None, None, None, spec)
            for inputs in batch
        ])
        by_id = {}
        for _ in ids:
            response = self._read_response()
            by_id[response.get("id")] = response
        return [
            result_from_wire(self._unwrap(by_id[request_id])["result"])
            for request_id in ids
        ]

    def ps(self) -> dict:
        """The server's ``ps`` snapshot: queue depth per deployment,
        the in-flight batch, knobs and lifetime stats."""
        return self._request({"op": "ps"})["ps"]

    def shutdown(self) -> None:
        """Ask the server to drain and exit (clean shutdown: every
        admitted request still resolves server-side first)."""
        self._request({"op": "shutdown"})
        self.close()

    @staticmethod
    def _submit_payload(inputs, attack, seed, faulty, spec) -> dict:
        payload: dict = {"op": "submit"}
        if isinstance(inputs, InstanceSpec):
            if attack is not None or seed is not None or faulty is not None:
                raise ValueError(
                    "per-call attack/seed/faulty conflict with an "
                    "explicit InstanceSpec; set them on the spec"
                )
            payload["instance"] = instance_to_wire(inputs)
        elif isinstance(inputs, int):
            # A bare value: the *server* broadcasts it to all n
            # processors, so clients need not know the deployment size.
            payload["value"] = value_to_wire(inputs)
            if attack is not None:
                payload["attack"] = attack
            if seed is not None:
                payload["seed"] = seed
            if faulty is not None:
                payload["faulty"] = list(faulty)
        else:
            payload["instance"] = instance_to_wire(
                InstanceSpec(
                    inputs=tuple(inputs),
                    attack=attack,
                    seed=seed,
                    faulty=tuple(faulty) if faulty is not None else None,
                )
            )
        if spec is not None:
            payload["spec"] = runspec_to_wire(spec)
        return payload


@contextlib.contextmanager
def serve_background(
    spec: RunSpec,
    host: str = "127.0.0.1",
    **server_kwargs,
):
    """Host a :class:`~repro.service.serving.server.ConsensusServer`
    on a daemon thread and yield a connected :class:`ServingClient`.

    The server listens on an ephemeral port on ``host``;
    ``server_kwargs`` pass through to the server constructor
    (``max_batch``, ``max_queue``).  On exit the
    server drains cleanly (a ``shutdown`` op) and the thread joins.
    """
    from repro.service.serving.server import ConsensusServer

    handshake: "queue.Queue" = queue.Queue()

    async def _main() -> None:
        server = ConsensusServer(spec, **server_kwargs)
        try:
            tcp = await server.serve_tcp(host, 0)
        except Exception as exc:  # surface startup failures to the caller
            handshake.put(exc)
            return
        handshake.put(tcp.sockets[0].getsockname()[1])
        await server.wait_closed()

    def _run() -> None:
        import asyncio

        asyncio.run(_main())

    thread = threading.Thread(
        target=_run, name="repro-serve-background", daemon=True
    )
    thread.start()
    outcome = handshake.get(timeout=30)
    if isinstance(outcome, Exception):
        thread.join(timeout=10)
        raise outcome
    client = ServingClient(host=host, port=outcome)
    try:
        yield client
    finally:
        with contextlib.suppress(Exception):
            client.shutdown()
        client.close()
        thread.join(timeout=30)
