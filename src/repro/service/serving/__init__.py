"""The serving tier: a long-lived async front-end over the service layer.

``submit()``/``drain()`` on a :class:`~repro.service.ConsensusService`
is a buffer the *caller* drains; this package is the deployment that
**receives** traffic.  :class:`ConsensusServer` admits requests into a
bounded micro-batching queue (collect for ``window_ms`` or until
``max_batch``, flush each compatible group as one ``run_many`` cohort
on the server's one worker thread),
rejects explicitly on overload, tracks client-observed p50/p99 latency,
and speaks newline-delimited JSON over TCP to the typed
:class:`ServingClient` SDK and the ``repro-sim serve`` / ``ps`` /
``submit`` CLI.

Every served result stays byte-identical to a direct ``run_many`` on
the same specs.  Operator guide: ``docs/SERVING.md``.
"""

from repro.service.serving.batcher import (
    AdmissionError,
    InvalidRequestError,
    MicroBatcher,
    QueueFullError,
    ServerClosedError,
)
from repro.service.serving.sdk import (
    ServingClient,
    ServingError,
    serve_background,
)
from repro.service.serving.server import DEFAULT_PORT, ConsensusServer
from repro.service.serving.stats import ServingStats

__all__ = [
    "ConsensusServer",
    "ServingClient",
    "ServingError",
    "serve_background",
    "ServingStats",
    "MicroBatcher",
    "AdmissionError",
    "QueueFullError",
    "InvalidRequestError",
    "ServerClosedError",
    "DEFAULT_PORT",
]
