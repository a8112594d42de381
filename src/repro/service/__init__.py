"""The service layer: the library's primary, reusable public API.

Built for the traffic-serving workload shape: one long-lived
:class:`~repro.service.service.ConsensusService` per deployment, many
independent consensus instances through it, with cross-instance
batching.  One-shot
:class:`~repro.core.consensus.MultiValuedConsensus` remains as the
compatibility entry point and delegates to this package's engine.

Quickstart::

    from repro import ConsensusConfig, ConsensusService

    service = ConsensusService(ConsensusConfig.create(n=7, t=2, l_bits=256))
    results = service.run_many([0xCAFE, 0xBEEF, 0xF00D])
    adversarial = service.run(0xCAFE, attack="slow_bleed")

See ``docs/ARCHITECTURE.md`` ("Service layer") for where this package
sits and the byte-identity contract its batching honours.
"""

from repro.service.service import ConsensusService
from repro.service.spec import InstanceSpec, RunSpec

__all__ = [
    "ConsensusService",
    "RunSpec",
    "InstanceSpec",
]
