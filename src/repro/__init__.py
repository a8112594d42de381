"""repro — full reproduction of "Error-Free Multi-Valued Consensus with
Byzantine Failures" (Guanfeng Liang and Nitin Vaidya, PODC 2011).

The package implements the paper's deterministic, error-free multi-valued
Byzantine consensus algorithm together with every substrate it depends on
(Reed-Solomon coding over GF(2^c), a synchronous metered network,
error-free 1-bit Byzantine broadcast, the diagnosis graph), the §4
multi-valued broadcast and the ``t >= n/3`` probabilistic variant, plus
the baselines the paper compares against (bitwise consensus, Fitzi-Hirt
2006) and the closed-form complexity models of §3.4.

Quickstart::

    from repro import ConsensusConfig, ConsensusService

    service = ConsensusService(ConsensusConfig.create(n=7, t=2, l_bits=128))
    result = service.run(42)
    assert result.consistent and result.value == 42
    results = service.run_many([42, 43, 44])   # three instances, batched

One-shot compatibility entry point (delegates to the same engine)::

    from repro import MultiValuedConsensus

    result = MultiValuedConsensus(config).run([42] * 7)
"""

from repro.core import (
    BroadcastResult,
    ConsensusConfig,
    ConsensusResult,
    GenerationOutcome,
    GenerationProtocol,
    GenerationResult,
    MultiValuedBroadcast,
    MultiValuedConsensus,
    ProtocolInvariantError,
)
from repro.processors import ATTACKS, Adversary, make_attack
from repro.service import ConsensusService, InstanceSpec, RunSpec

__version__ = "1.1.0"

__all__ = [
    "ConsensusService",
    "RunSpec",
    "InstanceSpec",
    "ATTACKS",
    "make_attack",
    "ConsensusConfig",
    "MultiValuedConsensus",
    "MultiValuedBroadcast",
    "GenerationProtocol",
    "ConsensusResult",
    "GenerationResult",
    "GenerationOutcome",
    "BroadcastResult",
    "ProtocolInvariantError",
    "Adversary",
    "__version__",
]
