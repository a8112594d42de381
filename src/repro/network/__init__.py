"""Synchronous point-to-point network simulator with exact bit accounting.

The paper's model is a synchronous, fully connected network of ``n``
processors with directed point-to-point channels and common knowledge of
processor identities.  Communication complexity — the quantity every claim
in the paper is about — is the total number of bits transmitted by all
processors.  The simulator therefore meters every message at send time,
tagged by protocol stage, so measured totals can be reconciled against the
paper's closed-form expressions (see :mod:`repro.analysis.complexity`).
"""

from repro.network.message import SymbolBatch
from repro.network.metrics import BitMeter, MeterSnapshot
from repro.network.simulator import NetworkError, RoundDelivery, SyncNetwork

__all__ = [
    "SymbolBatch",
    "BitMeter",
    "MeterSnapshot",
    "SyncNetwork",
    "RoundDelivery",
    "NetworkError",
]
