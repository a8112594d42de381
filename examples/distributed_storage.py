#!/usr/bin/env python3
"""Fault-tolerant distributed storage: replicas agree on a large file.

The paper motivates multi-valued consensus with values that are *large*
("the value being agreed upon may be a large file in a fault-tolerant
distributed storage system").  This example simulates a 7-replica storage
cluster committing a 32 KiB object: every replica received the object from
a client, two replicas are Byzantine, and the cluster must commit one
common byte string.

It also shows the headline complexity effect: the per-bit price of
agreement collapses toward ``n(n-1)/(n-2t) ≈ 3(n-1)`` as the object grows,
versus ``Θ(n²)`` per bit for the bitwise baseline.

Usage::

    python examples/distributed_storage.py

See docs/ARCHITECTURE.md for the engine that executes these runs and
docs/BENCHMARKS.md for the wall-clock/bit-count tracking behind them.
"""

import hashlib

from repro import ConsensusConfig, MultiValuedConsensus
from repro.analysis import bitwise_baseline_bits, leading_term_per_bit
from repro.broadcast_bit.ideal import default_b
from repro.processors import EquivocatingAdversary


def make_object(size_bytes: int, seed: bytes = b"block-0042") -> bytes:
    """Deterministic pseudo-random object (keccak-free, stdlib only)."""
    out = bytearray()
    counter = 0
    while len(out) < size_bytes:
        out.extend(hashlib.sha256(seed + counter.to_bytes(8, "big")).digest())
        counter += 1
    return bytes(out[:size_bytes])


def main() -> None:
    n, t = 7, 2
    object_bytes = make_object(32 * 1024)
    l_bits = 8 * len(object_bytes)
    value = int.from_bytes(object_bytes, "big")

    config = ConsensusConfig.create(n=n, t=t, l_bits=l_bits)
    print(
        "committing a %d-byte object across %d replicas (%d Byzantine)"
        % (len(object_bytes), n, t)
    )
    print(
        "generation size D=%d bits -> %d generations"
        % (config.d_bits, config.generations)
    )

    # Two Byzantine replicas claim a *different* object towards half the
    # cluster (a poisoning attempt on the commit).  They are the two
    # lowest pids, the ones the deterministic P_match search would
    # otherwise pick first.
    forged = int.from_bytes(make_object(len(object_bytes), b"evil"), "big")
    adversary = EquivocatingAdversary(faulty=[0, 1], split=3, alt_value=forged)
    protocol = MultiValuedConsensus(config, adversary=adversary)
    result = protocol.run([value] * n)

    committed = result.value
    assert result.consistent, "storage cluster diverged!"
    assert committed == value, "cluster committed the wrong object!"
    shunned = sum(
        1 for record in result.generation_results
        if not set(record.p_match) & adversary.faulty
    )
    assert shunned, "the equivocation never reached the matching stage!"
    print(
        "generations whose match set shut both equivocators out: %d of %d"
        % (shunned, len(result.generation_results))
    )
    digest = hashlib.sha256(
        committed.to_bytes(len(object_bytes), "big")
    ).hexdigest()
    print("committed object sha256: %s" % digest[:16])
    print("matches the client's object: %s" % (committed == value))

    bits = result.total_bits
    per_bit = bits / l_bits
    asymptote = leading_term_per_bit(n, t)
    baseline = bitwise_baseline_bits(l_bits, default_b(n))
    print()
    print("total bits on the wire : %12d" % bits)
    print("per object bit         : %12.2f (asymptote %.2f)" % (per_bit, asymptote))
    print("bitwise baseline would : %12d (%.1fx more)"
          % (int(baseline), baseline / bits))


if __name__ == "__main__":
    main()
