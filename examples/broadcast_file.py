#!/usr/bin/env python3
"""Multi-valued broadcast (§4): a source ships a file to the whole cluster.

Demonstrates the paper's §4 broadcast: an L-bit value travels from one
source to all processors for ``< 1.5 (n-1) L`` data-path bits — within a
factor 1.5 of the trivial ``(n-1)L`` lower bound — while surviving
Byzantine relays and even a Byzantine source.

Usage::

    python examples/broadcast_file.py [TOP_EXPONENT]

``TOP_EXPONENT`` (default 24) caps the L sweep: L = 2^24 is 9199
generations and most of the run time.

See docs/ARCHITECTURE.md (layer map: the §4 broadcast sits in
src/repro/core/ on top of the same coding and network layers).
"""

import sys

from repro.core import MultiValuedBroadcast
from repro.processors import SymbolCorruptionAdversary


def main(top_exponent: int = 24) -> None:
    n, t = 10, 3
    l_bits = 8 * 4096  # a 4 KiB payload
    payload = int.from_bytes(bytes(range(256)) * 16, "big")

    print("broadcasting %d bits from source 0 to %d processors (t=%d)"
          % (l_bits, n, t))

    # --- honest source, honest relays ---------------------------------------------
    broadcast = MultiValuedBroadcast(n=n, t=t, l_bits=l_bits)
    result = broadcast.run(source=0, value=payload)
    assert result.consistent and result.value == payload
    lower_bound = (n - 1) * l_bits
    print("fault-free: %d bits (%.3fx the (n-1)L lower bound)"
          % (result.total_bits, result.total_bits / lower_bound))

    # The paper's bound is 1.5(n-1)L + Theta(n^4 L^0.5): the sqrt term
    # dominates at small L and washes out as L grows.  Show the trend.
    print("\nratio to the (n-1)L lower bound as L grows "
          "(paper: -> 1.5x + epsilon):")
    for exp in range(12, top_exponent + 1, 4):
        l = 1 << exp
        bc = MultiValuedBroadcast(n=n, t=t, l_bits=l)
        res = bc.run(source=0, value=payload % (1 << l))
        assert res.consistent
        print("  L = 2^%-2d : %.3fx   (D = %d bits, %d generations)"
              % (exp, res.total_bits / ((n - 1) * l), bc.d_bits,
                 bc.generations))

    # --- Byzantine relays corrupt their forwarded symbols ----------------------------
    adversary = SymbolCorruptionAdversary(faulty=[4, 7], victims={4: [1], 7: [2]})
    broadcast = MultiValuedBroadcast(n=n, t=t, l_bits=l_bits, adversary=adversary)
    result = broadcast.run(source=0, value=payload)
    assert result.consistent and result.value == payload
    print("2 corrupt relays: still delivered, %d diagnosis stage(s), "
          "%d edges removed" % (result.diagnosis_count, len(result.removed_edges)))

    # --- Byzantine source equivocates -------------------------------------------------
    adversary = SymbolCorruptionAdversary(faulty=[0], victims={0: [3, 5]})
    broadcast = MultiValuedBroadcast(n=n, t=t, l_bits=l_bits, adversary=adversary)
    result = broadcast.run(source=0, value=payload)
    assert result.consistent
    print("Byzantine source: all honest processors still agree "
          "(value delivered: %s, default: %s)"
          % (result.value == payload, result.default_used))


if __name__ == "__main__":
    main(*map(int, sys.argv[1:2]))
