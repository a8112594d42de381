"""E7 — §4 multi-valued broadcast: ``C_bro(L) < 1.5(n-1)L + Θ(n⁴ L^0.5)``.

Paper claim: error-free broadcast within a factor ``1.5 + ε`` of the
``(n-1)L`` lower bound for large L.

We sweep L, measure total broadcast bits fault-free, and check the ratio
to ``(n-1)L`` decreases towards 1.5.  The data-path bits alone must stay
within ``1.5 (n-1) L_padded`` at every L (the exact per-generation bound
``(n-1)²/(n-1-t) <= 1.5(n-1)`` for ``t < n/3``).
"""

from _common import print_table
from repro.core import MultiValuedBroadcast

N, T = 7, 2
SWEEP = [2**12, 2**16, 2**19, 2**22]


def run_broadcast_sweep():
    rows = []
    for l_bits in SWEEP:
        broadcast = MultiValuedBroadcast(n=N, t=T, l_bits=l_bits)
        value = (1 << l_bits) - 1
        result = broadcast.run(source=0, value=value)
        assert result.consistent and result.value == value
        lower_bound = (N - 1) * l_bits
        data_bits = sum(
            bits
            for tag, bits in result.meter.bits_by_tag.items()
            if "dispersal" in tag or "relay" in tag
        )
        padded = broadcast.generations * broadcast.d_bits
        rows.append(
            (
                l_bits,
                broadcast.d_bits,
                result.total_bits,
                "%.3f" % (result.total_bits / lower_bound),
                data_bits,
                "%.3f" % (data_bits / ((N - 1) * padded)),
            )
        )
    return rows


def test_e7_broadcast_complexity():
    rows = run_broadcast_sweep()
    print_table(
        "E7  multi-valued broadcast vs the (n-1)L lower bound "
        "(n=%d, t=%d; paper: ratio -> 1.5)" % (N, T),
        ("L", "D", "total bits", "total/(n-1)L", "data bits",
         "data/(n-1)L"),
        rows,
    )
    # Total ratio decreases monotonically towards 1.5.
    ratios = [float(row[3]) for row in rows]
    assert ratios == sorted(ratios, reverse=True)
    assert ratios[-1] < 1.65
    # The data path respects the per-generation 1.5(n-1)D bound exactly.
    for row in rows:
        assert float(row[5]) <= 1.5 + 1e-9
