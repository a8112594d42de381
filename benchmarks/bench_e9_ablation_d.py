"""E9 (ablation) — the generation-size trade-off behind the optimal D.

D is the paper's central tuning knob (§3.4, Eq. (2)): small D wastes
broadcast overhead on many generations; large D inflates the per-diagnosis
cost (the adversary can burn ``t(t+1)`` of them).  We sweep D around the
paper's optimum under the worst-case adversary and confirm the measured
total is minimised near D*.
"""

from _common import print_table
from repro import ConsensusConfig, MultiValuedConsensus
from repro.analysis.complexity import optimal_d, optimal_d_feasible
from repro.broadcast_bit.ideal import default_b
from repro.processors import SlowBleedAdversary

N, T = 7, 2
L_BITS = 3 * 2**13  # divisible by k = 3


def run_d_sweep():
    b = default_b(N)
    d_star = optimal_d_feasible(N, T, L_BITS, b)
    k = N - 2 * T
    candidates = sorted(
        {
            max(k * 3, (d_star // (4 * k)) * k),
            max(k * 3, (d_star // (2 * k)) * k),
            d_star,
            d_star * 2,
            d_star * 4,
        }
    )
    rows = []
    for d_bits in candidates:
        config = ConsensusConfig.create(
            n=N, t=T, l_bits=L_BITS, d_bits=d_bits
        )
        adversary = SlowBleedAdversary(faulty=list(range(T)))
        result = MultiValuedConsensus(config, adversary=adversary).run(
            [(1 << L_BITS) - 1] * N
        )
        assert result.error_free
        rows.append(
            (
                d_bits,
                "*" if d_bits == d_star else "",
                config.generations,
                result.diagnosis_count,
                result.total_bits,
            )
        )
    return rows, d_star


def test_e9_ablation_d():
    rows, d_star = run_d_sweep()
    print_table(
        "E9  D ablation under worst-case diagnosis load "
        "(n=%d, t=%d, L=%d; D* = %d, analytic D* = %.0f)"
        % (N, T, L_BITS, d_star, optimal_d(N, T, L_BITS, default_b(N))),
        ("D", "opt", "gens", "diagnoses", "total bits"),
        rows,
    )
    totals = {row[0]: row[4] for row in rows}
    best_d = min(totals, key=totals.get)
    # The measured minimum sits within a factor 2 of the paper's D*.
    assert d_star / 2 <= best_d <= d_star * 2 or (
        totals[d_star] <= 1.1 * totals[best_d]
    )
