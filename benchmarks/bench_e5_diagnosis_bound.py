"""E5 — Theorem 1: the diagnosis stage runs at most ``t(t+1)`` times.

We unleash the SlowBleed adversary — which spends exactly one bad edge per
diagnosis, the worst case for the bound — across (n, t) configurations
with enough generations to exhaust its budget, and count diagnosis stages
and isolation events.
"""

from _common import print_table
from repro import ConsensusConfig, MultiValuedConsensus
from repro.processors import SlowBleedAdversary

CASES = [(4, 1), (7, 2), (10, 3), (13, 4)]


def run_bound_check():
    rows = []
    for n, t in CASES:
        k = n - 2 * t
        generations = t * (t + 1) + 4
        d_bits = k * 8
        config = ConsensusConfig.create(
            n=n, t=t, l_bits=d_bits * generations, d_bits=d_bits
        )
        adversary = SlowBleedAdversary(faulty=list(range(t)))
        protocol = MultiValuedConsensus(config, adversary=adversary)
        result = protocol.run([0x55] * n)
        assert result.error_free
        removed = len(protocol.graph.removed_edges())
        rows.append(
            (
                n,
                t,
                generations,
                result.diagnosis_count,
                t * (t + 1),
                removed,
                sorted(protocol.graph.isolated),
            )
        )
    return rows


def test_e5_diagnosis_bound():
    rows = run_bound_check()
    print_table(
        "E5  diagnosis stages under the slow-bleed adversary vs t(t+1)",
        ("n", "t", "gens", "diagnoses", "bound", "edges removed",
         "isolated"),
        rows,
    )
    for row in rows:
        n, t, _, diagnoses, bound, removed, isolated = row
        assert diagnoses <= bound
        # Each diagnosis removes at least one edge (Lemma 4).
        assert removed >= diagnoses
        # Only faulty processors are ever isolated.
        assert all(pid < t for pid in isolated)
