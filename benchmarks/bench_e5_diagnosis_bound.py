"""E5 — Theorem 1: the diagnosis stage runs at most ``t(t+1)`` times.

We unleash the SlowBleed adversary — which spends exactly one bad edge per
diagnosis, the worst case for the bound — across (n, t) configurations
with enough generations to exhaust its budget, and count diagnosis stages
and isolation events; every run is held to every claim of Theorem 1
(:mod:`repro.core.invariants`: the bound, each diagnosis removing an
edge or isolating a processor, only faulty processors blamed).
"""

from _common import print_table
from repro import ConsensusConfig, MultiValuedConsensus
from repro.core import invariants
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
        inputs = [0x55] * n
        result = invariants.check(config, inputs, protocol.run(inputs))
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
    for _, _, _, diagnoses, _, removed, _ in rows:
        # The slow bleed reaches diagnosis and spends an edge on each.
        assert removed >= diagnoses > 0
