"""The one statement of Theorem 1 (``repro.core.invariants``).

Each claim is broken alone by a result built by hand, and only that
claim is named; a clean result names none.  Two real cells are pinned:
a ``false_detect`` diagnosis that isolates without removing an edge, and
a failure-free run that meets the Eq. (1) envelope with equality.
"""

from dataclasses import replace

import pytest

from repro import ConsensusConfig, MultiValuedConsensus
from repro.core import invariants
from repro.core.config import ProtocolInvariantError
from repro.core.result import (
    ConsensusResult,
    GenerationOutcome,
    GenerationResult,
)
from repro.network.metrics import MeterSnapshot
from repro.service import ConsensusService, RunSpec

#: n = 4, t = 1, three generations of D = 8 bits (k = 2, 4-bit symbols).
CONFIG = ConsensusConfig.create(n=4, t=1, l_bits=24, d_bits=8)
#: Pid 3 is faulty: it holds no decision.
INPUTS = (5, 5, 5, 9)
#: Eq. (1) at B = 2n² = 32: per generation n(n-1)D/(n-2t) + n(n-1)B +
#: tB = 48 + 384 + 32; per diagnosis (n-t)DB/(n-2t) + n(n-t)B = 384 + 384.
FAILURE_FREE_BITS = 3 * 464
DIAGNOSIS_BITS = 768


def record(generation, diagnosing=False, removed=(), isolated=()):
    return GenerationResult(
        generation=generation,
        outcome=(
            GenerationOutcome.DECIDED_DIAGNOSIS if diagnosing
            else GenerationOutcome.DECIDED_CHECKING
        ),
        decisions={},
        removed_edges=list(removed),
        isolated=list(isolated),
    )


def run(decisions=None, records=None, diagnoses=None, bits=None):
    """A hand-built result of CONFIG on INPUTS; every claim holds unless
    an argument breaks one."""
    if records is None:
        records = [record(g) for g in range(3)]
    if diagnoses is None:
        diagnoses = sum(r.diagnosis_performed for r in records)
    if bits is None:
        bits = FAILURE_FREE_BITS + diagnoses * DIAGNOSIS_BITS
    return ConsensusResult(
        decisions=decisions or {0: 5, 1: 5, 2: 5},
        generation_results=records,
        meter=MeterSnapshot({"gen0.matching.symbols": bits}, {}),
        diagnosis_count=diagnoses,
        default_used=False,
        honest_inputs_equal=True,
        common_input=5,
    )


def test_a_clean_result_breaks_nothing():
    assert invariants.violations(CONFIG, INPUTS, run()) == []
    result = run(records=[
        record(0, True, removed=[(0, 3)]),
        record(1),
        record(2, True, isolated=[3]),
    ])
    assert invariants.check(CONFIG, INPUTS, result) is result


def test_fewer_generations_after_a_default_terminate():
    defaulted = record(0)
    defaulted.outcome = GenerationOutcome.NO_MATCH_DEFAULT
    assert invariants.violations(
        CONFIG, INPUTS, run(records=[defaulted])
    ) == []


#: (claim, inputs, a result breaking that claim alone).
BREAKS = [
    # Honest inputs differ (validity is vacuous), decisions differ.
    ("agreement", (5, 6, 5, 9), run(decisions={0: 5, 1: 6, 2: 5})),
    ("validity", INPUTS, run(decisions={0: 6, 1: 6, 2: 6})),
    ("termination", INPUTS, run(records=[record(0), record(1)])),
    ("termination", INPUTS, run(records=[record(g) for g in range(4)])),
    ("diagnosis_bound", INPUTS, run(records=[
        record(g, True, removed=[(g, 3)]) for g in range(3)
    ])),
    ("diagnosis_progress", INPUTS, run(records=[
        record(0, True), record(1), record(2),
    ])),
    ("blames_only_faulty", INPUTS, run(records=[
        record(0, True, removed=[(0, 1)]), record(1), record(2),
    ])),
    ("blames_only_faulty", INPUTS, run(records=[
        record(0, True, isolated=[2]), record(1), record(2),
    ])),
    ("bit_envelope", INPUTS, run(bits=FAILURE_FREE_BITS + 1)),
]


def test_every_claim_is_broken_below():
    assert sorted({claim for claim, _, _ in BREAKS}) == sorted(
        invariants.CLAIMS
    )


@pytest.mark.parametrize("claim, inputs, result", BREAKS, ids=[
    "agreement", "validity", "termination_short", "termination_long",
    "diagnosis_bound", "diagnosis_progress", "blames_honest_edge",
    "blames_honest_isolation", "bit_envelope",
])
def test_each_claim_is_named_alone(claim, inputs, result):
    assert invariants.violations(CONFIG, inputs, result) == [claim]
    with pytest.raises(ProtocolInvariantError, match=claim):
        invariants.check(CONFIG, inputs, result)


def test_a_broken_run_is_an_assertion_error():
    with pytest.raises(AssertionError, match="n=4 t=1 L=24 breaks validity"):
        invariants.check(CONFIG, INPUTS, run(decisions={0: 6, 1: 6, 2: 6}))


def test_agreement_and_envelope_bind_only_their_backends():
    """Agreement and validity hold under an error-free backend only;
    the Eq. (1) envelope prices the ideal backend's B(n) only."""
    probabilistic = ConsensusConfig.create(
        n=4, t=1, l_bits=24, d_bits=8, backend="mostefaoui"
    )
    split = run(decisions={0: 6, 1: 5, 2: 5}, bits=10 ** 9)
    assert invariants.violations(CONFIG, INPUTS, split) == [
        "agreement", "validity", "bit_envelope",
    ]
    assert invariants.violations(probabilistic, INPUTS, split) == []


def test_a_false_detection_isolates_without_removing_an_edge():
    """A diagnosis removes an edge *or isolates a processor*: the false
    accuser of ``false_detect`` is isolated and no edge is recorded."""
    spec = RunSpec(n=7, l_bits=512, attack="false_detect")
    result = ConsensusService(spec).run(0x1234)
    [diagnosis] = [
        r for r in result.generation_results if r.diagnosis_performed
    ]
    faulty = sorted(set(range(7)) - set(result.decisions))
    assert diagnosis.removed_edges == []
    assert diagnosis.isolated and set(diagnosis.isolated) <= set(faulty)
    assert invariants.violations(
        spec.make_config(), (0x1234,) * 7, result
    ) == []


def test_a_failure_free_run_meets_the_envelope_exactly():
    config = ConsensusConfig.create(n=31, l_bits=1024)
    result = MultiValuedConsensus(config).run([7] * 31)
    assert result.total_bits == 28_996_160
    assert invariants.violations(config, [7] * 31, result) == []
    assert invariants.violations(
        config, [7] * 31, replace(
            result, meter=MeterSnapshot({"all": result.total_bits + 1}, {})
        ),
    ) == ["bit_envelope"]

