"""The cohort lane's door: :func:`run_cohort_instance` runs one instance
on the batched generation body (:mod:`repro.core.batched`) over a priced
symbol round, on the instance's cohort context (the service's keyed one,
or a one-shot run's private one)."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.batched import _InstanceRun
from repro.core.consensus import MultiValuedConsensus
from repro.core.result import GenerationOutcome, GenerationResult
from repro.core.rounds import _PricedRound
from repro.service.engine import finalize_result, prepare_instance


def run_cohort_instance(
    consensus: MultiValuedConsensus,
    inputs: Sequence[int],
    prewarmed: Optional[Dict[int, Tuple[list, list]]] = None,
):
    """Run one cohort-eligible instance; byte-identical to the
    per-generation engine on the same ``consensus`` and ``inputs``.

    Eligibility (decided by :func:`repro.core.planner.plan_lane`, not
    re-checked here): an error-free constant-cost backend exposing the
    flat dispatch path, no injected network faults, and all honest
    processors sharing one raw input value — that shared value's
    codeword is the baseline every deviation is classified against.
    The controlled set may be empty (a failure-free run).

    ``prewarmed`` maps a value to its (split, whole-run codewords) where
    the caller's batch computed them (:meth:`ConsensusService._prewarm`).
    """
    config = consensus.config
    ctx = consensus.context
    ctx.forget_if_full()
    effective = prepare_instance(consensus, inputs)
    ref_value = effective[ctx.honest[0]]
    warm = prewarmed.get(ref_value) if prewarmed else None
    ref_parts, ref_codewords = warm or (consensus.parts_for(ref_value), None)
    # Controlled pids whose effective input differs from the honest one
    # (input_value hooks) hold their own parts: their M expectation rows
    # need elementwise treatment; everything honest-facing still keys
    # off the shared codeword.
    parts = [
        ref_parts if effective[pid] == ref_value
        else consensus.parts_for(effective[pid])
        for pid in ctx.pids
    ]
    run = _InstanceRun(
        ctx, consensus.network, consensus.graph, consensus.backend,
        consensus.adversary, consensus._make_view, parts, _PricedRound(),
        ctx.default_parts, ref_codewords,
    )
    generation_results: List[GenerationResult] = []
    for g in range(config.generations):
        result = run.step(g)
        generation_results.append(result)
        if result.outcome is GenerationOutcome.NO_MATCH_DEFAULT:
            break
    # A conforming run decided the reference part every generation (a
    # diagnosing one too, when its verdict decoded that part), whose
    # packed value is the honest input: nothing to reassemble.
    return finalize_result(
        consensus, inputs, generation_results,
        conforming_value=ref_value if run.conforming else None,
    )
