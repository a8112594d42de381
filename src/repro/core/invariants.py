"""Theorem 1, stated once: the claims every finished consensus run keeps.

:func:`violations` names the :data:`CLAIMS` a run's ``(config, inputs,
result)`` breaks, :func:`check` raises ``ProtocolInvariantError`` naming
them.  The faulty set is the pids that hold no decision; validity is
recomputed from the honest inputs.  No engine, round, diagnosis, clique,
coding or service module is imported: a bug in shared stage code cannot
hide from its own check (``tests/test_layering.py``).
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence

from repro.analysis import complexity
from repro.broadcast_bit.ideal import default_b
from repro.core.config import BACKENDS, ConsensusConfig, ProtocolInvariantError
from repro.core.result import ConsensusResult, GenerationOutcome

#: Agreement, validity (error-free backends); termination; at most
#: t(t+1) diagnoses, each removing an edge or isolating a processor and
#: blaming only faulty pids; Eq. (1)'s bits (``ideal``).
CLAIMS = (
    "agreement", "validity", "termination", "diagnosis_bound",
    "diagnosis_progress", "blames_only_faulty", "bit_envelope",
)


def violations(
    config: ConsensusConfig, inputs: Sequence[int], result: ConsensusResult
) -> List[str]:
    """The :data:`CLAIMS` ``result`` breaks, in order; empty if none."""
    n, t = config.n, config.t
    faulty = set(range(n)) - set(result.decisions)
    records = result.generation_results
    broken = []
    if BACKENDS[config.backend].error_free:
        if not result.consistent:
            broken.append("agreement")
        honest = {inputs[pid] for pid in result.decisions}
        if len(honest) == 1 and result.value != honest.pop():
            broken.append("validity")
    if len(records) != config.generations and not (
        0 < len(records) < config.generations
        and records[-1].outcome is GenerationOutcome.NO_MATCH_DEFAULT
    ):
        broken.append("termination")
    if result.diagnosis_count > t * (t + 1):
        broken.append("diagnosis_bound")
    if any(
        r.diagnosis_performed and not (r.removed_edges or r.isolated)
        for r in records
    ):
        broken.append("diagnosis_progress")
    if any(
        not faulty.intersection(edge) for r in records
        for edge in r.removed_edges
    ) or any(pid not in faulty for r in records for pid in r.isolated):
        broken.append("blames_only_faulty")
    if config.backend == "ideal":
        # D is a multiple of n - 2t, so every term is an exact integer.
        b = default_b(n)
        d = Fraction(config.d_bits)
        per_diagnosis = complexity.diagnosis_stage_bits(n, t, d, b)
        if result.total_bits > complexity.failure_free_total_bits(
            n, t, config.l_bits, d, b
        ) + result.diagnosis_count * per_diagnosis:
            broken.append("bit_envelope")
    return broken


def check(
    config: ConsensusConfig, inputs: Sequence[int], result: ConsensusResult
) -> ConsensusResult:
    """``result``, or ``ProtocolInvariantError`` naming its violations."""
    broken = violations(config, inputs, result)
    if broken:
        raise ProtocolInvariantError(
            "run of n=%d t=%d L=%d breaks %s"
            % (config.n, config.t, config.l_bits, ", ".join(broken))
        )
    return result
