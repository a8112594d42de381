"""The per-generation engine and the run prologue/epilogue.

:func:`execute_consensus` runs one consensus instance as the paper
writes it — the ``⌈L/D⌉``-generation loop of Algorithm 1 — one
*stretch* at a time: a run of consecutive generations under one
diagnosis-graph state, which one
:meth:`~repro.core.generation.GenerationProtocol.run` call executes and
which ends at the first generation that diagnoses or defaults.
Generation 0 is a stretch of one, and so is every generation of the
scalar reference.  It operates on the per-instance state held by a
:class:`~repro.core.consensus.MultiValuedConsensus` object (diagnosis
graph, metered network, backend, code).  It is the lane the planner
(:mod:`repro.service.planner`) picks when no work can be shared
(``Lane.PER_GENERATION``), and on ``Lane.REFERENCE`` it is the scalar
reference every other lane is held byte-identical to.

:func:`prepare_instance` and :func:`finalize_result` are the prologue
and epilogue it shares with the cohort engine
(:mod:`repro.service.cohort`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.core.generation import GenerationProtocol
from repro.core.result import (
    ConsensusResult,
    GenerationOutcome,
    GenerationResult,
)
from repro.processors.answers import substituted_inputs
from repro.service.planner import Lane

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.consensus import MultiValuedConsensus


def prepare_instance(
    consensus: "MultiValuedConsensus", inputs: Sequence[int]
) -> Dict[int, int]:
    """Shared run prologue: validate ``inputs``, install the view extras
    and fire the per-processor ``input_value`` hooks, returning the
    effective (post-hook, range-normalized) value of every processor.

    Both engines — the per-instance loop below and the service layer's
    cohort runner (:mod:`repro.service.cohort`) — start a run with
    exactly this sequence, so the ``input_value`` hooks are asked with
    the same arguments whichever engine executes.
    """
    config = consensus.config
    adversary = consensus.adversary
    if len(inputs) != config.n:
        raise ValueError(
            "expected %d inputs, got %d" % (config.n, len(inputs))
        )
    consensus._view_extras = {
        "code": consensus.code,
        "config": config,
        "diag_graph": consensus.graph,
        "parts_of": consensus.parts_of,
        "l_bits": config.l_bits,
    }
    return substituted_inputs(
        adversary, inputs, config.l_bits, consensus._make_view
    )


def finalize_result(
    consensus: "MultiValuedConsensus",
    inputs: Sequence[int],
    honest: List[int],
    generation_results: List[GenerationResult],
    decided_parts: Optional[Dict[int, List[Sequence[int]]]],
    default_used: bool,
    conforming_value: Optional[int] = None,
) -> ConsensusResult:
    """Shared run epilogue: reassemble per-generation decisions into the
    L-bit outputs and snapshot the meter — identical for every engine.

    ``conforming_value`` is the value every fault-free processor
    decided, when the caller knows it without reassembling (the cohort
    runner's conforming runs decide the honest input's own parts);
    ``decided_parts`` is then not read."""
    config = consensus.config
    if default_used:
        decisions = dict.fromkeys(honest, config.default_value)
    elif conforming_value is not None:
        decisions = dict.fromkeys(honest, conforming_value)
    else:
        # Identical per-generation decisions reassemble to the same
        # value; share the packing across fault-free processors.
        decisions = {}
        parts = value = None
        for pid in honest:
            if decided_parts[pid] != parts:  # else: same as the last pid
                parts = decided_parts[pid]
                value = consensus.value_of(parts)
            decisions[pid] = value

    # The run is over: drop the engine's two references to itself (the
    # hooks' parts_of and the backend's view provider are its bound
    # methods), so a finished engine is freed when its owner lets go,
    # not whenever the cycle collector next runs.
    consensus._view_extras = {}
    consensus.backend._view_provider = None

    honest_inputs = [inputs[pid] for pid in honest]
    honest_inputs_equal = len(set(honest_inputs)) == 1
    return ConsensusResult(
        decisions=decisions,
        generation_results=generation_results,
        meter=consensus.meter.snapshot(),
        diagnosis_count=sum(
            1 for r in generation_results if r.diagnosis_performed
        ),
        default_used=default_used,
        honest_inputs_equal=honest_inputs_equal,
        common_input=honest_inputs[0] if honest_inputs_equal else None,
    )


def execute_consensus(
    consensus: "MultiValuedConsensus", inputs: Sequence[int], lane: Lane
) -> ConsensusResult:
    """Run one consensus instance over ``inputs[pid]``, stretch by
    stretch, on the vectorized generation (``Lane.PER_GENERATION``) or
    the scalar reference (``Lane.REFERENCE``, one generation a stretch)
    as the planner chose.

    Consumes the instance state owned by ``consensus`` (which must be
    fresh — the diagnosis graph, meter and round clock are mutated) and
    returns the :class:`~repro.core.result.ConsensusResult`.
    """
    config = consensus.config
    adversary = consensus.adversary
    honest = [
        pid for pid in range(config.n)
        if not adversary.controls(pid)
    ]
    effective = prepare_instance(consensus, inputs)
    # Honest processors holding the same value derive the same symbol
    # view; parts_for keys the (expensive, deterministic) split by
    # content, so equal inputs split once, not n times.
    parts_by_pid: Dict[int, List[List[int]]] = {
        pid: consensus.parts_for(effective[pid]) for pid in range(config.n)
    }
    default_parts = consensus.parts_for(config.default_value)
    vectorized = lane is Lane.PER_GENERATION
    # The shared arena persists its buffers across generations;
    # reference runs must never build one.
    arena = consensus.ensure_arena() if vectorized else None
    # Per-run work the vectorized generations share, done once and
    # dropped with the run: the line 1(e) clique memo, and the whole
    # run's codewords — one encode_generations per distinct value (pids
    # holding one value share its parts object), made once generation 0
    # has not decided the default, so a run that stops there encodes
    # that generation only.
    clique_memo: Dict[bytes, Optional[Tuple[int, ...]]] = {}
    codeword_runs: Optional[Dict[int, List[List[int]]]] = None

    generation_results: List[GenerationResult] = []
    decided_parts: Dict[int, List[Sequence[int]]] = {
        pid: [] for pid in honest
    }
    default_used = False
    generations = config.generations

    def enter(g: int) -> None:
        consensus._view_extras["generation"] = g

    g = 0
    while g < generations:
        # A stretch runs to the end of the run unless a generation in it
        # diagnoses or defaults.  Generation 0 is a stretch of one, as is
        # every generation of the scalar reference.
        stop = g + 1 if codeword_runs is None else generations
        protocol = GenerationProtocol(
            config=config,
            code=consensus.code,
            network=consensus.network,
            graph=consensus.graph,
            backend=consensus.backend,
            adversary=adversary,
            generation=g,
            view_provider=consensus._make_view,
            vectorized=vectorized,
            arena=arena,
            clique_memo=clique_memo,
            on_generation=enter,
        )
        stretch: Optional[Dict[int, List[List[int]]]] = None
        if codeword_runs is not None:
            # Processors holding one value share one slice of its run.
            slices = {
                key: run[g:stop] for key, run in codeword_runs.items()
            }
            stretch = {
                pid: slices[id(parts)] for pid, parts in parts_by_pid.items()
            }
        results = protocol.run(
            {pid: parts_by_pid[pid][g:stop] for pid in range(config.n)},
            default_parts[g:stop],
            codewords=stretch,
        )
        generation_results.extend(results)
        if results[-1].outcome is GenerationOutcome.NO_MATCH_DEFAULT:
            # Line 1(f): the whole algorithm terminates on the default.
            default_used = True
            break
        for result in results:
            for pid in honest:
                decided_parts[pid].append(result.decisions[pid])
        g += len(results)
        if vectorized and codeword_runs is None and g < generations:
            codeword_runs = {}
            for parts in parts_by_pid.values():
                if id(parts) not in codeword_runs:
                    codeword_runs[id(parts)] = (
                        consensus.code.encode_generations(parts)
                    )

    return finalize_result(
        consensus,
        inputs,
        honest,
        generation_results,
        decided_parts,
        default_used,
    )
