"""The run loop's door and every run's prologue/epilogue.

:func:`execute_consensus` runs one consensus instance as the paper
writes it — the ``⌈L/D⌉``-generation loop of Algorithm 1 — one
*stretch* at a time: a run of consecutive generations under one
diagnosis-graph state, which one
:meth:`~repro.core.generation.GenerationProtocol.run` call executes and
which ends at the first generation that diagnoses or defaults.  One
protocol serves the whole instance.  Generation 0 is a stretch of one,
and so is every generation of the scalar reference.  The loop operates
on the per-instance state held by a
:class:`~repro.core.consensus.MultiValuedConsensus` object (diagnosis
graph, metered network, backend, code) and keeps no per-lane state: on
``Lane.PER_GENERATION`` (no work can be shared) each stretch runs on
the batched generation body (:mod:`repro.core.batched`) behind the
protocol's door, and on ``Lane.REFERENCE`` it is the scalar reference
every other lane is held byte-identical to.

:func:`prepare_instance` and :func:`finalize_result` are the prologue
and epilogue every run goes through, the cohort lane's
(:mod:`repro.service.cohort`) included."""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.core.generation import GenerationProtocol
from repro.core.planner import Lane
from repro.core.result import (
    ConsensusResult,
    GenerationOutcome,
    GenerationResult,
    ground_truth,
)
from repro.processors.answers import substituted_inputs

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
    the same arguments whichever engine executes.  A consensus object
    runs once: its graph, meter and round clock carry the first run's
    state, so a second entry raises :class:`RuntimeError`, whatever the
    lane, before any hook fires.
    """
    config = consensus.config
    adversary = consensus.adversary
    if consensus._first_run is not None:
        raise RuntimeError(
            "this MultiValuedConsensus already ran once (inputs %s); "
            "build a fresh one per run" % consensus._first_run
        )
    if len(inputs) != config.n:
        raise ValueError(
            "expected %d inputs, got %d" % (config.n, len(inputs))
        )
    first = inputs[0]
    consensus._first_run = "%d values, the first %.18s" % (
        len(inputs), hex(first) if isinstance(first, int) else repr(first)
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
    generation_results: List[GenerationResult],
    conforming_value: Optional[int] = None,
) -> ConsensusResult:
    """Shared run epilogue: reassemble per-generation decisions into the
    L-bit outputs and snapshot the meter — identical for every engine.
    A run whose last generation decided the default (line 1(f)) decides
    the default value.

    ``conforming_value`` is the value every fault-free processor
    decided, when the caller knows it without reassembling (the cohort
    runner's conforming runs decide the honest input's own parts)."""
    config = consensus.config
    honest = [
        pid for pid in range(config.n) if not consensus.adversary.controls(pid)
    ]
    default_used = (
        generation_results[-1].outcome is GenerationOutcome.NO_MATCH_DEFAULT
    )
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
            mine = [result.decisions[pid] for result in generation_results]
            if mine != parts:  # else: same as the last pid
                parts = mine
                value = consensus.value_of(parts)
            decisions[pid] = value

    # The run is over: drop the engine's two references to itself (the
    # hooks' parts_of and the backend's view provider are its bound
    # methods), so a finished engine is freed when its owner lets go,
    # not whenever the cycle collector next runs.
    consensus._view_extras = {}
    consensus.backend._view_provider = None

    return ConsensusResult(
        decisions=decisions,
        generation_results=generation_results,
        meter=consensus.meter.snapshot(),
        diagnosis_count=sum(
            1 for r in generation_results if r.diagnosis_performed
        ),
        default_used=default_used,
        **ground_truth([inputs[pid] for pid in honest]),
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
    effective = prepare_instance(consensus, inputs)
    # Honest processors holding the same value derive the same symbol
    # view; parts_for keys the (expensive, deterministic) split by
    # content, so equal inputs split once, not n times.
    parts_by_pid: Dict[int, List[List[int]]] = {
        pid: consensus.parts_for(effective[pid]) for pid in range(config.n)
    }
    default_parts = consensus.parts_for(config.default_value)
    vectorized = lane is Lane.PER_GENERATION
    # One protocol runs the whole instance, stretch by stretch; on the
    # vectorized lane it keeps the run's work (whole-run codewords) for
    # its later stretches, over the instance's context, whose memos
    # outlive the run.  Reference runs never ask for a context.
    protocol = GenerationProtocol(
        config=config,
        code=consensus.code,
        network=consensus.network,
        graph=consensus.graph,
        backend=consensus.backend,
        adversary=consensus.adversary,
        generation=0,
        view_provider=consensus._make_view,
        vectorized=vectorized,
        context=consensus.context if vectorized else None,
    )

    generation_results: List[GenerationResult] = []
    while protocol.generation < config.generations:
        # A stretch runs to the end of the run unless a generation in it
        # diagnoses or defaults.  Generation 0 is a stretch of one (a
        # run whose inputs differ may default there, before the rest of
        # it is encoded), as is every generation of the scalar
        # reference, whose views read the generation from the extras.
        g = protocol.generation
        stop = g + 1 if g == 0 or not vectorized else config.generations
        consensus._view_extras["generation"] = g
        results = protocol.run(parts_by_pid, default_parts[:stop])
        generation_results += results
        if results[-1].outcome is GenerationOutcome.NO_MATCH_DEFAULT:
            break  # line 1(f): the whole algorithm terminates on the default

    return finalize_result(consensus, inputs, generation_results)
