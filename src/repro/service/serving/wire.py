"""Wire codec: specs and results as JSON-safe dicts, round-trip exact.

The serving front-end speaks newline-delimited JSON (one object per
line) over TCP.  Everything that crosses the wire is declarative —
:class:`~repro.service.spec.RunSpec`,
:class:`~repro.service.spec.InstanceSpec`,
:class:`~repro.core.result.ConsensusResult` — and every codec here is
**lossless**: ``decode(encode(x)) == x`` field for field, which is what
lets the serving equivalence tests assert that a result served over TCP
is byte-identical to a direct ``run_many`` on the same specs.  The
L-bit consensus values (instance inputs, result decisions, the common
input, the ``submit`` op's bare ``value``) cross as lowercase hex
strings: Python ≥ 3.11 refuses int↔decimal-string conversions beyond
4300 digits, which a full-width value of L ≥ 2^14 bits exceeds, and hex
conversion has no such cap.  Everything else stays a JSON int; the
remaining conversions are the JSON-forced ones (int dict keys to
strings, tuples to lists), each inverted exactly on decode.

>>> from repro.service.spec import InstanceSpec
>>> spec = InstanceSpec(inputs=(7, 7, 7, 7), attack="corrupt", seed=3)
>>> instance_from_wire(instance_to_wire(spec)) == spec
True
"""

from __future__ import annotations

from dataclasses import asdict

from repro.core.result import (
    ConsensusResult,
    GenerationOutcome,
    GenerationResult,
)
from repro.network.metrics import MeterSnapshot
from repro.service.spec import InstanceSpec, RunSpec

#: Wire protocol identifier, bumped on any incompatible codec change;
#: the server advertises it in every ``ps`` response.  2: L-bit values
#: as hex strings.
WIRE_VERSION = 2


def value_to_wire(value: int) -> str:
    """An L-bit value as a lowercase hex string (no prefix)."""
    return "%x" % value


def value_from_wire(text: str) -> int:
    """Exact inverse of :func:`value_to_wire` (``TypeError`` for a JSON
    number: wire v1 sent decimal ints here)."""
    return int(text, 16)


# -- specs ------------------------------------------------------------------


def runspec_to_wire(spec: RunSpec) -> dict:
    """A :class:`RunSpec` as a JSON-safe dict (all fields declarative)."""
    payload = asdict(spec)
    if payload["faulty"] is not None:
        payload["faulty"] = list(payload["faulty"])
    return payload


def runspec_from_wire(payload: dict) -> RunSpec:
    """Exact inverse of :func:`runspec_to_wire`."""
    payload = dict(payload)
    if payload.get("faulty") is not None:
        payload["faulty"] = tuple(payload["faulty"])
    return RunSpec(**payload)


def instance_to_wire(instance: InstanceSpec) -> dict:
    """An :class:`InstanceSpec` as a JSON-safe dict."""
    return {
        "inputs": [value_to_wire(value) for value in instance.inputs],
        "attack": instance.attack,
        "seed": instance.seed,
        "faulty": (
            list(instance.faulty) if instance.faulty is not None else None
        ),
    }


def instance_from_wire(payload: dict) -> InstanceSpec:
    """Exact inverse of :func:`instance_to_wire`."""
    return InstanceSpec(
        inputs=tuple(value_from_wire(value) for value in payload["inputs"]),
        attack=payload.get("attack"),
        seed=payload.get("seed"),
        faulty=(
            tuple(payload["faulty"])
            if payload.get("faulty") is not None
            else None
        ),
    )


# -- results ----------------------------------------------------------------


def _generation_to_wire(record: GenerationResult) -> dict:
    return {
        "generation": record.generation,
        "outcome": record.outcome.value,
        "decisions": {
            str(pid): list(symbols)
            for pid, symbols in record.decisions.items()
        },
        "p_match": list(record.p_match) if record.p_match is not None else None,
        "p_decide": (
            list(record.p_decide) if record.p_decide is not None else None
        ),
        "removed_edges": [list(edge) for edge in record.removed_edges],
        "isolated": list(record.isolated),
        "detectors": list(record.detectors),
    }


def _generation_from_wire(payload: dict) -> GenerationResult:
    return GenerationResult(
        generation=payload["generation"],
        outcome=GenerationOutcome(payload["outcome"]),
        decisions={
            int(pid): tuple(symbols)
            for pid, symbols in payload["decisions"].items()
        },
        p_match=(
            tuple(payload["p_match"])
            if payload["p_match"] is not None
            else None
        ),
        p_decide=(
            tuple(payload["p_decide"])
            if payload["p_decide"] is not None
            else None
        ),
        removed_edges=[
            (edge[0], edge[1]) for edge in payload["removed_edges"]
        ],
        isolated=list(payload["isolated"]),
        detectors=list(payload["detectors"]),
    )


def result_to_wire(result: ConsensusResult) -> dict:
    """A :class:`ConsensusResult` as a JSON-safe dict — decisions,
    per-generation records and the full meter snapshot included, so
    the decoded result supports every property (``value``, ``valid``,
    ``total_bits``) the in-process one does."""
    return {
        "decisions": {
            str(pid): value_to_wire(value)
            for pid, value in result.decisions.items()
        },
        "generation_results": [
            _generation_to_wire(record)
            for record in result.generation_results
        ],
        "meter": {
            "bits_by_tag": dict(result.meter.bits_by_tag),
            "messages_by_tag": dict(result.meter.messages_by_tag),
        },
        "diagnosis_count": result.diagnosis_count,
        "default_used": result.default_used,
        "honest_inputs_equal": result.honest_inputs_equal,
        "common_input": (
            None if result.common_input is None
            else value_to_wire(result.common_input)
        ),
    }


def result_from_wire(payload: dict) -> ConsensusResult:
    """Exact inverse of :func:`result_to_wire`."""
    return ConsensusResult(
        decisions={
            int(pid): value_from_wire(value)
            for pid, value in payload["decisions"].items()
        },
        generation_results=[
            _generation_from_wire(record)
            for record in payload["generation_results"]
        ],
        meter=MeterSnapshot(
            bits_by_tag=dict(payload["meter"]["bits_by_tag"]),
            messages_by_tag=dict(payload["meter"]["messages_by_tag"]),
        ),
        diagnosis_count=payload["diagnosis_count"],
        default_used=payload["default_used"],
        honest_inputs_equal=payload["honest_inputs_equal"],
        common_input=(
            None if payload["common_input"] is None
            else value_from_wire(payload["common_input"])
        ),
    )
