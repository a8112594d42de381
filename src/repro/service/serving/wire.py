"""Wire codec: specs and results as JSON-safe dicts, round-trip exact.

The serving front-end speaks newline-delimited JSON (one object per
line) over TCP.  Everything that crosses the wire is declarative —
:class:`~repro.service.spec.RunSpec`,
:class:`~repro.service.spec.InstanceSpec`,
:class:`~repro.core.result.ConsensusResult` — and every codec here is
**lossless**: ``decode(encode(x)) == x`` field for field, which is what
lets the serving equivalence tests assert that a result served over TCP
is byte-identical to a direct ``run_many`` on the same specs, and
**stable**: ``encode(decode(encode(x))) == encode(x)``, which is what
lets the audit tier seal a result by its encoded bytes.

Agreement makes every fault-free processor hold the same thing, so the
format (v3) carries each distinct thing once:

* the distinct L-bit values of a payload cross once each, in a
  ``values`` list of lowercase hex strings (Python ≥ 3.11 refuses
  int↔decimal-string conversions beyond 4300 digits, which a full-width
  value of L ≥ 2^14 bits exceeds; hex has no such cap), and instance
  inputs, result decisions and the common input are indices into it;
* every ``pid → x`` map crosses as pid groups in first-seen order plus
  one ``x`` per group;
* a generation record crosses as ``[generation, shape index, symbols
  per group]`` over a ``shapes`` table of the distinct ``[outcome, pid
  groups, p_match, p_decide, removed_edges, isolated, detectors]``;
* the meter crosses as one tag list and two count lists
  (``message_tags`` only when the two dicts' keys differ).

An index that is negative or past its table is a ``ValueError``, never
a wrap-around.

>>> from repro.service.spec import InstanceSpec
>>> spec = InstanceSpec(inputs=(7, 7, 7, 7), attack="corrupt", seed=3)
>>> instance_to_wire(spec)["values"], instance_to_wire(spec)["inputs"]
(['7'], [0, 0, 0, 0])
>>> instance_from_wire(instance_to_wire(spec)) == spec
True
"""

from __future__ import annotations

import re
from dataclasses import asdict

from repro.core.result import (
    ConsensusResult,
    GenerationOutcome,
    GenerationResult,
)
from repro.network.metrics import MeterSnapshot
from repro.service.spec import InstanceSpec, RunSpec
from repro.utils.boundary import check_int

#: Wire protocol identifier, bumped on any incompatible codec change;
#: the server advertises it in every ``ps`` response.  3: each distinct
#: value, pid group, generation shape and meter tag crosses once.
WIRE_VERSION = 3

#: The ``error`` code of a reply to a request the server failed on — the
#: one code that is not an ``AdmissionError``'s (those carry their own).
INTERNAL_ERROR = "internal_error"


#: What :func:`value_to_wire` emits: ``0`` or lowercase hex digits
#: without a leading zero.
_CANONICAL_HEX = re.compile("0|[1-9a-f][0-9a-f]*")


def value_to_wire(value: int) -> str:
    """An L-bit value as a lowercase hex string (no prefix)."""
    return "%x" % value


def value_from_wire(text: str) -> int:
    """Exact inverse of :func:`value_to_wire`: ``ValueError`` for
    anything it does not emit — a JSON number (wire v1 sent decimal ints
    here), a prefix, a sign, an underscore, whitespace, an upper-case
    digit or a leading zero — so one value has one spelling, and a
    payload one digest."""
    if not isinstance(text, str) or _CANONICAL_HEX.fullmatch(text) is None:
        raise ValueError(
            "value %.40r is not canonical lowercase hex" % (text,)
        )
    return int(text, 16)


def _at(table: list, index: int, name: str):
    """``table[index]`` for the index ``name`` read off the wire.
    Python would wrap a negative index and raise ``IndexError`` past the
    end, and read ``true`` as index 1; on the wire each is one malformed
    payload, a ``ValueError`` naming the field."""
    if not 0 <= check_int(index, name) < len(table):
        raise ValueError(
            "%s %r outside a table of %d entries" % (name, index, len(table))
        )
    return table[index]


def _grouped(mapping: dict) -> tuple:
    """A ``pid → x`` map as ``(pid groups, one x per group)``, groups in
    first-seen order."""
    xs = list(mapping.values())
    if xs and xs.count(xs[0]) == len(xs):
        # Agreement, the usual case: one group, nothing to hash.
        return [list(mapping)], xs[:1]
    groups: dict = {}
    for pid, x in mapping.items():
        members = groups.get(x)
        if members is None:
            groups[x] = [pid]
        else:
            members.append(pid)
    return list(groups.values()), list(groups)


def _ungrouped(groups: list, xs: list) -> dict:
    """Exact inverse of :func:`_grouped` (up to dict order: a decoded
    map lists its pids group by group, which re-encodes identically)."""
    return {
        pid: x for group, x in zip(groups, xs, strict=True) for pid in group
    }


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
    """An :class:`InstanceSpec` as a JSON-safe dict: the distinct input
    values once each, ``inputs`` as one index per processor."""
    slots: dict = {}
    inputs = [slots.setdefault(value, len(slots)) for value in instance.inputs]
    return {
        "values": [value_to_wire(value) for value in slots],
        "inputs": inputs,
        "attack": instance.attack,
        "seed": instance.seed,
        "faulty": (
            list(instance.faulty) if instance.faulty is not None else None
        ),
    }


def instance_from_wire(payload: dict) -> InstanceSpec:
    """Exact inverse of :func:`instance_to_wire`."""
    values = [value_from_wire(text) for text in payload["values"]]
    return InstanceSpec(
        inputs=tuple(_at(values, i, "inputs") for i in payload["inputs"]),
        attack=payload.get("attack"),
        seed=payload.get("seed"),
        faulty=(
            tuple(payload["faulty"])
            if payload.get("faulty") is not None
            else None
        ),
    )


# -- results ----------------------------------------------------------------


def result_to_wire(result: ConsensusResult) -> dict:
    """A :class:`ConsensusResult` as a JSON-safe dict — decisions,
    per-generation records and the full meter snapshot included, so
    the decoded result supports every property (``value``, ``valid``,
    ``total_bits``) the in-process one does."""
    slots: dict = {}
    pids, decided = _grouped(result.decisions)
    decisions = [
        pids, [slots.setdefault(value, len(slots)) for value in decided]
    ]
    common_input = (
        None if result.common_input is None
        else slots.setdefault(result.common_input, len(slots))
    )
    shapes: list = []
    shape_slots: dict = {}
    generations = []
    for record in result.generation_results:
        groups, symbols = _grouped(record.decisions)
        shape = (
            record.outcome,
            tuple(map(tuple, groups)),
            record.p_match,
            record.p_decide,
            tuple(record.removed_edges),
            tuple(record.isolated),
            tuple(record.detectors),
        )
        slot = shape_slots.get(shape)
        if slot is None:
            slot = shape_slots[shape] = len(shapes)
            shapes.append([
                record.outcome.value,
                groups,
                None if record.p_match is None else list(record.p_match),
                None if record.p_decide is None else list(record.p_decide),
                [list(edge) for edge in record.removed_edges],
                list(record.isolated),
                list(record.detectors),
            ])
        generations.append([record.generation, slot, list(map(list, symbols))])
    bits, messages = result.meter.bits_by_tag, result.meter.messages_by_tag
    meter = {
        "tags": list(bits),
        "bits": list(bits.values()),
        "messages": list(messages.values()),
    }
    if list(messages) != meter["tags"]:
        meter["message_tags"] = list(messages)
    return {
        "values": [value_to_wire(value) for value in slots],
        "decisions": decisions,
        "common_input": common_input,
        "shapes": shapes,
        "generations": generations,
        "meter": meter,
        "diagnosis_count": result.diagnosis_count,
        "default_used": result.default_used,
        "honest_inputs_equal": result.honest_inputs_equal,
    }


def result_from_wire(payload: dict) -> ConsensusResult:
    """Exact inverse of :func:`result_to_wire`."""
    values = [value_from_wire(text) for text in payload["values"]]
    pids, decided = payload["decisions"]
    shapes = [
        (
            GenerationOutcome(outcome),
            groups,
            None if p_match is None else tuple(p_match),
            None if p_decide is None else tuple(p_decide),
            [(edge[0], edge[1]) for edge in removed_edges],
            isolated,
            detectors,
        )
        for (
            outcome, groups, p_match, p_decide,
            removed_edges, isolated, detectors,
        ) in payload["shapes"]
    ]
    generation_results = []
    for generation, slot, symbols in payload["generations"]:
        (
            outcome, groups, p_match, p_decide,
            removed_edges, isolated, detectors,
        ) = _at(shapes, slot, "generations")
        generation_results.append(GenerationResult(
            generation=generation,
            outcome=outcome,
            decisions=_ungrouped(groups, list(map(tuple, symbols))),
            p_match=p_match,
            p_decide=p_decide,
            # Fresh lists: records of one shape must not alias.
            removed_edges=list(removed_edges),
            isolated=list(isolated),
            detectors=list(detectors),
        ))
    meter = payload["meter"]
    return ConsensusResult(
        decisions=_ungrouped(
            pids, [_at(values, slot, "decisions") for slot in decided]
        ),
        generation_results=generation_results,
        meter=MeterSnapshot(
            bits_by_tag=dict(zip(meter["tags"], meter["bits"], strict=True)),
            messages_by_tag=dict(zip(
                meter.get("message_tags", meter["tags"]),
                meter["messages"],
                strict=True,
            )),
        ),
        diagnosis_count=payload["diagnosis_count"],
        default_used=payload["default_used"],
        honest_inputs_equal=payload["honest_inputs_equal"],
        common_input=(
            None if payload["common_input"] is None
            else _at(values, payload["common_input"], "common_input")
        ),
    )
