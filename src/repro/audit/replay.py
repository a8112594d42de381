"""Transcript replay: scalar re-execution, tag checks, culpability.

Replay feeds a transcript's declarative spec back through the
forced-scalar reference engine (``vectorized=False``,
``batch_generations=False``) with its own journal enabled, then holds
the re-derived run against the recording: every authentication tag is
verified, the journals are compared message by message, and the results
are diffed field by field.  Because *every* fast path in this repo is
gated on byte-identity with that reference engine, a clean replay
certifies the recording end to end — and the deviations the replay
observes at the adversary hooks become a :class:`CulpabilityProof`
naming exactly the processors whose recorded sends differ from what an
honest processor must have sent.

Input substitution (``input_value``) is deliberately *excluded* from
culpability: a faulty processor claiming a different input is
indistinguishable from an honest processor that really held it, so it
is reported as a deviation but never as proof of misbehavior.

>>> from repro.service import ConsensusService, RunSpec
>>> service = ConsensusService(RunSpec(n=4, l_bits=16, attack="crash"))
>>> result, transcript = service.record(0xBEEF)
>>> prove(transcript).culprits
(3,)
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, replace
from functools import partial
from itertools import chain
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.audit.compare import DivergenceReport, compare
from repro.audit.transcript import (
    DEFAULT_KEY,
    Transcript,
    VerifyReport,
    _ROW,
    _encode_payload,
    verify_transcript,
)
from repro.core.consensus import MultiValuedConsensus
from repro.core.result import ConsensusResult
from repro.processors.adversary import (
    PID_HOOKS, Adversary, GlobalView, hook_is_default,
)
from repro.processors.answers import (
    bit_answer, codeword_symbols, delivery_value_of, diagnosis_symbol_value,
    input_value_of, m_row_bits, matching_row_payloads, message_bit,
    received_symbol, trust_row_bits,
)

#: Hooks whose deviations are observable protocol misbehavior.  Input
#: substitution is excluded (see module docstring); signature forgery
#: outcomes are a substrate event, not a message; a rigged common coin
#: (``coin_reveal``) is a property of the shared coin dealer, not of any
#: one processor, so it cannot convict a pid.
_UNPROVABLE_HOOKS = frozenset(
    {"input_value", "forge_signature", "coin_reveal"}
)


@dataclass(frozen=True)
class Deviation:
    """One hook call where a faulty processor departed from honesty."""

    pid: int
    hook: str
    generation: Optional[int]
    recipient: Optional[int]
    honest: Any
    sent: Any

    def to_wire(self) -> dict:
        return {
            "pid": self.pid,
            "hook": self.hook,
            "generation": self.generation,
            "recipient": self.recipient,
            "honest": repr(self.honest),
            "sent": repr(self.sent),
        }


class DeviationRecorder(Adversary):
    """Wraps an adversary and records every departure from honesty.

    Each hook snapshots the honest argument, delegates to the wrapped
    adversary, and logs a :class:`Deviation` when the returned value
    reads differently, by the engines' own readers
    (:mod:`repro.processors.answers`), from the honest one (``None`` —
    staying silent — counts; ``True`` for the symbol 1 is missing to a
    receiver, so it counts too).  The wrapper is
    behavior-preserving: it returns exactly what the inner adversary
    returned, so a replay under the recorder is byte-identical to one
    under the original adversary.

    A hook the inner adversary leaves at the :class:`Adversary` base
    (:func:`~repro.processors.adversary.hook_is_default`) plays the
    honest identity and cannot deviate: the recorder forwards it
    straight to the inner adversary and notes nothing.
    """

    def __init__(self, inner: Adversary):
        super().__init__(sorted(inner.faulty))
        self.inner = inner
        self.deviations: List[Deviation] = []
        for hook in _HOOKS:
            if hook_is_default(inner, hook):
                setattr(self, hook, getattr(inner, hook))
        # Fault-plan adversaries attack through the network: forward the
        # plan so the replay engine installs the identical compiled
        # schedule (the journal would diverge otherwise).
        self.fault_plan = getattr(inner, "fault_plan", None)

    def _note(
        self, pid: int, hook: str, generation: Optional[int],
        recipient: Optional[int], honest: Any, sent: Any,
        read: Callable[[Any], Any] = lambda answer: answer,
    ) -> None:
        if read(sent) != read(honest):
            self.deviations.append(Deviation(
                pid, hook, generation, recipient, honest, sent
            ))

    # The three row hooks note what is broadcast, under the names of
    # what one record describes: a symbol sent to one recipient
    # (``matching_symbol``), the n - 1 bits of an M vector (``m_vector``,
    # own slot excluded), one Trust bit per P_match member
    # (``trust_vector``).  Every other hook is recorded by
    # :func:`_recording`.

    def matching_row(self, pid, recipients, honest_symbol, generation, view):
        answer = self.inner.matching_row(
            pid, recipients, honest_symbol, generation, view
        )
        # One record per recipient whose payload deviates.
        read = partial(_read, "source_symbol", view, honest_symbol)
        for recipient, sent in zip(
            recipients, matching_row_payloads(answer, recipients)
        ):
            self._note(
                pid, "matching_symbol", generation, recipient,
                honest_symbol, sent, read,
            )
        return answer

    def m_row(self, pid, honest_row, generation, view):
        n = len(honest_row)
        answer = self.inner.m_row(pid, honest_row, generation, view)
        self._note(
            pid, "m_vector", generation, None,
            m_row_bits(honest_row, pid, n), m_row_bits(answer, pid, n),
        )
        return answer

    def trust_row(self, pid, p_match, honest_row, generation, view):
        answer = self.inner.trust_row(
            pid, p_match, honest_row, generation, view
        )
        self._note(
            pid, "trust_vector", generation, None,
            trust_row_bits(honest_row, p_match, honest_row),
            trust_row_bits(answer, p_match, honest_row),
        )
        return answer


def _read(hook: str, view: GlobalView, honest: Any, answer: Any) -> Any:
    """``answer`` to ``hook`` as the engines read it (a coin as is)."""
    if hook in ("detected_flag", "ideal_broadcast_bit"):
        return bit_answer(hook, answer)
    if hook == "input_value":
        return input_value_of(answer, view.extras["l_bits"])
    if hook == "delivery_value":
        return delivery_value_of(answer, view.extras["l_bits"])
    if hook == "coin_reveal":
        return answer
    code = view.extras.get("code")
    if hook in ("source_symbol", "forwarded_symbol"):
        return received_symbol(answer, code.symbol_limit)
    if hook == "diagnosis_symbol":
        return diagnosis_symbol_value(answer, code.symbol_limit)
    if hook == "source_codeword":
        return codeword_symbols(answer, len(honest), code.symbol_limit)
    return message_bit(hook, answer)


def _recording(hook: str):
    """``DeviationRecorder.<hook>``: snapshot the honest argument (a list
    is copied: an in-place edit cannot mask a deviation), delegate and
    note the answer (pid ``-1`` for the coin dealer)."""
    names = list(inspect.signature(getattr(Adversary, hook)).parameters)[1:]
    honest_name = next((name for name in names if "honest" in name), None)

    def recorded(self, *args, **kwargs):
        if honest_name is None:  # forge_signature: a substrate event
            return getattr(self.inner, hook)(*args, **kwargs)
        bound = dict(zip(names, args), **kwargs)
        honest = bound[honest_name]
        copied = isinstance(honest, list)
        if copied:
            honest = list(honest)
        sent = getattr(self.inner, hook)(*args, **kwargs)
        self._note(
            -1 if names[0] == "instance" else bound[names[0]], hook,
            bound.get("generation", bound.get("instance")),
            bound.get("recipient"), honest,
            list(sent) if copied else sent,
            partial(_read, hook, bound["view"], honest),
        )
        return sent

    recorded.__name__ = hook
    return recorded


#: Every hook the recorder wraps.
_HOOKS = PID_HOOKS + ("coin_reveal",)

for _hook in _HOOKS:
    if _hook not in vars(DeviationRecorder):
        setattr(DeviationRecorder, _hook, _recording(_hook))


@dataclass(frozen=True)
class ReplayReport:
    """Everything a scalar replay of a transcript established."""

    verify: VerifyReport
    result: ConsensusResult
    journal_match: bool
    first_journal_divergence: Optional[dict]
    divergence: DivergenceReport
    deviations: tuple

    @property
    def ok(self) -> bool:
        return (
            self.verify.ok
            and self.journal_match
            and self.divergence.identical
        )

    def to_wire(self) -> dict:
        return {
            "ok": self.ok,
            "verify": self.verify.to_wire(),
            "journal_match": self.journal_match,
            "first_journal_divergence": self.first_journal_divergence,
            "divergence": self.divergence.to_wire(),
            "deviations": [d.to_wire() for d in self.deviations],
        }


@dataclass(frozen=True)
class CulpabilityProof:
    """Processors provably faulty from the transcript alone.

    ``culprits`` are the pids whose recorded sends a scalar replay shows
    to differ from honest behavior at an observable protocol hook.
    ``claimed_faulty`` is the adversary placement declared by the spec —
    the two coincide exactly when every placed processor actually
    misbehaved on an observable hook during this run.
    """

    culprits: Tuple[int, ...]
    claimed_faulty: Tuple[int, ...]
    verified: bool
    journal_match: bool
    result_match: bool
    transcript_digest: str
    deviations: tuple

    @property
    def ok(self) -> bool:
        """Did the transcript authenticate and replay cleanly?"""
        return self.verified and self.journal_match and self.result_match

    def to_wire(self) -> dict:
        return {
            "culprits": list(self.culprits),
            "claimed_faulty": list(self.claimed_faulty),
            "verified": self.verified,
            "journal_match": self.journal_match,
            "result_match": self.result_match,
            "transcript_digest": self.transcript_digest,
            "deviations": [d.to_wire() for d in self.deviations],
        }


def _fault_deviations(schedule) -> List[Deviation]:
    """Fold a replayed fault schedule's event log into deviations.

    Network-level faults never pass through an adversary hook, so the
    recorder cannot see them; the schedule's deterministic event log is
    the evidence instead.  Events are aggregated per (sender, kind) —
    the sender of a faulted message is the culpable processor (registry
    timing attacks scope their rules to faulty senders).
    """
    if schedule is None:
        return []
    counts: Dict[Tuple[int, str], int] = {}
    for event in schedule.events:
        key = (event.sender, event.kind)
        counts[key] = counts.get(key, 0) + 1
    return [
        Deviation(
            pid=sender,
            hook="fault:%s" % kind,
            generation=None,
            recipient=None,
            honest="delivered",
            sent="%s x%d" % (kind, count),
        )
        for (sender, kind), count in sorted(counts.items())
    ]


def _wire_row(row: Sequence) -> dict:
    """A replayed journal row as a divergence report shows it."""
    round_index, sender, receiver, tag, bits, payload = row
    return {
        "round": round_index,
        "sender": sender,
        "receiver": receiver,
        "tag": tag,
        "bits": bits,
        "payload": _encode_payload(payload),
    }


def _journal_divergence(
    entries: Sequence, journal: Sequence
) -> Optional[dict]:
    """First position where the recorded entries and the replayed
    journal rows differ (by :meth:`TranscriptEntry.matches_row`)."""
    recorded = list(map(_ROW, entries))
    replayed = [
        row if type(row[5]) is int else (*row[:5], _encode_payload(row[5]))
        for row in journal
    ]
    # The common case at once: every field equal and of the same type.
    if recorded == replayed and list(
        map(type, chain.from_iterable(recorded))
    ) == list(map(type, chain.from_iterable(replayed))):
        return None
    for index, (entry, row) in enumerate(zip(entries, journal)):
        field = entry.matches_row(row)
        if field is not None:
            return {
                "index": index,
                "field": field,
                "recorded": entry.to_wire(),
                "replayed": _wire_row(row),
            }
    if len(entries) == len(journal):
        return None
    index = min(len(entries), len(journal))
    return {
        "index": index,
        "field": "length",
        "recorded": None if index == len(entries)
        else entries[index].to_wire(),
        "replayed": None if index == len(journal)
        else _wire_row(journal[index]),
    }


def replay(
    transcript: Transcript, key: bytes = DEFAULT_KEY
) -> ReplayReport:
    """Re-execute a transcript on the forced-scalar reference engine.

    The instance's attack/seed/faulty overrides are resolved against the
    recorded spec, the engine is forced to the scalar path, and the
    wrapped adversary records every deviation while the fresh journal
    and result are compared to the recording.
    """
    verified = verify_transcript(transcript, key=key)
    effective = transcript.instance.resolve(transcript.spec)
    effective = replace(
        effective, vectorized=False, batch_generations=False
    )
    recorder = DeviationRecorder(effective.make_adversary())
    engine = MultiValuedConsensus(
        effective.make_config(),
        adversary=recorder,
        vectorized=False,
        batch_generations=False,
        journal=True,
    )
    result = engine.run(list(transcript.instance.inputs))
    journal = engine.network.journal
    first = _journal_divergence(transcript.entries, journal)
    deviations = list(recorder.deviations) + _fault_deviations(
        engine.network.fault_schedule
    )
    return ReplayReport(
        verify=verified,
        result=result,
        journal_match=first is None,
        first_journal_divergence=first,
        divergence=compare(transcript.result, result),
        deviations=tuple(deviations),
    )


def prove(
    transcript: Transcript, key: bytes = DEFAULT_KEY
) -> CulpabilityProof:
    """Verify, replay, and name the provably faulty processors."""
    report = replay(transcript, key=key)
    culprits = sorted(
        {
            deviation.pid
            for deviation in report.deviations
            if deviation.hook not in _UNPROVABLE_HOOKS
        }
    )
    effective = transcript.instance.resolve(transcript.spec)
    claimed = tuple(sorted(effective.make_adversary().faulty))
    return CulpabilityProof(
        culprits=tuple(culprits),
        claimed_faulty=claimed,
        verified=report.verify.ok,
        journal_match=report.journal_match,
        result_match=report.divergence.identical,
        transcript_digest=transcript.digest(),
        deviations=report.deviations,
    )
