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

from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.audit.compare import DivergenceReport, compare
from repro.audit.transcript import (
    DEFAULT_KEY,
    Transcript,
    VerifyReport,
    _encode_payload,
    verify_transcript,
)
from repro.core.consensus import MultiValuedConsensus
from repro.core.result import ConsensusResult
from repro.processors.adversary import (
    Adversary, GlobalView, diagnosis_symbol_value, m_row_bits,
    matching_row_payloads, trust_row_bits,
)

#: Hooks whose deviations are observable protocol misbehavior.  Input
#: substitution is excluded (see module docstring); signature forgery
#: outcomes are a substrate event, not a message; a rigged common coin
#: (``coin_reveal``) is a property of the shared coin dealer, not of any
#: one processor, so it cannot convict a pid.
_UNPROVABLE_HOOKS = frozenset(
    {"input_value", "forge_signature", "coin_reveal"}
)

#: Hooks whose receiver applies ``is_exact_int``: ``True`` or ``1.0`` sent
#: for ``1`` is missing to it, so another type deviates though ``==`` holds.
_EXACT_HOOKS = frozenset({"matching_symbol", "source_symbol", "forwarded_symbol"})


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
    differs (``None`` — staying silent — counts).  The wrapper is
    behavior-preserving: it returns exactly what the inner adversary
    returned, so a replay under the recorder is byte-identical to one
    under the original adversary.
    """

    def __init__(self, inner: Adversary):
        super().__init__(sorted(inner.faulty))
        self.inner = inner
        self.deviations: List[Deviation] = []
        # Fault-plan adversaries attack through the network: forward the
        # plan so the replay engine installs the identical compiled
        # schedule (the journal would diverge otherwise).
        self.fault_plan = getattr(inner, "fault_plan", None)

    def _note(
        self,
        pid: int,
        hook: str,
        generation: Optional[int],
        recipient: Optional[int],
        honest: Any,
        sent: Any,
    ) -> None:
        if sent != honest or (
            hook in _EXACT_HOOKS and type(sent) is not type(honest)
        ):
            self.deviations.append(
                Deviation(
                    pid=pid,
                    hook=hook,
                    generation=generation,
                    recipient=recipient,
                    honest=honest,
                    sent=sent,
                )
            )

    # Every hook follows the same shape; mutable honest arguments (lists)
    # are copied before delegation so an in-place-editing attack cannot
    # mask its own deviation.  The three row hooks record under the
    # names of what one record describes: a symbol sent to one
    # recipient (``matching_symbol``), an M vector (``m_vector``), a
    # Trust vector (``trust_vector``).

    def input_value(self, pid, honest_input, view):
        sent = self.inner.input_value(pid, honest_input, view)
        self._note(pid, "input_value", None, None, honest_input, sent)
        return sent

    def matching_row(self, pid, recipients, honest_symbol, generation, view):
        answer = self.inner.matching_row(
            pid, recipients, honest_symbol, generation, view
        )
        # One record per recipient whose payload deviates.
        for recipient, sent in zip(
            recipients, matching_row_payloads(answer, recipients)
        ):
            self._note(
                pid, "matching_symbol", generation, recipient,
                honest_symbol, sent,
            )
        return answer

    # The M, diagnosis-symbol and Trust hooks note what is broadcast:
    # the n - 1 bits of the M row (own slot excluded), the symbol mod
    # the symbol limit, one Trust bit per P_match member.

    def m_row(self, pid, honest_row, generation, view):
        n = len(honest_row)
        answer = self.inner.m_row(pid, honest_row, generation, view)
        self._note(
            pid, "m_vector", generation, None,
            m_row_bits(honest_row, pid, n), m_row_bits(answer, pid, n),
        )
        return answer

    def detected_flag(self, pid, honest_flag, generation, view):
        sent = self.inner.detected_flag(pid, honest_flag, generation, view)
        self._note(pid, "detected_flag", generation, None, honest_flag, sent)
        return sent

    def diagnosis_symbol(self, pid, honest_symbol, generation, view):
        sent = self.inner.diagnosis_symbol(
            pid, honest_symbol, generation, view
        )
        self._note(
            pid, "diagnosis_symbol", generation, None, honest_symbol,
            diagnosis_symbol_value(sent, view.extras["code"].symbol_limit),
        )
        return sent

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

    def bsb_source_bit(self, source, recipient, honest_bit, instance, view):
        sent = self.inner.bsb_source_bit(
            source, recipient, honest_bit, instance, view
        )
        self._note(
            source, "bsb_source_bit", instance, recipient, honest_bit, sent
        )
        return sent

    def ideal_broadcast_bit(self, source, honest_bit, instance, view):
        sent = self.inner.ideal_broadcast_bit(
            source, honest_bit, instance, view
        )
        self._note(
            source, "ideal_broadcast_bit", instance, None, honest_bit, sent
        )
        return sent

    def king_value(self, pid, recipient, phase, honest_value, instance, view):
        sent = self.inner.king_value(
            pid, recipient, phase, honest_value, instance, view
        )
        self._note(pid, "king_value", instance, recipient, honest_value, sent)
        return sent

    def king_proposal(
        self, pid, recipient, phase, honest_proposal, instance, view
    ):
        sent = self.inner.king_proposal(
            pid, recipient, phase, honest_proposal, instance, view
        )
        self._note(
            pid, "king_proposal", instance, recipient, honest_proposal, sent
        )
        return sent

    def king_bit(self, pid, recipient, phase, honest_bit, instance, view):
        sent = self.inner.king_bit(
            pid, recipient, phase, honest_bit, instance, view
        )
        self._note(pid, "king_bit", instance, recipient, honest_bit, sent)
        return sent

    def eig_relay(self, pid, recipient, path, honest_value, instance, view):
        sent = self.inner.eig_relay(
            pid, recipient, path, honest_value, instance, view
        )
        self._note(pid, "eig_relay", instance, recipient, honest_value, sent)
        return sent

    def source_symbol(self, source, recipient, honest_symbol, generation, view):
        sent = self.inner.source_symbol(
            source, recipient, honest_symbol, generation, view
        )
        self._note(
            source, "source_symbol", generation, recipient, honest_symbol, sent
        )
        return sent

    def forwarded_symbol(self, pid, recipient, honest_symbol, generation, view):
        sent = self.inner.forwarded_symbol(
            pid, recipient, honest_symbol, generation, view
        )
        self._note(
            pid, "forwarded_symbol", generation, recipient, honest_symbol, sent
        )
        return sent

    def source_codeword(self, source, honest_codeword, generation, view):
        honest = list(honest_codeword)
        sent = self.inner.source_codeword(
            source, honest_codeword, generation, view
        )
        self._note(
            source, "source_codeword", generation, None, honest, list(sent)
        )
        return sent

    def est_value(self, pid, recipient, honest_est, round_index, instance,
                  view):
        sent = self.inner.est_value(
            pid, recipient, honest_est, round_index, instance, view
        )
        self._note(pid, "est_value", instance, recipient, honest_est, sent)
        return sent

    def aux_value(self, pid, recipient, honest_aux, round_index, instance,
                  view):
        sent = self.inner.aux_value(
            pid, recipient, honest_aux, round_index, instance, view
        )
        self._note(pid, "aux_value", instance, recipient, honest_aux, sent)
        return sent

    def coin_reveal(self, instance, round_index, honest_coin, view):
        sent = self.inner.coin_reveal(
            instance, round_index, honest_coin, view
        )
        # The coin dealer is not a processor: recorded (pid -1) but
        # unprovable (see _UNPROVABLE_HOOKS).
        self._note(-1, "coin_reveal", instance, None, honest_coin, sent)
        return sent

    def forge_signature(self, forger, victim, message, view: GlobalView):
        return self.inner.forge_signature(forger, victim, message, view)


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


def _journal_divergence(
    entries: Sequence, journal: Sequence
) -> Optional[dict]:
    """First position where the recorded and replayed journals differ."""
    for index, entry in enumerate(entries):
        if index >= len(journal):
            return {
                "index": index,
                "field": "length",
                "recorded": entry.to_wire(),
                "replayed": None,
            }
        field = entry.matches_message(journal[index])
        if field is not None:
            message = journal[index]
            return {
                "index": index,
                "field": field,
                "recorded": entry.to_wire(),
                "replayed": {
                    "round": message.round_index,
                    "sender": message.sender,
                    "receiver": message.receiver,
                    "tag": message.tag,
                    "bits": message.bits,
                    "payload": _encode_payload(message.payload),
                },
            }
    if len(journal) > len(entries):
        message = journal[len(entries)]
        return {
            "index": len(entries),
            "field": "length",
            "recorded": None,
            "replayed": {
                "round": message.round_index,
                "sender": message.sender,
                "receiver": message.receiver,
                "tag": message.tag,
                "bits": message.bits,
                "payload": _encode_payload(message.payload),
            },
        }
    return None


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
