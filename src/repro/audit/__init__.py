"""Accountable transcripts: record, verify, replay, prove.

This package turns the network journal of a consensus run into an
authenticated artifact (:class:`Transcript`), certifies it by replaying
the run on the forced-scalar reference engine (:func:`replay`), and
extracts a :class:`CulpabilityProof` naming exactly the processors whose
recorded sends deviate from honest behavior (:func:`prove`).  See
``docs/AUDIT.md`` for the format and the proof semantics, and the
``repro-sim audit`` CLI subcommand for the command-line workflow.
"""

from repro.audit.compare import Divergence, DivergenceReport, compare
from repro.audit.replay import (
    CulpabilityProof,
    Deviation,
    DeviationRecorder,
    ReplayReport,
    prove,
    replay,
)
from repro.audit.transcript import (
    DEFAULT_KEY,
    TRANSCRIPT_VERSION,
    Keyring,
    Transcript,
    TranscriptEntry,
    VerifyReport,
    verify_transcript,
)

__all__ = [
    "DEFAULT_KEY",
    "TRANSCRIPT_VERSION",
    "Keyring",
    "Transcript",
    "TranscriptEntry",
    "VerifyReport",
    "verify_transcript",
    "Divergence",
    "DivergenceReport",
    "compare",
    "CulpabilityProof",
    "Deviation",
    "DeviationRecorder",
    "ReplayReport",
    "replay",
    "prove",
]
