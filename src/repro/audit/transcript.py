"""Authenticated, append-only consensus transcripts.

A :class:`Transcript` freezes one consensus run into an auditable
artifact: the declarative :class:`~repro.service.spec.RunSpec` /
:class:`~repro.service.spec.InstanceSpec` pair that reproduces it, every
journalled message (a network journal row) in delivery order,
and the full :class:`~repro.core.result.ConsensusResult` (decisions,
per-generation records, meter snapshot).  Each journal entry carries a
per-processor HMAC authentication tag computed over a running hash
chain, so flipping a payload, swapping tags between entries, dropping a
message, or truncating the tail all break verification at a localizable
position — the accountability property the pod line of work makes a
first-class consensus feature.

Serialization reuses the lossless codecs of
:mod:`repro.service.serving.wire` (v3): plain JSON, each distinct L-bit
consensus value once as a lowercase hex string with instance inputs,
result decisions and the common input as indices into that list, symbol
payloads as exact ints, tuples as lists, every conversion inverted
exactly on decode.  The chain seed and the seal are computed over those
encoded bytes, which is sound because the codecs re-encode a decoded
payload to the same bytes.  The canonical byte form (sorted keys, no
whitespace) gives a stable content digest.

>>> from repro.service import ConsensusService, RunSpec
>>> service = ConsensusService(RunSpec(n=4, l_bits=16))
>>> result, transcript = service.record(0xBEEF)
>>> transcript.verify().ok
True
>>> transcript.digest() == Transcript.from_wire(transcript.to_wire()).digest()
True
"""

from __future__ import annotations

import hashlib
import hmac
import json
from dataclasses import InitVar, dataclass, field, replace
from json.encoder import encode_basestring_ascii as _json_str
from operator import attrgetter
from typing import Any, List, Optional, Sequence, Tuple, Union

from repro.core.result import ConsensusResult
from repro.service.serving.wire import (
    instance_from_wire,
    instance_to_wire,
    result_from_wire,
    result_to_wire,
    runspec_from_wire,
    runspec_to_wire,
)
from repro.service.spec import InstanceSpec, RunSpec
from repro.utils.boundary import check_int

#: Transcript format identifier, bumped on any incompatible change.
#: 3: instance and result in wire v3 (each distinct thing once).
TRANSCRIPT_VERSION = 3

#: Demo master key used when the caller does not supply one.  Real
#: deployments derive per-deployment keys; the default exists so that
#: ``repro-sim audit record`` followed by ``audit verify`` works out of
#: the box and so tests never share secrets with production.
DEFAULT_KEY = b"repro-audit-demo-key"


def _canonical(obj: Any) -> bytes:
    """Canonical JSON bytes: sorted keys, no whitespace, exact ints."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def _encode_payload(payload: Any) -> Any:
    """A journal payload as a JSON-safe value, ints kept exact."""
    if payload is None or isinstance(payload, bool):
        return payload
    if isinstance(payload, int):
        return int(payload)
    return {"repr": repr(payload)}


#: An entry's fields in journal-row order, payload in wire form.
_ROW = attrgetter(
    "round_index", "sender", "receiver", "tag", "bits", "payload"
)


def _entry_bytes(
    index: int, round_index: int, sender: int, receiver: int, tag: str,
    bits: int, payload: Any, quoted: dict,
) -> bytes:
    """Entry ``index``'s authenticated bytes: ``_canonical`` of
    :meth:`TranscriptEntry.content_wire` byte for byte, written from its
    fields (``payload`` in wire form); ``quoted`` keeps each distinct
    tag's JSON quoting for one walk.  ``TypeError`` unless the integer
    fields are exact ``int`` and the tag a ``str``: ``%d`` prints ``True``
    or ``4.0`` as the int it is not, and the tag over that would verify."""
    if not (
        type(index) is type(round_index) is type(sender) is type(receiver)
        is type(bits) is int
    ):
        raise TypeError("entry %r: an integer field is not an int" % (index,))
    return (
        b'{"bits":%d,"index":%d,"payload":%b,"receiver":%d,"round":%d,'
        b'"sender":%d,"tag":%b}'
    ) % (
        bits, index,
        b"%d" % payload if type(payload) is int else _canonical(payload),
        receiver, round_index, sender,
        quoted.get(tag) or quoted.setdefault(tag, _json_str(tag).encode()),
    )


def _same_hex(expected: str, stored: Any) -> bool:
    """``compare_digest``; a stored tag it would refuse is a mismatch."""
    return (
        isinstance(stored, str)
        and stored.isascii()
        and hmac.compare_digest(expected, stored)
    )


#: HMAC's inner and outer pad bytes, as ``bytes.translate`` tables.
_IPAD = bytes(byte ^ 0x36 for byte in range(256))
_OPAD = bytes(byte ^ 0x5C for byte in range(256))


class Keyring:
    """Per-processor HMAC keys derived from one master secret.

    The master key never appears in a transcript; only a short
    fingerprint (:attr:`key_id`) is stored so a verifier can detect a
    wrong-key mistake before reporting spurious tampering.
    """

    def __init__(self, master: bytes = DEFAULT_KEY):
        if not isinstance(master, bytes) or not master:
            raise ValueError("master key must be non-empty bytes")
        self._master = master
        self.key_id = hashlib.sha256(
            b"repro-audit-keyid:" + master
        ).hexdigest()[:16]
        self._keys: dict = {}
        self._pads: dict = {}

    def key_for(self, pid: int) -> bytes:
        """The sending key of processor ``pid``."""
        key = self._keys.get(pid)
        if key is None:
            key = hmac.new(
                self._master, b"repro-audit-pid:%d" % pid, hashlib.sha256
            ).digest()
            self._keys[pid] = key
        return key

    def tag(self, pid: int, link: bytes) -> str:
        """``hmac.digest(self.key_for(pid), link, "sha256").hex()``,
        byte for byte, from ``pid``'s pre-keyed SHA-256 states (RFC 2104
        §4): the key-dependent first block of the inner and the outer
        hash is absorbed once per pid, not once per tag."""
        pads = self._pads.get(pid)
        if pads is None:
            # A per-pid key is a 32-byte HMAC output: zero-padded to the
            # 64-byte block, never hashed down.
            block = self.key_for(pid).ljust(64, b"\0")
            pads = self._pads[pid] = (
                hashlib.sha256(block.translate(_IPAD)),
                hashlib.sha256(block.translate(_OPAD)),
            )
        inner = pads[0].copy()
        inner.update(link)
        outer = pads[1].copy()
        outer.update(inner.digest())
        return outer.hexdigest()

    def seal(self, count: int, chain: bytes, result_bytes: bytes) -> str:
        """Tail seal binding entry count, chain head and result."""
        mac = hmac.new(self._master, b"repro-audit-seal:", hashlib.sha256)
        mac.update(b"%d:" % count)
        mac.update(chain)
        mac.update(hashlib.sha256(result_bytes).digest())
        return mac.hexdigest()


@dataclass(frozen=True, slots=True)
class TranscriptEntry:
    """One journalled message plus its authentication tag.

    ``payload`` is stored in wire form (an exact int for symbol
    messages, ``{"repr": ...}`` for anything non-numeric), ``auth`` is
    the hex HMAC of the sender over the hash chain up to this entry.
    ``content_bytes`` are the authenticated bytes (``_entry_bytes`` of
    the other fields), made with the entry: ``None`` when a field is not
    exactly typed, as no tag is valid over such an entry.  An entry made
    by the constructor (``from_wire``, ``dataclasses.replace``) formats
    its own bytes, or takes them as ``formatted``; :meth:`Transcript.record`
    fills the slots of an entry it made directly (``_recorded_entry``)
    with the bytes and tag it has just computed.
    """

    index: int
    round_index: int
    sender: int
    receiver: int
    tag: str
    bits: int
    payload: Any
    auth: str
    formatted: InitVar[Optional[bytes]] = None
    content_bytes: Optional[bytes] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self, formatted: Optional[bytes]) -> None:
        if formatted is None:
            try:
                formatted = _entry_bytes(self.index, *_ROW(self), {})
            except TypeError:
                pass
        object.__setattr__(self, "content_bytes", formatted)

    def content_wire(self) -> dict:
        """The authenticated fields (everything except ``auth``)."""
        return {
            "index": self.index,
            "round": self.round_index,
            "sender": self.sender,
            "receiver": self.receiver,
            "tag": self.tag,
            "bits": self.bits,
            "payload": self.payload,
        }

    def to_wire(self) -> dict:
        payload = self.content_wire()
        payload["auth"] = self.auth
        return payload

    @classmethod
    def from_wire(cls, payload: dict, where: str = "entry") -> "TranscriptEntry":
        return cls(*[_field(payload, name, where) for name in _ENTRY_KEYS])

    def matches_row(self, row: Sequence) -> Optional[str]:
        """Name of the first field differing from a journal ``row`` (or
        None).  A field matches only when equal and of the same type: the
        authenticated bytes tell ``1`` from ``True`` and ``4`` from ``4.0``."""
        replayed = (*row[:5], _encode_payload(row[5]))
        # The row's fields under their wire names.
        for name, mine, theirs in zip(_ENTRY_KEYS[1:7], _ROW(self), replayed):
            if type(mine) is not type(theirs) or mine != theirs:
                return name
        return None


#: The slot setters of an entry, in ``_recorded_entry``'s argument order.
_ENTRY_SLOTS = tuple(
    getattr(TranscriptEntry, name).__set__ for name in (
        "index", "round_index", "sender", "receiver", "tag", "bits",
        "payload", "auth", "content_bytes",
    )
)


def _recorded_entry(
    index: int, round_index: int, sender: int, receiver: int, tag: str,
    bits: int, payload: Any, auth: str, content: bytes,
) -> TranscriptEntry:
    """The entry :meth:`Transcript.record` just authenticated: its slots
    filled directly, as ``TranscriptEntry(..., formatted=content)``
    would fill them, without the dataclass ``__init__`` (a recorded
    audit makes one per journalled message)."""
    entry = object.__new__(TranscriptEntry)
    s0, s1, s2, s3, s4, s5, s6, s7, s8 = _ENTRY_SLOTS
    s0(entry, index)
    s1(entry, round_index)
    s2(entry, sender)
    s3(entry, receiver)
    s4(entry, tag)
    s5(entry, bits)
    s6(entry, payload)
    s7(entry, auth)
    s8(entry, content)
    return entry


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of :func:`verify_transcript`.

    ``failed_index`` localizes the first broken entry; ``None`` with
    ``ok=False`` means the failure is structural (wrong key, or a seal
    mismatch from tail truncation / result tampering).
    """

    ok: bool
    checked: int
    failed_index: Optional[int] = None
    reason: Optional[str] = None

    def to_wire(self) -> dict:
        return {
            "ok": self.ok,
            "checked": self.checked,
            "failed_index": self.failed_index,
            "reason": self.reason,
        }


@dataclass(frozen=True)
class Transcript:
    """An authenticated record of one consensus run.

    ``entries`` is stored as a tuple of frozen entries, so the walk of
    their tags and chain is a function of the transcript and a key:
    :func:`verify_transcript` keeps it on the transcript (the private
    ``_walked``, under a SHA-256 of the key) and a later check under the
    same key reads it.  The seal, over the result, is checked every
    time.  A transcript made by ``replace``, ``from_wire`` or ``load``
    is a new object and is walked afresh.
    """

    spec: RunSpec
    instance: InstanceSpec
    entries: tuple
    result: ConsensusResult
    key_id: str
    seal: str
    version: int = TRANSCRIPT_VERSION

    def __post_init__(self) -> None:
        if type(self.entries) is not tuple:
            object.__setattr__(self, "entries", tuple(self.entries))

    # -- construction -------------------------------------------------

    @classmethod
    def record(
        cls,
        spec: RunSpec,
        instance: InstanceSpec,
        journal: Sequence[tuple],
        result: ConsensusResult,
        key: bytes = DEFAULT_KEY,
    ) -> "Transcript":
        """Authenticate a network journal (its rows) into a transcript.

        Entries are chained: ``auth_i`` is the sender's HMAC over the
        chain head after entry ``i-1`` plus entry ``i``'s canonical
        bytes, and the seal binds the final chain head, the entry count
        and the result — so no single-entry edit, swap or drop survives
        :func:`verify_transcript`.
        """
        ring = Keyring(key)
        chain = cls._chain_seed(spec, instance, ring.key_id)
        entries: List[TranscriptEntry] = []
        quoted: dict = {}
        for index, row in enumerate(journal):
            round_index, sender, receiver, tag, bits, payload = row
            if type(payload) is not int:
                payload = _encode_payload(payload)
            content = _entry_bytes(
                index, round_index, sender, receiver, tag, bits, payload,
                quoted,
            )
            link = chain + content
            chain = hashlib.sha256(link).digest()
            entries.append(_recorded_entry(
                index, round_index, sender, receiver, tag, bits, payload,
                ring.tag(sender, link), content,
            ))
        result_bytes = _canonical(result_to_wire(result))
        return cls(
            spec=spec,
            instance=instance,
            entries=tuple(entries),
            result=result,
            key_id=ring.key_id,
            seal=ring.seal(len(entries), chain, result_bytes),
        )

    @staticmethod
    def _chain_seed(spec: RunSpec, instance: InstanceSpec, key_id: str) -> bytes:
        header = {
            "format": TRANSCRIPT_VERSION,
            "spec": runspec_to_wire(spec),
            "instance": instance_to_wire(instance),
            "key_id": key_id,
        }
        return hashlib.sha256(_canonical(header)).digest()

    # -- serialization ------------------------------------------------

    def to_wire(self) -> dict:
        """The transcript as a lossless JSON-safe dict."""
        return {
            "format": self.version,
            "spec": runspec_to_wire(self.spec),
            "instance": instance_to_wire(self.instance),
            "key_id": self.key_id,
            "entries": [entry.to_wire() for entry in self.entries],
            "result": result_to_wire(self.result),
            "seal": self.seal,
        }

    @classmethod
    def from_wire(cls, payload: dict) -> "Transcript":
        """Exact inverse of :meth:`to_wire`; ``ValueError`` if malformed."""
        # Exactly the int: 3.0 == 3, but it is stored, digested and
        # saved as the float it is.
        version = check_int(_field(payload, "format", "transcript"), "format")
        if version != TRANSCRIPT_VERSION:
            raise ValueError(
                "transcript format %r, expected format %d"
                % (version, TRANSCRIPT_VERSION)
            )
        entries = _field(payload, "entries", "transcript")
        if not isinstance(entries, list):
            raise ValueError("transcript: field 'entries' is not a list")
        return cls(
            spec=runspec_from_wire(_field(payload, "spec", "transcript")),
            instance=instance_from_wire(
                _field(payload, "instance", "transcript")
            ),
            entries=tuple(
                TranscriptEntry.from_wire(entry, "entry %d" % position)
                for position, entry in enumerate(entries)
            ),
            result=result_from_wire(_field(payload, "result", "transcript")),
            key_id=_field(payload, "key_id", "transcript"),
            seal=_field(payload, "seal", "transcript"),
            version=version,
        )

    def save(self, path: Union[str, "object"]) -> None:
        """Write the canonical JSON form (the bytes :meth:`digest`
        hashes) and a newline to ``path``."""
        with open(path, "wb") as handle:
            handle.write(self.canonical_bytes() + b"\n")

    @classmethod
    def load(cls, path: Union[str, "object"]) -> "Transcript":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_wire(json.load(handle))

    def canonical_bytes(self) -> bytes:
        """The canonical serialized form: ``_canonical(self.to_wire())``
        byte for byte, each entry written from its stored bytes."""
        try:
            entries = b",".join(
                b'{"auth":%b,%b' % (
                    _json_str(entry.auth).encode(), entry.content_bytes[1:]
                )
                for entry in self.entries
            )
        except TypeError:  # a hostile entry: only the generic encoder is total
            return _canonical(self.to_wire())
        # "entries" sorts first, so the first "[]" is its empty list.
        frame = _canonical(replace(self, entries=()).to_wire())
        return frame.replace(b"[]", b"[%b]" % entries, 1)

    def digest(self) -> str:
        """Stable content digest over the canonical serialized form."""
        return hashlib.sha256(self.canonical_bytes()).hexdigest()

    # -- inspection ---------------------------------------------------

    def journal(self) -> List[tuple]:
        """The journal rows, reconstructed in recorded order.

        Only exact-int payloads are invertible; entries whose payload
        was stored as a ``repr`` marker raise, since replay comparison
        happens in wire form and never needs the original object.
        """
        for entry in self.entries:
            if isinstance(entry.payload, dict):
                raise ValueError(
                    "entry %d payload is non-numeric (%r); compare in"
                    " wire form instead" % (entry.index, entry.payload)
                )
        return [_ROW(entry) for entry in self.entries]

    def verify(self, key: bytes = DEFAULT_KEY) -> VerifyReport:
        """Check every authentication tag and the seal; see
        :func:`verify_transcript`."""
        return verify_transcript(self, key=key)


#: Wire names of an entry's fields, in ``TranscriptEntry`` field order.
_ENTRY_KEYS = ("index", "round", "sender", "receiver", "tag", "bits", "payload", "auth")


def _field(container: Any, name: str, where: str) -> Any:
    """``container[name]`` of a wire form that may be hostile."""
    if not isinstance(container, dict) or name not in container:
        raise ValueError("%s: missing field %r" % (where, name))
    return container[name]


def verify_transcript(
    transcript: Transcript, key: bytes = DEFAULT_KEY
) -> VerifyReport:
    """Recompute the hash chain and check every tag plus the seal.

    Failure modes and how they are localized:

    - payload/field flip at entry *i* → authentication tag mismatch at
      ``failed_index = i``;
    - authentication tags swapped between entries → mismatch at the
      earlier of the two positions;
    - interior entry dropped → stored ``index`` disagrees with the
      position, reported at the drop point;
    - tail entry dropped, or result tampered → seal mismatch
      (``failed_index = None``).

    The walk of the entries is made once per transcript and key (see
    :class:`Transcript`): it is kept with a SHA-256 of the key, never
    with the key.  The seal binds the result, which is a mutable object,
    so it is recomputed on every call.
    """
    ring = Keyring(key)
    if ring.key_id != transcript.key_id:
        return VerifyReport(
            ok=False,
            checked=0,
            reason="key id mismatch: transcript was recorded under %s,"
            " verifier key is %s" % (transcript.key_id, ring.key_id),
        )
    fingerprint = hashlib.sha256(key).digest()
    walked = transcript.__dict__.get("_walked")
    if walked is None or walked[0] != fingerprint:
        walked = (fingerprint, *_walk(
            transcript.entries, ring, Transcript._chain_seed(
                transcript.spec, transcript.instance, ring.key_id
            ),
        ))
        object.__setattr__(transcript, "_walked", walked)
    _, failure, chain = walked
    if failure is not None:
        return failure
    result_bytes = _canonical(result_to_wire(transcript.result))
    expected_seal = ring.seal(len(transcript.entries), chain, result_bytes)
    if not _same_hex(expected_seal, transcript.seal):
        return VerifyReport(
            ok=False,
            checked=len(transcript.entries),
            reason="seal mismatch: entries dropped from the tail or"
            " the recorded result was tampered with",
        )
    return VerifyReport(ok=True, checked=len(transcript.entries))


def _walk(
    entries: tuple, ring: Keyring, chain: bytes
) -> Tuple[Optional[VerifyReport], Optional[bytes]]:
    """Every entry's position and tag along the chain from ``chain``:
    ``(the report of the first broken entry, None)``, or ``(None, the
    chain head)`` when every entry holds."""
    for position, entry in enumerate(entries):
        if entry.index != position:
            return VerifyReport(
                ok=False,
                checked=position,
                failed_index=position,
                reason="entry index %r found at position %d: an entry"
                " was dropped or reordered" % (entry.index, position),
            ), None
        content = entry.content_bytes
        link = None if content is None else chain + content
        if link is None or not _same_hex(
            ring.tag(entry.sender, link), entry.auth
        ):
            return VerifyReport(
                ok=False,
                checked=position,
                failed_index=position,
                reason="authentication tag mismatch at entry %d"
                " (sender %r, round %r, tag %r)"
                % (position, entry.sender, entry.round_index, entry.tag),
            ), None
        chain = hashlib.sha256(link).digest()
    return None, chain


@dataclass
class TranscriptRecorder:
    """Sink passed to ``ConsensusService.run(..., transcript=...)``.

    The service captures one :class:`Transcript` per instance it runs;
    the recorder accumulates them (``transcripts``) and exposes the most
    recent one (:attr:`transcript`) for the common single-run case.
    """

    key: bytes = DEFAULT_KEY
    transcripts: List[Transcript] = field(default_factory=list)

    @property
    def transcript(self) -> Optional[Transcript]:
        return self.transcripts[-1] if self.transcripts else None

    def capture(
        self,
        spec: RunSpec,
        instance: InstanceSpec,
        journal: Sequence[tuple],
        result: ConsensusResult,
    ) -> Transcript:
        recorded = Transcript.record(
            spec, instance, journal, result, key=self.key
        )
        self.transcripts.append(recorded)
        return recorded
