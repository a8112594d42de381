"""Authenticated, append-only consensus transcripts.

A :class:`Transcript` freezes one consensus run into an auditable
artifact: the declarative :class:`~repro.service.spec.RunSpec` /
:class:`~repro.service.spec.InstanceSpec` pair that reproduces it, every
journalled message (a network journal row) in delivery order,
and the full :class:`~repro.core.result.ConsensusResult` (decisions,
per-generation records, meter snapshot).  A sender signs what it sends
in a round, not each message: each (round block, sender) group of
entries carries one HMAC authentication tag under the sender's key over
a running hash chain, and the chain advances once a block, so flipping
a payload, swapping tags between groups, dropping a message, or
truncating the tail all break verification at a localizable position —
the accountability property the pod line of work makes a first-class
consensus feature.

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
from dataclasses import FrozenInstanceError, dataclass, replace
from json.encoder import encode_basestring_ascii as _json_str
from operator import itemgetter
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
#: 4: one tag per (round block, sender) group, not per entry.
TRANSCRIPT_VERSION = 4

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


def _entry_bytes(
    index: int, round_index: int, sender: int, receiver: int, tag: str,
    bits: int, payload: Any, quoted: dict,
) -> bytes:
    """Entry ``index``'s authenticated bytes: ``_canonical`` of
    :meth:`TranscriptEntry.to_wire` byte for byte, written from its
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

    def seal(
        self, entries: int, tags: int, chain: bytes, result_bytes: bytes
    ) -> str:
        """Tail seal binding entry count, tag count, chain head and
        result."""
        mac = hmac.new(self._master, b"repro-audit-seal:", hashlib.sha256)
        mac.update(b"%d:%d:" % (entries, tags))
        mac.update(chain)
        mac.update(hashlib.sha256(result_bytes).digest())
        return mac.hexdigest()


class TranscriptEntry(tuple):
    """One journalled message: one immutable tuple ``(index, round_index,
    sender, receiver, tag, bits, payload, content_bytes)``.

    ``payload`` is stored in wire form (an exact int for symbol
    messages, ``{"repr": ...}`` for anything non-numeric).
    ``content_bytes`` are the authenticated bytes (``_entry_bytes`` of
    the fields), made with the entry: ``None`` when a field is not
    exactly typed, as no tag is valid over such an entry.  The tag that
    covers an entry is its (round block, sender) group's, held by the
    :class:`Transcript`.  The constructor (``from_wire``,
    :meth:`replace`) formats an entry's bytes, or takes them as
    ``formatted``; :meth:`Transcript.record` makes each entry with one
    ``tuple.__new__`` over the bytes it has just formatted.  Equality
    and hashing read the seven fields, not the bytes they spell.
    """

    __slots__ = ()

    def __new__(
        cls, index: int, round_index: int, sender: int, receiver: int,
        tag: str, bits: int, payload: Any, formatted: Optional[bytes] = None,
    ) -> "TranscriptEntry":
        if formatted is None:
            try:
                formatted = _entry_bytes(
                    index, round_index, sender, receiver, tag, bits,
                    payload, {},
                )
            except TypeError:
                pass
        return tuple.__new__(cls, (
            index, round_index, sender, receiver, tag, bits, payload,
            formatted,
        ))

    index = property(itemgetter(0))
    round_index = property(itemgetter(1))
    sender = property(itemgetter(2))
    receiver = property(itemgetter(3))
    tag = property(itemgetter(4))
    bits = property(itemgetter(5))
    payload = property(itemgetter(6))
    content_bytes = property(itemgetter(7))

    def __getnewargs__(self) -> tuple:
        return tuple(self)

    def __setattr__(self, name: str, value: Any) -> None:
        raise FrozenInstanceError("cannot assign to field %r" % name)

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError("cannot delete field %r" % name)

    # An entry equals only an entry: a plain tuple of the same items
    # would otherwise compare equal through tuple's own comparison.
    def __eq__(self, other: object) -> bool:
        return type(other) is TranscriptEntry and self[:7] == other[:7]

    def __ne__(self, other: object) -> bool:
        return not self == other

    def __hash__(self) -> int:
        return hash(self[:7])

    def __repr__(self) -> str:
        return "TranscriptEntry(%s)" % ", ".join(
            "%s=%r" % pair for pair in zip(_ENTRY_FIELDS, self)
        )

    def replace(self, **changes: Any) -> "TranscriptEntry":
        """This entry with ``changes`` to its fields, its bytes
        formatted afresh."""
        fields = dict(zip(_ENTRY_FIELDS, self))
        fields.update(changes)
        return TranscriptEntry(**fields)

    def to_wire(self) -> dict:
        """The entry's fields under their wire names: what its
        ``content_bytes`` spell."""
        return dict(zip(_ENTRY_KEYS, self))

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


#: An entry's field names, in tuple order.
_ENTRY_FIELDS = (
    "index", "round_index", "sender", "receiver", "tag", "bits", "payload",
)
#: An entry's fields in journal-row order, payload in wire form.
_ROW = itemgetter(slice(1, 7))
#: An entry's authenticated bytes.
_CONTENT = itemgetter(7)


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of :func:`verify_transcript`.

    ``failed_index`` localizes the first broken entry, or the first
    entry of the first broken (round block, sender) group; ``None`` with
    ``ok=False`` means the failure is structural (wrong key, a tag list
    that does not match the entries' groups, or a seal mismatch from
    tail truncation / result tampering).
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

    ``entries`` holds one frozen entry per journalled message and
    ``tags`` one ``(round, sender, auth)`` row per (round block, sender)
    group, in the order :func:`verify_transcript` recomputes them
    (:func:`_groups`).  Both are held as tuples, so the walk of the tags
    and chain is a function of the transcript and a key:
    :func:`verify_transcript` keeps it on the transcript (the private
    ``_walked``, under a SHA-256 of the key) and a later check under the
    same key reads it.  The seal, over the result, is checked every
    time.  A transcript made by ``replace``, ``from_wire`` or ``load``
    is a new object and is walked afresh.
    """

    spec: RunSpec
    instance: InstanceSpec
    entries: tuple
    tags: tuple
    result: ConsensusResult
    key_id: str
    seal: str
    version: int = TRANSCRIPT_VERSION

    def __post_init__(self) -> None:
        for name in ("entries", "tags"):
            if type(getattr(self, name)) is not tuple:
                object.__setattr__(self, name, tuple(getattr(self, name)))

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

        Entries are grouped into round blocks (maximal runs of
        consecutive entries that share a round) and, within a block, by
        sender.  Each group's tag is the sender's HMAC over the chain
        head before its block plus the group's entry bytes; the chain
        advances once a block over all its entry bytes, and the seal
        binds the entry count, the tag count, the final chain head and
        the result — so no single-entry edit, swap or drop survives
        :func:`verify_transcript`.
        """
        ring = Keyring(key)
        grouping = _Grouping(cls._chain_seed(spec, instance, ring.key_id))
        group = grouping.add
        entries: List[TranscriptEntry] = []
        quoted: dict = {}
        # One pass: format an entry's bytes, make the entry in one
        # tuple.__new__ and add the bytes to its (round block, sender)
        # group, by the one rule (_Grouping) the verifier applies.
        for index, row in enumerate(journal):
            round_index, sender, receiver, tag, bits, payload = row
            if type(payload) is not int:
                payload = _encode_payload(payload)
            content = _entry_bytes(
                index, round_index, sender, receiver, tag, bits, payload,
                quoted,
            )
            entries.append(tuple.__new__(TranscriptEntry, (
                index, round_index, sender, receiver, tag, bits, payload,
                content,
            )))
            group(index, round_index, sender, content)
        chain = grouping.close()
        tags = tuple(
            (round_index, sender, ring.tag(sender, link))
            for round_index, sender, _, link in grouping.groups
        )
        result_bytes = _canonical(result_to_wire(result))
        return cls(
            spec=spec,
            instance=instance,
            entries=tuple(entries),
            tags=tags,
            result=result,
            key_id=ring.key_id,
            seal=ring.seal(len(entries), len(tags), chain, result_bytes),
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
            "tags": [dict(zip(_TAG_KEYS, row)) for row in self.tags],
            "result": result_to_wire(self.result),
            "seal": self.seal,
        }

    @classmethod
    def from_wire(cls, payload: dict) -> "Transcript":
        """Exact inverse of :meth:`to_wire`; ``ValueError`` if malformed,
        or of another format."""
        # Exactly the int: 4.0 == 4, but it is stored, digested and
        # saved as the float it is.
        version = check_int(_field(payload, "format", "transcript"), "format")
        if version != TRANSCRIPT_VERSION:
            raise ValueError(
                "transcript format %r, expected format %d"
                % (version, TRANSCRIPT_VERSION)
            )
        return cls(
            spec=runspec_from_wire(_field(payload, "spec", "transcript")),
            instance=instance_from_wire(
                _field(payload, "instance", "transcript")
            ),
            entries=tuple(
                TranscriptEntry.from_wire(entry, "entry %d" % position)
                for position, entry in enumerate(_list(payload, "entries"))
            ),
            tags=tuple(
                tuple(
                    _field(row, name, "tag %d" % position)
                    for name in _TAG_KEYS
                )
                for position, row in enumerate(_list(payload, "tags"))
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
        byte for byte, the entries one join of their stored bytes."""
        try:
            entries = b",".join(map(_CONTENT, self.entries))
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
        return list(map(_ROW, self.entries))

    def verify(self, key: bytes = DEFAULT_KEY) -> VerifyReport:
        """Check every authentication tag and the seal; see
        :func:`verify_transcript`."""
        return verify_transcript(self, key=key)


#: Wire names of an entry's fields, in ``TranscriptEntry`` field order.
_ENTRY_KEYS = ("index", "round", "sender", "receiver", "tag", "bits", "payload")
#: Wire names of a tag row's fields, in row order.
_TAG_KEYS = ("round", "sender", "auth")


def _field(container: Any, name: str, where: str) -> Any:
    """``container[name]`` of a wire form that may be hostile."""
    if not isinstance(container, dict) or name not in container:
        raise ValueError("%s: missing field %r" % (where, name))
    return container[name]


def _list(payload: Any, name: str) -> list:
    """The transcript field ``name``, which must be a list."""
    value = _field(payload, name, "transcript")
    if not isinstance(value, list):
        raise ValueError("transcript: field %r is not a list" % name)
    return value


def verify_transcript(
    transcript: Transcript, key: bytes = DEFAULT_KEY
) -> VerifyReport:
    """Recompute the hash chain and check every tag plus the seal.

    Failure modes and how they are localized:

    - payload/field flip at entry *i* → authentication tag mismatch at
      the first entry of *i*'s (round block, sender) group;
    - authentication tags swapped between groups → mismatch at the
      earlier group's first entry;
    - interior entry dropped → stored ``index`` disagrees with the
      position, reported at the drop point;
    - a tag row added or removed, or a tail block dropped → the tag
      list does not match the entries' groups (``failed_index = None``);
    - tail entry dropped → its group's tag, or the tag list, fails;
    - result tampered → seal mismatch (``failed_index = None``).

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
            transcript.entries, transcript.tags, ring,
            Transcript._chain_seed(
                transcript.spec, transcript.instance, ring.key_id
            ),
        ))
        object.__setattr__(transcript, "_walked", walked)
    _, failure, chain = walked
    if failure is not None:
        return failure
    result_bytes = _canonical(result_to_wire(transcript.result))
    expected_seal = ring.seal(
        len(transcript.entries), len(transcript.tags), chain, result_bytes
    )
    if not _same_hex(expected_seal, transcript.seal):
        return VerifyReport(
            ok=False,
            checked=len(transcript.entries),
            reason="seal mismatch: entries dropped from the tail or"
            " the recorded result was tampered with",
        )
    return VerifyReport(ok=True, checked=len(transcript.entries))


def _groups(
    entries: Sequence[TranscriptEntry], chain: bytes
) -> Tuple[Optional[VerifyReport], list, bytes]:
    """The (round block, sender) groups of ``entries`` along the chain
    from ``chain`` (:class:`_Grouping`): ``(None, groups, the chain
    head)``, or ``(the report of the first broken entry, [], b"")``.

    An entry is broken when its ``index`` is not its position (reported
    there) or it has no authenticated bytes (reported at its group's
    first entry; an entry whose ``sender`` is not an int is a group of
    its own)."""
    grouping = _Grouping(chain)
    group = grouping.add
    for position, entry in enumerate(entries):
        index, round_index, sender, _, _, _, _, content = entry
        if index != position:
            return VerifyReport(
                ok=False,
                checked=position,
                failed_index=position,
                reason="entry index %r found at position %d: an entry"
                " was dropped or reordered" % (index, position),
            ), [], b""
        if type(sender) is not int:
            sender = (position,)
        first = group(position, round_index, sender, content)
        if content is None:
            return _tag_mismatch(first, entry), [], b""
    chain = grouping.close()
    return None, grouping.groups, chain


class _Grouping:
    """The one rule that groups entries for tags, fed an entry at a time
    by :meth:`Transcript.record` and :func:`_groups` alike.

    A block is a maximal run of consecutive entries that share
    ``round``; its groups come in the order of their senders' first
    entries, and the chain advances once a block, over all its entry
    bytes.  ``groups`` holds one ``(round, sender, first entry index,
    chain before the block + the group's entry bytes)`` a group, in tag
    order."""

    __slots__ = ("groups", "chain", "_round", "_block", "_senders")

    def __init__(self, chain: bytes) -> None:
        self.groups: list = []
        self.chain = chain
        self._round: Any = None
        self._block: list = []
        self._senders: dict = {}

    def add(self, position: int, round_index: Any, sender: Any,
            content: Optional[bytes]) -> int:
        """Add entry ``position``'s bytes to its group; the group's first
        entry index."""
        if not self._block or round_index != self._round:
            self.close()
            self._round = round_index
        group = self._senders.get(sender)
        if group is None:
            group = self._senders[sender] = (position, [])
        group[1].append(content)
        self._block.append(content)
        return group[0]

    def close(self) -> bytes:
        """Close the open block, if any; the chain head after it."""
        if self._block:
            chain = self.chain
            for sender, (first, parts) in self._senders.items():
                self.groups.append(
                    (self._round, sender, first, chain + b"".join(parts))
                )
            self.chain = hashlib.sha256(chain + b"".join(self._block)).digest()
            self._block = []
            self._senders = {}
        return self.chain


def _tag_mismatch(first: int, entry: TranscriptEntry) -> VerifyReport:
    """The report of a broken group, at its first entry ``first``."""
    return VerifyReport(
        ok=False,
        checked=first,
        failed_index=first,
        reason="authentication tag mismatch at the group of entry %d"
        " (sender %r, round %r)" % (first, entry.sender, entry.round_index),
    )


def _walk(
    entries: tuple, tags: tuple, ring: Keyring, chain: bytes
) -> Tuple[Optional[VerifyReport], Optional[bytes]]:
    """Every entry's position and every group's tag along the chain from
    ``chain``: ``(the report of the first broken entry or group, or of a
    tag list that does not match the groups, None)``, or ``(None, the
    chain head)`` when everything holds."""
    failure, groups, chain = _groups(entries, chain)
    if failure is not None:
        return failure, None
    if len(tags) != len(groups) or any(
        type(row[0]) is not int or type(row[1]) is not int
        or row[:2] != group[:2]
        for row, group in zip(tags, groups)
    ):
        return VerifyReport(
            ok=False,
            checked=0,
            reason="the tag list does not match the entries' (round"
            " block, sender) groups: a tag row was added, dropped or"
            " reordered, or entries were dropped from the tail",
        ), None
    for (_, sender, first, link), row in zip(groups, tags):
        if not _same_hex(ring.tag(sender, link), row[2]):
            return _tag_mismatch(first, entries[first]), None
    return None, chain
