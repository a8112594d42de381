"""Differential audit suite: record → verify → replay → prove.

The accountability harness of ROADMAP item 5.  Every canonical attack
at n ∈ {4, 7, 31} is recorded to an authenticated transcript, verified
tag by tag, replayed on the forced-scalar reference engine (journal and
result byte-identical), and proven — the culpability proof must name
*exactly* the injected faulty set.  Alongside: hypothesis round-trip
properties for the serialization, a tamper-localization fuzz over
single-entry edits, journal-materialization equivalence across engine
lanes, the ``charge_round`` recording-fallback regression, and the
serving-tier / CLI opt-ins.  Format 4's bytes are pinned: the entry
formatter against ``json.dumps`` and the pre-keyed tags against
``hmac.digest`` as properties, a golden file that recording the same
run again must reproduce, and a table of hostile transcripts that must
fail typed; the golden format-3 file is refused by its format.
"""

from __future__ import annotations

import dataclasses
import hashlib
import hmac
import itertools
import json
import pickle
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.audit import (
    DEFAULT_KEY,
    Keyring,
    Transcript,
    compare,
    prove,
    replay,
    verify_transcript,
)
from repro.audit import transcript as transcript_module
from repro.audit.replay import DeviationRecorder, _journal_divergence
from repro.audit.transcript import (
    _ROW, TranscriptEntry, _canonical, _entry_bytes,
)
from repro.cli import main as cli_main
from repro.core.config import ConsensusConfig
from repro.core import MultiValuedBroadcast
from repro.core.consensus import MultiValuedConsensus
from repro.core.result import ConsensusResult
from repro.network.metrics import MeterSnapshot
from repro.network.simulator import NetworkError, SyncNetwork
from repro.processors import (
    ATTACKS,
    FAULT_GRID_ATTACKS,
    Adversary,
    FalseDetectionAdversary,
    SymbolCorruptionAdversary,
)
from repro.processors.adversary import GlobalView
from repro.service import ConsensusService, InstanceSpec, RunSpec
from repro.service import cohort as cohort_module
from repro.service import service as service_module
from repro.service.serving.sdk import serve_background

VALUE = 0xDEADBEEF
SIZES = (4, 7, 31)

#: slow_bleed and random default to registry faulty sets whose members
#: need not all act within a short run's generation budget; pinning one
#: pid keeps the proof-exactness assertion meaningful.
_PINNED = {"slow_bleed": (0,), "random": (0,)}


def _case_faulty(attack):
    return _PINNED.get(attack)


GRID = [
    (n, attack) for n in SIZES for attack in sorted(ATTACKS)
]


# -- the headline differential suite ---------------------------------------


@pytest.mark.parametrize(
    "n,attack", GRID, ids=["n%d-%s" % (n, a) for n, a in GRID]
)
def test_record_verify_replay_prove(n, attack):
    """Every canonical attack, every size: the transcript verifies, the
    scalar replay is byte-identical, and the proof names exactly the
    injected faulty pids."""
    spec = RunSpec(
        n=n, l_bits=64, attack=attack, faulty=_case_faulty(attack)
    )
    service = ConsensusService(spec)
    result, transcript = service.record(VALUE)

    report = verify_transcript(transcript)
    assert report.ok, report.reason
    assert report.checked == len(transcript.entries)

    rep = replay(transcript)
    assert rep.journal_match, rep.first_journal_divergence
    assert rep.divergence.identical, rep.divergence.first
    assert rep.result.decisions == result.decisions
    assert rep.result.meter == result.meter

    proof = prove(transcript)
    injected = sorted(spec.make_adversary().faulty)
    assert list(proof.culprits) == injected
    assert list(proof.claimed_faulty) == injected
    assert proof.ok
    assert proof.transcript_digest == transcript.digest()


def test_full_width_value_at_l_2_16(tmp_path):
    """A full-width 2^16-bit value is ~19.7k decimal digits, past the
    interpreter's 4300-digit int<->str cap (transcript format 1 could
    not record it); the hex value fields carry it through record ->
    save -> load -> verify -> prove."""
    l_bits = 1 << 16
    value = random.Random(16).getrandbits(l_bits) | 1 << (l_bits - 1)
    spec = RunSpec(n=4, l_bits=l_bits, attack="crash")
    result, recorded = ConsensusService(spec).record(value)
    assert result.value == value
    path = tmp_path / "transcript.json"
    recorded.save(path)
    transcript = Transcript.load(path)
    assert transcript.digest() == recorded.digest()
    assert transcript.result == result
    assert verify_transcript(transcript).ok
    proof = prove(transcript)
    assert proof.ok
    assert list(proof.culprits) == sorted(spec.make_adversary().faulty)


def test_other_transcript_formats_are_refused():
    _, transcript = ConsensusService(RunSpec(n=4, l_bits=32)).record(VALUE)
    for version in (2, 3, 5):
        wire = transcript.to_wire()
        wire["format"] = version
        with pytest.raises(
            ValueError,
            match="transcript format %d, expected format 4" % version,
        ):
            Transcript.from_wire(wire)


def test_audited_service_fixture(audited_service):
    """The reusable fixture certifies runs end to end and still returns
    byte-identical results."""
    audited = audited_service(RunSpec(n=7, l_bits=64, attack="corrupt"))
    result = audited.run(VALUE)
    reference = ConsensusService(
        RunSpec(n=7, l_bits=64, attack="corrupt")
    ).run(VALUE)
    assert compare(result, reference).identical


@pytest.mark.parametrize(
    "extra, attack",
    [
        (dict(backend="mostefaoui", coin_seed=17), "random"),
    ],
    ids=["coin_seed"],
)
def test_record_refuses_a_config_its_spec_cannot_rebuild(
    extra, attack, monkeypatch
):
    """A transcript carries the service's ``RunSpec`` and ``prove()``
    rebuilds the deployment from it: a config setting what no spec
    field carries recorded, verified and then could never prove.  The
    recording door refuses it before any engine exists, hence before
    any traffic."""
    service = ConsensusService(
        ConsensusConfig.create(n=4, t=1, l_bits=16, **extra)
    )
    engines = []
    make_engine = service._make_engine

    def counting(*args, **kwargs):
        engines.append(make_engine(*args, **kwargs))
        return engines[-1]

    monkeypatch.setattr(service, "_make_engine", counting)
    with pytest.raises(ValueError, match="its RunSpec describes"):
        service.record(0xBEEF, attack=attack, seed=3)
    assert engines == []
    assert service.run(0xBEEF, attack=attack, seed=3).error_free
    assert len(engines) == 1

    plain = {k: v for k, v in extra.items() if k == "backend"}
    twin = ConsensusService(ConsensusConfig.create(n=4, t=1, l_bits=16, **plain))
    _, transcript = twin.record(0xBEEF, attack=attack, seed=3)
    assert verify_transcript(transcript).ok
    assert prove(transcript).ok


def test_wrong_key_is_localized_before_tags():
    service = ConsensusService(RunSpec(n=4, l_bits=16))
    _, transcript = service.record(0xBEEF)
    report = verify_transcript(transcript, key=b"some-other-key")
    assert not report.ok
    assert report.failed_index is None
    assert "key id" in report.reason


# -- satellite: hypothesis serialization properties ------------------------


_SPEC = RunSpec(n=4, l_bits=16)
_INSTANCE = InstanceSpec(inputs=(7, 7, 7, 7))
_RESULT = ConsensusResult(
    decisions={pid: 7 for pid in range(4)},
    generation_results=[],
    meter=MeterSnapshot(
        bits_by_tag={"gen0.matching.symbols": 48},
        messages_by_tag={"gen0.matching.symbols": 12},
    ),
    diagnosis_count=0,
    default_used=False,
    honest_inputs_equal=True,
    common_input=7,
)

#: Payloads spanning the int64 symbol lane and the object-dtype lane
#: (multi-hundred-bit super-symbols JSON must keep exact).
_payloads = st.one_of(
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=(1 << 200) - 1),
)


@st.composite
def _journals(draw):
    """Network journal rows ``(round, sender, receiver, tag, bits,
    payload)``."""
    count = draw(st.integers(min_value=0, max_value=12))
    rows = []
    for i in range(count):
        sender = draw(st.integers(min_value=0, max_value=3))
        receiver = (sender + draw(st.integers(min_value=1, max_value=3))) % 4
        rows.append((
            draw(st.integers(min_value=0, max_value=3)),
            sender,
            receiver,
            draw(st.sampled_from(
                ["gen0.matching.symbols", "gen1.matching.symbols"]
            )),
            draw(st.integers(min_value=0, max_value=4096)),
            draw(_payloads),
        ))
    return rows


@settings(max_examples=40, deadline=None)
@given(journal=_journals())
def test_transcript_roundtrip(journal):
    """Arbitrary journals — bigint payloads, object-dtype-lane widths,
    the empty journal — survive record → wire → JSON → load exactly."""
    transcript = Transcript.record(_SPEC, _INSTANCE, journal, _RESULT)
    wire = json.loads(json.dumps(transcript.to_wire()))
    loaded = Transcript.from_wire(wire)
    assert loaded == transcript
    assert loaded.journal() == list(journal)
    assert verify_transcript(loaded).ok


@settings(max_examples=40, deadline=None)
@given(journal=_journals())
def test_digest_stable_across_load_save_cycles(journal):
    transcript = Transcript.record(_SPEC, _INSTANCE, journal, _RESULT)
    digest = transcript.digest()
    cycled = transcript
    for _ in range(3):
        cycled = Transcript.from_wire(
            json.loads(json.dumps(cycled.to_wire()))
        )
        assert cycled.digest() == digest


def test_save_load_file_roundtrip(tmp_path):
    service = ConsensusService(RunSpec(n=7, l_bits=64, attack="corrupt"))
    _, transcript = service.record(VALUE)
    path = tmp_path / "transcript.json"
    transcript.save(path)
    loaded = Transcript.load(path)
    assert loaded == transcript
    assert loaded.digest() == transcript.digest()
    assert verify_transcript(loaded).ok


# -- the bytes are pinned, not trusted --------------------------------------

_field_ints = st.integers(min_value=-(1 << 70), max_value=1 << 70)
#: Quotes, backslashes, non-ASCII and control characters included.
_texts = st.text(max_size=12)
_wire_payloads = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(1 << 70), max_value=1 << 4100),
    st.builds(lambda text: {"repr": text}, _texts),
)
_exact_entries = st.builds(
    TranscriptEntry,
    index=_field_ints, round_index=_field_ints, sender=_field_ints,
    receiver=_field_ints, tag=_texts, bits=_field_ints,
    payload=_wire_payloads,
)
#: What a hostile file can put where an int belongs; such an entry has
#: no authenticated bytes, but it still has a digest.
_inexact_entries = st.builds(
    TranscriptEntry,
    index=st.booleans(), round_index=st.floats(allow_nan=False),
    sender=st.none(), receiver=_texts, tag=st.integers(), bits=_field_ints,
    payload=_wire_payloads,
)
#: Tag rows, exactly typed or as a hostile file can spell them.
_tag_rows = st.tuples(
    st.one_of(_field_ints, st.floats(allow_nan=False), st.none()),
    st.one_of(_field_ints, _texts),
    st.one_of(_texts, st.none(), st.integers()),
)


@settings(max_examples=200, deadline=None)
@given(entry=_exact_entries)
def test_entry_formatter_is_canonical_json(entry):
    """The one producer of an entry's authenticated bytes writes what
    ``json.dumps`` wrote before it (transcript formats 3 and 4 alike),
    and an entry stores those bytes."""
    formatted = _entry_bytes(
        entry.index, entry.round_index, entry.sender, entry.receiver,
        entry.tag, entry.bits, entry.payload, {},
    )
    assert entry.content_bytes == formatted == json.dumps(
        entry.to_wire(), sort_keys=True, separators=(",", ":")
    ).encode()


@settings(max_examples=100, deadline=None)
@given(entry=_inexact_entries)
def test_an_inexact_entry_stores_no_bytes(entry):
    """No tag is valid over an entry the formatter refuses."""
    assert entry.content_bytes is None


@settings(max_examples=60, deadline=None)
@given(
    entries=st.lists(st.one_of(_exact_entries, _inexact_entries), max_size=5),
    tags=st.lists(_tag_rows, max_size=3),
)
def test_digest_is_the_hash_of_the_canonical_wire_form(entries, tags):
    transcript = Transcript(
        spec=_SPEC, instance=_INSTANCE, entries=tuple(entries),
        tags=tuple(tags), result=_RESULT, key_id="0123456789abcdef",
        seal="\"seal\\",
    )
    assert transcript.digest() == hashlib.sha256(
        _canonical(transcript.to_wire())
    ).hexdigest()


def _bytes_of_sizes(*sizes):
    return st.sampled_from(sizes).flatmap(
        lambda size: st.binary(min_size=size, max_size=size)
    )


@settings(max_examples=120, deadline=None)
@given(
    master=_bytes_of_sizes(1, 32, 64, 65, 200),
    pid=st.sampled_from([0, 14, 1 << 40]),
    link=_bytes_of_sizes(0, 1, 64, 4096),
)
def test_prekeyed_tag_is_the_hmac(master, pid, link):
    """A tag from ``pid``'s pre-keyed pad states is the one-shot HMAC of
    ``pid``'s key, byte for byte, the first time and from the cache."""
    ring = Keyring(master)
    expected = hmac.digest(ring.key_for(pid), link, "sha256").hex()
    assert ring.tag(pid, link) == expected
    assert ring.tag(pid, link) == expected


@pytest.mark.parametrize("field", ["round_index", "sender", "receiver", "bits"])
@pytest.mark.parametrize("value", [True, 1.0])
def test_record_refuses_an_inexact_integer_field(field, value):
    """``%d`` would write ``True`` and ``1.0`` as ``1`` where the
    parent's ``json.dumps`` wrote ``true`` and ``1.0``: refused up front
    (the one property this formatter gives up)."""
    fields = dict(round_index=1, sender=1, receiver=0,
                  tag="gen0.matching.symbols", bits=1, payload=3)
    if field == "receiver":
        fields["sender"] = 0
    fields[field] = value
    row = tuple(fields.values())
    with pytest.raises(TypeError, match="not an int"):
        Transcript.record(_SPEC, _INSTANCE, [row], _RESULT)


GOLDEN_V3 = Path(__file__).parent / "data" / "transcript_v3_n4_crash.json"
GOLDEN = Path(__file__).parent / "data" / "transcript_v4_n4_crash.json"
GOLDEN_DIGEST = (
    "b3749e14cefe14c91b520f953da88cf5e3355639f97e43b99338452c6d6b984b"
)


def test_golden_format_3_transcript():
    """The format-3 file of the same run (saved by the commit before
    the entry formatter existed) is refused by its format, typed: no
    walk of per-entry tags is kept beside format 4's."""
    assert json.loads(GOLDEN_V3.read_text())["format"] == 3
    with pytest.raises(
        ValueError, match="transcript format 3, expected format 4"
    ):
        Transcript.load(GOLDEN_V3)


def test_golden_format_4_transcript(tmp_path):
    """``repro-sim audit record --n 4 --l-bits 16 --attack crash --seed
    11 --value 0xBEEF`` saved in format 4: it loads, verifies (18
    entries under 6 tags: two round blocks of three senders), convicts
    exactly its faulty pid, journals what the format-3 file journals,
    and recording the same run again saves the same bytes."""
    transcript = Transcript.load(GOLDEN)
    assert transcript.version == 4
    assert transcript.digest() == GOLDEN_DIGEST
    report = verify_transcript(transcript)
    assert report.ok and report.checked == len(transcript.entries) == 18
    assert [row[:2] for row in transcript.tags] == [
        (0, 1), (0, 2), (0, 0), (1, 1), (1, 2), (1, 0),
    ]
    v3_entries = json.loads(GOLDEN_V3.read_text())["entries"]
    assert [entry.to_wire() for entry in transcript.entries] == [
        {name: value for name, value in entry.items() if name != "auth"}
        for entry in v3_entries
    ]
    proof = prove(transcript)
    assert proof.ok
    assert proof.culprits == proof.claimed_faulty == (3,)
    assert proof.transcript_digest == GOLDEN_DIGEST

    again = tmp_path / "again.json"
    assert cli_main([
        "audit", "record", "--n", "4", "--l-bits", "16", "--attack",
        "crash", "--seed", "11", "--value", "0xBEEF", "--out", str(again),
    ]) == 0
    assert again.read_bytes() == GOLDEN.read_bytes()
    resaved = tmp_path / "resaved.json"
    transcript.save(resaved)
    assert resaved.read_bytes() == GOLDEN.read_bytes()


def _respell(text):
    def edit(wire):
        wire["instance"]["values"] = wire["result"]["values"] = [text]
    return edit


def _bool_index(wire):
    wire["instance"]["inputs"][0] = False


#: Edits ``int(text, 16)`` and a plain ``isinstance(x, int)`` check
#: would read as the golden file's own value and index.
NON_CANONICAL = {
    "prefix": _respell("0xbeef"),
    "upper-case": _respell("BEEF"),
    "leading-zero": _respell("0beef"),
    "sign": _respell("+beef"),
    "underscore": _respell("be_ef"),
    "whitespace": _respell(" beef"),
    "json-false-index": _bool_index,
}


@pytest.mark.parametrize("edit", sorted(NON_CANONICAL))
def test_non_canonical_golden_transcript_is_refused(edit):
    """A value has one spelling and an index is an exact int: any other
    spelling of the golden file's ``beef`` (or ``false`` for its index
    0) is a ``ValueError``, never the same document under a second
    spelling."""
    wire = json.loads(GOLDEN.read_text())
    assert Transcript.from_wire(wire).digest() == GOLDEN_DIGEST
    NON_CANONICAL[edit](wire)
    with pytest.raises(ValueError):
        Transcript.from_wire(wire)


# -- satellite: single-entry tamper localization fuzz ----------------------


def _group_first(entries, index):
    """The first entry of entry ``index``'s (round block, sender) group,
    found by reading the block backwards from ``index``."""
    entry = entries[index]
    first = index
    for position in range(index - 1, -1, -1):
        if entries[position].round_index != entry.round_index:
            break
        if entries[position].sender == entry.sender:
            first = position
    return first


def _tag_firsts(entries):
    """Each tag row's first entry, in tag order: a group's first entries
    ascend within a block and from block to block."""
    return [
        index for index in range(len(entries))
        if _group_first(entries, index) == index
    ]


def _tamper(transcript, wire, rng):
    """Apply one random edit to ``wire``; returns (mode, the failed_index
    verification must report: an entry, or None for a tag list that no
    longer matches the groups)."""
    entries = transcript.entries
    firsts = _tag_firsts(entries)
    index = rng.randrange(len(entries))
    mode = rng.choice(["flip", "swap", "drop"])
    if mode == "flip":
        payload = wire["entries"][index]["payload"]
        wire["entries"][index]["payload"] = (
            payload + 1 if isinstance(payload, int) else 1
        )
        return mode, _group_first(entries, index)
    if mode == "swap":
        row = rng.randrange(len(firsts) - 1)
        other = rng.randrange(row + 1, len(firsts))
        tags = wire["tags"]
        tags[row]["auth"], tags[other]["auth"] = (
            tags[other]["auth"], tags[row]["auth"]
        )
        return mode, firsts[row]
    del wire["entries"][index]
    if index < len(entries) - 1:
        return mode, index
    # The tail entry: its group's tag fails, or the group is gone.
    first = _group_first(entries, index)
    return mode, None if first == index else first


FUZZ_CASES = [
    (4, "crash", 0),
    (4, "random", 1),
    (7, "corrupt", 2),
    (7, "equivocate", 3),
    (7, "random", 4),
    (7, "trust_poison", 5),
]


@pytest.mark.parametrize(
    "n,attack,seed",
    FUZZ_CASES,
    ids=["n%d-%s-s%d" % case for case in FUZZ_CASES],
)
def test_tampering_is_detected_and_localized(n, attack, seed):
    """Any single journal-entry edit fails verification where it stands:
    a payload flip at its (round block, sender) group's first entry, an
    auth swap between two groups at the earlier group, an interior drop
    at its exact index; a dropped tail entry at its group, or as a tag
    list that no longer matches the groups.  A tag row added or removed
    and a dropped tail block are such structural failures."""
    spec = RunSpec(
        n=n, l_bits=64, attack=attack, seed=seed,
        faulty=_case_faulty(attack),
    )
    result, transcript = ConsensusService(spec).record(VALUE)
    assert transcript.entries, "fuzz case produced an empty journal"
    rng = random.Random((n, attack, seed).__repr__())
    for trial in range(12):
        wire = transcript.to_wire()
        mode, expected = _tamper(transcript, wire, rng)
        report = verify_transcript(Transcript.from_wire(wire))
        assert not report.ok, mode
        assert report.failed_index == expected, (mode, expected, report)
        if expected is None:
            assert "tag list" in report.reason
    last_round = transcript.entries[-1].round_index
    tail = sum(
        1 for _ in itertools.takewhile(
            lambda entry: entry.round_index == last_round,
            reversed(transcript.entries),
        )
    )
    for edit in [
        lambda wire: wire["tags"].append(dict(wire["tags"][-1])),
        lambda wire: wire["tags"].pop(rng.randrange(len(wire["tags"]))),
        lambda wire: wire["entries"].__delitem__(slice(-tail, None)),
    ]:
        wire = transcript.to_wire()
        edit(wire)
        report = verify_transcript(Transcript.from_wire(wire))
        assert (report.ok, report.failed_index) == (False, None)
        assert "tag list" in report.reason
    # Type swaps JSON can express and ``==`` cannot see: each field keeps
    # its value and changes its type, and must fail at its group (a
    # ``%d`` formatter alone would print the same bytes and verify).
    entries = transcript.to_wire()["entries"]
    symbol = next(
        (e["index"] for e in entries if e["payload"] in (0, 1)), None
    )
    for field, index, swap in [
        ("sender", 0, float), ("bits", 0, float), ("index", 1, bool),
        ("payload", symbol, bool),
    ]:
        if index is None:
            continue  # no 0/1 symbol in this journal
        wire = transcript.to_wire()
        entry = wire["entries"][index]
        entry[field] = swap(entry[field])
        assert entry[field] == entries[index][field]
        report = verify_transcript(Transcript.from_wire(wire))
        first = _group_first(transcript.entries, index)
        assert (report.ok, report.checked, report.failed_index) == (
            False, first, first
        ), (field, report)


#: The edits of an entry field ``test_every_single_entry_edit_fails``
#: makes: another value of the same type, or of another.
_EDITS = {
    "index": [lambda v: v + 1, lambda v: v - 1, float],
    "round": [lambda v: v + 1, lambda v: v - 1, float, str],
    "sender": [lambda v: v + 1, lambda v: v - 1, float, str],
    "receiver": [lambda v: v + 1, float],
    "tag": [lambda v: v + "x", lambda v: None],
    "bits": [lambda v: v + 1, float],
    "payload": [
        lambda v: v + 1 if isinstance(v, int) else 1, lambda v: str(v),
    ],
}


@pytest.mark.parametrize("n,attack", [(4, "crash"), (7, "corrupt")])
def test_every_single_entry_edit_fails(n, attack):
    """Every edit of every field of every entry of a small transcript,
    and every entry's drop, fails verification, never later than the
    edited entry."""
    _, transcript = ConsensusService(
        RunSpec(n=n, l_bits=16, attack=attack)
    ).record(0xBEEF)
    base = transcript.to_wire()
    edits = 0
    for position in range(len(base["entries"])):
        for field, changes in _EDITS.items():
            for change in changes:
                wire = json.loads(json.dumps(base))
                entry = wire["entries"][position]
                entry[field] = change(entry[field])
                report = verify_transcript(Transcript.from_wire(wire))
                assert not report.ok, (position, field, entry[field])
                assert report.failed_index is None or (
                    report.failed_index <= position
                ), (position, field, report)
                edits += 1
        wire = json.loads(json.dumps(base))
        del wire["entries"][position]
        assert not verify_transcript(Transcript.from_wire(wire)).ok
    assert edits == len(base["entries"]) * sum(map(len, _EDITS.values()))


def _set_entry(index, field, value):
    def edit(wire):
        wire["entries"][index][field] = value
    return edit


def _set_tag(index, field, value):
    def edit(wire):
        wire["tags"][index][field] = value
    return edit


def _set(field, value):
    def edit(wire):
        wire[field] = value
    return edit


def _swap_tag_rows(wire):
    wire["tags"][0], wire["tags"][1] = wire["tags"][1], wire["tags"][0]


#: (edit, outcome): an int is the entry ``verify`` must fail at (a tag
#: row's group starts there: row 2 is sender 0's group of round 0, from
#: entry 2; entry 3 is in sender 2's group from entry 1), "seal" a seal
#: mismatch, "tags" a tag list that does not match the entries' groups,
#: any other string the ``ValueError`` ``from_wire`` must raise.  The
#: format-3 rows that ``TypeError`` or ``KeyError`` escaped from before
#: the verifier and the loader were total are kept, restated for tag
#: rows.
HOSTILE = {
    "auth-non-ascii": (_set_tag(2, "auth", "\u00e9" * 64), 2),
    "auth-null": (_set_tag(2, "auth", None), 2),
    "auth-number": (_set_tag(2, "auth", 7), 2),
    "sender-string": (_set_entry(3, "sender", "1"), 3),
    "sender-null": (_set_entry(3, "sender", None), 3),
    "tag-number": (_set_entry(3, "tag", 5), 1),
    "tag-list": (_set_entry(3, "tag", ["gen0"]), 1),
    "index-string": (_set_entry(1, "index", "1"), 1),
    "seal-non-ascii": (_set("seal", "\u00e9" * 64), "seal"),
    "seal-null": (_set("seal", None), "seal"),
    "seal-number": (_set("seal", 3), "seal"),
    "tag-round-float": (_set_tag(0, "round", 0.0), "tags"),
    "tag-sender-string": (_set_tag(0, "sender", "1"), "tags"),
    "tag-rows-reordered": (_swap_tag_rows, "tags"),
    "tag-row-added": (lambda wire: wire["tags"].append(wire["tags"][0]), "tags"),
    "tag-row-dropped": (lambda wire: wire["tags"].pop(), "tags"),
    "entry-field-missing": (
        lambda wire: wire["entries"][4].pop("bits"), "entry 4.*'bits'",
    ),
    "entry-is-a-list": (
        lambda wire: wire["entries"].__setitem__(4, [4, 0, 1, 2]),
        "entry 4.*'index'",
    ),
    "entries-is-an-object": (_set("entries", {"0": {}}), "'entries'"),
    "entries-is-null": (_set("entries", None), "'entries'"),
    "entries-missing": (lambda wire: wire.pop("entries"), "'entries'"),
    "tag-field-missing": (
        lambda wire: wire["tags"][1].pop("auth"), "tag 1.*'auth'",
    ),
    "tag-is-a-list": (
        lambda wire: wire["tags"].__setitem__(1, [0, 2, "00"]),
        "tag 1.*'round'",
    ),
    "tags-is-null": (_set("tags", None), "'tags'"),
    "tags-missing": (lambda wire: wire.pop("tags"), "'tags'"),
    # 4.0 == 4, but a float format is stored: it verified and proved,
    # while its digest and saved bytes were another document's.
    "format-float": (_set("format", 4.0), r"format 4\.0"),
}


@pytest.mark.parametrize("row", sorted(HOSTILE))
def test_hostile_transcripts_fail_typed(row):
    """A hostile file fails verification or loading; it does not crash
    the verifier, and the verifier still passes a valid transcript
    afterwards."""
    edit, outcome = HOSTILE[row]
    _, transcript = ConsensusService(
        RunSpec(n=4, l_bits=16, attack="crash")
    ).record(0xBEEF)
    wire = transcript.to_wire()
    edit(wire)
    if isinstance(outcome, str) and outcome not in ("seal", "tags"):
        with pytest.raises(ValueError, match=outcome):
            Transcript.from_wire(wire)
    else:
        hostile = Transcript.from_wire(wire)
        report = verify_transcript(hostile)
        assert not report.ok
        if outcome == "seal":
            assert report.failed_index is None and "seal" in report.reason
            assert report.checked == len(transcript.entries)
        elif outcome == "tags":
            assert (report.checked, report.failed_index) == (0, None)
            assert "tag list" in report.reason
        else:
            assert (report.checked, report.failed_index) == (outcome, outcome)
        # prove() verifies for itself and has a digest to report.
        proof = prove(hostile)
        assert not proof.verified and not proof.ok
        assert proof.transcript_digest == hashlib.sha256(
            _canonical(wire)
        ).hexdigest()
    assert verify_transcript(transcript).ok


def test_result_tampering_breaks_the_seal():
    service = ConsensusService(RunSpec(n=4, l_bits=16, attack="crash"))
    _, transcript = service.record(0xBEEF)
    wire = transcript.to_wire()
    assert wire["result"]["values"] == ["beef"]
    wire["result"]["values"][0] = "3039"  # the one agreed value, wire v3
    report = verify_transcript(Transcript.from_wire(wire))
    assert not report.ok
    assert report.failed_index is None
    assert "seal" in report.reason


# -- satellite: journal-materialization equivalence ------------------------


def cohort_runs(monkeypatch):
    """The engines every service from here on runs on the cohort lane
    (:func:`~repro.service.cohort.run_cohort_instance`), in order,
    whether a batch or a one-shot engine reaches it."""
    runs = []
    original = service_module.run_cohort_instance

    def spy(engine, *args):
        runs.append(engine)
        return original(engine, *args)

    for module in (service_module, cohort_module):
        monkeypatch.setattr(module, "run_cohort_instance", spy)
    return runs


@pytest.mark.parametrize("attack", sorted(ATTACKS))
def test_journal_equivalence_across_engine_lanes(attack, monkeypatch):
    """A scalar engine and the service's recording door leave
    byte-identical journals (not just bits and decisions) on one spec;
    a recording never enters the cohort engine, and its result equals
    the batch's (``run_many``)."""
    spec = RunSpec(n=7, l_bits=64, attack=attack)
    effective = InstanceSpec(inputs=(VALUE,) * 7).resolve(spec)

    engine = MultiValuedConsensus(
        effective.make_config(),
        adversary=effective.make_adversary(),
        vectorized=False,
        batch_generations=False,
        journal=True,
    )
    scalar_result = engine.run([VALUE] * 7)
    scalar_journal = engine.network.journal

    vec_service = ConsensusService(spec)
    vec_result, vec_transcript = vec_service.record(VALUE)
    assert vec_transcript.journal() == scalar_journal

    # A service whose batches take the cohort lane records off it.
    batch_service = ConsensusService(spec)
    cohort = cohort_runs(monkeypatch)
    batch_result, batch_transcript = batch_service.record(
        InstanceSpec(inputs=(VALUE,) * 7)
    )
    # The cohort's rounds are accounting a journal cannot observe.
    assert not cohort
    assert batch_transcript.journal() == scalar_journal

    assert compare(scalar_result, vec_result).identical
    assert compare(scalar_result, batch_result).identical
    [batched] = batch_service.run_many([InstanceSpec(inputs=(VALUE,) * 7)])
    assert compare(scalar_result, batched).identical


#: A recorded entry ``(round 3, 1 -> 2, bits 4, payload 1)`` and, per
#: field, a replayed value ``==`` calls equal while the entry's
#: authenticated bytes spell it differently.
_ENTRY = TranscriptEntry(0, 3, 1, 2, "gen0.matching.symbols", 4, 1)
_LOOSE_ROWS = {
    "payload": (3, 1, 2, "gen0.matching.symbols", 4, True),
    "bits": (3, 1, 2, "gen0.matching.symbols", 4.0, 1),
    "round": (3.0, 1, 2, "gen0.matching.symbols", 4, 1),
}


@pytest.mark.parametrize("field", sorted(_LOOSE_ROWS))
def test_a_replayed_row_matches_only_exactly_typed(field):
    """Replay compares journals as the transcript authenticates them: a
    replayed ``True``, ``4.0`` or ``3.0`` is not the recorded ``1``,
    ``4`` or ``3``."""
    row = _LOOSE_ROWS[field]
    assert _ENTRY.matches_row(row) == field
    divergence = _journal_divergence([_ENTRY], [row])
    assert divergence is not None and divergence["field"] == field
    assert _journal_divergence(
        [_ENTRY], [(3, 1, 2, "gen0.matching.symbols", 4, 1)]
    ) is None


def test_an_edited_entry_formats_its_own_bytes():
    """An entry's stored bytes are its own fields': an entry rebuilt
    with one field changed (``TranscriptEntry.replace``) re-formats them, so
    the old tag fails there."""
    _, transcript = ConsensusService(
        RunSpec(n=4, l_bits=16, attack="crash")
    ).record(0xBEEF)
    entries = list(transcript.entries)
    entries[2] = entries[2].replace(bits=entries[2].bits + 1)
    assert entries[2].content_bytes != transcript.entries[2].content_bytes
    report = verify_transcript(
        dataclasses.replace(transcript, entries=tuple(entries))
    )
    assert (report.ok, report.failed_index) == (False, 2)


# -- the work is counted ---------------------------------------------------


def test_an_audit_formats_each_entry_once(monkeypatch):
    """Record, verify, prove (replay and digest) and save format each
    entry's authenticated bytes once, when the entry is made; every
    other walk reads them (four formats an entry before)."""
    calls = []
    formatter = transcript_module._entry_bytes

    def counted(*args):
        calls.append(args[0])
        return formatter(*args)

    monkeypatch.setattr(transcript_module, "_entry_bytes", counted)
    spec = RunSpec(n=15, l_bits=1 << 10, attack="corrupt")
    _, transcript = ConsensusService(spec).record(VALUE)
    assert transcript.verify().ok
    proof = prove(transcript)
    assert proof.ok and proof.culprits == proof.claimed_faulty
    assert transcript.digest() == proof.transcript_digest
    assert calls == list(range(len(transcript.entries)))


# -- a transcript is walked once per key -------------------------------------


def _crash_transcript():
    return ConsensusService(
        RunSpec(n=4, l_bits=16, attack="crash")
    ).record(0xBEEF)[1]


def _counted_tags(monkeypatch):
    """The pids of every tag computed from here on."""
    calls = []
    tag = Keyring.tag

    def counted(self, pid, link):
        calls.append(pid)
        return tag(self, pid, link)

    monkeypatch.setattr(Keyring, "tag", counted)
    return calls


def test_an_audit_walks_its_transcript_once(monkeypatch):
    """The first check computes every tag, one a (round block, sender)
    group; a second ``verify``, ``replay`` and ``prove`` under the same
    key compute none and report what the first check reported."""
    _, transcript = ConsensusService(
        RunSpec(n=7, l_bits=64, attack="corrupt")
    ).record(VALUE)
    calls = _counted_tags(monkeypatch)
    first = transcript.verify()
    assert first.ok and len(calls) == len(transcript.tags)
    assert calls == [sender for _, sender, _ in transcript.tags]
    calls.clear()
    assert transcript.verify() == verify_transcript(transcript) == first
    assert replay(transcript).verify == first
    proof = prove(transcript)
    assert proof.ok and proof.culprits == proof.claimed_faulty
    assert calls == []


def _tampered(transcript):
    """``transcript`` with entry 2's bit count edited."""
    entries = list(transcript.entries)
    entries[2] = entries[2].replace(bits=entries[2].bits + 1)
    return dataclasses.replace(transcript, entries=tuple(entries))


def _loaded(transcript, tmp_path):
    transcript.save(tmp_path / "copy.json")
    return Transcript.load(tmp_path / "copy.json")


#: Three ways to make a transcript from one already checked.
MADE = {
    "replace": lambda transcript, tmp_path: dataclasses.replace(transcript),
    "from_wire": lambda transcript, tmp_path: Transcript.from_wire(
        transcript.to_wire()
    ),
    "load": _loaded,
}


@pytest.mark.parametrize("tampered", [False, True], ids=["intact", "tampered"])
@pytest.mark.parametrize("made", sorted(MADE))
def test_a_made_transcript_is_walked_afresh(
    made, tampered, monkeypatch, tmp_path
):
    """A transcript made by ``replace``, ``from_wire`` or ``load`` from a
    checked one is a new object: its first check computes its tags, and
    a tampered one fails where it was edited."""
    source = _crash_transcript()
    assert source.verify().ok
    if tampered:
        source = _tampered(source)
        assert source.verify().failed_index == 2
    copy = MADE[made](source, tmp_path)
    calls = _counted_tags(monkeypatch)
    report = copy.verify()
    assert calls
    assert report == source.verify()
    assert (report.ok, report.failed_index) == (
        (False, 2) if tampered else (True, None)
    )


def test_another_key_is_never_served_from_the_kept_walk(monkeypatch):
    """The walk is kept under a SHA-256 of the whole key, not its short
    id: with every key given one id, so the id check passes, a
    transcript checked under its key fails under another at its first
    tag, and still verifies under its own.  The key itself is not kept."""
    init = Keyring.__init__

    def one_id(self, master=DEFAULT_KEY):
        init(self, master)
        self.key_id = "0" * 16

    monkeypatch.setattr(Keyring, "__init__", one_id)
    transcript = _crash_transcript()
    assert transcript.verify().ok
    other = transcript.verify(key=b"another deployment's key")
    assert (other.ok, other.failed_index) == (False, 0)
    assert transcript.verify().ok
    assert DEFAULT_KEY not in pickle.dumps(transcript)


@pytest.mark.parametrize(
    "key", ["repro-audit-demo-key", b"", None, bytearray(DEFAULT_KEY)],
    ids=["str", "empty", "none", "bytearray"],
)
def test_a_key_that_is_not_bytes_is_refused_after_a_walk(key):
    transcript = _crash_transcript()
    assert transcript.verify().ok
    with pytest.raises(ValueError, match="master key must be non-empty bytes"):
        transcript.verify(key=key)


def test_a_check_changes_no_form_of_a_transcript():
    """Equality, the wire form, the canonical bytes, the digest and the
    repr read the same before and after a check."""
    transcript = _crash_transcript()
    twin = Transcript.from_wire(transcript.to_wire())

    def forms():
        return (
            transcript.to_wire(), transcript.canonical_bytes(),
            transcript.digest(), repr(transcript),
        )

    before = forms()
    assert transcript.verify().ok
    assert forms() == before
    assert transcript == twin and twin == transcript


def test_entries_are_held_as_a_tuple():
    """A list of entries is copied into a tuple, so an edit to the list
    after a check cannot go unseen by the kept walk."""
    transcript = _crash_transcript()
    entries = list(transcript.entries)
    held = dataclasses.replace(transcript, entries=entries)
    assert type(held.entries) is tuple and held == transcript
    assert held.verify().ok
    entries[2] = entries[2].replace(bits=entries[2].bits + 1)
    del entries[-1]
    assert held == transcript and held.verify().ok


def test_an_edit_to_the_result_after_a_check_breaks_the_seal():
    """The result is a mutable object, so the seal over it is checked
    on every call, kept walk or not."""
    transcript = _crash_transcript()
    assert transcript.verify().ok
    transcript.result.decisions[0] ^= 1
    report = transcript.verify()
    assert (report.ok, report.failed_index) == (False, None)
    assert "seal" in report.reason


def test_a_recorded_entry_is_the_entry_its_fields_make():
    """``record`` makes an entry in one ``tuple.__new__``: the
    constructor makes the same entry (fields, bytes, repr) from the same
    fields, and the entry is slotted, frozen and pickles."""
    transcript = _crash_transcript()
    for entry in transcript.entries:
        made = TranscriptEntry(entry.index, *_ROW(entry))
        assert made == entry and repr(made) == repr(entry)
        assert made.content_bytes == entry.content_bytes
    entry = transcript.entries[0]
    assert not hasattr(entry, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        entry.bits = 5
    assert pickle.loads(pickle.dumps(entry)) == entry


def test_an_entry_keeps_its_api_as_one_tuple():
    """An entry is one immutable tuple: its seven fields by name, its
    bytes made with it, the wire form both ways, row matching, and
    equality and hashing over the seven fields (not the bytes, which
    ``formatted`` may supply)."""
    tag = "gen0.matching.symbols"
    entry = TranscriptEntry(0, 3, 1, 2, tag, 4, 1)
    assert isinstance(entry, tuple)
    assert (
        entry.index, entry.round_index, entry.sender, entry.receiver,
        entry.tag, entry.bits, entry.payload,
    ) == (0, 3, 1, 2, tag, 4, 1)
    assert entry.content_bytes == _entry_bytes(0, 3, 1, 2, tag, 4, 1, {})
    assert entry.to_wire() == {
        "index": 0, "round": 3, "sender": 1, "receiver": 2, "tag": tag,
        "bits": 4, "payload": 1,
    }
    assert TranscriptEntry.from_wire(entry.to_wire()) == entry
    assert repr(entry) == (
        "TranscriptEntry(index=0, round_index=3, sender=1, receiver=2,"
        " tag='gen0.matching.symbols', bits=4, payload=1)"
    )
    supplied = TranscriptEntry(0, 3, 1, 2, tag, 4, 1, formatted=b"x")
    assert supplied.content_bytes == b"x"
    assert supplied == entry and hash(supplied) == hash(entry)
    assert not supplied != entry
    # True == 1, as the dataclass compared it; only the bytes tell.
    loose = TranscriptEntry(0, 3, True, 2, tag, 4, 1)
    assert loose == entry and loose.content_bytes is None
    assert entry.matches_row((3, 1, 2, tag, 4, 1)) is None
    assert entry.matches_row((3, True, 2, tag, 4, 1)) == "sender"
    edited = entry.replace(bits=5)
    assert edited != entry and edited.bits == 5 and entry.bits == 4
    assert edited.content_bytes == TranscriptEntry(
        0, 3, 1, 2, tag, 5, 1
    ).content_bytes
    with pytest.raises(TypeError):
        entry.replace(auth="00")
    assert entry != tuple(entry) and tuple(entry) != entry


SAVED_GRID = [
    (n, attack) for n in (4, 7) for attack in sorted(ATTACKS)
]


@pytest.mark.parametrize(
    "n,attack", SAVED_GRID, ids=["n%d-%s" % case for case in SAVED_GRID]
)
def test_the_saved_file_is_what_the_digest_hashes(n, attack, tmp_path):
    """``save`` writes the digest's bytes and a newline: one serializer
    for the file and the digest."""
    spec = RunSpec(
        n=n, l_bits=64, attack=attack, faulty=_case_faulty(attack)
    )
    _, transcript = ConsensusService(spec).record(VALUE)
    path = tmp_path / "transcript.json"
    transcript.save(path)
    saved = path.read_bytes()
    assert saved.endswith(b"\n")
    assert hashlib.sha256(saved[:-1]).hexdigest() == transcript.digest()
    assert saved[:-1] == _canonical(transcript.to_wire())


# -- satellite: recording stays off charge_round ---------------------------


def test_charge_round_still_refuses_on_journalling_networks():
    """The refusal is the guard behind the planner's rule that a
    recorded run never enters the cohort engine."""
    network = SyncNetwork(3, journal=True)
    with pytest.raises(NetworkError, match="journalling"):
        network.charge_round("x", count=6, bits=4)


def test_transcript_composes_with_batched_fast_paths(monkeypatch):
    """A batch the cohort engine would serve (its rounds collapse into
    ``charge_round``) is recorded on the per-generation engine instead:
    same result as the unrecorded cohort run, and the transcript
    replays."""
    spec = RunSpec(n=7, l_bits=128, attack="crash")
    service = ConsensusService(spec)
    cohort = cohort_runs(monkeypatch)
    result, transcript = service.record(InstanceSpec(inputs=(VALUE,) * 7))
    assert not cohort, "a recorded run entered the cohort"
    reference_service = ConsensusService(spec)
    [reference] = reference_service.run_many(
        [InstanceSpec(inputs=(VALUE,) * 7)]
    )
    assert cohort, "expected the cohort engine"
    assert compare(result, reference).identical
    assert replay(transcript).ok

    # A failure-free run (unrecorded: the empty cohort) records too.
    honest = ConsensusService(RunSpec(n=7, l_bits=128))
    _, honest_transcript = honest.record(VALUE)
    assert replay(honest_transcript).ok


def test_recording_disables_result_cloning():
    """Cloned (priced) results have no journal; a recorded instance
    executes for real, every time, and yields a verifiable transcript
    whose result equals the batch's."""
    spec = RunSpec(n=4, l_bits=32)
    service = ConsensusService(spec)
    recorded = [service.record(VALUE) for _ in range(3)]
    results = [result for result, _ in recorded]
    transcripts = [transcript for _, transcript in recorded]
    assert len(transcripts) == 3
    for result, transcript in zip(results, transcripts):
        assert verify_transcript(transcript).ok
        assert transcript.entries
        assert transcript.result.decisions == result.decisions
    reference = ConsensusService(spec).run_many([VALUE, VALUE, VALUE])
    for result, ref in zip(results, reference):
        assert compare(result, ref).identical


# -- the recorder sees what the receivers see --------------------------------


@pytest.mark.parametrize("scalar", [False, True], ids=["default", "scalar"])
def test_recorder_notes_a_type_punned_symbol(scalar):
    """``False == 0`` and ``True == 1``, but receivers take a symbol only
    as an exact int: a sender that puns its symbols is shut out of
    ``P_match``, and the recorder must say why."""

    class Punned(Adversary):
        def matching_row(self, pid, recipients, honest_symbol, generation,
                         view):
            return bool(honest_symbol), {}

    recorder = DeviationRecorder(Punned([0]))
    toggles = {"vectorized": False, "batch_generations": False} if scalar else {}
    engine = MultiValuedConsensus(
        RunSpec(n=4, l_bits=64).make_config(), adversary=recorder, **toggles
    )
    result = engine.run([0] * 4)
    assert result.generation_results
    assert all(g.p_match == (1, 2, 3) for g in result.generation_results)
    noted = {(d.pid, d.hook) for d in recorder.deviations}
    assert noted == {(0, "matching_symbol")}


class ClearsOwnSlot(Adversary):
    """Clears the one M flag no processor broadcasts: its own."""

    def m_row(self, pid, honest_row, generation, view):
        return [flag and j != pid for j, flag in enumerate(honest_row)]


class TrustsAStranger(FalseDetectionAdversary):
    """Cries Detected (a real deviation, forcing a diagnosis) and adds
    a Trust entry for a pid outside ``P_match``, which no bit
    carries."""

    def trust_row(self, pid, p_match, honest_row, generation, view):
        assert pid not in p_match
        return {**dict(zip(p_match, honest_row)), pid: True}


@pytest.mark.parametrize("scalar", [False, True], ids=["default", "scalar"])
@pytest.mark.parametrize(
    "adversary_class, twin, hooks",
    [
        (ClearsOwnSlot, Adversary, set()),
        (TrustsAStranger, FalseDetectionAdversary, {"detected_flag"}),
    ],
    ids=["own_m_slot", "trust_outside_p_match"],
)
def test_recorder_compares_what_is_broadcast(
    scalar, adversary_class, twin, hooks
):
    """An M entry for the own slot and a Trust entry outside ``P_match``
    are never broadcast: the run equals its twin's (which leaves them
    alone) in meter and generation records, and the recorder notes no
    deviation of those hooks."""
    config = RunSpec(n=4, l_bits=64).make_config()
    toggles = (
        {"vectorized": False, "batch_generations": False} if scalar else {}
    )

    def run(adversary):
        return MultiValuedConsensus(
            config, adversary=adversary, **toggles
        ).run([5] * 4)

    recorder = DeviationRecorder(adversary_class([3]))
    result = run(recorder)
    expected = run(twin([3]))
    assert result.meter == expected.meter
    assert result.generation_results == expected.generation_results
    if hooks:
        assert result.diagnosis_count >= 1  # the trust hook fired
    assert {d.hook for d in recorder.deviations} == hooks


class DiagnosisAnswer(SymbolCorruptionAdversary):
    """Corrupts the symbol pid 0 sends pid 6, forcing a diagnosis, and
    answers ``diagnosis_symbol`` with ``answer(honest, symbol_limit)``."""

    def __init__(self, answer):
        super().__init__([0], victims={0: [6]})
        self.answer = answer

    def diagnosis_symbol(self, pid, honest_symbol, generation, view):
        return self.answer(honest_symbol, view.extras["code"].symbol_limit)


def _run_engine(engine, adversary):
    """One n = 7, L = 64 run on ``engine``: the default (cohort and
    vectorized diagnosis) or forced-scalar consensus, or the §4
    broadcast from pid 1 (pid 0 is a relay)."""
    if engine == "broadcast":
        return MultiValuedBroadcast(n=7, l_bits=64, adversary=adversary).run(
            source=1, value=5
        )
    toggles = (
        {"vectorized": False, "batch_generations": False}
        if engine == "scalar" else {}
    )
    return MultiValuedConsensus(
        RunSpec(n=7, l_bits=64).make_config(), adversary=adversary, **toggles
    ).run([5] * 7)


ENGINES = ["default", "scalar", "broadcast"]


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize(
    "answer, kind", [(3.5, "float"), (True, "bool")], ids=["float", "bool"]
)
def test_an_inexact_diagnosis_symbol_is_refused_alike(engine, answer, kind):
    """Every engine reads a ``diagnosis_symbol`` answer by one rule:
    an exact int, or ``TypeError`` naming the hook (the vectorized
    stage used to read 3.5 as the honest symbol)."""
    with pytest.raises(
        TypeError,
        match="a diagnosis_symbol answer is an exact int symbol, got %s"
        % kind,
    ):
        _run_engine(engine, DiagnosisAnswer(lambda honest, limit: answer))


@pytest.mark.parametrize("engine", ENGINES)
def test_a_diagnosis_symbol_is_read_mod_the_symbol_limit(engine):
    """``honest + symbol_limit`` broadcasts the honest symbol: the run
    equals the honest answer's, and the recorder notes no deviation."""
    recorder = DeviationRecorder(
        DiagnosisAnswer(lambda honest, limit: honest + limit)
    )
    result = _run_engine(engine, recorder)
    expected = _run_engine(engine, DiagnosisAnswer(lambda honest, limit: honest))
    assert result.diagnosis_count >= 1
    assert result.meter == expected.meter
    assert result.decisions == expected.decisions
    assert "diagnosis_symbol" not in {d.hook for d in recorder.deviations}


class FlipsDetected(Adversary):
    """Overrides one hook; every other hook stays at the base."""

    def detected_flag(self, pid, honest_flag, generation, view):
        return not honest_flag


def test_a_base_hook_is_forwarded_and_noted_nowhere():
    """A hook the attack leaves at the base is the base's on the
    recorder's class too: it answers as the inner one does and notes
    nothing.  An overridden hook is still noted."""
    inner = FlipsDetected([0])
    recorder = DeviationRecorder(inner)
    view = GlobalView(n=4, t=1, faulty={0})
    assert type(recorder).input_value is Adversary.input_value
    assert type(recorder).m_row is Adversary.m_row
    row = (True, False, True, True)
    assert recorder.input_value(0, 7, view) == 7
    assert recorder.m_row(0, row, 0, view) is row
    assert recorder.deviations == []
    assert recorder.detected_flag(0, False, 0, view) is True
    assert [(d.pid, d.hook) for d in recorder.deviations] == [
        (0, "detected_flag")
    ]


def test_a_replay_asks_no_base_broadcast_bit_by_bit(monkeypatch):
    """Under replay, a controlled source whose attack leaves
    ``ideal_broadcast_bit`` at the base is accounted in bulk, as in the
    recorded run: the recorder is asked for no bit of its rows.  An
    attack that overrides the hook is still asked bit by bit."""
    from repro.broadcast_bit import ideal as ideal_module

    asks = []
    answer = ideal_module.bit_answer

    def counted(hook, *rest):
        asks.append(hook)
        return answer(hook, *rest)

    monkeypatch.setattr(ideal_module, "bit_answer", counted)
    counts = {}
    for attack in ("corrupt", "random"):
        spec = RunSpec(
            n=7, l_bits=64, attack=attack, faulty=_case_faulty(attack)
        )
        _, transcript = ConsensusService(spec).record(VALUE)
        asks.clear()
        assert replay(transcript).journal_match
        counts[attack] = len(asks)
    assert counts["corrupt"] == 0
    assert counts["random"] > 0


# -- serving-tier opt-in ---------------------------------------------------


def test_serving_transcript_opt_in():
    spec = RunSpec(n=4, l_bits=32, attack="corrupt")
    with serve_background(spec) as client:
        plain = client.submit(VALUE)
        result, transcript = client.submit(VALUE, transcript=True)
    assert compare(plain, result).identical
    assert verify_transcript(transcript).ok
    # The server records through the service's one journalling door.
    assert transcript.digest() == ConsensusService(spec).record(VALUE)[
        1
    ].digest()
    proof = prove(transcript)
    assert proof.ok
    assert proof.culprits == (0,)


# -- CLI -------------------------------------------------------------------


def test_cli_audit_workflow(tmp_path, capsys):
    out = str(tmp_path / "transcript.json")
    assert cli_main([
        "audit", "record", "--n", "4", "--l-bits", "32",
        "--attack", "corrupt", "--out", out,
    ]) == 0
    assert cli_main(["audit", "verify", "--transcript", out]) == 0
    assert cli_main(["audit", "replay", "--transcript", out]) == 0
    proof_path = str(tmp_path / "proof.json")
    assert cli_main([
        "audit", "prove", "--transcript", out, "--json", proof_path,
    ]) == 0
    capsys.readouterr()
    with open(proof_path, "r", encoding="utf-8") as handle:
        proof = json.load(handle)
    assert proof["culprits"] == [0]
    assert proof["verified"] and proof["journal_match"]

    # A tampered transcript fails verification with a nonzero exit.
    with open(out, "r", encoding="utf-8") as handle:
        wire = json.load(handle)
    wire["entries"][0]["payload"] = wire["entries"][0]["payload"] + 1
    tampered = str(tmp_path / "tampered.json")
    with open(tampered, "w", encoding="utf-8") as handle:
        json.dump(wire, handle)
    assert cli_main(["audit", "verify", "--transcript", tampered]) == 1
    assert "entry 0" in capsys.readouterr().out


def test_default_key_is_not_a_deployment_secret():
    assert DEFAULT_KEY == b"repro-audit-demo-key"


#: ``(attack, seed) -> (Transcript.digest(), sha256 of the canonical
#: prove().to_wire())`` at n = 7, L = 256 for the value 0x410C: a moved
#: keyed draw or planner call changes both.  ``random`` draws each
#: answer by key from its hook's arguments (re-pinned when it stopped
#: drawing from one stream in hook order).
_PINNED_AUDITS = {
    ("random", 0): (
        "3126bf5977cfcecc6dee879fb062758c2e5675029dd6f5f5970674c1ad0fbdc4",
        "df71648f0fd6c961934b03f565f8c2f1e97d268395ca99e1e76453f00600ad8a",
    ),
    ("random", 7): (
        "88c1a68e4073b0219a7befa1c3cfe79201845650fc1a52825442c6c4b402b284",
        "15fab3428214bc37eafa84d048a9526ad9807c0f01e448c01d3206fba5e845a5",
    ),
    ("adaptive_split", 11): (
        "a9bf93d61d36076bcab7731a7dd47517cf93b00866874844f7d1accbe32674ae",
        "aad221522982c2bea2b481833994114970ab1d3318a56c17c401e34afbcaca35",
    ),
}


def _journal_digest(transcript):
    """SHA-256 of the entries' authenticated bytes, comma-joined: what
    a transcript journals, whatever its format tags and seals."""
    return hashlib.sha256(
        b",".join(entry.content_bytes for entry in transcript.entries)
    ).hexdigest()


def _run_pins(transcript, proof):
    """``(culprits, deviation count, proof_sha256, journal digest)`` of
    a recorded run and its proof wire: the columns no transcript format
    moves (``proof_sha256`` over the culprits and deviations only)."""
    return (
        proof["culprits"],
        len(proof["deviations"]),
        hashlib.sha256(_canonical({
            "culprits": proof["culprits"], "deviations": proof["deviations"],
        })).hexdigest(),
        _journal_digest(transcript),
    )


#: ``(attack, seed) -> _run_pins`` of the runs ``_PINNED_AUDITS`` pins.
_PINNED_AUDIT_RUNS = {
    ("random", 0): (
        [0, 1], 41,
        "e9e9071fdc42203f2a4960c90d2355536c998eea2ec6bd2b2ccd40488848d046",
        "1861439383147fedb916000efdac7e9af584c870731181d6943ea98f896a0898",
    ),
    ("random", 7): (
        [0, 1], 57,
        "11f264f0703136d99bf459e021d43c375869b6e3aea0fb5743d5d446d46dd448",
        "f43de8eee261c690ae63c3ca8f4b56c0a7424ba9fdf67f8d460158236f42d756",
    ),
    ("adaptive_split", 11): (
        [0, 1], 2,
        "587cd5a823c72e6ceabd372c5bb6e390ade40d58b2596dbfbf393666148356d8",
        "f8e45fb18a1ff29094447b56678be440f4eae17245543691a3ec846daec0c6ee",
    ),
}


@pytest.mark.parametrize(
    "attack, seed", sorted(_PINNED_AUDITS), ids=lambda x: str(x)
)
def test_seeded_audit_is_pinned(attack, seed):
    """The transcript digest and the proof (deviation records included)
    of a seeded attack: its keyed draws, or its plans, replay."""
    spec = RunSpec(n=7, l_bits=256, attack=attack, seed=seed)
    _, transcript = ConsensusService(spec).record(0x410C)
    proof = prove(transcript).to_wire()
    canonical = json.dumps(proof, sort_keys=True, separators=(",", ":"))
    assert (
        transcript.digest(),
        hashlib.sha256(canonical.encode()).hexdigest(),
    ) == _PINNED_AUDITS[(attack, seed)]
    assert proof["culprits"] == proof["claimed_faulty"]
    assert _run_pins(transcript, proof) == _PINNED_AUDIT_RUNS[(attack, seed)]


#: ``prove()``'s culprits and deviations (``proof_sha256``, over the
#: canonical JSON of both), the journal digest and each transcript's
#: digest and seal, for the fault grid at n in {7, 15} (L = 1024, seed
#: 11, value 0xDEADBEEF), as made by a replay recorder that noted every
#: hook, base hooks too.
FAULT_GRID_PINS = json.loads(
    (Path(__file__).parent / "data" / "prove_fault_grid.json").read_text()
)


def test_the_fault_grid_pins_cover_the_grid():
    assert sorted((pin["n"], pin["attack"]) for pin in FAULT_GRID_PINS) == [
        (n, attack) for n in (7, 15) for attack in FAULT_GRID_ATTACKS
    ]


@pytest.mark.parametrize(
    "pin", FAULT_GRID_PINS,
    ids=lambda pin: "n%d-%s" % (pin["n"], pin["attack"]),
)
def test_fault_grid_proofs_are_pinned(pin):
    spec = RunSpec(n=pin["n"], l_bits=1024, attack=pin["attack"], seed=11)
    _, transcript = ConsensusService(spec).record(0xDEADBEEF)
    proof = prove(transcript).to_wire()
    assert (transcript.digest(), transcript.seal) == (
        pin["transcript_digest"], pin["seal"]
    )
    assert _run_pins(transcript, proof) == (
        pin["culprits"], pin["deviations"], pin["proof_sha256"],
        pin["journal_digest"],
    )


#: ``(backend, attack) -> transcript digest`` of ``repro-sim
#: audit record --n 7 --l-bits 64 --seed 11``: the real-round backends
#: read the phase-king / EIG hook answers themselves, so their
#: transcripts are pinned apart from the ideal backend's grid.
_PINNED_REAL_ROUNDS = {
    ("phase_king", "random"):
        "df670d09906119dd4d675f9f2c8230db5e6f90d79669c85339d83aed8f3e7bec",
    ("phase_king", "crash"):
        "5f7d85b0b3bd278d837838ada3c641ac55d3247a635920b7a75e5094761d2712",
    ("eig", "random"):
        "2ee29c02819b2f7dc2f010b0e9f0bbe5e165286b8b98687cab7aa74dcaa85141",
    ("eig", "crash"):
        "3339d6262686175475c800d581b81ee4adae90ff0ce7b4fc65d5164bb2b2ebb1",
}


#: ``(backend, attack) -> _run_pins`` of the runs ``_PINNED_REAL_ROUNDS``
#: pins.
_PINNED_REAL_ROUND_RUNS = {
    ("phase_king", "random"): (
        [0, 1], 2640,
        "5a200522646157e790cdb323f9fd80317551b35b84e460d2809939f32660f15f",
        "a03733138506d263e6455b9e97bd95e4edb7d3976b0c9a347ae5a9ea18760988",
    ),
    ("phase_king", "crash"): (
        [5, 6], 56,
        "3b653956cf77ded51ac55696dcc6f7f0c514f9229d39c7a83b99afe0c6660f52",
        "c6746e3ca5b5eebaeb766cd2979ae460f472dde64b15df8a199f31a858ef402b",
    ),
    ("eig", "random"): (
        [0, 1], 1807,
        "a7aa7fcef5a709534a71ee65f237a466b4ab6001513c77598b7fffd21a577dc6",
        "a03733138506d263e6455b9e97bd95e4edb7d3976b0c9a347ae5a9ea18760988",
    ),
    ("eig", "crash"): (
        [5, 6], 56,
        "3b653956cf77ded51ac55696dcc6f7f0c514f9229d39c7a83b99afe0c6660f52",
        "c6746e3ca5b5eebaeb766cd2979ae460f472dde64b15df8a199f31a858ef402b",
    ),
}


@pytest.mark.parametrize(
    "backend, attack", sorted(_PINNED_REAL_ROUNDS),
    ids=["-".join(cell) for cell in sorted(_PINNED_REAL_ROUNDS)],
)
def test_real_round_transcript_is_pinned(backend, attack, tmp_path, capsys):
    """record → prove under a real-round backend: the transcript digest,
    the journal and the proof."""
    digest = _PINNED_REAL_ROUNDS[(backend, attack)]
    out = str(tmp_path / "transcript.json")
    assert cli_main([
        "audit", "record", "--n", "7", "--l-bits", "64", "--seed", "11",
        "--backend", backend, "--attack", attack, "--out", out,
    ]) == 0
    transcript = Transcript.load(out)
    assert transcript.digest() == digest
    proof_path = str(tmp_path / "proof.json")
    assert cli_main([
        "audit", "prove", "--transcript", out, "--json", proof_path,
    ]) == 0
    capsys.readouterr()
    with open(proof_path, "r", encoding="utf-8") as handle:
        proof = json.load(handle)
    assert _run_pins(transcript, proof) == _PINNED_REAL_ROUND_RUNS[
        (backend, attack)
    ]
    assert proof["verified"] and proof["journal_match"]
