"""Differential audit suite: record → verify → replay → prove.

The accountability harness of ROADMAP item 5.  Every canonical attack
at n ∈ {4, 7, 31} is recorded to an authenticated transcript, verified
tag by tag, replayed on the forced-scalar reference engine (journal and
result byte-identical), and proven — the culpability proof must name
*exactly* the injected faulty set.  Alongside: hypothesis round-trip
properties for the serialization, a tamper-localization fuzz over
single-entry edits, journal-materialization equivalence across engine
lanes, the ``charge_round`` recording-fallback regression, and the
serving-tier / CLI opt-ins.
"""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.audit import (
    DEFAULT_KEY,
    Transcript,
    TranscriptRecorder,
    compare,
    prove,
    replay,
    verify_transcript,
)
from repro.cli import main as cli_main
from repro.core.consensus import MultiValuedConsensus
from repro.core.result import ConsensusResult
from repro.network.message import Message
from repro.network.metrics import MeterSnapshot
from repro.network.simulator import NetworkError, SyncNetwork
from repro.processors import ATTACKS
from repro.service import ConsensusService, InstanceSpec, RunSpec
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
    wire = transcript.to_wire()
    wire["format"] = 2
    with pytest.raises(ValueError, match="format 2"):
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


def test_record_refuses_live_adversary():
    from repro.processors import Adversary

    service = ConsensusService(RunSpec(n=4, l_bits=16))
    with pytest.raises(ValueError, match="declarative"):
        service.run(
            0xBEEF,
            adversary=Adversary([0]),
            transcript=TranscriptRecorder(),
        )


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
    count = draw(st.integers(min_value=0, max_value=12))
    messages = []
    for i in range(count):
        sender = draw(st.integers(min_value=0, max_value=3))
        receiver = (sender + draw(st.integers(min_value=1, max_value=3))) % 4
        messages.append(
            Message(
                sender=sender,
                receiver=receiver,
                payload=draw(_payloads),
                bits=draw(st.integers(min_value=0, max_value=4096)),
                tag=draw(
                    st.sampled_from(
                        ["gen0.matching.symbols", "gen1.matching.symbols"]
                    )
                ),
                round_index=draw(st.integers(min_value=0, max_value=3)),
            )
        )
    return messages


@settings(max_examples=40, deadline=None)
@given(journal=_journals())
def test_transcript_roundtrip(journal):
    """Arbitrary journals — bigint payloads, object-dtype-lane widths,
    the empty journal — survive record → wire → JSON → load exactly."""
    transcript = Transcript.record(_SPEC, _INSTANCE, journal, _RESULT)
    wire = json.loads(json.dumps(transcript.to_wire()))
    loaded = Transcript.from_wire(wire)
    assert loaded == transcript
    assert loaded.messages() == list(journal)
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


# -- satellite: single-entry tamper localization fuzz ----------------------


def _tamper(wire, rng):
    """Apply one random single-entry edit; returns (mode, index)."""
    entries = wire["entries"]
    index = rng.randrange(len(entries))
    mode = rng.choice(["flip", "swap", "drop"])
    if mode == "swap" and len(entries) < 2:
        mode = "flip"
    if mode == "flip":
        payload = entries[index]["payload"]
        entries[index]["payload"] = (
            payload + 1 if isinstance(payload, int) else 1
        )
    elif mode == "swap":
        other = (index + 1) % len(entries)
        index, other = min(index, other), max(index, other)
        entries[index]["auth"], entries[other]["auth"] = (
            entries[other]["auth"],
            entries[index]["auth"],
        )
    else:
        del entries[index]
    return mode, index


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
    """Any single journal-entry edit — payload flip, auth-tag swap,
    dropped message — fails verification and names the tampered entry
    (a dropped tail entry is pinned on the seal instead)."""
    spec = RunSpec(
        n=n, l_bits=64, attack=attack, seed=seed,
        faulty=_case_faulty(attack),
    )
    result, transcript = ConsensusService(spec).record(VALUE)
    assert transcript.entries, "fuzz case produced an empty journal"
    rng = random.Random((n, attack, seed).__repr__())
    for trial in range(12):
        wire = transcript.to_wire()
        mode, index = _tamper(wire, rng)
        tampered = Transcript.from_wire(wire)
        report = verify_transcript(tampered)
        assert not report.ok, (mode, index)
        if mode == "drop" and index == len(transcript.entries) - 1:
            # Tail drop: chain and indexes stay consistent, the seal
            # catches the truncation.
            assert report.failed_index is None
            assert "seal" in report.reason
        else:
            assert report.failed_index == index, (mode, index, report)


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


@pytest.mark.parametrize("attack", sorted(ATTACKS))
def test_journal_equivalence_across_engine_lanes(attack):
    """Scalar, vectorized and batched (``run_many``) runs of one spec
    leave byte-identical journals (not just bits and decisions); the
    recorded batch never enters the cohort engine."""
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
    vec_recorder = TranscriptRecorder()
    vec_result = vec_service.run(VALUE, transcript=vec_recorder)
    assert vec_recorder.transcript.messages() == scalar_journal

    batch_service = ConsensusService(spec)
    batch_recorder = TranscriptRecorder()
    [batch_result] = batch_service.run_many(
        [InstanceSpec(inputs=(VALUE,) * 7)], transcript=batch_recorder
    )
    # The cohort's rounds are accounting a journal cannot observe.
    assert not batch_service._cohorts
    assert batch_recorder.transcript.messages() == scalar_journal

    assert compare(scalar_result, vec_result).identical
    assert compare(scalar_result, batch_result).identical


# -- satellite: recording stays off charge_round ---------------------------


def test_charge_round_still_refuses_on_journalling_networks():
    """The refusal is the guard behind the planner's rule that a
    recorded run never enters the cohort engine."""
    network = SyncNetwork(3, journal=True)
    with pytest.raises(NetworkError, match="journalling"):
        network.charge_round("x", count=6, bits=4)


def test_transcript_composes_with_batched_fast_paths():
    """A batch the cohort engine would serve (its rounds collapse into
    ``charge_round``) is recorded on the per-generation engine instead:
    same result as the unrecorded cohort run, and the transcript
    replays."""
    spec = RunSpec(n=7, l_bits=128, attack="crash")
    recorder = TranscriptRecorder()
    service = ConsensusService(spec)
    [result] = service.run_many(
        [InstanceSpec(inputs=(VALUE,) * 7)], transcript=recorder
    )
    assert not service._cohorts, "a recorded run entered the cohort"
    reference_service = ConsensusService(spec)
    [reference] = reference_service.run_many(
        [InstanceSpec(inputs=(VALUE,) * 7)]
    )
    assert reference_service._cohorts, "expected the cohort engine"
    assert compare(result, reference).identical
    assert replay(recorder.transcript).ok

    # A failure-free run (unrecorded: the empty cohort) records too.
    honest = ConsensusService(RunSpec(n=7, l_bits=128))
    honest_recorder = TranscriptRecorder()
    honest.run(VALUE, transcript=honest_recorder)
    assert replay(honest_recorder.transcript).ok


def test_run_many_recording_disables_result_cloning():
    """Cloned (priced) results have no journal; with a recorder every
    instance executes for real and yields a verifiable transcript."""
    spec = RunSpec(n=4, l_bits=32)
    service = ConsensusService(spec)
    recorder = TranscriptRecorder()
    results = service.run_many(
        [VALUE, VALUE, VALUE], transcript=recorder
    )
    assert len(recorder.transcripts) == 3
    for result, transcript in zip(results, recorder.transcripts):
        assert verify_transcript(transcript).ok
        assert transcript.entries
        assert transcript.result.decisions == result.decisions
    reference = ConsensusService(spec).run_many([VALUE, VALUE, VALUE])
    for result, ref in zip(results, reference):
        assert compare(result, ref).identical


def test_run_many_recording_rejects_parallel_executors():
    service = ConsensusService(RunSpec(n=4, l_bits=16))
    with pytest.raises(ValueError, match="serial"):
        service.run_many(
            [VALUE], executor="process", transcript=TranscriptRecorder()
        )


# -- serving-tier opt-in ---------------------------------------------------


def test_serving_transcript_opt_in():
    spec = RunSpec(n=4, l_bits=32, attack="corrupt")
    with serve_background(spec, window_ms=1.0) as client:
        plain = client.submit(VALUE)
        result, transcript = client.submit(VALUE, transcript=True)
    assert compare(plain, result).identical
    assert verify_transcript(transcript).ok
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
