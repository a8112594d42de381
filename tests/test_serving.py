"""Serving tier: micro-batching, admission control, async front-end.

The load-bearing contract extends the service layer's: micro-batching
changes *when* instances execute, never what they return.  Every result
served by a :class:`ConsensusServer` — in-process or over TCP — must be
field-for-field equal to a direct ``run_many`` on the same specs.  On
top of that, this file pins the admission-control semantics: window
expiry vs size cap as flush triggers, incompatible specs splitting into
separate cohorts, bounded-queue rejection, and clean shutdown draining
everything already admitted.

No ``pytest-asyncio`` in the container: async scenarios run via
``asyncio.run`` inside ordinary sync tests.
"""

import asyncio
import json
import os
import random
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.result import (
    ConsensusResult,
    GenerationOutcome,
    GenerationResult,
)
from repro.network.metrics import MeterSnapshot
from repro.service import ConsensusService, InstanceSpec, RunSpec
from repro.service.serving import (
    AdmissionError,
    ConsensusServer,
    InvalidRequestError,
    MicroBatcher,
    QueueFullError,
    ServerClosedError,
    ServingClient,
    ServingError,
    ServingStats,
    serve_background,
)
from repro.service.serving.wire import (
    instance_from_wire,
    instance_to_wire,
    result_from_wire,
    result_to_wire,
    runspec_from_wire,
    runspec_to_wire,
)
from tests.conftest import BAD_IDS, BAD_INSTANCES

SPEC = RunSpec(n=4, l_bits=16)

MIXED = [
    InstanceSpec(inputs=(9, 9, 9, 9)),
    InstanceSpec(inputs=(1, 2, 3, 4), attack="corrupt", seed=7),
    InstanceSpec(inputs=(5, 5, 5, 5), attack="crash", seed=1),
    InstanceSpec(inputs=(6, 6, 6, 6), attack="trust_poison", seed=2),
]


def wires(results):
    """Field-for-field comparable form of a result batch."""
    return [result_to_wire(result) for result in results]


# -- MicroBatcher -----------------------------------------------------------


class TestMicroBatcher:
    def test_window_expiry_is_measured_from_oldest_request(self):
        batcher = MicroBatcher(window_s=0.010, max_batch=100, max_queue=100)
        batcher.offer("a", "r1", now=5.0)
        batcher.offer("a", "r2", now=5.008)
        assert batcher.deadline() == pytest.approx(5.010)
        assert not batcher.due(now=5.009)
        assert batcher.due(now=5.010)

    def test_size_cap_reports_ready_before_window(self):
        batcher = MicroBatcher(window_s=60.0, max_batch=3, max_queue=100)
        assert batcher.offer("a", "r1", now=0.0) is False
        assert batcher.offer("a", "r2", now=0.0) is False
        assert batcher.offer("a", "r3", now=0.0) is True
        assert not batcher.due(now=1.0)  # window far away; cap is the trigger
        assert batcher.drain_capped() == [("a", ["r1", "r2", "r3"])]
        assert batcher.pending == 0

    def test_drain_capped_leaves_partial_groups_queued(self):
        batcher = MicroBatcher(window_s=60.0, max_batch=2, max_queue=100)
        batcher.offer("a", "r1", now=0.0)
        batcher.offer("a", "r2", now=0.0)
        batcher.offer("b", "r3", now=0.0)
        assert batcher.drain_capped() == [("a", ["r1", "r2"])]
        assert batcher.pending == 1
        assert batcher.group_sizes() == {"b": 1}

    def test_incompatible_keys_split_into_separate_cohorts(self):
        batcher = MicroBatcher(window_s=0.0, max_batch=100, max_queue=100)
        batcher.offer("a", "r1", now=0.0)
        batcher.offer("b", "r2", now=0.0)
        batcher.offer("a", "r3", now=0.0)
        assert batcher.drain_all() == [
            ("a", ["r1", "r3"]),
            ("b", ["r2"]),
        ]

    def test_drain_all_chunks_oversized_groups_at_the_cap(self):
        batcher = MicroBatcher(window_s=60.0, max_batch=2, max_queue=100)
        for i in range(5):
            batcher.offer("a", "r%d" % i, now=0.0)
        assert batcher.drain_all() == [
            ("a", ["r0", "r1"]),
            ("a", ["r2", "r3"]),
            ("a", ["r4"]),
        ]
        assert batcher.pending == 0

    def test_offer_beyond_capacity_raises_and_does_not_queue(self):
        batcher = MicroBatcher(window_s=60.0, max_batch=100, max_queue=2)
        batcher.offer("a", "r1", now=0.0)
        batcher.offer("b", "r2", now=0.0)
        with pytest.raises(QueueFullError):
            batcher.offer("a", "r3", now=0.0)
        assert batcher.pending == 2

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"window_s": -0.001, "max_batch": 1, "max_queue": 1},
            {"window_s": 0.0, "max_batch": 0, "max_queue": 1},
            {"window_s": 0.0, "max_batch": 1, "max_queue": 0},
        ],
    )
    def test_knob_validation(self, kwargs):
        with pytest.raises(ValueError):
            MicroBatcher(**kwargs)

    def test_rejection_codes_are_stable_wire_identifiers(self):
        assert QueueFullError.code == "queue_full"
        assert InvalidRequestError.code == "invalid_request"
        assert ServerClosedError.code == "server_closed"
        assert issubclass(QueueFullError, AdmissionError)
        assert issubclass(InvalidRequestError, AdmissionError)
        assert issubclass(ServerClosedError, AdmissionError)


# -- ServingStats -----------------------------------------------------------


class TestServingStats:
    def test_percentiles_are_exact_nearest_rank(self):
        stats = ServingStats()
        for ms in (10, 20, 30, 40, 1000):
            stats.record_latency(ms / 1000.0)
        assert stats.percentile(0) == pytest.approx(0.010)
        assert stats.percentile(50) == pytest.approx(0.030)
        assert stats.percentile(99) == pytest.approx(1.0)
        assert stats.percentile(100) == pytest.approx(1.0)

    def test_sample_window_is_bounded_but_totals_are_not(self):
        stats = ServingStats(sample_cap=4)
        for i in range(10):
            stats.record_latency(float(i))
        assert stats.served == 10
        snapshot = stats.snapshot()
        assert snapshot["latency_samples"] == 4
        assert stats.percentile(0) == 6.0  # oldest evicted

    def test_snapshot_counters(self):
        stats = ServingStats()
        stats.record_flush(3, 0.5)
        stats.record_flush(5, 0.5)
        stats.record_rejection("queue_full")
        stats.record_rejection("queue_full")
        stats.record_rejection("invalid_request")
        snapshot = stats.snapshot()
        assert snapshot["flushes"] == 2
        assert snapshot["mean_batch"] == 4.0
        assert snapshot["max_batch"] == 5
        assert snapshot["rejected"] == {
            "queue_full": 2,
            "invalid_request": 1,
        }
        assert snapshot["rejected_total"] == 3
        assert snapshot["execute_seconds"] == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ServingStats(sample_cap=0)
        with pytest.raises(ValueError):
            ServingStats().percentile(101)


# -- wire codec -------------------------------------------------------------


WIDE = 4000  # bits: past the 4300-decimal-digit int<->str cap

wire_values = st.integers(0, 255) | st.integers(
    1 << (WIDE - 1), (1 << WIDE) - 1
)
wire_pids = st.integers(0, 9)
pid_tuples = st.none() | st.lists(
    wire_pids, unique=True, max_size=5
).map(tuple)
meter_tags = st.builds(
    "gen%d.%s".__mod__,
    st.tuples(
        st.integers(0, 20),
        st.sampled_from(["matching.symbols", "matching.M", "diagnosis.trust"]),
    ),
)
meter_counts = st.dictionaries(meter_tags, st.integers(0, 1 << 40), max_size=6)


@st.composite
def wire_results(draw):
    """Results no engine would return but the codec must carry: pids in
    any order deciding among a few values and symbol vectors (so the pid
    groups interleave), generation records drawn from a few shapes (so
    the shape table is shared), either meter dict on its own tags."""

    def pid_map(xs):
        pids = draw(st.permutations(range(7)))[: draw(st.integers(0, 7))]
        return {pid: draw(st.sampled_from(xs)) for pid in pids}

    pool = draw(st.lists(wire_values, min_size=1, max_size=3))
    vectors = draw(
        st.lists(
            st.tuples(st.integers(0, 1 << 21), st.integers(0, 3)),
            min_size=1, max_size=3,
        )
    )
    shapes = draw(
        st.lists(
            st.fixed_dictionaries({
                "outcome": st.sampled_from(GenerationOutcome),
                "p_match": pid_tuples,
                "p_decide": pid_tuples,
                "removed_edges": st.lists(
                    st.tuples(wire_pids, wire_pids), max_size=3
                ),
                "isolated": st.lists(wire_pids, max_size=2),
                "detectors": st.lists(wire_pids, max_size=2),
            }),
            min_size=1, max_size=3,
        )
    )
    # A record's pids fall into up to three groups by one of two
    # layouts, so records share a shape while their symbols differ.
    layouts = [pid_map(range(3)) for _ in range(2)]
    records = []
    for generation in draw(st.lists(st.integers(0, 40), max_size=6)):
        layout = draw(st.sampled_from(layouts))
        symbols = draw(
            st.lists(st.sampled_from(vectors), min_size=3, max_size=3)
        )
        records.append(GenerationResult(
            generation=generation,
            decisions={pid: symbols[group] for pid, group in layout.items()},
            **draw(st.sampled_from(shapes)),
        ))
    bits = draw(meter_counts)
    messages = draw(
        meter_counts
        | st.fixed_dictionaries(
            {tag: st.integers(0, 1 << 20) for tag in bits}
        )
    )
    return ConsensusResult(
        decisions=pid_map(pool),
        generation_results=records,
        meter=MeterSnapshot(bits_by_tag=bits, messages_by_tag=messages),
        diagnosis_count=draw(st.integers(0, 6)),
        default_used=draw(st.booleans()),
        honest_inputs_equal=draw(st.booleans()),
        # None, a decided value, or one no pid decided.
        common_input=draw(st.none() | st.sampled_from(pool) | wire_values),
    )


wire_instances = st.builds(
    InstanceSpec,
    inputs=st.lists(wire_values, min_size=1, max_size=3).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=7)
    ),
    attack=st.none() | st.sampled_from(["corrupt", "slow-bleed"]),
    seed=st.none() | st.integers(0, 1 << 32),
    faulty=st.none() | st.lists(wire_pids, max_size=3),
)


class TestWireCodec:
    def test_runspec_roundtrip_exact(self):
        spec = RunSpec(
            n=7, t=2, l_bits=4096, attack="slow_bleed", seed=11,
            faulty=(1, 5), backend="ideal",
        )
        assert runspec_from_wire(runspec_to_wire(spec)) == spec

    @settings(max_examples=200, deadline=None)
    @given(result=wire_results(), instance=wire_instances)
    def test_v3_codecs_are_lossless_and_stable(self, result, instance):
        """``decode(loads(dumps(encode(x)))) == x`` (lossless through
        JSON, bigints exact) and ``encode(decode(encode(x))) ==
        encode(x)`` (stable: the transcript seal is over the encoded
        bytes of a *decoded* result)."""
        for x, encode, decode in (
            (result, result_to_wire, result_from_wire),
            (instance, instance_to_wire, instance_from_wire),
        ):
            wire = encode(x)
            assert json.loads(json.dumps(wire)) == wire  # JSON-safe
            assert decode(json.loads(json.dumps(wire))) == x
            assert encode(decode(wire)) == wire

    def test_engine_results_roundtrip_with_properties(self):
        results = ConsensusService(SPEC).run_many(list(MIXED))
        for result in results:
            decoded = result_from_wire(result_to_wire(result))
            assert decoded == result
            assert (decoded.value, decoded.valid, decoded.total_bits) == (
                result.value, result.valid, result.total_bits
            )

    def test_failure_free_result_line_says_the_value_once(self):
        """n=7, L=1024: 11.8 kB in wire v2, where the agreed value
        crossed 15 times and the symbols 7 times per generation."""
        value = random.Random(7).getrandbits(1024) | 1 << 1023
        [result] = ConsensusService(RunSpec(n=7, l_bits=1024)).run_many(
            [value]
        )
        line = json.dumps(result_to_wire(result)) + "\n"
        assert len(line) <= 3200
        assert line.count("%x" % value) == 1

    @pytest.mark.parametrize(
        "breakage",
        [
            lambda wire: wire["decisions"][1].__setitem__(0, -1),
            lambda wire: wire["decisions"][1].__setitem__(0, 1),
            lambda wire: wire.__setitem__("common_input", -1),
            lambda wire: wire["generations"][0].__setitem__(1, 99),
            lambda wire: wire["generations"][0].__setitem__(1, -1),
            lambda wire: wire["generations"][0][2].append([1, 2]),
            lambda wire: wire["decisions"][0].append([3]),
            lambda wire: wire["meter"]["bits"].pop(),
        ],
        ids=[
            "negative-value-index", "value-index-past-end",
            "negative-common-input", "shape-index-past-end",
            "negative-shape-index", "more-symbols-than-groups",
            "more-groups-than-values", "fewer-counts-than-tags",
        ],
    )
    def test_out_of_range_indices_do_not_decode(self, breakage):
        [result] = ConsensusService(SPEC).run_many([9])
        wire = result_to_wire(result)
        breakage(wire)
        with pytest.raises(ValueError):
            result_from_wire(wire)


# -- ConsensusServer (in-process) -------------------------------------------


class TestConsensusServer:
    def test_concurrent_flushes_run_in_submission_order(self):
        # Two cohorts due at once run one after the other, in submission
        # order, on the server's one worker thread, each equal to a
        # run_many of its own.
        first, second = list(MIXED), list(reversed(MIXED))
        service = ConsensusService(SPEC)
        executed = []
        run_batch = service._run_many_local

        def spy(batch):
            executed.append((threading.current_thread().name, batch))
            return run_batch(batch)

        service._run_many_local = spy

        async def scenario():
            server = ConsensusServer(
                service, window_ms=60_000.0, max_batch=len(MIXED)
            )
            await server.start()
            try:
                return await asyncio.gather(
                    *(server.submit(i) for i in first + second)
                )
            finally:
                await server.stop()

        served = asyncio.run(scenario())
        direct = ConsensusService(SPEC)
        assert [batch for _, batch in executed] == [first, second]
        assert len({thread for thread, _ in executed}) == 1
        assert executed[0][0].startswith("repro-batch")
        assert wires(served) == (
            wires(direct.run_many(first)) + wires(direct.run_many(second))
        )

    def test_a_stopped_server_serves_again_after_start(self):
        service = ConsensusService(SPEC)
        server = ConsensusServer(service, window_ms=1.0)

        async def serve_once():
            await server.start()
            try:
                return await server.submit(InstanceSpec(inputs=(3, 3, 3, 3)))
            finally:
                await server.stop()
                await server.stop()  # idempotent

        first = asyncio.run(serve_once())
        again = asyncio.run(serve_once())
        assert wires([first]) == wires([again])
        assert server.stats.snapshot()["flushes"] == 2

    def test_served_results_byte_identical_to_direct_run_many(self):
        direct = ConsensusService(SPEC).run_many(list(MIXED))

        async def scenario():
            server = ConsensusServer(SPEC, window_ms=2.0, max_batch=64)
            await server.start()
            try:
                return await asyncio.gather(
                    *(server.submit(instance) for instance in MIXED)
                )
            finally:
                await server.stop()

        assert wires(asyncio.run(scenario())) == wires(direct)

    def test_size_cap_flushes_before_the_window(self):
        async def scenario():
            server = ConsensusServer(
                SPEC, window_ms=60_000.0, max_batch=3, max_queue=100
            )
            await server.start()
            started = time.monotonic()
            results = await asyncio.gather(
                server.submit(1), server.submit(2), server.submit(3)
            )
            elapsed = time.monotonic() - started
            await server.stop()
            return results, elapsed, server.stats.snapshot()

        results, elapsed, snapshot = asyncio.run(scenario())
        assert [r.value for r in results] == [1, 2, 3]
        assert elapsed < 30.0  # nowhere near the 60 s window
        assert snapshot["flushes"] == 1
        assert snapshot["max_batch"] == 3

    def test_window_expiry_flushes_a_partial_batch(self):
        async def scenario():
            server = ConsensusServer(
                SPEC, window_ms=20.0, max_batch=1000, max_queue=100
            )
            await server.start()
            results = await asyncio.gather(
                server.submit(7), server.submit(8)
            )
            await server.stop()
            return results, server.stats.snapshot()

        results, snapshot = asyncio.run(scenario())
        assert [r.value for r in results] == [7, 8]
        assert snapshot["flushes"] == 1  # one cohort, cut by the window
        assert snapshot["mean_batch"] == 2.0

    def test_incompatible_specs_never_share_a_flush(self):
        other = RunSpec(n=7, l_bits=16)
        direct_a = ConsensusService(SPEC).run_many([5])
        direct_b = ConsensusService(other).run_many([6])

        async def scenario():
            server = ConsensusServer(SPEC, window_ms=20.0, max_batch=64)
            await server.start()
            results = await asyncio.gather(
                server.submit(5), server.submit(6, spec=other)
            )
            await server.stop()
            return results, server.stats.snapshot()

        results, snapshot = asyncio.run(scenario())
        assert snapshot["flushes"] == 2  # one per deployment
        assert wires(results[:1]) == wires(direct_a)
        assert wires(results[1:]) == wires(direct_b)

    def test_queue_full_rejection_and_queued_work_still_drains(self):
        async def scenario():
            server = ConsensusServer(
                SPEC, window_ms=60_000.0, max_batch=64, max_queue=2
            )
            await server.start()
            first = asyncio.create_task(server.submit(1))
            second = asyncio.create_task(server.submit(2))
            await asyncio.sleep(0.05)  # both enqueue; window far away
            with pytest.raises(QueueFullError):
                await server.submit(3)
            await server.stop(drain=True)  # admitted work still executes
            return await asyncio.gather(first, second), server.ps()

        results, snapshot = asyncio.run(scenario())
        assert [r.value for r in results] == [1, 2]
        assert snapshot["stats"]["rejected"] == {"queue_full": 1}
        assert snapshot["stats"]["served"] == 2

    def test_non_draining_stop_fails_queued_requests(self):
        async def scenario():
            server = ConsensusServer(
                SPEC, window_ms=60_000.0, max_batch=64, max_queue=100
            )
            await server.start()
            pending = asyncio.create_task(server.submit(1))
            await asyncio.sleep(0.05)
            await server.stop(drain=False)
            with pytest.raises(ServerClosedError):
                await pending
            return server.ps()

        snapshot = asyncio.run(scenario())
        assert snapshot["stats"]["served"] == 0

    def test_submit_after_stop_is_rejected(self):
        async def scenario():
            server = ConsensusServer(SPEC, window_ms=1.0)
            await server.start()
            await server.stop()
            with pytest.raises(ServerClosedError):
                await server.submit(1)
            return server.ps()

        snapshot = asyncio.run(scenario())
        assert snapshot["stats"]["rejected"] == {"server_closed": 1}

    def test_invalid_requests_are_rejected_immediately(self):
        async def scenario():
            server = ConsensusServer(SPEC, window_ms=1.0)
            await server.start()
            try:
                with pytest.raises(InvalidRequestError):
                    await server.submit(InstanceSpec(inputs=(1, 2, 3)))
                with pytest.raises(InvalidRequestError):
                    await server.submit(5, attack="no_such_attack")
                with pytest.raises(InvalidRequestError):
                    await server.submit(1 << 16)  # exceeds l_bits
            finally:
                await server.stop()
            return server.ps()

        snapshot = asyncio.run(scenario())
        assert snapshot["stats"]["rejected"] == {"invalid_request": 3}

    @pytest.mark.parametrize(
        "overrides",
        [
            {"faulty": (9,)},
            {"faulty": ("a",)},
            {"faulty": (0, 1, 2)},  # n=4 tolerates t=1
            {"attack": ["corrupt"]},
        ],
        ids=[
            "pid-out-of-range", "pid-not-an-int", "more-than-t", "attack-list",
        ],
    )
    def test_a_request_that_cannot_run_never_reaches_a_cohort(self, overrides):
        """Each of these used to pass admission, die mid-flush and fail
        every cohort-mate's future with its own exception."""

        async def scenario():
            server = ConsensusServer(SPEC, window_ms=20.0)
            await server.start()
            try:
                return await asyncio.gather(
                    server.submit(5),
                    server.submit(7, **overrides),
                    return_exceptions=True,
                )
            finally:
                await server.stop()

        good, bad = asyncio.run(scenario())
        assert good.value == 5
        assert isinstance(bad, InvalidRequestError)

    @pytest.mark.parametrize("_kind, bad, message", BAD_INSTANCES, ids=BAD_IDS)
    def test_admission_refuses_with_the_same_message(
        self, _kind, bad, message
    ):
        """The table ``ConsensusService.submit`` / ``run_many`` refuse
        (``tests/test_service.py::TestValidation``), at the server: the
        same function, so the same text under ``invalid_request``."""

        async def scenario():
            server = ConsensusServer(RunSpec(n=4, l_bits=16), window_ms=1.0)
            await server.start()
            try:
                with pytest.raises(InvalidRequestError) as info:
                    await server.submit(**bad)
                return str(info.value), server.ps()["stats"]["rejected"]
            finally:
                await server.stop()

        text, rejected = asyncio.run(scenario())
        assert message in text
        assert rejected == {InvalidRequestError.code: 1}

    def test_faulty_is_validated_on_the_deployment_default_too(self):
        async def scenario():
            server = ConsensusServer(SPEC, window_ms=1.0)
            await server.start()
            try:
                with pytest.raises(InvalidRequestError, match="faulty pid 9"):
                    await server.submit(
                        7, spec=RunSpec(n=4, l_bits=16, faulty=(9,))
                    )
                # At most t distinct pids: a repeated pid counts once.
                result = await server.submit(7, faulty=(1, 1))
            finally:
                await server.stop()
            return result

        assert asyncio.run(scenario()).value == 7

    def test_ps_snapshot_shape(self):
        async def scenario():
            server = ConsensusServer(SPEC, window_ms=2.0, max_batch=8)
            await server.start()
            await server.submit(1)
            snapshot = server.ps()
            await server.stop()
            return snapshot

        snapshot = asyncio.run(scenario())
        assert snapshot["running"] is True
        assert snapshot["queued"] == 0
        assert snapshot["default_deployment"]["n"] == SPEC.n
        assert snapshot["knobs"] == {
            "window_ms": 2.0, "max_batch": 8, "max_queue": 1024,
        }
        assert snapshot["stats"]["served"] == 1
        assert snapshot["stats"]["latency_ms"]["p50"] > 0

    def test_rejects_non_spec_deployment(self):
        with pytest.raises(TypeError):
            ConsensusServer("not-a-spec")

    def test_accepts_an_existing_service(self):
        service = ConsensusService(SPEC)

        async def scenario():
            server = ConsensusServer(service, window_ms=1.0)
            await server.start()
            assert server.service_for() is service
            result = await server.submit(4)
            await server.stop()
            return result

        assert asyncio.run(scenario()).value == 4


# -- TCP front-end + client SDK ---------------------------------------------


class TestServingOverTCP:
    def test_pipelined_batch_byte_identical_to_direct_run_many(self):
        direct = ConsensusService(SPEC).run_many(list(MIXED))
        with serve_background(SPEC, window_ms=5.0) as client:
            served = client.submit_many(list(MIXED))
            snapshot = client.ps()
        assert wires(served) == wires(direct)
        assert snapshot["stats"]["served"] == len(MIXED)

    def test_bare_value_submit_with_overrides(self):
        direct = ConsensusService(SPEC).run_many(
            [InstanceSpec(inputs=(21,) * SPEC.n, attack="corrupt", seed=3)]
        )
        with serve_background(SPEC) as client:
            served = client.submit(21, attack="corrupt", seed=3)
        assert wires([served]) == wires(direct)

    def test_full_width_value_at_l_2_16_round_trips(self):
        # ~19.7k decimal digits per value — past the interpreter's
        # 4300-digit int<->str cap wire v1 ran into — and a request line
        # past asyncio's 64 KiB default limit.
        l_bits = 1 << 16
        spec = RunSpec(n=4, l_bits=l_bits)
        value = random.Random(16).getrandbits(l_bits) | 1 << (l_bits - 1)
        batch = [
            InstanceSpec(inputs=(value,) * 4),
            InstanceSpec(inputs=(value,) * 4, attack="crash", seed=1),
        ]
        direct = ConsensusService(spec).run_many(batch)
        with serve_background(spec) as client:
            served = client.submit_many(batch)
            bare = client.submit(value)
        assert served == direct and bare == direct[0]
        assert bare.value == value

    def test_oversized_request_line_is_rejected_typed(self, monkeypatch):
        from repro.service.serving import server as server_module

        monkeypatch.setattr(server_module, "MAX_FRAME_BYTES", 1 << 10)
        with serve_background(SPEC) as client:
            with pytest.raises(InvalidRequestError, match="limit"):
                client.submit(InstanceSpec(inputs=(1,) * 400))
            # The server hung up on that connection only.
            client.close()
            assert client.submit(5).value == 5

    def test_rejections_surface_as_the_same_exception_classes(self):
        with serve_background(SPEC) as client:
            with pytest.raises(InvalidRequestError):
                client.submit(5, attack="no_such_attack")
            with pytest.raises(InvalidRequestError):
                client.submit(InstanceSpec(inputs=(1, 2, 3)))
            with pytest.raises(InvalidRequestError):
                client.submit(1 << SPEC.l_bits)  # one bit too wide
            result = client.submit(5)  # connection survives rejections
        assert result.value == 5

    @pytest.mark.parametrize(
        "hostile",
        [
            {"instance": {"inputs": ["7"] * 4, "attack": None,
                          "seed": None, "faulty": None}},
            {"instance": {"values": ["7"], "inputs": [0, 0, 0, 1]}},
            {"instance": {"values": ["7", "8"], "inputs": [0, 0, 0, -1]}},
            {"value": "7", "faulty": [9]},
            {"value": "7", "faulty": ["a"]},
            {"value": "7", "faulty": [0, 1, 2]},
            {"value": "7", "attack": ["corrupt"]},
            {"instance": {"values": ["7"], "inputs": [0] * 4,
                          "attack": ["corrupt"]}},
            {"value": "0x7"},
            {"instance": {"values": ["7"], "inputs": [False] * 4}},
            {"value": "7", "seed": "x"},
            {"value": "7", "seed": 1.5},
            {"value": "7", "seed": True},
            {"value": "7", "faulty": [True]},
        ],
        ids=[
            "v2-instance", "index-past-end", "negative-index",
            "faulty-out-of-range", "faulty-not-an-int", "faulty-more-than-t",
            "attack-list", "instance-attack-list", "value-not-canonical",
            "index-not-an-int", "seed-not-an-int", "seed-float", "seed-bool",
            "faulty-bool",
        ],
    )
    def test_hostile_frame_gets_a_typed_reply_and_harms_nobody(self, hostile):
        """Raw socket, hostile and good request pipelined in one write:
        the hostile one is refused by code, the good one resolves, and
        the connection keeps serving."""

        def lines(*messages):
            return b"".join(
                json.dumps(message).encode() + b"\n" for message in messages
            )

        with serve_background(SPEC, window_ms=20.0) as client:
            with socket.create_connection(
                (client.host, client.port), timeout=10.0
            ) as sock:
                stream = sock.makefile("rwb")
                stream.write(lines(
                    dict(hostile, op="submit", id="hostile"),
                    {"op": "submit", "id": "good", "value": "5"},
                ))
                stream.flush()
                replies = {}
                for _ in range(2):
                    reply = json.loads(stream.readline())
                    replies[reply["id"]] = reply
                stream.write(lines({"op": "submit", "id": 3, "value": "6"}))
                stream.flush()
                after = json.loads(stream.readline())
        assert replies["hostile"]["ok"] is False
        assert replies["hostile"]["error"] == "invalid_request"
        assert result_from_wire(replies["good"]["result"]).value == 5
        assert result_from_wire(after["result"]).value == 6

    def test_a_failing_handler_still_answers(self, monkeypatch):
        """Anything the handler does not expect is answered as
        ``internal_error`` (the SDK's ``ServingError``), not left to the
        client's socket timeout."""
        from repro.service.serving import server as server_module

        def broken(result):
            raise RuntimeError("codec exploded")

        with serve_background(SPEC) as client:
            with monkeypatch.context() as patch:
                patch.setattr(server_module, "result_to_wire", broken)
                with pytest.raises(ServingError, match="codec exploded"):
                    client.submit(5)
            assert client.submit(5).value == 5  # same connection

    def test_submit_many_is_one_write_and_one_server_side_flush(self):
        with serve_background(SPEC, window_ms=250.0, max_batch=64) as client:
            client.ps()  # connects
            client._file = stream = mock.Mock(wraps=client._file)
            served = client.submit_many(list(range(32)))
            sends = [
                call[0] for call in stream.method_calls
                if call[0] != "readline"
            ]
            stats = client.ps()["stats"]
        assert [result.value for result in served] == list(range(32))
        assert sends == ["write", "flush"]
        assert (stats["flushes"], stats["max_batch"]) == (1, 32)

    def test_non_default_deployment_over_the_wire(self):
        other = RunSpec(n=7, l_bits=16)
        direct = ConsensusService(other).run_many([6])
        with serve_background(SPEC) as client:
            served = client.submit(6, spec=other)
            snapshot = client.ps()
        assert wires([served]) == wires(direct)
        assert snapshot["stats"]["served"] == 1

    def test_instance_spec_with_overrides_is_a_client_side_error(self):
        client = ServingClient()
        with pytest.raises(ValueError, match="InstanceSpec"):
            client._submit_payload(
                InstanceSpec(inputs=(1, 1, 1, 1)), "corrupt", None, None,
                None,
            )

    def test_connecting_to_nothing_raises_serving_error(self):
        client = ServingClient(port=1)  # nothing listens on port 1
        with pytest.raises(ServingError):
            client.ps()

    def test_shutdown_drains_and_closes_the_listener(self):
        with serve_background(SPEC, window_ms=1.0) as client:
            port = client.port
            assert client.submit(3).value == 3
            client.shutdown()
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                probe = ServingClient(port=port, timeout=1.0)
                try:
                    probe.ps()
                except (ServingError, AdmissionError):
                    break
                finally:
                    probe.close()
                time.sleep(0.05)
            else:
                pytest.fail("listener still serving after shutdown")


@pytest.mark.parametrize("stop", ["sigint", "shutdown_op"])
def test_stopping_serve_with_a_client_connected_prints_nothing(stop):
    """Ctrl-C on ``repro-sim serve``, or a ``shutdown`` op from another
    client, while a client holds a connection open exits 0 with nothing
    on stderr, and the open connection reads end of file: the server
    ends each connection and waits for its handler before the loop ends
    (a handler the loop's end cancels is reported as an asyncio error)."""
    source = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (source, os.environ.get("PYTHONPATH")))
    ))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--n", "4",
         "--l-bits", "16", "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    )
    try:
        port = int(proc.stdout.readline().rsplit(":", 1)[1])
        proc.stdout.readline()  # the knobs line: the loop is serving
        with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
            stream = sock.makefile("rwb")
            stream.write(b'{"op":"submit","id":1,"value":"beef"}\n')
            stream.flush()
            assert json.loads(stream.readline())["ok"]
            if stop == "sigint":
                proc.send_signal(signal.SIGINT)
            else:
                with ServingClient(port=port) as client:
                    client.shutdown()
            _, stderr = proc.communicate(timeout=60)
            assert stream.readline() == b""
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert (proc.returncode, stderr) == (0, "")


class _ListenerAsOf312:
    """A TCP listener whose ``wait_closed`` returns, as from Python
    3.12.1, only once the connections it accepted are closed (here the
    one connection whose end of file sets ``eof``)."""

    def __init__(self, listener, eof: asyncio.Event):
        self._listener = listener
        self._eof = eof

    def close(self) -> None:
        self._listener.close()

    async def wait_closed(self) -> None:
        await self._listener.wait_closed()
        await self._eof.wait()


def test_stop_ends_open_connections_before_awaiting_the_listener():
    """With a client still connected, ``stop()`` returns under a listener
    that waits for its connections: the server ends each connection
    first, and the client reads its reply and then end of file."""

    async def scenario():
        server = ConsensusServer(RunSpec(n=4, l_bits=16))
        listener = await server.serve_tcp(port=0)
        port = listener.sockets[0].getsockname()[1]
        eof = asyncio.Event()
        server._tcp = _ListenerAsOf312(listener, eof)
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(b'{"op":"submit","id":1,"value":"beef"}\n')
        await writer.drain()
        reply = json.loads(await reader.readline())

        async def read_to_eof():
            rest = await reader.read()
            eof.set()
            return rest

        reading = asyncio.create_task(read_to_eof())
        await asyncio.wait_for(server.stop(), timeout=30)
        rest = await reading
        writer.close()
        return reply, rest

    reply, rest = asyncio.run(scenario())
    assert reply["ok"] and rest == b""


def test_stop_aborts_a_client_that_stopped_reading(monkeypatch):
    """A client that pipelines submits and requests, then never reads,
    leaves its replies unsent; ``stop()`` aborts its connection after
    the grace period instead of waiting for ever, and asyncio reports
    no error."""
    from repro.service.serving import server as server_module

    monkeypatch.setattr(server_module, "_CLOSE_GRACE_S", 0.2)

    async def scenario():
        loop = asyncio.get_running_loop()
        errors = []
        loop.set_exception_handler(lambda _, context: errors.append(context))
        server = ConsensusServer(RunSpec(n=4, l_bits=16))
        listener = await server.serve_tcp(port=0)
        port = listener.sockets[0].getsockname()[1]
        with socket.socket() as sock:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            sock.setblocking(False)
            await loop.sock_connect(sock, ("127.0.0.1", port))
            # The ps replies (about 0.7 KiB each, 33 MB in all) fill
            # every buffer between the server and this socket, which
            # reads nothing.
            await loop.sock_sendall(sock, b"".join(
                b'{"op":"submit","id":%d,"value":"beef"}\n' % index
                for index in range(8)
            ) + b'{"op":"ps"}\n' * 50000)
            await asyncio.sleep(0.5)
            started = time.monotonic()
            await asyncio.wait_for(server.stop(), timeout=30)
            elapsed = time.monotonic() - started
        await asyncio.sleep(0)
        return elapsed, errors

    elapsed, errors = asyncio.run(scenario())
    assert 0.2 <= elapsed < 30
    assert errors == []
