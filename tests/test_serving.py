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
import random
import time

import pytest

from repro.service import (
    AsyncExecutor,
    ConsensusService,
    InstanceSpec,
    RunSpec,
)
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


class TestWireCodec:
    def test_runspec_roundtrip_exact(self):
        spec = RunSpec(
            n=7, t=2, l_bits=4096, attack="slow_bleed", seed=11,
            faulty=(1, 5), backend="ideal",
        )
        assert runspec_from_wire(runspec_to_wire(spec)) == spec

    def test_instance_roundtrip_exact(self):
        instance = InstanceSpec(
            inputs=(1 << 4000, 0, 3, 4), attack="corrupt", seed=9,
            faulty=(2,),
        )
        assert instance_from_wire(instance_to_wire(instance)) == instance

    @pytest.mark.parametrize(
        "instance",
        [
            InstanceSpec(inputs=(9, 9, 9, 9)),
            InstanceSpec(inputs=(1, 2, 3, 4), attack="corrupt", seed=7),
            InstanceSpec(inputs=(5, 5, 5, 5), attack="trust_poison", seed=2),
        ],
        ids=["honest", "corrupt", "trust_poison"],
    )
    def test_result_roundtrip_exact(self, instance):
        result = ConsensusService(SPEC).run_many([instance])[0]
        decoded = result_from_wire(result_to_wire(result))
        assert decoded == result
        assert decoded.value == result.value
        assert decoded.valid == result.valid
        assert decoded.meter.total_bits == result.meter.total_bits

    def test_wire_payload_survives_json(self):
        import json

        result = ConsensusService(RunSpec(n=4, l_bits=4096)).run_many(
            [InstanceSpec(inputs=(1 << 4000,) * 4)]
        )[0]
        payload = json.loads(json.dumps(result_to_wire(result)))
        assert result_from_wire(payload) == result  # bigints stay exact


# -- AsyncExecutor ----------------------------------------------------------


class TestAsyncExecutor:
    def test_results_byte_identical_to_serial(self):
        service = ConsensusService(SPEC)
        async_results = service.run_many(list(MIXED), executor="async")
        serial_results = service.run_many(list(MIXED), executor="serial")
        assert wires(async_results) == wires(serial_results)

    def test_run_async_from_a_loop(self):
        service = ConsensusService(SPEC)

        async def scenario():
            executor = AsyncExecutor()
            try:
                return await executor.run_async(service, list(MIXED))
            finally:
                executor.shutdown()

        assert wires(asyncio.run(scenario())) == wires(
            service.run_many(list(MIXED))
        )

    def test_sync_run_inside_a_running_loop_raises(self):
        service = ConsensusService(SPEC)

        async def scenario():
            with pytest.raises(RuntimeError, match="run_async"):
                AsyncExecutor().run(service, list(MIXED))

        asyncio.run(scenario())

    def test_shutdown_is_idempotent_and_executor_stays_usable(self):
        service = ConsensusService(SPEC)
        executor = AsyncExecutor()
        first = executor.run(service, [InstanceSpec(inputs=(3, 3, 3, 3))])
        executor.shutdown()
        executor.shutdown()
        again = executor.run(service, [InstanceSpec(inputs=(3, 3, 3, 3))])
        assert wires(first) == wires(again)


# -- ConsensusServer (in-process) -------------------------------------------


class TestConsensusServer:
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
            result = client.submit(5)  # connection survives rejections
        assert result.value == 5

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
