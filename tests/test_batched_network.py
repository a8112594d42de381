"""The network's batches: delivery, carrier forms and validation, plus
the network-layer bugfix regressions (self-send, diff negative deltas,
bool payload validation)."""

import random

import numpy as np
import pytest

from repro.coding.interleaved import InterleavedCode, make_symbol_code
from repro.coding.reed_solomon import ReedSolomonCode
from repro.core.broadcast import MultiValuedBroadcast
from repro.core.config import ConsensusConfig
from repro.core.consensus import MultiValuedConsensus
from repro.graphs.diagnosis_graph import DiagnosisGraph
from repro.network import BitMeter, NetworkError, SymbolBatch, SyncNetwork
from repro.processors.adversary import Adversary
from repro.utils.boundary import is_exact_int
from tests.conftest import typed_rows


def all_edges(n):
    """All off-diagonal edges with payload = sender * 10 + receiver."""
    return [(s, r, s * 10 + r) for s in range(n) for r in range(n) if s != r]


class TestSendManyEquivalence:
    """What a batch delivers and journals does not depend on how its
    edges were ordered or carried."""

    def test_journal_order_identical(self):
        """The journal sorts a round's rows by receiver, then sender:
        the order edges were sent in does not show."""
        n = 4
        journals = []
        for edges in (all_edges(n), list(reversed(all_edges(n)))):
            net = SyncNetwork(n, journal=True)
            senders, receivers, payloads = zip(*edges)
            net.send_many(senders, receivers, payloads, bits=1, tag="x")
            net.deliver_arrays()
            journals.append(typed_rows(net.journal))
        assert journals[0] == journals[1]
        assert [row[1:3] for row in journals[0]] == [
            (("int", s), ("int", r))
            for r in range(n) for s in range(n) if s != r
        ]

    def test_deliver_arrays_returns_batches_in_send_order(self):
        net = SyncNetwork(4)
        net.send_many([0, 0], [1, 2], [10, 20], bits=2, tag="batch")
        net.send_many([3], [1], ["s"], bits=2, tag="other")
        delivery = net.deliver_arrays()
        assert delivery.round_index == 0
        assert net.round_index == 1
        assert [batch.tag for batch in delivery.batches] == ["batch", "other"]
        batch = delivery.batches[0]
        assert isinstance(batch, SymbolBatch)
        assert batch.tag == "batch" and batch.round_index == 0
        assert batch.senders.tolist() == [0, 0]
        assert batch.payloads == [10, 20]
        assert delivery.batches[1].payload_list() == ["s"]

    def test_numpy_payload_array_supported(self):
        net = SyncNetwork(3)
        net.send_many(
            np.array([0, 1]), np.array([1, 2]), np.array([7, 8]), bits=4,
            tag="x",
        )
        delivery = net.deliver_arrays()
        assert list(delivery.batches[0].payloads) == [7, 8]
        assert net.meter.total_bits == 8

    def test_numpy_payloads_kept_as_lane_but_scalars_stay_exact(self):
        # An integer ndarray payload is retained as the batch's packed
        # payload lane; consumers go through payload_list(), so np.int64
        # never reaches the receivers' exact-type payload validation.
        net = SyncNetwork(3)
        net.send_many(
            np.array([0]), np.array([1]), np.array([7], dtype=np.int64),
            bits=4, tag="x",
        )
        delivery = net.deliver_arrays()
        batch = delivery.batches[0]
        assert isinstance(batch.payloads, np.ndarray)
        assert batch.payloads.dtype == np.int64
        assert all(is_exact_int(p) for p in batch.payload_list())

    def test_lane_payloads_copied_when_caller_buffer_is_a_view(self):
        # An ndarray payload that is a view of a caller-owned buffer
        # (e.g. an arena slice) must be copied at send time: mutating
        # the buffer after send_many cannot alter the wire payloads.
        net = SyncNetwork(3)
        buffer = np.array([5, 6, 99], dtype=np.int64)
        view = buffer[:2]
        net.send_many([0, 0], [1, 2], view, bits=4, tag="x")
        buffer[:] = 0
        delivery = net.deliver_arrays()
        assert delivery.batches[0].payload_list() == [5, 6]

    def test_lane_payloads_owned_array_kept_without_copy(self):
        # Fancy-indexed gathers own their data, so the common
        # diagonal[senders] path rides the lane with no copy.
        net = SyncNetwork(3)
        owned = np.array([3, 4], dtype=np.int64)
        net.send_many([0, 1], [1, 2], owned, bits=4, tag="x")
        delivery = net.deliver_arrays()
        assert delivery.batches[0].payloads is owned

    def test_empty_batch_is_a_noop(self):
        net = SyncNetwork(3)
        net.send_many([], [], [], bits=4, tag="x")
        assert net.meter.total_bits == 0
        assert net.deliver_arrays().batches == []


class TestSendManyValidation:
    def test_duplicate_within_batch_rejected(self):
        net = SyncNetwork(3)
        with pytest.raises(NetworkError, match="duplicate"):
            net.send_many([0, 0], [1, 1], [1, 2], bits=1, tag="x")

    def test_duplicate_across_batches_rejected(self):
        net = SyncNetwork(3)
        net.send_many([0], [1], [1], bits=1, tag="x")
        with pytest.raises(NetworkError, match="duplicate"):
            net.send_many([0], [1], [2], bits=1, tag="x")

    def test_distinct_tags_and_next_round_allowed(self):
        net = SyncNetwork(3)
        net.send_many([0], [1], [1], bits=1, tag="x")
        net.send_many([0], [1], [2], bits=1, tag="y")
        net.deliver_arrays()
        net.send_many([0], [1], [3], bits=1, tag="x")
        assert len(net.deliver_arrays().batches) == 1

    def test_bad_pid_rejected(self):
        net = SyncNetwork(3)
        with pytest.raises(NetworkError, match="out of range"):
            net.send_many([0], [3], [1], bits=1, tag="x")
        with pytest.raises(NetworkError, match="out of range"):
            net.send_many([-1], [0], [1], bits=1, tag="x")

    def test_length_mismatch_rejected(self):
        net = SyncNetwork(3)
        with pytest.raises(NetworkError):
            net.send_many([0, 1], [1], [1, 2], bits=1, tag="x")
        with pytest.raises(NetworkError, match="payload count"):
            net.send_many([0, 1], [1, 2], [1], bits=1, tag="x")


class TestSelfSendRegression:
    """Satellite: self-sends must be a NetworkError naming the round, not
    a bare ValueError."""

    def test_batched_self_send_is_network_error_naming_round(self):
        net = SyncNetwork(3)
        net.deliver_arrays()
        with pytest.raises(NetworkError, match="round 1"):
            net.send_many([0, 1], [1, 1], [1, 2], bits=1, tag="x")

    def test_self_send_rejected_before_any_buffering(self):
        net = SyncNetwork(3)
        with pytest.raises(NetworkError):
            net.send_many([2], [2], [0], bits=1, tag="x")
        assert net.meter.total_bits == 0
        assert net.deliver_arrays().batches == []


class TestMeterDiffRegression:
    """Satellite: diff must report tags present only in ``earlier``."""

    def test_diff_across_reset_reports_negative_deltas(self):
        meter = BitMeter()
        meter.add("a", 5)
        meter.add("b", 3)
        before = meter.snapshot()
        meter.reset()
        meter.add("a", 2)
        delta = meter.snapshot().diff(before)
        assert delta.bits_by_tag == {"a": -3, "b": -3}
        # "a" has one message before and after (unchanged: dropped);
        # "b"'s message disappeared entirely.
        assert delta.messages_by_tag == {"b": -1}
        assert delta.total_bits == -6

    def test_diff_forward_still_reports_growth_only(self):
        meter = BitMeter()
        meter.add("a", 5)
        before = meter.snapshot()
        meter.add("a", 3)
        meter.add("b", 2)
        delta = meter.snapshot().diff(before)
        assert delta.bits_by_tag == {"a": 3, "b": 2}

    def test_diff_drops_unchanged_tags(self):
        meter = BitMeter()
        meter.add("same", 4)
        before = meter.snapshot()
        delta = meter.snapshot().diff(before)
        assert delta.bits_by_tag == {}
        assert delta.messages_by_tag == {}


class _BoolPayloadAdversary(Adversary):
    """Sends the Python bool ``True`` instead of its matching symbol."""

    def matching_row(self, pid, recipients, honest_symbol, generation, view):
        return True, {}


class _InvalidIntAdversary(Adversary):
    """Sends an out-of-range int instead of its matching symbol."""

    def __init__(self, faulty, limit):
        super().__init__(faulty)
        self._limit = limit

    def matching_row(self, pid, recipients, honest_symbol, generation, view):
        return self._limit, {}


class TestBoolPayloadRegression:
    """Satellite: ``True`` is not the symbol 1 — exact int checks only."""

    def test_is_exact_int(self):
        assert is_exact_int(1)
        assert is_exact_int(0)
        assert not is_exact_int(True)
        assert not is_exact_int(False)
        assert not is_exact_int(np.int64(1))
        assert not is_exact_int(1.0)
        assert not is_exact_int("1")

    def test_generation_valid_symbol_rejects_bool(self):
        # Every engine receives a symbol by the one rule.
        from repro.processors.answers import received_symbol

        config = ConsensusConfig.create(n=4, l_bits=64)
        limit = MultiValuedConsensus(config).code.symbol_limit
        assert received_symbol(True, limit) is None
        assert received_symbol(False, limit) is None
        assert received_symbol(1, limit) == 1

    def test_bool_payload_treated_exactly_like_invalid_symbol(self):
        # A Byzantine True payload must take the same code path as any
        # other non-symbol payload: same bits on the wire (payload content
        # never changes accounted size), same decisions, same diagnosis.
        config = ConsensusConfig.create(n=7, l_bits=256)
        value = random.Random(3).getrandbits(256)
        runs = {}
        for name, adversary in (
            ("bool", _BoolPayloadAdversary([2])),
            ("invalid_int", _InvalidIntAdversary([2], 1 << config.symbol_bits)),
        ):
            # On the per-generation engine (``_valid_symbol``) and on
            # the default one (the cohort classifies payloads itself).
            result, default = (
                MultiValuedConsensus(
                    config, adversary=adversary, batch_generations=batch
                ).run([value] * 7)
                for batch in (False, True)
            )
            assert result.error_free and result == default
            runs[name] = result
        assert runs["bool"].decisions == runs["invalid_int"].decisions
        assert (
            runs["bool"].meter.bits_by_tag
            == runs["invalid_int"].meter.bits_by_tag
        )
        assert (
            runs["bool"].diagnosis_count == runs["invalid_int"].diagnosis_count
        )

    def test_mv_broadcast_bool_relay_payload_is_invalid(self):
        class BoolRelayAdversary(Adversary):
            def forwarded_symbol(self, pid, recipient, honest, g, view):
                return True

        broadcast = MultiValuedBroadcast(
            n=7, l_bits=128, adversary=BoolRelayAdversary([3])
        )
        result = broadcast.run(source=0, value=0x5A5A)
        # Safety must hold, and the bogus payloads must be detected (the
        # receivers treat them as missing symbols, never as the symbol 1).
        assert result.consistent
        assert result.value == 0x5A5A


class TestDiagnosisGraphMask:
    def test_mask_reflects_removals_live(self):
        graph = DiagnosisGraph(5)
        mask = graph.trust_mask()
        assert mask[0, 1] and mask[1, 0]
        graph.remove_edge(0, 1)
        assert not mask[0, 1] and not mask[1, 0]

    def test_mask_read_only(self):
        graph = DiagnosisGraph(4)
        mask = graph.trust_mask()
        with pytest.raises(ValueError):
            mask[0, 1] = False

    def test_mask_matches_trusts(self):
        graph = DiagnosisGraph(6)
        graph.remove_edge(0, 3)
        graph.isolate(5)
        mask = graph.trust_mask()
        for i in range(6):
            for j in range(6):
                if i != j:
                    assert bool(mask[i, j]) == graph.trusts(i, j)

    def test_is_complete(self):
        graph = DiagnosisGraph(4)
        assert graph.removed_edges() == []
        graph.remove_edge(1, 2)
        assert graph.removed_edges() == [(1, 2)]

    def test_copy_is_independent(self):
        graph = DiagnosisGraph(4)
        dup = graph.copy()
        graph.remove_edge(0, 1)
        assert dup.trusts(0, 1)
        assert not graph.trusts(0, 1)

    def test_find_trusting_set_sees_removals(self):
        # The memoised clique-search view must invalidate on removal.
        graph = DiagnosisGraph(5)
        assert graph.find_trusting_set(3) == [0, 1, 2]
        graph.remove_edge(0, 1)
        assert graph.find_trusting_set(3) == [0, 2, 3]
        graph.remove_edge(0, 2)
        graph.remove_edge(0, 3)
        graph.remove_edge(0, 4)
        assert graph.find_trusting_set(3) == [1, 2, 3]


class TestEncodeGenerations:
    def test_matches_scalar_encode(self):
        rng = random.Random(11)
        for code in (
            ReedSolomonCode(7, 3, 4),
            InterleavedCode(7, 3, 4, 5),
            make_symbol_code(7, 3, 507),
        ):
            parts = [
                [rng.randrange(code.symbol_limit) for _ in range(code.k)]
                for _ in range(9)
            ]
            assert code.encode_generations(parts) == [
                code.encode(list(part)) for part in parts
            ]

    def test_empty(self):
        assert ReedSolomonCode(7, 3, 4).encode_generations([]) == []

    def test_bad_shape_rejected(self):
        code = ReedSolomonCode(7, 3, 4)
        with pytest.raises(ValueError):
            code.encode_generations([[1, 2]])
        with pytest.raises(ValueError):
            InterleavedCode(7, 3, 4, 2).encode_generations([[1, 2]])


def _assert_runs_equivalent(config, inputs, adversary_factory, label):
    runs = {}
    for batch in (True, False):
        consensus = MultiValuedConsensus(
            config,
            adversary=adversary_factory(),
            batch_generations=batch,
        )
        runs[batch] = (consensus, consensus.run(inputs))
    batched_consensus, batched = runs[True]
    scalar_consensus, scalar = runs[False]
    assert batched.decisions == scalar.decisions, label
    assert batched.meter.bits_by_tag == scalar.meter.bits_by_tag, label
    assert (
        batched.meter.messages_by_tag == scalar.meter.messages_by_tag
    ), label
    assert batched.default_used == scalar.default_used, label
    assert batched.diagnosis_count == scalar.diagnosis_count, label
    assert len(batched.generation_results) == len(
        scalar.generation_results
    ), label
    for fast, slow in zip(
        batched.generation_results, scalar.generation_results
    ):
        assert fast.generation == slow.generation
        assert fast.outcome is slow.outcome, (label, fast.generation)
        assert fast.decisions == slow.decisions, (label, fast.generation)
        assert fast.p_match == slow.p_match, (label, fast.generation)
        assert fast.p_decide == slow.p_decide, (label, fast.generation)
        assert fast.removed_edges == slow.removed_edges
        assert fast.isolated == slow.isolated
        assert fast.detectors == slow.detectors
    assert (
        batched_consensus.network.round_index
        == scalar_consensus.network.round_index
    ), label
    assert (
        batched_consensus.backend.stats.instances
        == scalar_consensus.backend.stats.instances
    ), label
    assert (
        batched_consensus.backend.stats.bits_charged
        == scalar_consensus.backend.stats.bits_charged
    ), label


class TestCrossGenerationBatchingEquivalence:
    """``batch_generations`` on (a failure-free equal-input run goes
    through the cohort engine) is observationally identical to off (the
    per-generation protocol everywhere) — decisions, per-generation
    records, byte-identical metering, round clock and backend instance
    counts."""

    def test_all_equal_inputs(self):
        rng = random.Random(21)
        for n in (4, 7, 10):
            config = ConsensusConfig.create(n=n, l_bits=1024)
            value = rng.getrandbits(1024)
            _assert_runs_equivalent(
                config, [value] * n, lambda: None, "equal n=%d" % n
            )

    def test_differing_inputs_fall_back_per_generation(self):
        rng = random.Random(22)
        config = ConsensusConfig.create(n=7, l_bits=512)
        inputs = [rng.getrandbits(512) for _ in range(7)]
        _assert_runs_equivalent(config, inputs, lambda: None, "differing")

    def test_single_generation_mismatch_replays_only_that_generation(self):
        rng = random.Random(23)
        config = ConsensusConfig.create(n=7, l_bits=1024)
        base = rng.getrandbits(1024)
        inputs = [base] * 6 + [base ^ 1]  # last generation differs only
        _assert_runs_equivalent(config, inputs, lambda: None, "one-bit")

    def test_t_zero(self):
        config = ConsensusConfig.create(n=4, t=0, l_bits=256)
        _assert_runs_equivalent(
            config, [0xDEADBEEF] * 4, lambda: None, "t=0"
        )

    def test_byzantine_adversary_disables_fast_path_consistently(self):
        config = ConsensusConfig.create(n=7, l_bits=256)
        value = random.Random(24).getrandbits(256)
        _assert_runs_equivalent(
            config,
            [value] * 7,
            lambda: _BoolPayloadAdversary([1]),
            "byzantine",
        )

    def test_phase_king_backend(self):
        # A non-ideal error-free backend runs real per-bit broadcasts,
        # so the planner keeps it on the per-generation engine either
        # way; metering must not depend on the toggle.
        config = ConsensusConfig.create(
            n=4, l_bits=64, backend="phase_king"
        )
        _assert_runs_equivalent(
            config, [0x1234] * 4, lambda: None, "phase_king"
        )

    def test_fast_path_actually_engaged(self):
        # Guard against silently losing the optimisation: the batched run
        # must not instantiate any per-generation protocol objects for an
        # all-equal failure-free run.
        config = ConsensusConfig.create(n=7, l_bits=512)
        consensus = MultiValuedConsensus(config)
        calls = []
        from repro.service import engine as engine_module

        original = engine_module.GenerationProtocol

        class Spy(original):
            def __init__(self, *args, **kwargs):
                calls.append(1)
                super().__init__(*args, **kwargs)

        engine_module.GenerationProtocol = Spy
        try:
            result = consensus.run([7] * 7)
        finally:
            engine_module.GenerationProtocol = original
        assert result.error_free
        assert calls == []
