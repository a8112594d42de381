"""Synchronous network simulator and bit metering."""

import pytest

from repro.network import BitMeter, NetworkError, SyncNetwork
from tests.conftest import inboxes, send


class TestBitMeter:
    def test_empty(self):
        meter = BitMeter()
        assert meter.total_bits == 0
        assert meter.total_messages == 0

    def test_add_accumulates(self):
        meter = BitMeter()
        meter.add("a", 10)
        meter.add("a", 5, messages=2)
        assert meter.snapshot().bits_by_tag["a"] == 15
        assert meter.total_messages == 3

    def test_negative_rejected(self):
        meter = BitMeter()
        with pytest.raises(ValueError):
            meter.add("a", -1)
        with pytest.raises(ValueError):
            meter.add("a", 1, messages=-1)

    def test_prefix_aggregation(self):
        meter = BitMeter()
        meter.add("gen0.matching.symbols", 10)
        meter.add("gen0.matching.M", 20)
        meter.add("gen0.checking", 5)
        meter.add("gen1.matching.symbols", 7)
        assert meter.bits_with_prefix("gen0.matching") == 30
        assert meter.bits_with_prefix("gen0") == 35
        assert meter.bits_with_prefix("gen1") == 7

    def test_prefix_no_partial_token_match(self):
        meter = BitMeter()
        meter.add("gen10.x", 3)
        assert meter.bits_with_prefix("gen1") == 0

    def test_snapshot_immutable_view(self):
        meter = BitMeter()
        meter.add("a", 1)
        snap = meter.snapshot()
        meter.add("a", 1)
        assert snap.bits_by_tag["a"] == 1
        assert meter.snapshot().bits_by_tag["a"] == 2

    def test_snapshot_diff(self):
        meter = BitMeter()
        meter.add("a", 5)
        before = meter.snapshot()
        meter.add("a", 3)
        meter.add("b", 2)
        delta = meter.snapshot().diff(before)
        assert delta.bits_by_tag == {"a": 3, "b": 2}
        assert delta.total_bits == 5

    def test_reset(self):
        meter = BitMeter()
        meter.add("a", 5)
        meter.reset()
        assert meter.total_bits == 0

    def test_items_sorted(self):
        meter = BitMeter()
        meter.add("b", 1)
        meter.add("a", 2)
        assert [tag for tag, _ in meter.items()] == ["a", "b"]


class TestSyncNetwork:
    def test_roundtrip(self):
        net = SyncNetwork(3)
        send(net, 0, 1, payload=42, bits=8, tag="x")
        received = inboxes(net)
        assert len(received[1]) == 1
        assert received[1][0][1] == 42
        assert received[0] == [] and received[2] == []

    def test_bits_metered_at_send(self):
        net = SyncNetwork(3)
        send(net, 0, 1, payload=0, bits=7, tag="x")
        assert net.meter.total_bits == 7

    def test_round_counter(self):
        net = SyncNetwork(2)
        assert net.round_index == 0
        net.deliver_arrays()
        assert net.round_index == 1

    def test_messages_tagged_with_round(self):
        net = SyncNetwork(2)
        net.deliver_arrays()
        send(net, 0, 1, payload=0, bits=1, tag="x")
        assert inboxes(net)[1][0][2] == 1

    def test_inbox_sorted_by_sender(self):
        """The journal orders a round by receiver, then sender."""
        net = SyncNetwork(4, journal=True)
        net.send_many([2, 1, 3], [0, 0, 0], ["c", "b", "d"], bits=1, tag="x")
        net.deliver_arrays()
        assert [row[1] for row in net.journal] == [1, 2, 3]

    def test_duplicate_send_rejected(self):
        net = SyncNetwork(3)
        send(net, 0, 1, payload=0, bits=1, tag="x")
        with pytest.raises(NetworkError):
            send(net, 0, 1, payload=1, bits=1, tag="x")

    def test_duplicate_allowed_with_distinct_tags(self):
        net = SyncNetwork(3)
        send(net, 0, 1, payload=0, bits=1, tag="x")
        send(net, 0, 1, payload=1, bits=1, tag="y")
        assert len(inboxes(net)[1]) == 2

    def test_duplicate_allowed_next_round(self):
        net = SyncNetwork(3)
        send(net, 0, 1, payload=0, bits=1, tag="x")
        net.deliver_arrays()
        send(net, 0, 1, payload=1, bits=1, tag="x")
        assert len(inboxes(net)[1]) == 1

    def test_bad_pid_rejected(self):
        net = SyncNetwork(3)
        with pytest.raises(NetworkError):
            send(net, 0, 3, payload=0, bits=1, tag="x")
        with pytest.raises(NetworkError):
            send(net, -1, 0, payload=0, bits=1, tag="x")

    def test_bad_n_rejected(self):
        with pytest.raises(ValueError):
            SyncNetwork(0)

    def test_shared_meter(self):
        meter = BitMeter()
        net = SyncNetwork(2, meter)
        send(net, 0, 1, payload=0, bits=3, tag="x")
        assert meter.total_bits == 3


class TestJournal:
    def test_disabled_by_default(self):
        net = SyncNetwork(3)
        send(net, 0, 1, payload=1, bits=1, tag="x")
        net.deliver_arrays()
        assert net.journal is None

    def test_journal_retains_delivered_messages(self):
        net = SyncNetwork(3, journal=True)
        send(net, 0, 1, payload=1, bits=1, tag="x")
        send(net, 2, 1, payload=2, bits=1, tag="x")
        net.deliver_arrays()
        send(net, 1, 0, payload=3, bits=1, tag="y")
        net.deliver_arrays()
        assert len(net.journal) == 3
        assert [row[0] for row in net.journal] == [0, 0, 1]

    def test_journal_order_deterministic(self):
        net = SyncNetwork(4, journal=True)
        send(net, 3, 0, payload="c", bits=1, tag="x")
        send(net, 1, 0, payload="a", bits=1, tag="x")
        send(net, 2, 0, payload="b", bits=1, tag="x")
        net.deliver_arrays()
        assert [row[1] for row in net.journal] == [1, 2, 3]
