"""The network's exact-int boundary and its table of validated batch
shapes.

``SyncNetwork.send_many`` validates a batch's edges on their own (pid
ranges, self-sends, repeats inside the batch) once per shape; a shape
sent again hits the table.  These tests hold a hit to exactly what a
cold network does, count the validations, and pin the bound.  The
boundary tests hold every pid, bit width and count to an engine integer
(a Python int or a numpy integer, never a bool or a float).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ConsensusService, InstanceSpec, RunSpec
from repro.network import NetworkError, SyncNetwork
from repro.network import simulator


# -- the exact-int boundary -----------------------------------------------------


class TestExactIntBoundary:
    def test_float_pid_arrays_are_refused_not_truncated(self):
        net = SyncNetwork(4)
        with pytest.raises(NetworkError, match="integers"):
            net.send_many([0.9, 1.7], [2.2, 3], [5, 6], bits=4, tag="t")
        assert net.deliver_arrays().batches == []
        assert net.meter.total_bits == 0

    def test_numpy_pid_is_journalled_as_an_int(self):
        net = SyncNetwork(4, journal=True)
        net.send_many(
            np.array([0], dtype=np.int64), np.array([2], dtype=np.int32),
            [1], bits=np.int64(1), tag="t",
        )
        net.deliver_arrays()
        ((_, sender, receiver, _, bits, _),) = net.journal
        assert (type(sender), type(receiver), type(bits)) == (int, int, int)

    def test_float_bits_and_bool_count_in_a_charged_round_are_refused(self):
        net = SyncNetwork(4)
        with pytest.raises(ValueError, match="bits"):
            net.charge_round("r", count=3, bits=1.5)
        with pytest.raises(ValueError, match="count"):
            net.charge_round("r", count=True, bits=2)
        assert (net.meter.total_bits, net.round_index) == (0, 0)

    def test_bool_bits_on_a_batch_are_refused(self):
        net = SyncNetwork(4)
        for bits in (True, 2.5):
            with pytest.raises(ValueError, match="bits"):
                net.send_many([0, 1], [2, 3], [5, 6], bits=bits, tag="t")
        assert net.meter.total_bits == 0
        # Nothing was buffered: the edges are still free this round.
        net.send_many([0, 1], [2, 3], [5, 6], bits=2, tag="t")

    def test_bool_pid_arrays_are_refused(self):
        with pytest.raises(NetworkError, match="integers"):
            SyncNetwork(4).send_many(
                [True, False], [2, 3], [5, 6], bits=4, tag="t"
            )

    def test_numpy_integer_widths_are_read_as_ints(self):
        net = SyncNetwork(4)
        net.send_many(
            np.array([0, 1], dtype=np.int32), np.array([2, 3], dtype=np.uint8),
            [5, 6], bits=np.int16(4), tag="t",
        )
        (batch,) = net.deliver_arrays().batches
        assert batch.senders.dtype == np.int64 and type(batch.bits) is int
        assert net.meter.total_bits == 8


# -- a warm shape behaves like a cold one ------------------------------------------


def _outcome(call):
    """``call()``'s exception as ``(type, message)``, or None."""
    try:
        call()
    except Exception as error:  # compared, never swallowed silently
        return type(error), str(error)
    return None


def _observe(net, calls):
    """Each call's outcome, then the round's delivery, meter and journal."""
    outcomes = [_outcome(call) for call in calls]
    delivery = net.deliver_arrays()
    batches = [
        (b.tag, b.senders.tolist(), b.receivers.tolist(), b.payload_list(),
         b.bits, b.round_index)
        for b in delivery.batches
    ]
    snapshot = net.meter.snapshot()
    return (
        outcomes, batches, snapshot.bits_by_tag,
        snapshot.messages_by_tag, list(net.journal), net.round_index,
    )


def _count_validations(net):
    calls = []
    validate = net._validate_shape

    def counted(*args):
        calls.append(args)
        return validate(*args)

    net._validate_shape = counted
    return calls


def _warm(n, senders, receivers):
    """A journalling network that sent the shape in round 0 (a valid shape
    is now in its table), with meter and journal cleared."""
    net = SyncNetwork(n, journal=True)
    _outcome(lambda: net.send_many(
        senders, receivers, list(range(len(senders))), bits=3, tag="t"
    ))
    net.deliver_arrays()
    net.meter.reset()
    net.journal.clear()
    return net


def _cold(n):
    net = SyncNetwork(n, journal=True)
    net.deliver_arrays()
    return net


#: Round-1 sends: the shape once, twice under one tag (and once under
#: another), and after a one-edge batch on its first edge.
_CASES = {
    "once": ["t"],
    "twice": ["t", "t", "u"],
    "after_edge": ["edge", "t"],
}


def _calls(net, ops, senders, receivers):
    payloads = np.arange(len(senders), dtype=np.int64) * 7

    def call(op):
        if op == "edge":
            sender, receiver = (senders[0], receivers[0]) if senders else (0, 1)
            return lambda: net.send_many(
                [sender], [receiver], ["s"], bits=5, tag="t"
            )
        return lambda: net.send_many(senders, receivers, payloads, bits=3, tag=op)

    return [call(op) for op in ops]


def _key(senders, receivers):
    """A shape's key in the network's table."""
    return (
        np.asarray(senders, dtype=np.int64).tobytes()
        + np.asarray(receivers, dtype=np.int64).tobytes()
    )


@st.composite
def _shapes(draw):
    n = draw(st.integers(2, 8))
    pid = st.integers(-1, n)  # one below and one past the range
    edges = draw(st.lists(st.tuples(pid, pid), max_size=12))
    if edges and draw(st.booleans()):
        edges.append(draw(st.sampled_from(edges)))  # a repeated edge
    return n, [s for s, _ in edges], [r for _, r in edges]


class TestWarmShapeIsCold:
    @settings(max_examples=150, deadline=None)
    @given(_shapes())
    def test_a_hit_gives_what_a_fresh_network_gives(self, shape):
        n, senders, receivers = shape
        valid = _outcome(lambda: SyncNetwork(n).send_many(
            senders, receivers, senders, bits=1, tag="t"
        )) is None
        for ops in _CASES.values():
            warm = _warm(n, senders, receivers)
            validations = _count_validations(warm)
            cold = _cold(n)
            assert _observe(warm, _calls(warm, ops, senders, receivers)) == (
                _observe(cold, _calls(cold, ops, senders, receivers))
            )
            key = _key(senders, receivers)
            own = [
                args for args in validations if _key(*args[:2]) == key
            ]
            if valid:
                assert own == []  # every batch of the shape in round 1 hit
            else:
                # A failing shape is never kept: each batch validates it
                # (the one-edge batch is the shape when it has one edge).
                assert key not in warm._shapes
                assert len(own) == sum(
                    op != "edge" or len(senders) == 1 for op in ops
                )

    def test_an_invalid_shape_raises_on_every_send(self):
        net = SyncNetwork(4)
        validations = _count_validations(net)
        for _ in range(3):
            with pytest.raises(NetworkError, match="self-send"):
                net.send_many([0, 2], [1, 2], [5, 6], bits=4, tag="t")
            net.deliver_arrays()
        assert len(validations) == 3 and net._shapes == {}

    def test_a_hit_still_catches_a_repeat_across_batches(self):
        net = SyncNetwork(4)
        for _ in range(2):
            net.send_many([0, 1], [2, 3], [5, 6], bits=4, tag="t")
            net.deliver_arrays()
        net.send_many([0, 1], [2, 3], [5, 6], bits=4, tag="t")
        with pytest.raises(NetworkError, match=r"\(0, 2, 't'\) in round 2"):
            net.send_many([0, 1], [2, 3], [5, 6], bits=4, tag="t")

    def test_a_hit_still_catches_a_repeat_of_another_batch(self):
        net = SyncNetwork(4)
        net.send_many([0, 1], [2, 3], [5, 6], bits=4, tag="t")
        net.deliver_arrays()
        net.send_many([1], [3], [9], bits=4, tag="t")
        with pytest.raises(NetworkError, match=r"\(1, 3, 't'\) in round 1"):
            net.send_many([0, 1], [2, 3], [5, 6], bits=4, tag="t")


# -- validation work is counted ----------------------------------------------------


class TestValidationIsCounted:
    def test_a_split_instance_validates_its_one_shape_once(self, monkeypatch):
        sends, validations = [], []
        send_many = SyncNetwork.send_many
        validate = SyncNetwork._validate_shape

        def counted_send(self, *args, **kwargs):
            sends.append(self)
            return send_many(self, *args, **kwargs)

        def counted_validate(self, *args):
            validations.append(self)
            return validate(self, *args)

        monkeypatch.setattr(SyncNetwork, "send_many", counted_send)
        monkeypatch.setattr(SyncNetwork, "_validate_shape", counted_validate)
        a, b = 0xA5A5 << 40, 0x5A5A << 20
        (result,) = ConsensusService(RunSpec(n=7, l_bits=1 << 16)).run_many(
            [InstanceSpec(inputs=(a,) * 5 + (b,) * 2)]
        )
        assert result.consistent
        assert (len(sends), len(validations)) == (122, 1)

    def test_the_table_is_bounded_and_an_evicted_shape_is_validated_again(self):
        size = simulator._SHAPE_TABLE_SIZE
        n = size + 2
        net = SyncNetwork(n)
        validations = _count_validations(net)

        def send(receiver):
            net.send_many([0], [receiver], [1], bits=1, tag="t")
            net.deliver_arrays()

        for receiver in range(1, size + 2):  # size + 1 distinct shapes
            send(receiver)
        assert len(net._shapes) == size and len(validations) == size + 1
        send(size + 1)  # the newest shape is kept: a hit
        assert len(validations) == size + 1
        send(1)  # the first shape was evicted: validated again
        assert len(validations) == size + 2 and len(net._shapes) == size
