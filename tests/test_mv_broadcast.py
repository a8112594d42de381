"""Scenario tests for the §4 multi-valued broadcast."""

import numpy as np
import pytest

from repro.core import MultiValuedBroadcast
from repro.processors import (
    Adversary,
    CrashAdversary,
    FalseDetectionAdversary,
    SymbolCorruptionAdversary,
)


class TestHonestBroadcast:
    @pytest.mark.parametrize("n,t", [(4, 1), (7, 2), (10, 3)])
    def test_delivery(self, n, t):
        broadcast = MultiValuedBroadcast(n=n, t=t, l_bits=48)
        result = broadcast.run(source=0, value=0xABCDEF)
        assert result.consistent and result.value == 0xABCDEF
        assert result.diagnosis_count == 0

    @pytest.mark.parametrize("source", range(7))
    def test_any_source(self, source):
        broadcast = MultiValuedBroadcast(n=7, t=2, l_bits=24)
        result = broadcast.run(source=source, value=0x1234)
        assert result.consistent and result.value == 0x1234

    @pytest.mark.parametrize("l_bits", [1, 8, 33, 100, 1024])
    def test_various_lengths(self, l_bits):
        value = (1 << l_bits) - 1
        broadcast = MultiValuedBroadcast(n=7, t=2, l_bits=l_bits)
        result = broadcast.run(source=2, value=value)
        assert result.consistent and result.value == value

    def test_all_processors_decide(self):
        broadcast = MultiValuedBroadcast(n=7, t=2, l_bits=24)
        result = broadcast.run(source=0, value=7)
        assert set(result.decisions) == set(range(7))

    def test_delivery_cost_bound(self):
        """Failure-free data-path bits <= 1.5 (n-1) L per the construction
        (plus the BSB Detected flags)."""
        n, t, l_bits = 7, 2, 4096
        broadcast = MultiValuedBroadcast(n=n, t=t, l_bits=l_bits)
        result = broadcast.run(source=0, value=(1 << l_bits) - 1)
        data_bits = sum(
            bits
            for tag, bits in result.meter.bits_by_tag.items()
            if "dispersal" in tag or "relay" in tag
        )
        generations = broadcast.generations
        padded = generations * broadcast.d_bits
        assert data_bits <= 1.5 * (n - 1) * padded

    def test_invalid_source_rejected(self):
        broadcast = MultiValuedBroadcast(n=7, t=2, l_bits=8)
        with pytest.raises(ValueError):
            broadcast.run(source=7, value=1)

    @pytest.mark.parametrize("value", [0x1FF, -1], ids=["wide", "negative"])
    def test_out_of_range_value_rejected(self, value):
        # Consensus refuses such a value (split_value); so must the
        # broadcast, instead of delivering it reduced mod 2^L.
        broadcast = MultiValuedBroadcast(n=7, t=2, l_bits=8)
        with pytest.raises(ValueError, match="does not fit in l_bits=8"):
            broadcast.run(source=0, value=value)
        assert broadcast.meter.total_bits == 0

    @pytest.mark.parametrize("source, value, message", [
        (0, True, "True is not an int"),
        (0, 5.0, "5.0 is not an int"),
        (0, np.int64(5), "is not an int"),
        (True, 5, "source True is not a processor"),
        (1.0, 5, "source 1.0 is not a processor"),
        (np.int64(1), 5, "is not a processor"),
    ], ids=[
        "bool_value", "float_value", "numpy_value", "bool_source",
        "float_source", "numpy_source",
    ])
    def test_inexact_source_or_value_refused(self, source, value, message):
        # The one input rule of consensus (check_input_value) holds for
        # the broadcast too: True once decided 1, a float or numpy value
        # failed untyped, a bool or float source inside numpy indexing.
        broadcast = MultiValuedBroadcast(n=4, l_bits=16)
        with pytest.raises(ValueError, match=message):
            broadcast.run(source, value)
        assert broadcast.meter.total_bits == 0

    def test_bad_t_rejected(self):
        with pytest.raises(ValueError):
            MultiValuedBroadcast(n=6, t=2, l_bits=8)


class TestByzantineRelays:
    def test_corrupt_forwarder_diagnosed(self):
        adversary = SymbolCorruptionAdversary(faulty=[3], victims={3: [1, 2]})
        broadcast = MultiValuedBroadcast(n=7, t=2, l_bits=48,
                                         adversary=adversary)
        result = broadcast.run(source=0, value=0x999999)
        assert result.consistent and result.value == 0x999999
        assert result.diagnosis_count >= 1
        assert all(3 in edge for edge in result.removed_edges)

    def test_crashed_relay(self):
        adversary = CrashAdversary(faulty=[4], crash_generation=0)
        broadcast = MultiValuedBroadcast(n=7, t=2, l_bits=48,
                                         adversary=adversary)
        result = broadcast.run(source=0, value=0x777)
        assert result.consistent and result.value == 0x777

    def test_false_detector_handled(self):
        adversary = FalseDetectionAdversary(faulty=[5])
        broadcast = MultiValuedBroadcast(n=7, t=2, l_bits=48,
                                         adversary=adversary)
        result = broadcast.run(source=0, value=0x123)
        assert result.consistent and result.value == 0x123

    def test_edges_removed_are_bad(self):
        adversary = SymbolCorruptionAdversary(faulty=[2, 6])
        broadcast = MultiValuedBroadcast(n=7, t=2, l_bits=96,
                                         adversary=adversary)
        result = broadcast.run(source=0, value=0xFFFFFF)
        assert result.consistent
        for a, b in broadcast.graph.removed_edges():
            assert a in (2, 6) or b in (2, 6)


class TestByzantineSource:
    def test_equivocating_source_consistent(self):
        adversary = SymbolCorruptionAdversary(faulty=[0], victims={0: [2, 3]})
        broadcast = MultiValuedBroadcast(n=7, t=2, l_bits=48,
                                         adversary=adversary)
        result = broadcast.run(source=0, value=0x555555)
        assert result.consistent

    def test_silent_source_defaults(self):
        adversary = CrashAdversary(faulty=[0], crash_generation=0)
        broadcast = MultiValuedBroadcast(n=7, t=2, l_bits=48,
                                         adversary=adversary,
                                         default_value=0xD)
        result = broadcast.run(source=0, value=0x42)
        assert result.consistent
        assert result.value == 0xD
        assert result.default_used

    def test_source_lying_in_diagnosis(self):
        class LyingCodeword(SymbolCorruptionAdversary):
            def source_codeword(self, source, honest_codeword, g, view):
                return [s ^ 1 for s in honest_codeword]

        adversary = LyingCodeword(faulty=[0], victims={0: [1]})
        broadcast = MultiValuedBroadcast(n=7, t=2, l_bits=48,
                                         adversary=adversary)
        result = broadcast.run(source=0, value=0x314159)
        assert result.consistent

    def test_persistent_equivocation_isolates_source(self):
        # The source corrupts a different victim every generation; each
        # diagnosis removes one of its edges until over-degree isolation.
        class RotatingCorruption(Adversary):
            def source_symbol(self, source, recipient, honest, g, view):
                if recipient == 1 + (g % 6):
                    return honest ^ 1
                return honest

        adversary = RotatingCorruption(faulty=[0])
        broadcast = MultiValuedBroadcast(n=7, t=2, l_bits=6 * 36,
                                         d_bits=12, adversary=adversary)
        result = broadcast.run(source=0, value=(1 << 216) - 1)
        assert result.consistent
        # After t+1 = 3 removed edges the source is identified.
        assert broadcast.graph.removed_edges_at(0) >= 3


class TestSharedGraphAcrossBroadcasts:
    def test_graph_memory_reused(self):
        from repro.graphs.diagnosis_graph import DiagnosisGraph

        graph = DiagnosisGraph(7)
        adversary = SymbolCorruptionAdversary(faulty=[3], victims={3: [1]})
        first = MultiValuedBroadcast(n=7, t=2, l_bits=24,
                                     adversary=adversary, graph=graph)
        result1 = first.run(source=0, value=1)
        assert result1.consistent
        removed_after_first = len(graph.removed_edges())

        # A second broadcast on the same graph: the bad edge stays gone, so
        # the same attack cannot trigger a second diagnosis.
        second = MultiValuedBroadcast(n=7, t=2, l_bits=24,
                                      adversary=adversary, graph=graph)
        result2 = second.run(source=0, value=2)
        assert result2.consistent and result2.value == 2
        assert len(graph.removed_edges()) == removed_after_first
