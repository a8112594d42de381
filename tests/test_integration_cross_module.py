"""Cross-module integration: combinations the unit suites do not reach."""

import pytest

from repro import ConsensusConfig, MultiValuedConsensus
from repro.baselines import FitziHirtConsensus
from repro.core import MultiValuedBroadcast
from repro.network.metrics import BitMeter
from repro.processors import (
    AdaptiveAdversary,
    CompositeAdversary,
    CrashAdversary,
    FalseDetectionAdversary,
    RandomAdversary,
    SymbolCorruptionAdversary,
    TrustPoisoningAdversary,
)


class TestSharedMeterAcrossProtocols:
    def test_one_meter_many_runs(self):
        """A deployment can account several protocol invocations on one
        meter (e.g. consensus after broadcast)."""
        meter = BitMeter()
        broadcast = MultiValuedBroadcast(n=7, t=2, l_bits=48, meter=meter)
        broadcast.run(source=0, value=0x42)
        after_broadcast = meter.total_bits
        assert after_broadcast > 0

        config = ConsensusConfig.create(n=7, t=2, l_bits=48)
        MultiValuedConsensus(config, meter=meter).run([0x42] * 7)
        assert meter.total_bits > after_broadcast


class TestFitziHirtPhaseKing:
    def test_real_substrate_end_to_end(self):
        fh = FitziHirtConsensus(
            n=7, t=2, l_bits=32, kappa=8, substrate="phase_king"
        )
        result = fh.run([0xBEEF] * 7)
        assert result.error_free and result.value == 0xBEEF

    @pytest.mark.parametrize("seed", range(3))
    def test_real_substrate_adversarial(self, seed):
        adversary = RandomAdversary(faulty=[5, 6], seed=seed, rate=0.8)
        fh = FitziHirtConsensus(
            n=7, t=2, l_bits=32, kappa=8, substrate="phase_king",
            adversary=adversary,
        )
        result = fh.run([0xBEEF] * 7)
        # With equal honest inputs there is nothing to collide: FH must
        # deliver regardless of Byzantine behaviour.
        assert result.consistent and result.value == 0xBEEF


class TestAdaptivePlusComposite:
    def test_takeover_into_mixed_coalition(self):
        inner = CompositeAdversary({
            5: CrashAdversary([5]),
            6: FalseDetectionAdversary([6]),
        })
        adversary = AdaptiveAdversary(schedule={1: [5], 2: [6]},
                                      strategy=inner)
        config = ConsensusConfig.create(n=7, t=2, l_bits=120, d_bits=24)
        result = MultiValuedConsensus(config, adversary=adversary).run(
            [0xAA] * 7
        )
        assert result.consistent and result.valid
        assert result.value == 0xAA
        # Generation 0 is clean by construction.
        assert not result.generation_results[0].diagnosis_performed


class TestBroadcastUnderPhaseKing:
    def test_mv_broadcast_with_real_bsb(self):
        adversary = SymbolCorruptionAdversary(faulty=[3], victims={3: [1]})
        broadcast = MultiValuedBroadcast(
            n=7, t=2, l_bits=24, backend="phase_king", adversary=adversary
        )
        result = broadcast.run(source=0, value=0x77)
        assert result.consistent and result.value == 0x77
        assert result.diagnosis_count >= 1


class TestConsensusAfterPoisoning:
    def test_graph_state_carries_between_values(self):
        """Agreeing on a second value after the first run isolated the
        poisoners: the second run never diagnoses."""
        config = ConsensusConfig.create(n=7, t=2, l_bits=48, d_bits=24)
        first = MultiValuedConsensus(
            config, adversary=TrustPoisoningAdversary(faulty=[5, 6])
        )
        result1 = first.run([1] * 7)
        assert result1.error_free
        assert first.graph.isolated == {5, 6}

        second = MultiValuedConsensus(
            config, adversary=TrustPoisoningAdversary(faulty=[5, 6])
        )
        second.graph = first.graph.copy()
        result2 = second.run([2] * 7)
        assert result2.error_free and result2.value == 2
        assert result2.diagnosis_count == 0
