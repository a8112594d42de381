"""Adaptive corruption: takeover mid-run, per the paper's adversary model."""

import pytest

from repro import ConsensusConfig, MultiValuedConsensus
from repro.processors import (
    AdaptiveAdversary,
    Adversary,
    SymbolCorruptionAdversary,
)
from repro.processors.adversary import GlobalView


class TestSchedule:
    def test_union_of_schedule_is_faulty(self):
        adversary = AdaptiveAdversary(schedule={0: [5], 2: [6]})
        assert adversary.faulty == {5, 6}

    def test_corrupted_at_respects_start(self):
        adversary = AdaptiveAdversary(schedule={0: [5], 2: [6]})
        assert adversary.corrupted_at(0) == {5}
        assert adversary.corrupted_at(1) == {5}
        assert adversary.corrupted_at(2) == {5, 6}
        assert adversary.corrupted_at(99) == {5, 6}

    def test_controls_at(self):
        adversary = AdaptiveAdversary(schedule={3: [1]})
        assert not adversary.controls_at(1, 0)
        assert adversary.controls_at(1, 3)
        assert not adversary.controls_at(0, 3)

    def test_empty_schedule(self):
        adversary = AdaptiveAdversary(schedule={})
        assert adversary.faulty == set()


class TestHonestBeforeTakeover:
    def _view(self, generation):
        return GlobalView(n=7, t=2, faulty={5},
                          extras={"generation": generation})

    def test_hooks_honest_before_start(self):
        strategy = SymbolCorruptionAdversary(faulty=[5])
        adversary = AdaptiveAdversary(schedule={3: [5]}, strategy=strategy)
        assert adversary.matching_row(5, (0,), 9, 0, self._view(0)) == (
            9, {}
        )
        assert adversary.matching_row(5, (0,), 9, 3, self._view(3)) == (
            8, {}
        )

    def test_input_value_is_gated_on_generation_zero(self):
        class Substitute(Adversary):
            def input_value(self, pid, honest_input, view):
                return honest_input + 1

        adversary = AdaptiveAdversary(
            schedule={0: [5], 2: [6]}, strategy=Substitute([5, 6])
        )
        # Corrupted from the start: the input is the strategy's; taken
        # over later: the processor held its own input.
        assert adversary.input_value(5, 41, self._view(0)) == 42
        assert adversary.input_value(6, 41, self._view(0)) == 41

    def test_broadcast_hooks_follow_generation_extra(self):
        class FlipBit(Adversary):
            def ideal_broadcast_bit(self, source, bit, instance, view):
                return bit ^ 1

        adversary = AdaptiveAdversary(schedule={2: [5]},
                                      strategy=FlipBit([5]))
        assert adversary.ideal_broadcast_bit(5, 1, 0, self._view(0)) == 1
        assert adversary.ideal_broadcast_bit(5, 1, 0, self._view(2)) == 0


class TestEndToEnd:
    def test_late_takeover_still_error_free(self):
        strategy = SymbolCorruptionAdversary(faulty=[0, 1])
        adversary = AdaptiveAdversary(schedule={1: [0], 3: [1]},
                                      strategy=strategy)
        config = ConsensusConfig.create(n=7, t=2, l_bits=120, d_bits=24)
        result = MultiValuedConsensus(config, adversary=adversary).run(
            [0xAB] * 7
        )
        assert result.consistent and result.valid
        assert result.value == 0xAB

    def test_first_generation_behaves_honestly(self):
        """Before the takeover generation the scheduled processor acts
        honestly, so generation 0 must decide in the checking stage."""
        strategy = SymbolCorruptionAdversary(faulty=[0], victims={0: [6]})
        adversary = AdaptiveAdversary(schedule={1: [0]}, strategy=strategy)
        config = ConsensusConfig.create(n=7, t=2, l_bits=48, d_bits=24)
        result = MultiValuedConsensus(config, adversary=adversary).run(
            [0x77] * 7
        )
        assert result.error_free
        first, second = result.generation_results
        assert not first.diagnosis_performed
        assert second.diagnosis_performed

    def test_total_corruption_budget_enforced(self):
        adversary = AdaptiveAdversary(schedule={0: [0, 1], 5: [2]})
        config = ConsensusConfig.create(n=7, t=2, l_bits=48)
        with pytest.raises(ValueError):
            MultiValuedConsensus(config, adversary=adversary)
