"""End-to-end tests for the L-bit consensus algorithm."""

import re

import numpy as np
import pytest

from repro import ConsensusConfig, MultiValuedBroadcast, MultiValuedConsensus
from repro.baselines import BitwiseConsensus, FitziHirtConsensus
from repro.core.result import GenerationOutcome
from repro.processors import (
    Adversary,
    CrashAdversary,
    EquivocatingAdversary,
    FalseAccusationAdversary,
    FalseDetectionAdversary,
    SlowBleedAdversary,
    SymbolCorruptionAdversary,
    make_attack,
)
from tests.conftest import NT_PAIRS, run_consensus


class TestHonestRuns:
    @pytest.mark.parametrize("n,t", NT_PAIRS)
    def test_all_equal_inputs(self, n, t):
        result = run_consensus(n, t, 64, [0xABCD] * n)
        assert result.value == 0xABCD
        assert result.diagnosis_count == 0

    @pytest.mark.parametrize("l_bits", [1, 7, 8, 24, 100, 129, 1024])
    def test_various_lengths(self, l_bits):
        value = (1 << l_bits) - 1  # all-ones stresses padding edges
        result = run_consensus(7, 2, l_bits, [value] * 7)
        assert result.value == value

    def test_zero_value(self):
        result = run_consensus(7, 2, 64, [0] * 7)
        assert result.value == 0

    def test_multi_generation_reassembly(self):
        # Value with distinct per-generation content, indivisible tail.
        value = int.from_bytes(bytes(range(1, 26)), "big")  # 200 bits
        result = run_consensus(7, 2, 200, [value] * 7, d_bits=24)
        assert result.value == value
        assert len(result.generation_results) == 9  # ceil(200/24)

    def test_differing_inputs_with_majority(self):
        inputs = [5, 5, 5, 5, 5, 6, 7]
        result = run_consensus(7, 2, 16, inputs)
        assert result.consistent and result.value == 5

    def test_fragmented_inputs_default(self):
        inputs = [1, 1, 2, 2, 3, 3, 4]
        result = run_consensus(7, 2, 16, inputs)
        assert result.consistent
        assert result.default_used
        assert result.value == 0
        # The generation whose bits differ detects the fragmentation and
        # terminates the whole algorithm (line 1(f)).
        assert result.generation_results[-1].outcome is (
            GenerationOutcome.NO_MATCH_DEFAULT
        )
        assert len(result.generation_results) < (
            ConsensusConfig.create(n=7, t=2, l_bits=16).generations + 1
        )

    def test_custom_default_value(self):
        inputs = [1, 1, 2, 2, 3, 3, 4]
        result = run_consensus(7, 2, 16, inputs, default_value=0xBEEF)
        assert result.value == 0xBEEF

    def test_t_zero_fast_path(self):
        result = run_consensus(4, 0, 64, [123] * 4)
        assert result.value == 123
        assert len(result.generation_results) == 1  # D = L when t = 0


class TestInputValidation:
    def test_wrong_input_count(self):
        config = ConsensusConfig.create(n=7, t=2, l_bits=8)
        with pytest.raises(ValueError):
            MultiValuedConsensus(config).run([1] * 6)

    def test_oversized_input(self):
        config = ConsensusConfig.create(n=7, t=2, l_bits=8)
        with pytest.raises(ValueError):
            MultiValuedConsensus(config).run([256] * 7)

    def test_too_many_faulty(self):
        config = ConsensusConfig.create(n=7, t=2, l_bits=8)
        with pytest.raises(ValueError):
            MultiValuedConsensus(config, adversary=Adversary([0, 1, 2]))

    @pytest.mark.parametrize("build", [
        lambda adversary: MultiValuedConsensus(
            ConsensusConfig.create(n=4, t=1, l_bits=16), adversary=adversary
        ),
        lambda adversary: MultiValuedBroadcast(
            n=4, l_bits=16, adversary=adversary
        ),
        lambda adversary: FitziHirtConsensus(
            n=4, t=1, l_bits=16, adversary=adversary
        ),
        lambda adversary: BitwiseConsensus(
            n=4, t=1, l_bits=16, adversary=adversary
        ),
    ], ids=["consensus", "broadcast", "fitzi_hirt", "bitwise"])
    def test_an_adversary_past_t_is_refused_at_construction(self, build):
        """Every engine refuses an adversary that controls more than t
        processors before it runs (the broadcast decided {3: 0} and the
        baselines {3: 5} under three crashed pids of four)."""
        adversary = make_attack("crash", 4, 1, 16, faulty=[0, 1, 2])
        with pytest.raises(
            ValueError,
            match="adversary controls 3 processors but config tolerates t=1",
        ):
            build(adversary)
        assert build(make_attack("crash", 4, 1, 16, faulty=[3]))

    @pytest.mark.parametrize("toggles", [
        {}, {"batch_generations": False}, {"vectorized": False},
        {"vectorized": False, "batch_generations": False},
    ], ids=["cohort", "per_generation", "reference", "forced_scalar"])
    @pytest.mark.parametrize("inputs, named", [
        ([True] * 4, "True is not an int"),
        ([5, 5.0, 5, 5], "5.0 is not an int"),
        ([5.0] * 4, "5.0 is not an int"),
        (np.array([5] * 4), "is not an int"),
        ([5, 5, -1, 5], "-0x1 does not fit"),
        ([1 << 16] * 4, "0x10000 does not fit"),
    ], ids=["bool", "one_float", "floats", "numpy", "negative", "wide"])
    def test_inputs_are_exact_ints_on_every_lane(self, toggles, inputs, named):
        # The service's instance rule, on the one-shot run too: whichever
        # lane the toggles pick, a value that is not an exact int in
        # [0, 2^L) is refused, named, before any lane runs.
        config = ConsensusConfig.create(n=4, t=1, l_bits=16)
        with pytest.raises(ValueError, match=re.escape(named)):
            MultiValuedConsensus(config, **toggles).run(inputs)


class TestOneRunPerObject:
    """A consensus object's graph, meter and round clock carry its run,
    so a second run on one object is refused, typed, before a hook
    fires or a bit moves, whichever lane either run took."""

    class Counting(SymbolCorruptionAdversary):
        """``corrupt`` on pid 0, counting every hook call."""

        def __init__(self):
            super().__init__(faulty=[0], victims={0: [6]})
            self.calls = 0

        def __getattribute__(self, name):
            attribute = super().__getattribute__(name)
            if name in ("input_value", "matching_row", "m_row",
                        "detected_flag", "ideal_broadcast_bit"):
                self.calls += 1
            return attribute

    @pytest.mark.parametrize("toggles, inputs", [
        ({}, [5] * 7),  # one shared input: the cohort lane
        ({}, [5] * 5 + [6] * 2),  # split inputs: the per-generation lane
        ({"batch_generations": False}, [5] * 7),
        ({"vectorized": False, "batch_generations": False}, [5] * 7),
    ], ids=["cohort", "per-generation-split", "per-generation",
            "reference"])
    def test_second_run_is_refused(self, toggles, inputs):
        adversary = self.Counting()
        engine = MultiValuedConsensus(
            ConsensusConfig.create(n=7, l_bits=256), adversary=adversary,
            **toggles,
        )
        first = engine.run(inputs)
        calls, bits = adversary.calls, engine.meter.total_bits
        clock = engine.network.round_index
        with pytest.raises(RuntimeError, match=r"already ran once \(inputs"):
            engine.run(inputs)
        assert adversary.calls == calls
        assert engine.meter.total_bits == bits
        assert engine.network.round_index == clock
        assert first.error_free


class TestPartsPlumbing:
    def test_parts_roundtrip(self):
        config = ConsensusConfig.create(n=7, t=2, l_bits=100, d_bits=24)
        protocol = MultiValuedConsensus(config)
        value = (1 << 100) - 12345
        parts = protocol.parts_of(value)
        assert len(parts) == config.generations
        assert all(len(p) == config.data_symbols for p in parts)
        assert protocol.value_of(parts) == value

    def test_parts_of_oversized_rejected(self):
        config = ConsensusConfig.create(n=7, t=2, l_bits=8)
        protocol = MultiValuedConsensus(config)
        with pytest.raises(ValueError):
            protocol.parts_of(1 << 8)


class TestAdversarialRuns:
    @pytest.mark.parametrize("n,t", [(4, 1), (7, 2), (10, 3)])
    def test_symbol_corruption_full_blast(self, n, t):
        adversary = SymbolCorruptionAdversary(faulty=list(range(t)))
        result = run_consensus(n, t, 64, [77] * n, adversary=adversary)
        assert result.value == 77

    def test_targeted_corruption_triggers_diagnosis(self):
        adversary = SlowBleedAdversary(faulty=[0])
        result = run_consensus(7, 2, 240, [99] * 7, adversary=adversary,
                               d_bits=24)
        assert result.value == 99
        assert result.diagnosis_count >= 1

    def test_crash_faults(self):
        adversary = CrashAdversary(faulty=[2, 5], crash_generation=0)
        result = run_consensus(7, 2, 64, [42] * 7, adversary=adversary)
        assert result.value == 42

    def test_late_crash(self):
        adversary = CrashAdversary(faulty=[2, 5], crash_generation=2)
        result = run_consensus(7, 2, 96, [42] * 7, adversary=adversary,
                               d_bits=24)
        assert result.value == 42

    def test_false_accusation(self):
        adversary = FalseAccusationAdversary(faulty=[0, 1])
        result = run_consensus(7, 2, 64, [13] * 7, adversary=adversary)
        assert result.value == 13

    def test_false_detection_isolates_liar(self):
        adversary = FalseDetectionAdversary(faulty=[6])
        result = run_consensus(7, 2, 96, [55] * 7, adversary=adversary,
                               d_bits=24)
        assert result.value == 55
        # After its first lie the liar is isolated: diagnosis happens once.
        assert result.diagnosis_count == 1

    def test_equivocating_inputs(self):
        # Low pids, which the lexicographic P_match search would pick;
        # the alternative value differs from the honest one in every
        # generation's part.
        adversary = EquivocatingAdversary(faulty=[0, 1], split=3,
                                          alt_value=0xFEDCBA9876543210)
        result = run_consensus(7, 2, 64, [999] * 7, adversary=adversary)
        assert result.value == 999
        # The attack attacks: pids 3..6 saw another codeword's symbols,
        # so no match set holds an equivocator (a faulty-but-compliant
        # [0, 1] gives (0, 1, 2, 3, 4) throughout).
        assert [g.p_match for g in result.generation_results] == [
            (2, 3, 4, 5, 6)
        ] * 4

    def test_faulty_input_substitution(self):
        class LyingInput(Adversary):
            def input_value(self, pid, honest_input, view):
                return honest_input ^ 0xFFFF

        result = run_consensus(
            7, 2, 16, [0xAAAA] * 7, adversary=LyingInput([5, 6])
        )
        assert result.value == 0xAAAA

    def test_adversary_cannot_force_validity_violation(self):
        # All honest share v: whatever two faulty do, output must be v.
        for cls in (SymbolCorruptionAdversary, FalseAccusationAdversary,
                    FalseDetectionAdversary):
            adversary = cls(faulty=[3, 4])
            result = run_consensus(7, 2, 48, [0x123456] * 7,
                                   adversary=adversary)
            assert result.value == 0x123456


class TestDiagnosisBound:
    @pytest.mark.parametrize("n,t", [(4, 1), (7, 2), (10, 3)])
    def test_theorem1_bound(self, n, t):
        """Theorem 1: the diagnosis stage runs, at most t(t+1) times
        (``run_consensus`` checks the bound)."""
        k = n - 2 * t
        generations = t * (t + 1) + 5
        adversary = SlowBleedAdversary(faulty=list(range(t)))
        result = run_consensus(
            n, t, k * 8 * generations, [7] * n, adversary=adversary,
            d_bits=k * 8,
        )
        assert result.value == 7
        assert result.diagnosis_count > 0

    def test_isolated_stay_isolated(self):
        adversary = FalseDetectionAdversary(faulty=[6])
        config = ConsensusConfig.create(n=7, t=2, l_bits=96, d_bits=24)
        protocol = MultiValuedConsensus(config, adversary=adversary)
        result = protocol.run([11] * 7)
        assert protocol.graph.is_isolated(6)
        # Only the first generation performed diagnosis.
        assert [r.diagnosis_performed for r in result.generation_results] == [
            True, False, False, False,
        ]


class TestBackends:
    @pytest.mark.parametrize("backend", ["ideal", "phase_king"])
    def test_backends_agree_on_result(self, backend):
        adversary = SymbolCorruptionAdversary(faulty=[5], victims={5: [1]})
        result = run_consensus(7, 2, 48, [321] * 7, adversary=adversary,
                               backend=backend)
        assert result.value == 321

    def test_eig_small_network(self):
        result = run_consensus(4, 1, 16, [9] * 4, backend="eig")
        assert result.value == 9

    def test_phase_king_with_diagnosis(self):
        adversary = SlowBleedAdversary(faulty=[1])
        result = run_consensus(7, 2, 72, [64] * 7, adversary=adversary,
                               backend="phase_king", d_bits=24)
        assert result.value == 64
        assert result.diagnosis_count >= 1


class TestMetering:
    def test_total_bits_positive_and_reported(self):
        result = run_consensus(7, 2, 64, [5] * 7)
        assert result.total_bits > 0
        assert result.meter.total_bits == result.total_bits

    def test_stage_tags_present(self):
        result = run_consensus(7, 2, 64, [5] * 7, d_bits=24)
        tags = set(result.meter.bits_by_tag)
        assert any(tag.startswith("gen0.matching.symbols") for tag in tags)
        assert any(tag.startswith("gen0.matching.M") for tag in tags)
        assert any(tag.startswith("gen0.checking") for tag in tags)

    def test_diagnosis_tags_only_when_diagnosing(self):
        clean = run_consensus(7, 2, 48, [5] * 7)
        assert not any(
            "diagnosis" in tag for tag in clean.meter.bits_by_tag
        )
        adversary = SlowBleedAdversary(faulty=[0])
        dirty = run_consensus(7, 2, 48, [5] * 7, adversary=adversary)
        assert any("diagnosis" in tag for tag in dirty.meter.bits_by_tag)

    def test_no_match_is_cheap(self):
        fragmented = run_consensus(7, 2, 4096, [1, 1, 2, 2, 3, 3, 4])
        unanimous = run_consensus(7, 2, 4096, [1] * 7)
        # Terminating at the first generation costs far less than running
        # all generations.
        assert fragmented.total_bits < unanimous.total_bits


class AnswersInput(Adversary):
    """Pid 6 answers ``input_value`` with a fixed object."""

    def __init__(self, answer):
        super().__init__([6])
        self.answer = answer

    def input_value(self, pid, honest_input, view):
        return self.answer


class TestInputValueAnswers:
    """An ``input_value`` answer is an exact int, read by one rule
    (``input_value_of``) on both engine lanes and both baselines."""

    RUNNERS = {
        "cohort": lambda adversary: MultiValuedConsensus(
            ConsensusConfig.create(n=7, l_bits=64), adversary=adversary
        ).run,
        "per_generation": lambda adversary: MultiValuedConsensus(
            ConsensusConfig.create(n=7, l_bits=64), adversary=adversary,
            batch_generations=False,
        ).run,
        "bitwise": lambda adversary: BitwiseConsensus(
            n=7, t=2, l_bits=64, adversary=adversary
        ).run,
        "fitzi_hirt": lambda adversary: FitziHirtConsensus(
            n=7, t=2, l_bits=64, adversary=adversary
        ).run,
    }

    @pytest.mark.parametrize("runner", sorted(RUNNERS))
    @pytest.mark.parametrize("answer", [True, 3.5, "x"], ids=repr)
    def test_non_int_answer_is_refused_typed(self, runner, answer):
        run = self.RUNNERS[runner](AnswersInput(answer))
        with pytest.raises(TypeError, match="input_value answer"):
            run([0xABCD] * 7)

    @pytest.mark.parametrize("runner", sorted(RUNNERS))
    def test_int_answer_is_reduced_mod_2_to_the_l(self, runner):
        run = self.RUNNERS[runner](AnswersInput((1 << 64) + 5))
        result = run([0xABCD] * 7)
        assert set(result.decisions.values()) == {0xABCD}
