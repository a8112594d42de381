"""Adversary framework: default honesty, hook coverage, strategy logic."""


from repro.audit.replay import DeviationRecorder
from repro.processors import (
    Adversary,
    CompositeAdversary,
    CrashAdversary,
    EquivocatingAdversary,
    FalseAccusationAdversary,
    FalseDetectionAdversary,
    RandomAdversary,
    SlowBleedAdversary,
    SymbolCorruptionAdversary,
    TrustPoisoningAdversary,
)
from repro.processors.adversary import GlobalView, hook_is_default

#: The hooks an engine may elide when they are left at the base.
ELIDABLE_HOOKS = (
    "matching_symbol", "m_vector", "detected_flag", "trust_vector",
    "ideal_broadcast_bit",
)


def view(n=7, t=2, faulty=(5, 6), extras=None):
    return GlobalView(n=n, t=t, faulty=set(faulty), extras=extras or {})


class TestBaseAdversary:
    def test_controls(self):
        adversary = Adversary(faulty=[1, 3])
        assert adversary.controls(1)
        assert not adversary.controls(0)

    def test_empty_by_default(self):
        assert Adversary().faulty == set()

    def test_all_hooks_honest_passthrough(self):
        adversary = Adversary(faulty=[0])
        v = view()
        assert adversary.input_value(0, 42, v) == 42
        assert adversary.matching_symbol(0, 1, 7, 0, v) == 7
        assert adversary.m_vector(0, [True, False], 0, v) == [True, False]
        assert adversary.detected_flag(0, True, 0, v) is True
        assert adversary.diagnosis_symbol(0, 3, 0, v) == 3
        assert adversary.trust_vector(0, {1: True}, 0, v) == {1: True}
        assert adversary.bsb_source_bit(0, 1, 1, 0, v) == 1
        assert adversary.ideal_broadcast_bit(0, 1, 0, v) == 1
        assert adversary.king_value(0, 1, 0, 1, 0, v) == 1
        assert adversary.king_proposal(0, 1, 0, None, 0, v) is None
        assert adversary.king_bit(0, 1, 0, 0, 0, v) == 0
        assert adversary.eig_relay(0, 1, (2, 0), 1, 0, v) == 1
        assert adversary.source_symbol(0, 1, 9, 0, v) == 9
        assert adversary.forwarded_symbol(0, 1, 9, 0, v) == 9
        assert adversary.source_codeword(0, [1, 2], 0, v) == [1, 2]
        assert adversary.forge_signature(0, 1, "m", v) is False

    def test_hook_is_default_reads_the_class(self):
        assert all(hook_is_default(Adversary([0]), h) for h in ELIDABLE_HOOKS)
        poison = TrustPoisoningAdversary([0])
        assert not hook_is_default(poison, "trust_vector")
        assert not hook_is_default(poison, "detected_flag")
        assert hook_is_default(poison, "ideal_broadcast_bit")
        assert hook_is_default(poison, "matching_symbol")

    def test_routers_and_wrappers_read_as_overriding(self):
        # Both delegate to strategies the class cannot see: every hook
        # must keep firing, even around an all-honest inner adversary.
        for adversary in (
            CompositeAdversary({0: Adversary([0])}),
            DeviationRecorder(Adversary([0])),
        ):
            assert not any(
                hook_is_default(adversary, h) for h in ELIDABLE_HOOKS
            )

    def test_global_view_honest_property(self):
        v = view(n=5, t=1, faulty=[4])
        assert v.honest == {0, 1, 2, 3}


class TestCrashAdversary:
    def test_silent_after_crash(self):
        adversary = CrashAdversary(faulty=[0], crash_generation=2)
        v = view(faulty=[0])
        assert adversary.matching_symbol(0, 1, 5, 1, v) == 5
        assert adversary.matching_symbol(0, 1, 5, 2, v) is None
        assert adversary.matching_symbol(0, 1, 5, 3, v) is None

    def test_m_vector_all_false_after_crash(self):
        adversary = CrashAdversary(faulty=[0], crash_generation=0)
        v = view(faulty=[0])
        assert adversary.m_vector(0, [True] * 7, 0, v) == [False] * 7


class TestSymbolCorruption:
    def test_targets_only_victims(self):
        adversary = SymbolCorruptionAdversary(faulty=[0], victims={0: [3]})
        v = view(faulty=[0])
        assert adversary.matching_symbol(0, 3, 5, 0, v) == 4  # 5 ^ 1
        assert adversary.matching_symbol(0, 2, 5, 0, v) == 5

    def test_default_targets_everyone(self):
        adversary = SymbolCorruptionAdversary(faulty=[0])
        v = view(faulty=[0])
        assert adversary.matching_symbol(0, 1, 5, 0, v) == 4
        assert adversary.matching_symbol(0, 6, 5, 0, v) == 4

    def test_custom_flip_mask(self):
        adversary = SymbolCorruptionAdversary(faulty=[0], flip_mask=0xF)
        v = view(faulty=[0])
        assert adversary.matching_symbol(0, 1, 0, 0, v) == 0xF


class TestSimpleStrategies:
    def test_false_accusation(self):
        adversary = FalseAccusationAdversary(faulty=[2])
        assert adversary.m_vector(2, [True] * 5, 0, view()) == [False] * 5

    def test_false_detection(self):
        adversary = FalseDetectionAdversary(faulty=[2])
        assert adversary.detected_flag(2, False, 0, view()) is True

    def test_equivocator_needs_extras(self):
        adversary = EquivocatingAdversary(faulty=[0], split=3, alt_value=9)
        # Without code/alt_parts in extras it behaves honestly.
        assert adversary.matching_symbol(0, 5, 7, 0, view()) == 7


class TestRandomAdversary:
    def test_reproducible(self):
        v = view()
        a1 = RandomAdversary(faulty=[0], seed=42)
        a2 = RandomAdversary(faulty=[0], seed=42)
        seq1 = [a1.matching_symbol(0, 1, 5, 0, v) for _ in range(20)]
        seq2 = [a2.matching_symbol(0, 1, 5, 0, v) for _ in range(20)]
        assert seq1 == seq2

    def test_rate_zero_is_honest(self):
        adversary = RandomAdversary(faulty=[0], seed=1, rate=0.0)
        v = view()
        assert adversary.matching_symbol(0, 1, 5, 0, v) == 5
        assert adversary.detected_flag(0, False, 0, v) is False

    def test_rate_one_always_deviates_detected(self):
        adversary = RandomAdversary(faulty=[0], seed=1, rate=1.0)
        assert adversary.detected_flag(0, False, 0, view()) is True


class TestSlowBleed:
    def test_plans_attack_on_fresh_graph(self):
        from repro.graphs.diagnosis_graph import DiagnosisGraph

        adversary = SlowBleedAdversary(faulty=[0])
        graph = DiagnosisGraph(7)
        v = view(faulty=[0], extras={"diag_graph": graph})
        plan = adversary._plan_for(0, v)
        assert plan is not None and plan[0] == "attack"
        attacker, victim = plan[1], plan[2]
        assert attacker == 0 and victim not in adversary.faulty

    def test_attack_log_recorded(self):
        from repro.graphs.diagnosis_graph import DiagnosisGraph

        adversary = SlowBleedAdversary(faulty=[0])
        graph = DiagnosisGraph(7)
        v = view(faulty=[0], extras={"diag_graph": graph})
        adversary._plan_for(0, v)
        assert len(adversary.attack_log) == 1
        assert adversary.attack_log[0]["play"] == "attack"

    def test_no_plan_when_isolated(self):
        from repro.graphs.diagnosis_graph import DiagnosisGraph

        adversary = SlowBleedAdversary(faulty=[0])
        graph = DiagnosisGraph(7)
        graph.isolate(0)
        v = view(faulty=[0], extras={"diag_graph": graph})
        assert adversary._plan_for(0, v) is None

    def test_plan_cached_per_generation(self):
        from repro.graphs.diagnosis_graph import DiagnosisGraph

        adversary = SlowBleedAdversary(faulty=[0])
        graph = DiagnosisGraph(7)
        v = view(faulty=[0], extras={"diag_graph": graph})
        first = adversary._plan_for(0, v)
        graph.remove_edge(0, first[2])
        # Same generation: plan unchanged despite graph mutation.
        assert adversary._plan_for(0, v) == first
