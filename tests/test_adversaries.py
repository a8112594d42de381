"""Adversary framework: default honesty, hook coverage, strategy logic."""

import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.audit.replay import DeviationRecorder
from repro.core.config import ConsensusConfig
from repro.core.consensus import MultiValuedConsensus
from repro.graphs import cliques
from repro.processors import (
    ATTACKS,
    AdaptiveAdversary,
    Adversary,
    CollidingInputAdversary,
    CompositeAdversary,
    CrashAdversary,
    EquivocatingAdversary,
    FalseAccusationAdversary,
    FalseDetectionAdversary,
    RandomAdversary,
    SlowBleedAdversary,
    StagedEquivocationAdversary,
    SymbolCorruptionAdversary,
    TrustPoisoningAdversary,
    make_attack,
)
from repro.processors import byzantine
from repro.processors.adversary import (
    GlobalView, hook_is_default, m_row_bits, trust_row_bits,
)
from repro.service.cohort import CohortContext
from repro.service.engine import prepare_instance

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

    def test_pid_absent_from_a_partial_map_corrupts_nobody(self):
        # None doubled as "everyone" and as dict.get's default, so the
        # unnamed pid 1 used to flip every symbol it sent.
        adversary = SymbolCorruptionAdversary([0, 1], victims={0: [6]})
        v = view(faulty=[0, 1])
        recipients = [r for r in range(7) if r != 1]
        assert [
            adversary.matching_symbol(1, r, 5, 0, v) for r in recipients
        ] == [5] * 6
        assert adversary.matching_row(1, recipients, 5, 0, v) == (5, {})
        assert adversary.matching_symbol(0, 6, 5, 0, v) == 4
        assert adversary.matching_row(0, [1, 6], 5, 0, v) == (5, {6: 4})
        assert adversary.forwarded_symbol(1, 6, 5, 0, v) == 5
        assert adversary.source_symbol(1, 6, 5, 0, v) == 5

    def test_partial_map_under_a_wrapper_that_adds_pids(self):
        # AdaptiveAdversary widens strategy.faulty after the map was
        # read; the added pid 5 is still not in the map.
        strategy = SymbolCorruptionAdversary([0], victims={0: [6]})
        adversary = AdaptiveAdversary({0: [0], 1: [5]}, strategy)
        assert strategy.faulty == {0, 5}
        v = view(faulty=[0, 5])
        assert adversary.matching_symbol(5, 6, 9, 1, v) == 9
        assert adversary.matching_row(5, [0, 6], 9, 1, v) == (9, {})
        assert adversary.matching_row(0, [5, 6], 9, 1, v) == (9, {6: 8})
        # Without a map "everyone" still covers a pid added later.
        everyone = SymbolCorruptionAdversary([0])
        AdaptiveAdversary({0: [0], 1: [5]}, everyone)
        assert everyone.matching_symbol(5, 6, 9, 1, v) == 8
        assert everyone.matching_row(5, [0, 6], 9, 1, v) == (8, {})


class TestSimpleStrategies:
    def test_false_accusation(self):
        adversary = FalseAccusationAdversary(faulty=[2])
        assert adversary.m_vector(2, [True] * 5, 0, view()) == [False] * 5

    def test_false_detection(self):
        adversary = FalseDetectionAdversary(faulty=[2])
        assert adversary.detected_flag(2, False, 0, view()) is True

    def test_equivocator_needs_extras(self):
        adversary = EquivocatingAdversary(faulty=[0], split=3, alt_value=9)
        # Without code/parts_of in extras it behaves honestly.
        assert adversary.matching_symbol(0, 5, 7, 0, view()) == 7
        # With what every consensus engine publishes, pids from the
        # split up see the alternative value's codeword.
        v, consensus = engine_view(7, adversary)
        alt = consensus.code.encode(consensus.parts_of(9)[0])
        honest = alt[0] ^ 1
        assert adversary.matching_symbol(0, 5, honest, 0, v) == alt[0]
        assert adversary.matching_symbol(0, 2, honest, 0, v) == honest


def engine_view(n, adversary, l_bits=64):
    """The view a consensus engine hands ``adversary``'s hooks (``code``,
    ``parts_of``, the diagnosis graph, ...) and the engine behind it."""
    consensus = MultiValuedConsensus(
        ConsensusConfig.create(n=n, l_bits=l_bits), adversary=adversary
    )
    prepare_instance(consensus, [0xB5 * n] * n)
    return consensus._make_view(), consensus


class OddPayloads(Adversary):
    """Scalar form only: payloads no honest processor sends."""

    def matching_symbol(self, pid, recipient, honest_symbol, generation, view):
        return (
            None, True, -1, 1 << 40, float(honest_symbol), honest_symbol,
        )[(recipient + generation) % 6]


def _explicit(cls, **kwargs):
    return lambda n, t: cls(list(range(t)), **kwargs)


#: Every way the library builds an adversary: the registry entries and
#: the exported strategy classes, as ``(n, t) -> adversary``.
SUBJECTS = {
    "attack:" + name: (
        lambda n, t, _name=name: make_attack(_name, n, t, 64, seed=7)
    )
    for name in ATTACKS
}
SUBJECTS.update({
    "Adversary": _explicit(Adversary),
    "CrashAdversary": _explicit(CrashAdversary, crash_generation=1),
    "SymbolCorruptionAdversary": _explicit(SymbolCorruptionAdversary),
    "SymbolCorruptionAdversary/partial": lambda n, t: (
        SymbolCorruptionAdversary(range(t), victims={0: [n - 1, n + 3]})
    ),
    "EquivocatingAdversary": _explicit(
        EquivocatingAdversary, split=2, alt_value=1234
    ),
    "FalseAccusationAdversary": _explicit(FalseAccusationAdversary),
    "FalseDetectionAdversary": _explicit(FalseDetectionAdversary),
    "SlowBleedAdversary": _explicit(SlowBleedAdversary),
    "RandomAdversary": _explicit(RandomAdversary, seed=3, rate=0.7),
    "CollidingInputAdversary": _explicit(
        CollidingInputAdversary, forged_value=5
    ),
    "TrustPoisoningAdversary": _explicit(TrustPoisoningAdversary),
    "StagedEquivocationAdversary": lambda n, t: StagedEquivocationAdversary(
        range(t), deceived=[n - 1, n - 2], alt_value=99
    ),
    "AdaptiveAdversary": lambda n, t: AdaptiveAdversary(
        {0: [0], 1: list(range(1, t))},
        SymbolCorruptionAdversary([0], victims={0: [n - 1]}),
    ),
    "CompositeAdversary": lambda n, t: CompositeAdversary({
        0: CrashAdversary([0], crash_generation=1),
        **{pid: RandomAdversary([pid], seed=pid) for pid in range(1, t)},
    }),
    "DeviationRecorder": lambda n, t: DeviationRecorder(
        RandomAdversary(range(t), seed=5)
    ),
    "OddPayloads": _explicit(OddPayloads),
})


class TestRowFormAgreesWithScalarForm:
    """``matching_row`` is ``matching_symbol`` asked once: on two
    identically built adversaries, expanding one's row answers equals
    the other's per-recipient answers, call after call."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_row_expands_to_the_scalar_answers(self, data):
        name = data.draw(st.sampled_from(sorted(SUBJECTS)))
        n = data.draw(st.sampled_from([4, 7, 31]))
        t = (n - 1) // 3
        by_row, by_symbol = SUBJECTS[name](n, t), SUBJECTS[name](n, t)
        row_view, consensus = engine_view(n, by_row)
        symbol_view, _ = engine_view(n, by_symbol)
        senders = sorted(by_row.faulty) or [0]
        calls = data.draw(st.lists(
            st.tuples(
                st.sampled_from(senders),
                st.lists(st.integers(0, n - 1), unique=True),
                st.integers(0, consensus.code.symbol_limit - 1),
                st.integers(0, consensus.config.generations - 1),
            ),
            min_size=1, max_size=4,
        ))
        for pid, recipients, honest_symbol, generation in calls:
            payload, exceptions = by_row.matching_row(
                pid, recipients, honest_symbol, generation, row_view
            )
            expanded = [exceptions.get(r, payload) for r in recipients]
            asked = [
                by_symbol.matching_symbol(
                    pid, r, honest_symbol, generation, symbol_view
                )
                for r in recipients
            ]
            # Exactly: True is not the symbol 1, 5.0 not the symbol 5.
            assert [(type(x), x) for x in expanded] == [
                (type(x), x) for x in asked
            ]

    def test_overriding_the_scalar_form_alone_gets_the_derived_row(self):
        class Lopsided(CrashAdversary):
            def matching_symbol(
                self, pid, recipient, honest_symbol, generation, view
            ):
                return None if recipient % 2 else honest_symbol

        # CrashAdversary's own row ("silent to all") answered for
        # CrashAdversary's scalar form, not for this one.
        assert Lopsided.matching_row is Adversary.matching_row
        assert CrashAdversary.matching_row is not Adversary.matching_row
        assert Lopsided([0]).matching_row(0, [1, 2, 3], 5, 0, view()) == (
            5, {1: None, 3: None}
        )

    def test_a_row_without_its_scalar_form_is_refused(self):
        with pytest.raises(TypeError, match="matching_row"):
            class RowOnly(Adversary):
                def matching_row(
                    self, pid, recipients, honest_symbol, generation, view
                ):
                    return None, {}

        with pytest.raises(TypeError, match="matching_row"):
            class InheritedScalar(CrashAdversary):
                def matching_row(
                    self, pid, recipients, honest_symbol, generation, view
                ):
                    return honest_symbol, {}

    def test_ms_default_needs_both_forms_at_the_base(self):
        def ms_default(adversary):
            consensus = MultiValuedConsensus(
                ConsensusConfig.create(n=7, l_bits=64), adversary=adversary
            )
            return CohortContext(
                consensus.config, consensus.code, adversary,
                consensus.ensure_arena(),
            ).ms_default

        assert ms_default(Adversary([5, 6]))
        assert ms_default(TrustPoisoningAdversary([5, 6]))
        assert not ms_default(CrashAdversary([5, 6]))
        assert not ms_default(OddPayloads([5, 6]))
        assert not ms_default(CompositeAdversary({5: Adversary([5])}))
        assert not ms_default(DeviationRecorder(Adversary([5, 6])))


def _writes_a_row(cls, row):
    return cls.__dict__.get(row, Adversary.__dict__[row]) is not (
        Adversary.__dict__[row]
    )


#: The strategies whose M or Trust answer is written in row form, and
#: two that derive it (a seeded scalar-only one and a router), each as
#: ``(n, t) -> adversary``; the faulty set is the top ``t`` pids.
M_TRUST_ROW_SUBJECTS = {
    "CrashAdversary": lambda n, t: CrashAdversary(
        range(n - t, n), crash_generation=1
    ),
    "FalseAccusationAdversary": lambda n, t: FalseAccusationAdversary(
        range(n - t, n)
    ),
    "SlowBleedAdversary": lambda n, t: SlowBleedAdversary(range(n - t, n)),
    "TrustPoisoningAdversary": lambda n, t: TrustPoisoningAdversary(
        range(n - t, n)
    ),
    "StagedEquivocationAdversary": lambda n, t: StagedEquivocationAdversary(
        range(n - t, n), deceived=[0], alt_value=99
    ),
    "RandomAdversary": lambda n, t: RandomAdversary(
        range(n - t, n), seed=3, rate=0.5
    ),
    "CompositeAdversary": lambda n, t: CompositeAdversary({
        n - 1: CrashAdversary([n - 1]),
        **{pid: TrustPoisoningAdversary([pid]) for pid in range(n - t, n - 1)},
    }),
}


class TestMAndTrustRowsAgreeWithScalarForms:
    """``m_row`` is ``m_vector`` and ``trust_row`` is ``trust_vector``,
    asked once: on two identically built adversaries, what one's row
    answer broadcasts equals what the other's scalar answer broadcasts,
    call after call."""

    def test_every_row_writer_is_a_subject(self):
        import repro.processors as processors

        writers = {
            name for name, cls in vars(processors).items()
            if isinstance(cls, type) and issubclass(cls, Adversary)
            and any(_writes_a_row(cls, row) for row in ("m_row", "trust_row"))
        }
        # The router writes both forms of every hook it routes.
        assert writers == set(M_TRUST_ROW_SUBJECTS) - {"RandomAdversary"}

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_rows_expand_to_the_scalar_answers(self, data):
        name = data.draw(st.sampled_from(sorted(M_TRUST_ROW_SUBJECTS)))
        n = data.draw(st.sampled_from([4, 7, 10]))
        t = (n - 1) // 3
        by_row = M_TRUST_ROW_SUBJECTS[name](n, t)
        by_scalar = M_TRUST_ROW_SUBJECTS[name](n, t)
        faulty = sorted(by_row.faulty)
        generation = st.integers(0, 3)
        if name == "SlowBleedAdversary":
            # Both planners start from the same drawn plans: honest,
            # attack and accuse generations alike.
            plans = data.draw(st.dictionaries(generation, st.one_of(
                st.none(),
                st.tuples(st.just("attack"), st.sampled_from(faulty),
                          st.integers(0, n - 1)),
                st.tuples(st.just("accuse"), st.sampled_from(faulty),
                          st.integers(0, n - 1)),
            ), min_size=4, max_size=4))
            by_row._plan, by_scalar._plan = dict(plans), dict(plans)
        v = view(n=n, t=t, faulty=faulty)
        flags = st.booleans()
        for _ in range(data.draw(st.integers(1, 4))):
            pid = data.draw(st.sampled_from(faulty))
            g = data.draw(generation)
            if data.draw(st.booleans()):
                honest = tuple(data.draw(
                    st.lists(flags, min_size=n, max_size=n)
                ))
                answer = by_row.m_row(pid, honest, g, v)
                asked = by_scalar.m_vector(pid, list(honest), g, v)
                assert m_row_bits(answer, pid, n) == m_row_bits(asked, pid, n)
            else:
                p_match = sorted(data.draw(st.sets(
                    st.integers(0, n - 1), min_size=n - t, max_size=n - t
                )))
                honest = tuple(data.draw(st.lists(
                    flags, min_size=n - t, max_size=n - t
                )))
                answer = by_row.trust_row(pid, p_match, honest, g, v)
                asked = by_scalar.trust_vector(
                    pid, dict(zip(p_match, honest)), g, v
                )
                assert trust_row_bits(answer, p_match, honest) == (
                    trust_row_bits(dict(asked), p_match, honest)
                )

    def test_overriding_a_scalar_form_alone_gets_the_derived_row(self):
        class Doubting(TrustPoisoningAdversary):
            def m_vector(self, pid, honest_m, generation, view):
                return honest_m[:1]

            def trust_vector(self, pid, honest_trust, generation, view):
                return {}

        class Agreeing(CrashAdversary):
            def m_vector(self, pid, honest_m, generation, view):
                return [True] * len(honest_m)

        assert Doubting.m_row is Adversary.m_row
        assert Doubting.trust_row is Adversary.trust_row
        assert TrustPoisoningAdversary.trust_row is not Adversary.trust_row
        assert Agreeing.m_row is Adversary.m_row
        assert CrashAdversary.m_row is not Adversary.m_row
        v = view()
        assert Agreeing([5]).m_row(5, (False,) * 7, 0, v) == [True] * 7
        assert Doubting([5]).trust_row(5, (0, 1), (True, True), 0, v) == {}

    @pytest.mark.parametrize("row, scalar", [
        ("m_row", "m_vector"), ("trust_row", "trust_vector"),
    ])
    def test_a_row_without_its_scalar_form_is_refused(self, row, scalar):
        for base in (Adversary, SlowBleedAdversary):
            with pytest.raises(TypeError, match="%s without the %s" % (
                row, scalar
            )):
                type("RowOnly", (base,), {row: lambda self, *args: None})

    def test_trust_row_refuses_an_answer_of_no_known_kind(self):
        with pytest.raises(TypeError, match="trust_row answer"):
            trust_row_bits([True, False], [0, 1], (True, True))


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


class _Unmemoised(SlowBleedAdversary):
    """slow_bleed with its graph-state memo cleared before every plan, so
    every generation searches afresh."""

    def _plan_for(self, generation, view):
        self._plan_memo.clear()
        return super()._plan_for(generation, view)


def _slow_bleed_run(adversary_class, n, l_bits):
    config = ConsensusConfig.create(n=n, l_bits=l_bits)
    adversary = adversary_class(
        make_attack("slow_bleed", n, config.t, l_bits).faulty
    )
    engine = MultiValuedConsensus(config, adversary=adversary, journal=True)
    value = random.Random(11).getrandbits(l_bits)
    result = engine.run([value] * n)
    return adversary.attack_log, result, engine.network.journal


@pytest.mark.parametrize("n,l_bits", [(7, 256), (15, 1 << 12)])
def test_slow_bleed_memo_changes_no_plan(n, l_bits):
    """A plan is a function of the graph state: reusing one leaves the
    attack log, the result (records and meter included) and the journal
    of planning afresh."""
    memoised = _slow_bleed_run(SlowBleedAdversary, n, l_bits)
    afresh = _slow_bleed_run(_Unmemoised, n, l_bits)
    assert memoised[0] and memoised == afresh


def test_slow_bleed_plans_once_per_graph_state(monkeypatch):
    """A generation whose graph is unchanged reuses the last plan instead
    of re-probing every (attacker, victim) pair: at n = 15 the planner's
    clique searches at least halve."""
    search = cliques.find_clique_matrix
    calls = []

    def counting(*args, **kwargs):
        # The planner looks the search up at call time; count its calls.
        if sys._getframe(1).f_globals["__name__"] == byzantine.__name__:
            calls.append(1)
        return search(*args, **kwargs)

    monkeypatch.setattr(cliques, "find_clique_matrix", counting)
    counts = {}
    for adversary_class in (SlowBleedAdversary, _Unmemoised):
        calls.clear()
        _slow_bleed_run(adversary_class, 15, 1 << 12)
        counts[adversary_class] = len(calls)
    assert 0 < 2 * counts[SlowBleedAdversary] <= counts[_Unmemoised]
