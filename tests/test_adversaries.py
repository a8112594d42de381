"""Adversary framework: default honesty, hook coverage, strategy logic."""

import itertools
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
from repro.processors.adversary import PID_HOOKS, GlobalView, hook_is_default
from repro.processors.answers import (
    ALL_FALSE, ALL_TRUE, RowConstant, m_row_bits, matching_row_payloads,
    trust_row_bits,
)
from repro.service.engine import prepare_instance

#: The hooks an engine may elide when they are left at the base.
ELIDABLE_HOOKS = (
    "matching_row", "m_row", "detected_flag", "trust_row",
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
        assert adversary.matching_row(0, (1, 2), 7, 0, v) == (7, {})
        m_row = (True, False)
        assert adversary.m_row(0, m_row, 0, v) is m_row
        assert adversary.detected_flag(0, True, 0, v) is True
        assert adversary.diagnosis_symbol(0, 3, 0, v) == 3
        trust_row = (True,)
        assert adversary.trust_row(0, (1,), trust_row, 0, v) is trust_row
        assert adversary.bsb_source_bit(0, 1, 1, 0, v) == 1
        assert adversary.ideal_broadcast_bit(0, 1, 0, v) == 1
        assert adversary.king_value(0, 1, 0, 1, 0, v) == 1
        assert adversary.king_proposal(0, 1, 0, None, 0, v) is None
        assert adversary.king_bit(0, 1, 0, 0, 0, v) == 0
        assert adversary.eig_relay(0, 1, (2, 0), 1, 0, v) == 1
        assert adversary.source_symbol(0, 1, 9, 0, v) == 9
        assert adversary.forwarded_symbol(0, 1, 9, 0, v) == 9
        assert adversary.source_codeword(0, [1, 2], 0, v) == [1, 2]
        assert adversary.delivery_value(0, 0xBEEF, v) == 0xBEEF
        assert adversary.forge_signature(0, 1, "m", v) is False

    def test_hook_is_default_reads_the_class(self):
        assert all(hook_is_default(Adversary([0]), h) for h in ELIDABLE_HOOKS)
        poison = TrustPoisoningAdversary([0])
        assert not hook_is_default(poison, "trust_row")
        assert not hook_is_default(poison, "detected_flag")
        assert hook_is_default(poison, "ideal_broadcast_bit")
        assert hook_is_default(poison, "matching_row")

    def test_routers_and_wrappers_read_as_overriding(self):
        # A router delegates to strategies its class cannot see: every
        # hook must keep firing, even around an all-honest strategy.
        # The recorder overrides exactly what its inner adversary does.
        router = CompositeAdversary({0: Adversary([0])})
        assert not any(hook_is_default(router, h) for h in ELIDABLE_HOOKS)
        for inner in (Adversary([0]), TrustPoisoningAdversary([0]), router):
            recorder = DeviationRecorder(inner)
            assert [hook_is_default(recorder, h) for h in ELIDABLE_HOOKS] == [
                hook_is_default(inner, h) for h in ELIDABLE_HOOKS
            ]

    def test_recorders_share_one_class_per_hook_profile(self):
        # The recorder's class is made once per set of hooks its inner
        # adversary leaves at the base, not once per recorder.
        first = DeviationRecorder(TrustPoisoningAdversary([0]))
        second = DeviationRecorder(TrustPoisoningAdversary([1]))
        honest = DeviationRecorder(Adversary([0]))
        assert type(first) is type(second)
        assert type(honest) is not type(first)
        assert isinstance(first, DeviationRecorder)
        assert isinstance(honest, DeviationRecorder)

    def test_global_view_honest_property(self):
        v = view(n=5, t=1, faulty=[4])
        assert v.honest == {0, 1, 2, 3}


class TestCrashAdversary:
    def test_silent_after_crash(self):
        adversary = CrashAdversary(faulty=[0], crash_generation=2)
        v = view(faulty=[0])
        assert adversary.matching_row(0, (1,), 5, 1, v) == (5, {})
        assert adversary.matching_row(0, (1,), 5, 2, v) == (None, {})
        assert adversary.matching_row(0, (1,), 5, 3, v) == (None, {})

    def test_m_vector_all_false_after_crash(self):
        adversary = CrashAdversary(faulty=[0], crash_generation=0)
        v = view(faulty=[0])
        assert adversary.m_row(0, (True,) * 7, 0, v) is ALL_FALSE


class TestSymbolCorruption:
    def test_targets_only_victims(self):
        adversary = SymbolCorruptionAdversary(faulty=[0], victims={0: [3]})
        v = view(faulty=[0])
        answer = adversary.matching_row(0, (2, 3), 5, 0, v)
        assert matching_row_payloads(answer, (2, 3)) == [5, 4]  # 5 ^ 1

    def test_default_targets_everyone(self):
        adversary = SymbolCorruptionAdversary(faulty=[0])
        v = view(faulty=[0])
        assert adversary.matching_row(0, (1, 6), 5, 0, v) == (4, {})

    def test_custom_flip_mask(self):
        adversary = SymbolCorruptionAdversary(faulty=[0], flip_mask=0xF)
        v = view(faulty=[0])
        assert adversary.matching_row(0, (1,), 0, 0, v) == (0xF, {})

    def test_pid_absent_from_a_partial_map_corrupts_nobody(self):
        # None doubled as "everyone" and as dict.get's default, so the
        # unnamed pid 1 used to flip every symbol it sent.
        adversary = SymbolCorruptionAdversary([0, 1], victims={0: [6]})
        v = view(faulty=[0, 1])
        recipients = [r for r in range(7) if r != 1]
        assert adversary.matching_row(1, recipients, 5, 0, v) == (5, {})
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
        assert adversary.matching_row(5, [0, 6], 9, 1, v) == (9, {})
        assert adversary.matching_row(0, [5, 6], 9, 1, v) == (9, {6: 8})
        # Without a map "everyone" still covers a pid added later.
        everyone = SymbolCorruptionAdversary([0])
        AdaptiveAdversary({0: [0], 1: [5]}, everyone)
        assert everyone.matching_row(5, [0, 6], 9, 1, v) == (8, {})


class TestSimpleStrategies:
    def test_false_accusation(self):
        adversary = FalseAccusationAdversary(faulty=[2])
        assert adversary.m_row(2, (True,) * 5, 0, view()) is ALL_FALSE

    def test_false_detection(self):
        adversary = FalseDetectionAdversary(faulty=[2])
        assert adversary.detected_flag(2, False, 0, view()) is True

    def test_equivocator_needs_extras(self):
        adversary = EquivocatingAdversary(faulty=[0], split=3, alt_value=9)
        # Without code/parts_of in extras it behaves honestly.
        assert adversary.matching_row(0, (5,), 7, 0, view()) == (7, {})
        # With what every consensus engine publishes, pids from the
        # split up see the alternative value's codeword.
        v, consensus = engine_view(7, adversary)
        alt = consensus.code.encode(consensus.parts_of(9)[0])
        honest = alt[0] ^ 1
        assert adversary.matching_row(0, (1, 2, 3, 5), honest, 0, v) == (
            honest, {3: alt[0], 5: alt[0]}
        )
        assert adversary.matching_row(0, (1, 2), honest, 0, v) == (honest, {})


def engine_view(n, adversary, l_bits=64):
    """The view a consensus engine hands ``adversary``'s hooks (``code``,
    ``parts_of``, the diagnosis graph, ...) and the engine behind it."""
    consensus = MultiValuedConsensus(
        ConsensusConfig.create(n=n, l_bits=l_bits), adversary=adversary
    )
    prepare_instance(consensus, [0xB5 * n] * n)
    return consensus._make_view(), consensus


class OddPayloads(Adversary):
    """Payloads no honest processor sends, one per recipient."""

    def matching_row(self, pid, recipients, honest_symbol, generation, view):
        return honest_symbol, {
            r: (
                None, True, -1, 1 << 40, float(honest_symbol), honest_symbol,
            )[(r + generation) % 6]
            for r in recipients
        }


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


def _exact(payloads):
    """Payloads compared exactly: ``True`` is not the symbol 1, ``5.0``
    not the symbol 5."""
    return [(type(payload), payload) for payload in payloads]


def _rule_payloads(answer, recipients):
    """The expansion rule, spelled out: each recipient gets the common
    payload unless an exception's key is an ``int`` (not a ``bool``)
    equal to it."""
    payload, exceptions = answer
    expanded = []
    for recipient in recipients:
        sent = payload
        for key, other in exceptions.items():
            if type(key) is int and key == recipient:
                sent = other
        expanded.append(sent)
    return expanded


class TestSymbolRowSemantics:
    """A ``matching_row`` answer is one payload plus its exceptions,
    read per recipient by one rule (``matching_row_payloads``)."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_row_answers_replay_and_expand_by_the_rule(self, data):
        """On two identically built adversaries the answers expand alike,
        call after call (seeded strategies replay), and every answer
        expands as the rule spelled out in this file says."""
        name = data.draw(st.sampled_from(sorted(SUBJECTS)))
        n = data.draw(st.sampled_from([4, 7, 31]))
        t = (n - 1) // 3
        first, second = SUBJECTS[name](n, t), SUBJECTS[name](n, t)
        first_view, consensus = engine_view(n, first)
        second_view, _ = engine_view(n, second)
        senders = sorted(first.faulty) or [0]
        calls = data.draw(st.lists(
            st.tuples(
                st.sampled_from(senders),
                st.lists(st.integers(0, n - 1), unique=True).map(sorted),
                st.integers(0, consensus.code.symbol_limit - 1),
                st.integers(0, consensus.config.generations - 1),
            ),
            min_size=1, max_size=4,
        ))
        for pid, recipients, honest_symbol, generation in calls:
            answer = first.matching_row(
                pid, recipients, honest_symbol, generation, first_view
            )
            again = second.matching_row(
                pid, recipients, honest_symbol, generation, second_view
            )
            expanded = matching_row_payloads(answer, recipients)
            assert len(expanded) == len(recipients)
            assert _exact(expanded) == _exact(
                _rule_payloads(answer, recipients)
            )
            assert _exact(expanded) == _exact(
                matching_row_payloads(again, recipients)
            )

    @pytest.mark.parametrize("answer, expected", [
        ((5, {True: 9}), [5, 5, 5]),
        ((5, {"2": 9}), [5, 5, 5]),
        ((5, {-1: 9}), [5, 5, 5]),
        ((5, {7: 9, 1 << 70: 9}), [5, 5, 5]),
        ((5, {0: 9}), [5, 5, 5]),
        ((5, {4: 9}), [5, 5, 5]),
        ((None, {2: 9, 3: None}), [None, 9, None]),
    ], ids=[
        "bool_key", "str_key", "negative_pid", "out_of_range_pid",
        "own_pid", "non_recipient", "none_payloads",
    ])
    def test_expansion_rule(self, answer, expected):
        """Sender 0 of n = 7 with recipients 1, 2, 3: only an exact-int
        key among them names a recipient; ``None`` is silence."""
        assert _exact(matching_row_payloads(answer, (1, 2, 3))) == (
            _exact(expected)
        )


def _writes_a_row(cls, row):
    return cls.__dict__.get(row, Adversary.__dict__[row]) is not (
        Adversary.__dict__[row]
    )


#: Every exported strategy class that writes an M or Trust row, the
#: routers included, as ``(n, t) -> adversary``; the faulty set is the
#: top ``t`` pids.
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
    "AdaptiveAdversary": lambda n, t: AdaptiveAdversary(
        {0: [n - t], 2: list(range(n - t + 1, n))},
        RandomAdversary(range(n - t, n), seed=4, rate=0.5),
    ),
}


class TestMAndTrustRowSemantics:
    """An ``m_row`` answer is the honest row, a constant or an explicit
    row; a ``trust_row`` answer the honest row, an accuse set or a
    mapping — each read by one rule (``m_row_bits``,
    ``trust_row_bits``)."""

    def test_every_row_writer_is_a_subject(self):
        import repro.processors as processors

        writers = {
            name for name, cls in vars(processors).items()
            if isinstance(cls, type) and issubclass(cls, Adversary)
            and any(_writes_a_row(cls, row) for row in ("m_row", "trust_row"))
        }
        assert writers == set(M_TRUST_ROW_SUBJECTS)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_row_answers_replay_and_read_by_the_rules(self, data):
        """On two identically built adversaries the answers broadcast
        alike, call after call; every answer is of a known kind, and an
        honest answer broadcasts the honest flags."""
        name = data.draw(st.sampled_from(sorted(M_TRUST_ROW_SUBJECTS)))
        n = data.draw(st.sampled_from([4, 7, 10]))
        t = (n - 1) // 3
        first = M_TRUST_ROW_SUBJECTS[name](n, t)
        second = M_TRUST_ROW_SUBJECTS[name](n, t)
        faulty = sorted(first.faulty)
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
            first._plan, second._plan = dict(plans), dict(plans)
        v = view(n=n, t=t, faulty=faulty)
        flags = st.booleans()
        for _ in range(data.draw(st.integers(1, 4))):
            pid = data.draw(st.sampled_from(faulty))
            g = data.draw(generation)
            if data.draw(st.booleans()):
                honest = tuple(data.draw(
                    st.lists(flags, min_size=n, max_size=n)
                ))
                answer = first.m_row(pid, honest, g, v)
                again = second.m_row(pid, honest, g, v)
                assert answer is honest or isinstance(
                    answer, (RowConstant, list, tuple)
                )
                bits = m_row_bits(answer, pid, n)
                assert bits == m_row_bits(again, pid, n)
                if answer is honest:
                    assert bits == [
                        int(flag) for j, flag in enumerate(honest) if j != pid
                    ]
            else:
                p_match = sorted(data.draw(st.sets(
                    st.integers(0, n - 1), min_size=n - t, max_size=n - t
                )))
                honest = tuple(data.draw(st.lists(
                    flags, min_size=n - t, max_size=n - t
                )))
                answer = first.trust_row(pid, p_match, honest, g, v)
                again = second.trust_row(pid, p_match, honest, g, v)
                bits = trust_row_bits(answer, p_match, honest)
                assert len(bits) == len(p_match)
                assert bits == trust_row_bits(again, p_match, honest)
                if answer is honest:
                    assert bits == [int(flag) for flag in honest]

    def test_trust_row_refuses_an_answer_of_no_known_kind(self):
        with pytest.raises(TypeError, match="trust_row answer"):
            trust_row_bits([True, False], [0, 1], (True, True))


_M_FLAG = st.one_of(st.booleans(), st.integers(-1, 2), st.none())


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_m_row_bits_follows_the_rule(data):
    """A constant sets all ``n - 1`` bits; a row is read slot by slot,
    ``False`` past its end and slots past ``n`` dropped, each flag by
    its truthiness, the sender's own slot never sent."""
    n = data.draw(st.integers(2, 12))
    pid = data.draw(st.integers(0, n - 1))
    answer = data.draw(st.one_of(
        st.sampled_from([ALL_FALSE, ALL_TRUE]),
        st.lists(_M_FLAG, max_size=n + 3),
        st.lists(_M_FLAG, max_size=n + 3).map(tuple),
    ))
    if answer is ALL_FALSE or answer is ALL_TRUE:
        expected = [answer.bit] * (n - 1)
    else:
        expected = []
        for j in range(n):
            if j == pid:
                continue
            flag = answer[j] if j < len(answer) else False
            expected.append(1 if flag else 0)
    assert m_row_bits(answer, pid, n) == expected


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_trust_row_bits_follows_the_rule(data):
    """The honest row broadcasts itself; an accuse set clears the
    members it names on the honest row (other pids are ignored); a
    mapping sets a member's bit when it maps that member to a truthy
    flag, and clears it otherwise."""
    p_match = sorted(data.draw(st.sets(st.integers(0, 9), min_size=1)))
    honest = tuple(data.draw(st.lists(
        st.booleans(), min_size=len(p_match), max_size=len(p_match)
    )))
    kind = data.draw(st.sampled_from(["honest", "set", "mapping"]))
    if kind == "honest":
        answer = honest
        expected = [1 if flag else 0 for flag in honest]
    elif kind == "set":
        answer = data.draw(st.sets(st.integers(-1, 11)))
        expected = [
            0 if j in answer else (1 if flag else 0)
            for j, flag in zip(p_match, honest)
        ]
    else:
        answer = data.draw(st.dictionaries(st.integers(-1, 11), _M_FLAG))
        expected = [1 if answer.get(j) else 0 for j in p_match]
    assert trust_row_bits(answer, p_match, honest) == expected


class TestRandomAdversary:
    def test_reproducible(self):
        v = view()
        a1 = RandomAdversary(faulty=[0], seed=42)
        a2 = RandomAdversary(faulty=[0], seed=42)
        seq1 = [a1.matching_row(0, (1, 2), 5, 0, v) for _ in range(20)]
        seq2 = [a2.matching_row(0, (1, 2), 5, 0, v) for _ in range(20)]
        assert seq1 == seq2

    def test_rate_zero_is_honest(self):
        adversary = RandomAdversary(faulty=[0], seed=1, rate=0.0)
        v = view()
        assert adversary.matching_row(0, (1, 2), 5, 0, v) == (5, {})
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
    """slow_bleed bypassing the process-wide plan table, so every
    generation searches afresh."""

    def _planned(self, graph, n, t):
        return self._search(graph, n, t)


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
    search = cliques.find_clique_masks
    calls = []

    def counting(*args, **kwargs):
        # The planner looks the search up at call time; count its calls.
        if sys._getframe(1).f_globals["__name__"] == byzantine.__name__:
            calls.append(1)
        return search(*args, **kwargs)

    monkeypatch.setattr(cliques, "find_clique_masks", counting)
    # The table outlives instances: start it empty, so the memoised run
    # searches each of its graph states once.
    monkeypatch.setattr(byzantine, "_PLANS", {})
    counts = {}
    for adversary_class in (SlowBleedAdversary, _Unmemoised):
        calls.clear()
        _slow_bleed_run(adversary_class, 15, 1 << 12)
        counts[adversary_class] = len(calls)
    assert 0 < 2 * counts[SlowBleedAdversary] <= counts[_Unmemoised]


def test_slow_bleed_second_instance_on_a_trajectory_searches_nothing(
    monkeypatch
):
    """The plan table is per process: a second instance meets the graph
    states the first searched and searches none of them, while each
    instance keeps its own attack log."""
    monkeypatch.setattr(byzantine, "_PLANS", {})
    searched = []
    search = SlowBleedAdversary._search

    def counting(self, graph, n, t):
        searched.append(1)
        return search(self, graph, n, t)

    monkeypatch.setattr(SlowBleedAdversary, "_search", counting)
    first = _slow_bleed_run(SlowBleedAdversary, 15, 1 << 12)
    assert searched
    del searched[:]
    second = _slow_bleed_run(SlowBleedAdversary, 15, 1 << 12)
    assert searched == []
    assert second[0] and second == first


def test_slow_bleed_plan_table_keeps_to_its_bound(monkeypatch):
    """Filled past :data:`MAX_PLAN_ENTRIES` with distinct faulty sets,
    the table starts over instead of growing, and a plan read after the
    reset is still the plan."""
    from repro.graphs.diagnosis_graph import DiagnosisGraph

    monkeypatch.setattr(byzantine, "_PLANS", {})
    monkeypatch.setattr(byzantine, "MAX_PLAN_ENTRIES", 8)
    n, t = 13, 4
    graph = DiagnosisGraph(n)
    sizes = []
    for faulty in itertools.combinations(range(n), 2):
        adversary = SlowBleedAdversary(list(faulty))
        plan = adversary._planned(graph, n, t)
        assert plan == adversary._search(graph, n, t)
        sizes.append(len(byzantine._PLANS))
    assert len(sizes) > 2 * 8
    assert max(sizes) == 8 and 1 in sizes[8:]


def _search_on_copies(adversary, graph, n, t):
    """``slow_bleed``'s plan search with every probe on a copied and
    edited matrix through ``find_clique_matrix`` (the planner's search
    before it packed the masks once)."""
    import numpy as np

    faulty = adversary.faulty
    for attacker in sorted(faulty):
        if graph.is_isolated(attacker):
            continue
        for victim in sorted(
            (p for p in graph.trusted_by(attacker) if p not in faulty),
            reverse=True,
        ):
            adjacency = np.array(graph.trust_mask())
            adjacency[attacker, victim] = adjacency[victim, attacker] = False
            match = cliques.find_clique_matrix(adjacency, n - t)
            if match is not None and attacker in match and victim not in match:
                return ("attack", attacker, victim)
    for accuser in sorted(faulty):
        if graph.is_isolated(accuser):
            continue
        match = cliques.find_clique_matrix(
            np.asarray(graph.trust_mask()), n - t,
            candidates=[v for v in range(n) if v != accuser],
        )
        if match is None:
            continue
        targets = [
            p for p in match if p in faulty and graph.trusts(accuser, p)
        ]
        if targets:
            return ("accuse", accuser, targets[0])
    return None


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_slow_bleed_probes_equal_searches_on_edited_copies(data):
    """The planner packs the trust mask once and clears an (attacker,
    victim) edge's two bits per probe: every plan equals the search that
    copies and edits the matrix for each probe, on graph states with
    removed edges and isolated vertices, faulty pids anywhere."""
    from repro.graphs.diagnosis_graph import DiagnosisGraph

    n = data.draw(st.sampled_from([4, 7, 10, 13]))
    t = (n - 1) // 3
    faulty = data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=t))
    graph = DiagnosisGraph(n)
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    for a, b in data.draw(st.lists(pair, max_size=3 * n)):
        if a != b and (a in faulty or b in faulty):
            graph.remove_edge(a, b)
    for v in data.draw(st.sets(st.sampled_from(sorted(faulty)), max_size=1)):
        graph.isolate(v)
    adversary = SlowBleedAdversary(sorted(faulty))
    assert adversary._search(graph, n, t) == (
        _search_on_copies(adversary, graph, n, t)
    )


# -- answers, not call order ------------------------------------------------

_N, _L_BITS, _GENERATION, _INSTANCE = 7, 64, 2, 5


def _order_view(adversary):
    """One generation's view, as the engines publish it."""
    from repro.graphs.diagnosis_graph import DiagnosisGraph

    config = ConsensusConfig.create(n=_N, l_bits=_L_BITS)
    consensus = MultiValuedConsensus(config)
    return GlobalView(
        n=_N, t=config.t, faulty=set(adversary.faulty), extras={
            "code": consensus.code, "config": config,
            "diag_graph": DiagnosisGraph(_N),
            "parts_of": consensus.parts_of, "l_bits": _L_BITS,
            "generation": _GENERATION,
        },
    )


def _hook_calls(pids):
    """``(hook, arguments without the view)`` for every hook, asked of
    each of ``pids``; the row hooks once with their recipients or
    ``P_match`` ascending and once descending."""
    g, i = _GENERATION, _INSTANCE
    others = tuple(range(_N))
    p_match = (0, 1, 2, 3, 5)
    trust = (True, False, True, True, False)
    calls = [("coin_reveal", (i, 1, 0))]
    for pid in pids:
        peers = tuple(r for r in others if r != pid)
        row = tuple(j % 3 != 0 for j in range(_N))
        calls += [
            ("input_value", (pid, 0xBEEF)),
            ("delivery_value", (pid, 0xBEEF)),
            ("matching_row", (pid, peers, 9, g)),
            ("matching_row", (pid, peers[::-1], 9, g)),
            ("m_row", (pid, row, g)),
            ("detected_flag", (pid, False, g)),
            ("diagnosis_symbol", (pid, 11, g)),
            ("trust_row", (pid, p_match, trust, g)),
            ("trust_row", (pid, p_match[::-1], trust[::-1], g)),
            ("source_codeword", (pid, [1, 2, 3, 4, 5, 6, 7], g)),
            ("forge_signature", (pid, 0, "m")),
        ]
        for recipient in (0, _N - 1):
            calls += [
                ("bsb_source_bit", (pid, recipient, 1, i)),
                ("ideal_broadcast_bit", (pid, recipient % 2, i + recipient)),
                ("king_value", (pid, recipient, 1, 1, i)),
                ("king_proposal", (pid, recipient, 1, None, i)),
                ("king_bit", (pid, recipient, 1, 0, i)),
                ("eig_relay", (pid, recipient, (pid, 0), 1, i)),
                ("est_value", (pid, recipient, 1, 2, i)),
                ("aux_value", (pid, recipient, 0, 2, i)),
                ("source_symbol", (pid, recipient, 4, g)),
                ("forwarded_symbol", (pid, recipient, 4, g)),
            ]
    return calls


def _answer(adversary, view, hook, args):
    """``hook``'s answer, read by the engines' expansion rules."""
    answer = getattr(adversary, hook)(*args, view)
    if hook == "matching_row":
        return dict(zip(args[1], matching_row_payloads(answer, args[1])))
    if hook == "m_row":
        return tuple(m_row_bits(answer, args[0], _N))
    if hook == "trust_row":
        return dict(zip(args[1], trust_row_bits(answer, args[1], args[2])))
    if hook == "source_codeword":
        return tuple(answer)
    return answer


def test_hook_calls_cover_every_hook():
    assert {hook for hook, _ in _hook_calls([0])} == (
        set(PID_HOOKS) | {"coin_reveal"}
    )


@pytest.mark.parametrize("attack", sorted(ATTACKS))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_answers_do_not_depend_on_call_order(attack, data):
    """Rule 3 of the engine contract: an answer is a function of the
    adversary's seed, the hook, its arguments and the generation's view.
    A fresh adversary asked every hook in a shuffled order, some calls
    repeated, answers each call as one asked in the listed order does —
    and a row's answer does not depend on the order of its recipients
    or ``P_match``."""
    def fresh():
        return make_attack(attack, _N, 2, _L_BITS, seed=3)

    listed = fresh()
    calls = _hook_calls(sorted(listed.faulty) or [_N - 1])
    view = _order_view(listed)
    expected = [_answer(listed, view, hook, args) for hook, args in calls]
    for hook in ("matching_row", "trust_row"):
        ascending, descending = [
            answer for (name, _), answer in zip(calls, expected)
            if name == hook
        ][:2]
        assert ascending == descending, hook
    repeats = data.draw(st.lists(st.sampled_from(range(len(calls)))))
    order = data.draw(st.permutations(list(range(len(calls))) + repeats))
    shuffled = fresh()
    view = _order_view(shuffled)
    for index in order:
        hook, args = calls[index]
        assert _answer(shuffled, view, hook, args) == expected[index], hook


@pytest.mark.parametrize("pid", [True, 1.0, None], ids=repr)
def test_an_adversary_refuses_an_inexact_pid_when_built(pid):
    """``True`` would control pid 1 and index like it, and ``1.0`` would
    fail deep in a run: both are refused where the adversary is built,
    before any engine sees them."""
    with pytest.raises(ValueError, match="faulty pid"):
        CrashAdversary([pid])


@pytest.mark.parametrize("pid", [-1, 4, 2 ** 70], ids=repr)
def test_an_engine_refuses_a_faulty_pid_outside_n(pid):
    """The range of a faulty pid is checked where n is known: the
    engine's constructor, not a numpy index mid-run."""
    adversary = CrashAdversary([pid])
    with pytest.raises(ValueError, match="faulty pid"):
        MultiValuedConsensus(
            ConsensusConfig.create(n=4, l_bits=16), adversary=adversary
        )
