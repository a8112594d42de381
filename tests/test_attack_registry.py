"""The canonical attack registry."""

import pytest

import repro.cli as cli_module
from repro.analysis import sweeps
from repro.processors import (
    ATTACKS,
    FAULT_GRID_ATTACKS,
    TIMING_FAULT_ATTACKS,
    Adversary,
    CrashAdversary,
    RandomAdversary,
    SlowBleedAdversary,
    StagedEquivocationAdversary,
    SymbolCorruptionAdversary,
    make_attack,
    normalize_attack,
)
from repro.processors.adversary import GlobalView


class TestRegistryShape:
    def test_canonical_names(self):
        assert sorted(ATTACKS) == [
            "adaptive_split", "corrupt", "crash", "delay_storm",
            "equivocate", "false_accuse", "false_detect", "none",
            "omit_rounds", "random", "slow_bleed", "trust_poison",
        ]

    def test_fault_grid_is_pinned_subset(self):
        assert set(FAULT_GRID_ATTACKS) <= set(ATTACKS)
        # the six attacks the tracked benchmark bit tables are keyed to
        assert sorted(FAULT_GRID_ATTACKS) == [
            "corrupt", "crash", "equivocate", "false_detect",
            "slow_bleed", "trust_poison",
        ]

    def test_timing_fault_grid(self):
        assert set(TIMING_FAULT_ATTACKS) <= set(ATTACKS)
        assert sorted(TIMING_FAULT_ATTACKS) == ["delay_storm", "omit_rounds"]
        # timing attacks stay out of the pinned content-attack grid
        assert not set(TIMING_FAULT_ATTACKS) & set(FAULT_GRID_ATTACKS)
        # every timing attack carries a network fault plan
        for name in TIMING_FAULT_ATTACKS:
            adversary = make_attack(name, 7, 2, 64)
            assert adversary.fault_plan is not None

    def test_only_none_is_not_byzantine(self):
        assert [name for name, e in ATTACKS.items() if not e.byzantine] == (
            ["none"]
        )

    def test_entries_have_summaries(self):
        assert all(entry.summary for entry in ATTACKS.values())


class TestNormalization:
    @pytest.mark.parametrize("raw,canonical", [
        ("slow-bleed", "slow_bleed"),
        ("Slow_Bleed", "slow_bleed"),
        ("  false-detect ", "false_detect"),
        ("FALSE-ACCUSE", "false_accuse"),
        ("honest", "none"),
        ("corrupt", "corrupt"),
    ])
    def test_spellings_fold(self, raw, canonical):
        assert normalize_attack(raw) == canonical

    def test_unknown_passes_through(self):
        assert normalize_attack("nope") == "nope"

    def test_make_attack_accepts_any_spelling(self):
        a = make_attack("slow-bleed", 7, 2, 64)
        b = make_attack("slow_bleed", 7, 2, 64)
        assert type(a) is type(b) is SlowBleedAdversary
        assert a.faulty == b.faulty


class TestMakeAttack:
    def test_unknown_name_lists_menu(self):
        with pytest.raises(ValueError, match="unknown attack"):
            make_attack("nope", 7, 2, 64)

    def test_byzantine_attacks_need_t(self):
        with pytest.raises(ValueError, match="needs t >= 1"):
            make_attack("crash", 4, 0, 64)

    def test_none_allows_t_zero(self):
        adversary = make_attack("none", 4, 0, 64)
        assert type(adversary) is Adversary
        assert adversary.faulty == set()

    def test_default_faulty_sets(self):
        # Insider attacks default to low pids (inside the lexicographic
        # P_match), outsider attacks to high pids — the historical
        # sweeps defaults the tracked bit tables depend on.
        n, t = 31, 10
        assert make_attack("crash", n, t, 64).faulty == set(range(21, 31))
        assert make_attack("false_detect", n, t, 64).faulty == (
            set(range(21, 31))
        )
        assert make_attack("trust_poison", n, t, 64).faulty == (
            set(range(21, 31))
        )
        assert make_attack("slow_bleed", n, t, 64).faulty == set(range(10))
        assert make_attack("random", n, t, 64).faulty == set(range(10))
        assert make_attack("false_accuse", n, t, 64).faulty == set(range(10))
        assert make_attack("omit_rounds", n, t, 64).faulty == set(range(10))
        assert make_attack("delay_storm", n, t, 64).faulty == set(range(10))
        assert make_attack("adaptive_split", n, t, 64).faulty == (
            set(range(10))
        )

    def test_corrupt_default_matches_sweeps_shape(self):
        adversary = make_attack("corrupt", 7, 2, 64)
        assert type(adversary) is SymbolCorruptionAdversary
        assert adversary.faulty == {0}
        assert adversary.victims == {0: {6}}

    def test_corrupt_explicit_faulty_is_plain(self):
        adversary = make_attack("corrupt", 7, 2, 64, faulty=[0])
        assert adversary.faulty == {0}
        # explicit faulty means "corrupt every recipient", the CLI's
        # historical semantics — not the registry's victimized default
        assert adversary.victims == {0: None}

    def test_equivocate_default(self):
        adversary = make_attack("equivocate", 7, 2, 64)
        assert type(adversary) is StagedEquivocationAdversary
        assert adversary.faulty == {0}
        assert adversary.deceived == {6}
        assert adversary.alt_value == 0

    def test_explicit_faulty_override(self):
        adversary = make_attack("crash", 7, 2, 64, faulty=[2, 3])
        assert type(adversary) is CrashAdversary
        assert adversary.faulty == {2, 3}

    def test_random_is_seeded_deterministically(self):
        a = make_attack("random", 7, 2, 64, seed=5)
        b = make_attack("random", 7, 2, 64, seed=5)
        c = make_attack("random", 7, 2, 64, seed=6)
        assert type(a) is RandomAdversary
        view = GlobalView(n=7, t=2, faulty=set(a.faulty))

        def answers(adversary):
            return [
                adversary.matching_row(6, (0, 1, 2, 3, 4, 5), 9, g, view)
                for g in range(8)
            ] + [
                adversary.ideal_broadcast_bit(6, 1, instance, view)
                for instance in range(32)
            ]

        assert answers(a) == answers(b)
        assert answers(a) != answers(c)

    def test_builders_return_fresh_objects(self):
        assert make_attack("slow_bleed", 7, 2, 64) is not make_attack(
            "slow_bleed", 7, 2, 64
        )


class TestDeprecatedShims:
    """The ``sweeps.ATTACKS`` / ``sweeps.make_attack`` / ``cli.ATTACKS``
    shims are gone; neither module resolves unknown names."""

    def test_sweeps_unknown_attribute_raises(self):
        with pytest.raises(AttributeError):
            sweeps.no_such_thing
        with pytest.raises(AttributeError):
            sweeps.ATTACKS

    def test_cli_unknown_attribute_raises(self):
        with pytest.raises(AttributeError):
            cli_module.no_such_thing
        with pytest.raises(AttributeError):
            cli_module.ATTACKS
