"""The canonical attack registry.

One table of named Byzantine strategies shared by every driver — the CLI,
:mod:`repro.analysis.sweeps`, the benchmarks and the service layer — so
attack names, default faulty sets and seeding behave identically
everywhere.  Historically ``repro.cli`` and ``repro.analysis.sweeps``
each kept a private ``ATTACKS`` dict with diverging names (hyphenated vs
underscored) and coverage; both now route through this module.

Names are canonical in ``snake_case``; :func:`normalize_attack` folds the
CLI's historical hyphenated spellings (``slow-bleed``) onto them, so any
spelling a driver ever accepted keeps working.

Each :class:`AttackEntry` knows its attack-specific default faulty set,
chosen so the attack actually bites: the lexicographic ``P_match`` search
favours low pids, so attacks that must operate *inside* ``P_match``
(symbol corruption, staged equivocation, the slow-bleed planner) default
to low pids, while attacks operating from outside (crash, false
detection, trust poisoning) default to high pids.  Passing an explicit
``faulty`` overrides the default.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.faults.attacks import (
    adaptive_split_adversary,
    delay_storm_adversary,
    omit_rounds_adversary,
)
from repro.processors.adversary import Adversary
from repro.processors.byzantine import (
    CrashAdversary,
    FalseAccusationAdversary,
    FalseDetectionAdversary,
    RandomAdversary,
    SlowBleedAdversary,
    StagedEquivocationAdversary,
    SymbolCorruptionAdversary,
    TrustPoisoningAdversary,
)
from repro.utils.boundary import check_choice, check_int, check_pid

#: Signature of an entry's builder: ``(n, t, l_bits, faulty, seed)``;
#: ``faulty`` is ``None`` when the caller wants the entry's default.
Builder = Callable[[int, int, int, Optional[List[int]], int], Adversary]


@dataclass(frozen=True)
class AttackEntry:
    """One named Byzantine strategy and its deployment defaults."""

    name: str
    #: Builds the adversary; resolves ``faulty=None`` to its own default.
    build: Builder
    #: Attack-specific default faulty pids for an ``(n, t)`` deployment.
    default_faulty: Callable[[int, int], List[int]]
    #: One-line description shown by CLI help and docs.
    summary: str = ""
    #: Whether the strategy actually deviates (False only for "none").
    byzantine: bool = True


def _low(n: int, t: int) -> List[int]:
    return list(range(t))


def _high(n: int, t: int) -> List[int]:
    return list(range(n - t, n))


def _build_corrupt(n, t, l_bits, faulty, seed):
    if faulty is None:
        # The registry default: one P_match member corrupts the symbol it
        # sends to the last processor, which detects and triggers a
        # diagnosis (the sweeps' historical shape, kept byte-identical).
        return SymbolCorruptionAdversary([0], victims={0: [n - 1]})
    return SymbolCorruptionAdversary(faulty)


def _build_equivocate(n, t, l_bits, faulty, seed):
    # Self-consistent equivocation towards the last processor: show it a
    # genuine codeword of value 0, which differs from any non-zero input.
    faulty = [0] if faulty is None else faulty
    deceived = [pid for pid in (n - 1,) if pid not in faulty]
    return StagedEquivocationAdversary(faulty, deceived=deceived, alt_value=0)


def _simple(
    adversary_class, default_faulty: Callable[[int, int], List[int]]
) -> Builder:
    """Builder for strategies fully described by their faulty set."""

    def build(n, t, l_bits, faulty, seed):
        if faulty is None:
            faulty = default_faulty(n, t)
        return adversary_class(faulty)

    return build


def _build_random(n, t, l_bits, faulty, seed):
    if faulty is None:
        faulty = _low(n, t)
    return RandomAdversary(faulty, seed=seed)


def _seeded(factory, default_faulty: Callable[[int, int], List[int]]) -> Builder:
    """Builder for ``factory(faulty, seed=...)`` fault-layer strategies."""

    def build(n, t, l_bits, faulty, seed):
        if faulty is None:
            faulty = default_faulty(n, t)
        return factory(faulty, seed=seed)

    return build


ATTACKS: Dict[str, AttackEntry] = {
    entry.name: entry
    for entry in (
        AttackEntry(
            name="none",
            build=_simple(Adversary, lambda n, t: []),
            default_faulty=lambda n, t: [],
            summary="compliant no-op (faulty pids behave honestly)",
            byzantine=False,
        ),
        AttackEntry(
            name="crash",
            build=_simple(CrashAdversary, _high),
            default_faulty=_high,
            summary="fail-stop: faulty processors fall silent",
        ),
        AttackEntry(
            name="corrupt",
            build=_build_corrupt,
            default_faulty=lambda n, t: [0],
            summary="a P_match member corrupts one victim's symbol",
        ),
        AttackEntry(
            name="equivocate",
            build=_build_equivocate,
            default_faulty=lambda n, t: [0],
            summary="self-consistent codeword of a different value",
        ),
        AttackEntry(
            name="false_accuse",
            build=_simple(FalseAccusationAdversary, _low),
            default_faulty=_low,
            summary="all-false M vectors accusing every peer",
        ),
        AttackEntry(
            name="false_detect",
            build=_simple(FalseDetectionAdversary, _high),
            default_faulty=_high,
            summary="outsiders cry Detected every generation",
        ),
        AttackEntry(
            name="trust_poison",
            build=_simple(TrustPoisoningAdversary, _high),
            default_faulty=_high,
            summary="diagnosis Trust vectors accuse honest P_match",
        ),
        AttackEntry(
            name="slow_bleed",
            build=_simple(SlowBleedAdversary, _low),
            default_faulty=_low,
            summary="one bad edge per generation (worst-case diagnoses)",
        ),
        AttackEntry(
            name="random",
            build=_build_random,
            default_faulty=_low,
            summary="seeded chaos monkey: every hook deviates at random",
        ),
        AttackEntry(
            name="omit_rounds",
            build=_seeded(omit_rounds_adversary, _low),
            default_faulty=_low,
            summary="network omits every faulty-sender message (timing fault)",
        ),
        AttackEntry(
            name="delay_storm",
            build=_seeded(delay_storm_adversary, _low),
            default_faulty=_low,
            summary="faulty-sender messages arrive one round late (timing fault)",
        ),
        AttackEntry(
            name="adaptive_split",
            build=_seeded(adaptive_split_adversary, _low),
            default_faulty=_low,
            summary="probe, then strike the weakest honest victim on a budget",
        ),
    )
}

#: The pinned fault-injection grid: the six deterministic attacks the
#: adversarial grids have always swept (the bit
#: totals pinned in ``tests/test_pinned_bits.py`` are keyed to exactly
#: this set).  ``false_accuse`` and ``random`` stay out: the former
#: cannot force a diagnosis on its own and the latter is for
#: property-based testing, not for tracked bit tables.
FAULT_GRID_ATTACKS: Tuple[str, ...] = (
    "corrupt",
    "crash",
    "equivocate",
    "false_detect",
    "slow_bleed",
    "trust_poison",
)

#: The timing-fault grid: strategies that attack message *delivery*
#: through an installed :class:`repro.faults.FaultPlan` rather than
#: message content.  Swept separately from :data:`FAULT_GRID_ATTACKS`
#: (whose expected-bit tables are pinned to the six content attacks):
#: timing-fault runs stay off the cohort fast path, so their grid
#: asserts correctness and determinism, not the pinned bit tables.
TIMING_FAULT_ATTACKS: Tuple[str, ...] = (
    "omit_rounds",
    "delay_storm",
)

#: Historical spellings accepted by older drivers, folded onto canonical
#: names (beyond the mechanical hyphen/underscore normalization).
_ALIASES = {
    "honest": "none",
}


def normalize_attack(name: str) -> str:
    """Fold any historically accepted spelling onto the canonical name.

    Lower-cases, strips whitespace and maps hyphens to underscores, so
    the CLI's ``slow-bleed`` and the sweeps' ``slow_bleed`` are the same
    attack.  Unknown names pass through unchanged (the caller's lookup
    reports them with the full menu).
    """
    if not isinstance(name, str):
        raise TypeError(
            "attack must be a string, got %s" % type(name).__name__
        )
    canonical = name.strip().lower().replace("-", "_")
    return _ALIASES.get(canonical, canonical)


def attack_cohort_id(
    name: str, faulty: Optional[Sequence[int]] = None
) -> Tuple[str, Optional[Tuple[int, ...]]]:
    """The attack-shape identity used for cohort grouping.

    Two instances share a cohort id exactly when :func:`make_attack`
    would build them structurally identical adversaries up to seeding:
    the canonical attack name plus the *declared* faulty set.  The
    declared (pre-resolution) set is the right key — builders may pick a
    different strategy for ``faulty=None`` than for an explicit
    equivalent list (``corrupt`` defaults to a single targeted victim
    but corrupts everyone when pids are passed explicitly), so resolving
    defaults here would merge genuinely different shapes.  The seed is
    deliberately excluded: seeded strategies with different seeds still
    share every structural input to the protocol (faulty set, hook call
    pattern), which is all cohort batching relies on.
    """
    return (
        normalize_attack(name),
        tuple(faulty) if faulty is not None else None,
    )


def make_attack(
    name: str,
    n: int,
    t: int,
    l_bits: int,
    seed: int = 0,
    faulty: Optional[Sequence[int]] = None,
) -> Adversary:
    """Instantiate the named attack for an ``(n, t)`` deployment.

    Args:
        name: a key of :data:`ATTACKS`, in any accepted spelling.
        n: number of processors.
        t: tolerated faults; Byzantine attacks require ``t >= 1``.
        l_bits: the consensus value width (some strategies size their
            forged values to it).
        seed: seed for randomised strategies (ignored by the rest).
        faulty: explicit faulty pids; default the entry's
            attack-specific choice.

    Returns:
        A fresh :class:`~repro.processors.adversary.Adversary`; building
        is deterministic, so equal arguments give behaviourally
        identical adversaries (the service layer relies on this to
        reconstruct adversaries inside executor processes).
    """
    entry = ATTACKS[check_choice(normalize_attack(name), ATTACKS, "attack")]
    for arg, value in (("n", n), ("t", t), ("l_bits", l_bits), ("seed", seed)):
        check_int(value, arg)
    if entry.byzantine and t < 1:
        raise ValueError("attack %r needs t >= 1, got t=%d" % (entry.name, t))
    resolved = (
        [check_pid(pid, n, "faulty pid") for pid in faulty]
        if faulty is not None else None
    )
    return entry.build(n, t, l_bits, resolved, seed)
