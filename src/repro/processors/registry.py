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

from repro.faults.attacks import AdaptiveSplitAdversary, FaultPlanAdversary
from repro.faults.plan import FaultPlan, FaultRule
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

#: Signature of an entry's builder: ``(faulty, n, seed)``, ``faulty``
#: resolved to pids.
Builder = Callable[[List[int], int, int], Adversary]


@dataclass(frozen=True)
class AttackEntry:
    """One named Byzantine strategy and its deployment defaults."""

    name: str
    #: Builds the adversary for a declared faulty set.
    build: Builder
    #: Attack-specific default faulty pids for an ``(n, t)`` deployment.
    default_faulty: Callable[[int, int], List[int]]
    #: One-line description shown by CLI help and docs.
    summary: str
    #: Whether the strategy actually deviates (False only for "none").
    byzantine: bool = True
    #: Builds the adversary for the default faulty set, where that is
    #: another shape than ``build`` gives a declared set.
    build_default: Optional[Builder] = None


def _low(n: int, t: int) -> List[int]:
    return list(range(t))


def _high(n: int, t: int) -> List[int]:
    return list(range(n - t, n))


def _equivocate(faulty, n, seed):
    # Self-consistent equivocation towards the last processor: show it a
    # genuine codeword of value 0, which differs from any non-zero input.
    deceived = [pid for pid in (n - 1,) if pid not in faulty]
    return StagedEquivocationAdversary(faulty, deceived=deceived, alt_value=0)


def _senders_fault(kind: str) -> Builder:
    """Every message a faulty pid sends suffers ``kind`` (one rule)."""
    return lambda faulty, n, seed: FaultPlanAdversary(faulty, FaultPlan(
        rules=(FaultRule(kind=kind, senders=frozenset(faulty)),), seed=seed,
    ))


ATTACKS: Dict[str, AttackEntry] = {
    entry.name: entry
    for entry in (
        AttackEntry(
            "none", lambda faulty, n, seed: Adversary(faulty),
            lambda n, t: [],
            "compliant no-op (faulty pids behave honestly)",
            byzantine=False,
        ),
        AttackEntry(
            "crash", lambda faulty, n, seed: CrashAdversary(faulty), _high,
            "fail-stop: faulty processors fall silent",
        ),
        AttackEntry(
            "corrupt",
            lambda faulty, n, seed: SymbolCorruptionAdversary(faulty),
            lambda n, t: [0],
            "a P_match member corrupts one victim's symbol",
            # The default corrupts only the symbol sent to the last
            # processor, which detects and triggers a diagnosis (the
            # sweeps' historical shape); a declared set corrupts every
            # recipient (the CLI's).
            build_default=lambda faulty, n, seed: SymbolCorruptionAdversary(
                faulty, victims={pid: [n - 1] for pid in faulty}
            ),
        ),
        AttackEntry(
            "equivocate", _equivocate, lambda n, t: [0],
            "self-consistent codeword of a different value",
        ),
        AttackEntry(
            "false_accuse",
            lambda faulty, n, seed: FalseAccusationAdversary(faulty), _low,
            "all-false M vectors accusing every peer",
        ),
        AttackEntry(
            "false_detect",
            lambda faulty, n, seed: FalseDetectionAdversary(faulty), _high,
            "outsiders cry Detected every generation",
        ),
        AttackEntry(
            "trust_poison",
            lambda faulty, n, seed: TrustPoisoningAdversary(faulty), _high,
            "diagnosis Trust vectors accuse honest P_match",
        ),
        AttackEntry(
            "slow_bleed",
            lambda faulty, n, seed: SlowBleedAdversary(faulty), _low,
            "one bad edge per generation (worst-case diagnoses)",
        ),
        AttackEntry(
            "random",
            lambda faulty, n, seed: RandomAdversary(faulty, seed=seed), _low,
            "seeded chaos monkey: every hook deviates at random",
        ),
        AttackEntry(
            "omit_rounds", _senders_fault("omit"), _low,
            "network omits every faulty-sender message (timing fault)",
        ),
        AttackEntry(
            "delay_storm", _senders_fault("delay"), _low,
            "faulty-sender messages arrive one round late (timing fault)",
        ),
        AttackEntry(
            "adaptive_split",
            lambda faulty, n, seed: AdaptiveSplitAdversary(faulty), _low,
            "probe, then strike the weakest honest victim on a budget",
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
        l_bits: the consensus value width (checked; no registry
            strategy reads it).
        seed: seed for ``random`` and for the timing attacks' fault
            plans (ignored by the rest).
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
    if faulty is None:
        build = entry.build_default or entry.build
        return build(entry.default_faulty(n, t), n, seed)
    return entry.build(
        [check_pid(pid, n, "faulty pid") for pid in faulty], n, seed
    )
