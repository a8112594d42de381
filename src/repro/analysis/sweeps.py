"""Parameter-sweep drivers shared by the CLI and the benchmark harness.

Each sweep runs the real protocol (never just the formulas), collects
exact bit counts, and returns plain dataclass rows, so callers can print,
plot or assert over them without re-running simulations.

Fault-injection sweeps (:func:`sweep_faults`) run the same grids under a
named attack from the canonical registry
(:data:`repro.processors.ATTACKS`) so the same attack name scales from
``n = 4`` to the large-n regime (31/63/127) the vectorized adversarial
path and its grouped diagnosis broadcasts make practical; the default
sweep set is the pinned
:data:`repro.processors.FAULT_GRID_ATTACKS` grid the bit totals pinned in
``tests/test_pinned_bits.py`` are keyed to.  Faulty pids default to the registry's
attack-specific choices, picked so the attack actually bites (see
:mod:`repro.processors.registry`).

Every sweep consumes :class:`repro.service.RunSpec` — the one
declarative run description shared with the CLI and the benchmarks —
and runs through a :class:`repro.service.ConsensusService`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from repro.analysis.complexity import (
    checking_stage_bits,
    leading_term_per_bit,
    matching_stage_bits,
)
from repro.broadcast_bit.ideal import default_b
from repro.processors.adversary import Adversary
from repro.processors.registry import FAULT_GRID_ATTACKS
from repro.service.service import ConsensusService
from repro.service.spec import RunSpec


@dataclass(frozen=True)
class SweepPoint:
    """One measured point of an L- or n-sweep."""

    n: int
    t: int
    l_bits: int
    d_bits: int
    generations: int
    total_bits: int
    analytic_bits: float
    per_bit: float
    asymptote: float

    @property
    def ratio_to_analytic(self) -> float:
        return self.total_bits / self.analytic_bits

    @property
    def ratio_to_asymptote(self) -> float:
        return self.per_bit / self.asymptote


def _run_point(
    n: int,
    t: int,
    l_bits: int,
    adversary_factory: Optional[Callable[[], Adversary]],
) -> SweepPoint:
    service = ConsensusService(RunSpec(n=n, t=t, l_bits=l_bits))
    config = service.config
    adversary = adversary_factory() if adversary_factory else Adversary()
    result = service.run((1 << l_bits) - 1, adversary=adversary)
    if not (result.consistent and result.valid):
        raise AssertionError(
            "sweep point n=%d t=%d L=%d produced an inconsistent run"
            % (n, t, l_bits)
        )
    b = default_b(n)
    analytic = config.generations * (
        matching_stage_bits(n, t, config.d_bits, b)
        + checking_stage_bits(n, t, b)
    )
    return SweepPoint(
        n=n,
        t=t,
        l_bits=l_bits,
        d_bits=config.d_bits,
        generations=config.generations,
        total_bits=result.total_bits,
        analytic_bits=analytic,
        per_bit=result.total_bits / l_bits,
        asymptote=leading_term_per_bit(n, t),
    )


def sweep_l(
    n: int,
    t: int,
    l_values: Sequence[int],
    adversary_factory: Optional[Callable[[], Adversary]] = None,
) -> List[SweepPoint]:
    """Measure total complexity across message lengths."""
    return [_run_point(n, t, l, adversary_factory) for l in l_values]


def sweep_n(
    n_values: Sequence[int],
    l_bits: int,
    adversary_factory: Optional[Callable[[], Adversary]] = None,
) -> List[SweepPoint]:
    """Measure total complexity across network sizes (t = ⌊(n-1)/3⌋)."""
    return [
        _run_point(n, (n - 1) // 3, l_bits, adversary_factory)
        for n in n_values
    ]


# -- fault-injection sweeps ---------------------------------------------------

@dataclass(frozen=True)
class FaultSweepPoint:
    """One measured point of a fault-injection sweep."""

    n: int
    t: int
    l_bits: int
    attack: str
    total_bits: int
    generations: int
    diagnosis_count: int
    default_used: bool

    @property
    def diagnosis_bound(self) -> int:
        """Theorem 1's ceiling on diagnosis stages: ``t(t + 1)``."""
        return self.t * (self.t + 1)


def _run_fault_point(
    n: int, t: int, l_bits: int, attack: str, vectorized: bool
) -> FaultSweepPoint:
    spec = RunSpec(
        n=n, t=t, l_bits=l_bits, attack=attack, vectorized=vectorized
    )
    service = ConsensusService(spec)
    config = service.config
    result = service.run((1 << l_bits) - 1)
    if not (result.consistent and result.valid):
        raise AssertionError(
            "fault point n=%d t=%d L=%d attack=%s broke consensus"
            % (n, t, l_bits, attack)
        )
    if result.diagnosis_count > t * (t + 1):
        raise AssertionError(
            "attack %s at n=%d forced %d diagnoses, above the t(t+1)=%d "
            "bound" % (attack, n, result.diagnosis_count, t * (t + 1))
        )
    return FaultSweepPoint(
        n=n,
        t=t,
        l_bits=l_bits,
        attack=attack,
        total_bits=result.total_bits,
        generations=config.generations,
        diagnosis_count=result.diagnosis_count,
        default_used=result.default_used,
    )


def sweep_faults(
    n_values: Sequence[int],
    l_bits: int,
    attacks: Optional[Sequence[str]] = None,
    vectorized: bool = True,
) -> List[FaultSweepPoint]:
    """Fault-injection grid: every ``(n, attack)`` pair, exact bit counts.

    Runs the real protocol under each named attack (t = ⌊(n-1)/3⌋) and
    asserts consistency, validity and the ``t(t+1)`` diagnosis bound.

    Args:
        n_values: network sizes to sweep (each with maximal ``t``).
        l_bits: the consensus value width for every point.
        attacks: attack names from :data:`repro.processors.ATTACKS`;
            default the pinned
            :data:`repro.processors.FAULT_GRID_ATTACKS` grid, sorted.
        vectorized: ``True`` (default) runs the default engine — each
            point's honest processors share one input, so that is the
            cohort engine over a cohort of one — practical at
            ``n = 31/63/127/255``; ``False`` forces the scalar reference
            engine (``tests/test_differential.py``'s baseline).

    Returns:
        One :class:`FaultSweepPoint` per ``(n, attack)`` pair, in grid
        order (``n`` outer, attack inner).
    """
    names = (
        list(attacks) if attacks is not None
        else sorted(FAULT_GRID_ATTACKS)
    )
    return [
        _run_fault_point(n, (n - 1) // 3, l_bits, attack, vectorized)
        for n in n_values
        for attack in names
    ]
