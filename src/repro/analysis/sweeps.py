"""Parameter-sweep drivers shared by the CLI and the benchmark harness.

Each sweep runs the real protocol (never just the formulas), collects
exact bit counts, and returns plain dataclass rows, so callers can print,
plot or assert over them without re-running simulations.

A sweep point is one failure-free instance; the fault *grid* (every
:data:`repro.processors.FAULT_GRID_ATTACKS` attack × n) is not a sweep
driver but a pinned table — ``tests/test_pinned_bits.py`` holds its
bit totals, ``tests/test_differential.py`` its engine equivalence and the
``t(t+1)`` diagnosis bound, ``benchmarks/bench_e5_diagnosis_bound.py`` the
bound's worst case.  Every point is held to Theorem 1 (imported on first
use, so no deployment loads :func:`repro.core.invariants.check`).

Every sweep consumes :class:`repro.service.RunSpec` — the one
declarative run description shared with the CLI and the benchmarks —
and runs each point's declarative instance on the keyed context of a
:class:`repro.service.ConsensusService`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.analysis.complexity import (
    checking_stage_bits,
    leading_term_per_bit,
    matching_stage_bits,
)
from repro.broadcast_bit.ideal import default_b
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
    def ratio_to_asymptote(self) -> float:
        return self.per_bit / self.asymptote


def _run_point(n: int, t: int, l_bits: int) -> SweepPoint:
    from repro.core.invariants import check

    service = ConsensusService(RunSpec(n=n, t=t, l_bits=l_bits))
    config = service.config
    inputs = [(1 << l_bits) - 1] * n
    result = check(config, inputs, service.run(inputs))
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


def sweep_l(n: int, t: int, l_values: Sequence[int]) -> List[SweepPoint]:
    """Measure total complexity across message lengths."""
    return [_run_point(n, t, l) for l in l_values]


def sweep_n(n_values: Sequence[int], l_bits: int) -> List[SweepPoint]:
    """Measure total complexity across network sizes (t = ⌊(n-1)/3⌋)."""
    return [_run_point(n, (n - 1) // 3, l_bits) for n in n_values]
