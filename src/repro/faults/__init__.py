"""Fault-injection subsystem: timing faults and the attacks built on them.

Byzantine strategies (:mod:`repro.processors.byzantine`) lie about
*content*; this package attacks *timing and delivery*.  A declarative
:class:`FaultPlan` (omit / delay / duplicate / partition rules, one
seed) compiles into a :class:`FaultSchedule` that
:class:`~repro.network.simulator.SyncNetwork` consults on every edge
once installed — deterministically, so audit replays re-derive the
identical fault pattern and fold the schedule's event log into
culpability proofs.  :class:`FaultPlanAdversary` carries a plan into a
run; :class:`AdaptiveSplitAdversary` is the budgeted multi-phase hook
attack.

See ``docs/FAULTS.md`` for the fault-model taxonomy and the schema.
"""

from repro.faults.attacks import AdaptiveSplitAdversary, FaultPlanAdversary
from repro.faults.errors import FaultInjectionError
from repro.faults.plan import (
    FAULT_KINDS,
    FaultDecision,
    FaultEvent,
    FaultPlan,
    FaultRule,
    FaultSchedule,
)

__all__ = [
    "FAULT_KINDS",
    "FaultDecision",
    "FaultEvent",
    "FaultInjectionError",
    "FaultPlan",
    "FaultRule",
    "FaultSchedule",
    "FaultPlanAdversary",
    "AdaptiveSplitAdversary",
]
