"""Result records for generations and full consensus runs."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.network.metrics import MeterSnapshot


class Agreed:
    """Agreement over ``decisions`` (pid -> decision, one per fault-free
    processor): the one rule for every result record."""

    @property
    def consistent(self) -> bool:
        return len(set(self.decisions.values())) <= 1

    @property
    def value(self):
        """The agreed decision, when consistent."""
        if not self.consistent or not self.decisions:
            return None
        return next(iter(self.decisions.values()))


class RunOutcome(Agreed):
    """A run's record: agreement, and the bits its ``meter`` counted."""

    @property
    def total_bits(self) -> int:
        return self.meter.total_bits


class ConsensusOutcome(RunOutcome):
    """A consensus run's record; validity reads its ground truth,
    ``honest_inputs_equal`` and ``common_input``."""

    @property
    def valid(self) -> bool:
        """Equal honest inputs are decided (vacuous when they differ)."""
        return not self.honest_inputs_equal or (
            self.consistent and self.value == self.common_input
        )

    @property
    def error_free(self) -> bool:
        """Consistent and valid (termination is ``run`` returning)."""
        return self.consistent and self.valid


def ground_truth(honest_inputs: Sequence[int]) -> dict:
    """A consensus result's ``honest_inputs_equal`` and ``common_input``
    fields, from the inputs its fault-free processors held."""
    equal = len(set(honest_inputs)) == 1
    return {"honest_inputs_equal": equal,
            "common_input": honest_inputs[0] if equal else None}


class GenerationOutcome(enum.Enum):
    """How a generation of Algorithm 1 reached its decision."""

    #: No P_match existed: honest inputs provably differ; default decided
    #: and the whole algorithm terminates (line 1(f)).
    NO_MATCH_DEFAULT = "no_match_default"
    #: All Detected flags false: decided in the checking stage (line 2(c)).
    DECIDED_CHECKING = "decided_checking"
    #: Inconsistency was announced: decided after diagnosis (line 3(i)).
    DECIDED_DIAGNOSIS = "decided_diagnosis"


@dataclass
class GenerationResult(Agreed):
    """Outcome of one generation, from the fault-free perspective."""

    generation: int
    outcome: GenerationOutcome
    #: pid -> decided symbol vector, for every fault-free pid.
    decisions: Dict[int, Tuple[int, ...]]
    #: the common P_match (reference honest view); None when absent.
    p_match: Optional[Tuple[int, ...]] = None
    #: the P_decide used in the diagnosis stage, when entered.
    p_decide: Optional[Tuple[int, ...]] = None
    #: edges removed from the diagnosis graph during this generation.
    removed_edges: List[Tuple[int, int]] = field(default_factory=list)
    #: processors isolated during this generation.
    isolated: List[int] = field(default_factory=list)
    #: fault-free processors that announced Detected = true.
    detectors: List[int] = field(default_factory=list)

    @property
    def diagnosis_performed(self) -> bool:
        return self.outcome is GenerationOutcome.DECIDED_DIAGNOSIS


@dataclass
class ConsensusResult(ConsensusOutcome):
    """Outcome of a full L-bit consensus run."""

    #: pid -> decided L-bit value, for every fault-free pid.
    decisions: Dict[int, int]
    #: per-generation records, in order.
    generation_results: List[GenerationResult]
    #: bits transmitted, by stage tag.
    meter: MeterSnapshot
    #: number of generations in which the diagnosis stage ran.
    diagnosis_count: int
    #: True when a missing P_match forced the default value.
    default_used: bool
    #: ground truth for property checks: were all honest inputs equal?
    honest_inputs_equal: bool
    #: the common honest input when honest_inputs_equal (else None).
    common_input: Optional[int] = None
