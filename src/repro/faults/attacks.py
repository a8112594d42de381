"""The adversaries behind three registry attacks.

* ``omit_rounds`` and ``delay_storm`` are each one
  :class:`FaultPlanAdversary` over one :class:`~repro.faults.plan.
  FaultRule` on the faulty senders (built in :mod:`repro.processors.
  registry`): the hooks all answer honestly and the network omits, or
  delivers one round late, everything a faulty pid sends.  Synchronous
  receivers ignore stale tags, so a delay is protocol-visibly omission
  too, but the journal shows the displaced deliveries and the meter the
  sender paying in the round of sending.  Such runs exercise the
  injection seam, the typed-error paths and the audit tier's event-based
  culpability, not the hook recorder.
* ``adaptive_split`` is :class:`AdaptiveSplitAdversary`: probe (corrupt
  toward the highest honest pid), read the diagnosis graph, strike the
  weakest honest victim, go dormant when the corruption budget runs out.
  No network faults, so it stays cohort-eligible.

A fault plan rides on the adversary as ``fault_plan``; the engine
installs the compiled schedule on its network, and the planner keeps
such runs on the reference lane (injected traffic cannot be priced
away).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.faults.plan import FaultPlan
from repro.processors.adversary import Adversary, GlobalView


class FaultPlanAdversary(Adversary):
    """Hook-honest adversary that attacks through the network instead.

    Every hook answers honestly; the damage is entirely the
    ``fault_plan`` the engine installs on its :class:`~repro.network.
    simulator.SyncNetwork`.  The faulty set still declares *whose*
    traffic the plan molests, so diagnosis and audit culpability keep
    their usual meaning.
    """

    def __init__(self, faulty: Sequence[int], fault_plan: FaultPlan):
        super().__init__(faulty)
        self.fault_plan = fault_plan


class AdaptiveSplitAdversary(Adversary):
    """Probe → strike → dormant: a budgeted three-phase symbol attack.

    * **probe** (generation 0): every faulty pid corrupts the symbol it
      sends to the *highest* honest pid — one cheap, certain diagnosis
      that reveals how the protocol redraws the trust graph.
    * **strike** (from generation 1): the strategy reads the diagnosis
      graph and redirects every corruption at the *weakest* honest
      victim — the one the graph shows trusting the fewest peers
      (lowest pid on ties).
    * **dormant**: entered by :meth:`spend` once the corruption budget
      of ``4 * len(faulty)`` is gone; the adversary plays honestly
      thereafter.

    Each generation's plan is made once, on its first hook call, and
    the budget is debited there (once per generation per pid), never
    inside a hook: which hooks an engine asks in a generation is its
    own, so scalar, vectorized and cohort executions replay the
    identical attack.  ``phase_log`` records every phase entered.
    """

    def __init__(self, faulty: Sequence[int]):
        super().__init__(faulty)
        self.corruption_budget = 4 * len(self.faulty)
        self.corruptions_spent = 0
        self.phase = "probe"
        self.phase_log: List[str] = ["probe"]
        self._victim: Optional[int] = None
        self._plan: Dict[int, Dict[int, int]] = {}

    def _enter(self, phase: str) -> None:
        self.phase = phase
        self.phase_log.append(phase)

    def spend(self) -> bool:
        """Debit one corruption; False (and dormancy) if it does not
        fit."""
        if self.corruptions_spent >= self.corruption_budget:
            if self.phase != "dormant":
                self._enter("dormant")
            return False
        self.corruptions_spent += 1
        return True

    def _plan_for(self, generation: int, view: GlobalView) -> Dict[int, int]:
        """``faulty pid -> victim`` for ``generation``, made once."""
        if generation in self._plan:
            return self._plan[generation]
        honest = sorted(view.honest)
        if generation > 0 and self.phase == "probe":
            self._victim = self._weakest_honest(
                view.extras.get("diag_graph"), honest
            )
            self._enter("strike")
        plan: Dict[int, int] = {}
        if self.phase != "dormant" and honest:
            if self.phase == "probe":
                victim = honest[-1]
            else:
                victim = self._victim if self._victim is not None else honest[0]
            for pid in sorted(self.faulty):
                if not self.spend():
                    break
                plan[pid] = victim
        self._plan[generation] = plan
        return plan

    @staticmethod
    def _weakest_honest(graph, honest: List[int]) -> Optional[int]:
        if not honest:
            return None
        if graph is None:
            return honest[0]
        # Fewest trusting peers = most damage per corruption; ties to
        # the lowest pid keep the choice deterministic.
        return min(honest, key=lambda pid: (len(graph.trusted_by(pid)), pid))

    def matching_row(self, pid, recipients, honest_symbol, generation,
                     view):
        # Honest plus at most the one planned victim.
        victim = self._plan_for(generation, view).get(pid)
        if victim is None:
            return honest_symbol, {}
        return honest_symbol, {victim: honest_symbol ^ 1}


__all__ = ["FaultPlanAdversary", "AdaptiveSplitAdversary"]
