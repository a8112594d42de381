"""Registry-shaped attacks built on the fault subsystem.

Three new strategies join ``repro.processors.ATTACKS``:

* ``omit_rounds`` — every message a faulty processor sends is omitted by
  the network (within an optional round window).  Observationally this
  is fail-stop behaviour, but produced *below* the adversary hooks: the
  hooks all answer honestly and the network drops the traffic, so it
  exercises the injection seam, the typed-error paths and the audit
  tier's event-based culpability, not the hook recorder.
* ``delay_storm`` — every faulty-sender message arrives one round late.
  Synchronous receivers ignore stale tags, so protocol-visibly this is
  omission too, but the journal shows the displaced deliveries and the
  meter shows the sender paying in the round of *sending* — the
  properties the replay tests pin down.
* ``adaptive_split`` — a hook-level :class:`~repro.faults.strategy.
  PlannedAdversary`: probe (corrupt toward the highest honest pid), read
  the diagnosis graph, strike the weakest honest victim, go dormant when
  the corruption budget runs out.  No network faults, so it stays
  cohort-eligible.

The first two carry their :class:`~repro.faults.plan.FaultPlan` on the
adversary as ``fault_plan``; the engine installs the compiled schedule on
its network, and the service layer keeps such runs off the cohort fast
path (injected traffic cannot be charge-round'd away).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.faults.plan import FaultPlan, FaultRule
from repro.faults.strategy import PlannedAdversary
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


def omit_rounds_adversary(
    faulty: Sequence[int],
    seed: int = 0,
    rounds: Optional[Tuple[int, int]] = None,
) -> FaultPlanAdversary:
    """Network omits everything the faulty pids send (in ``rounds``)."""
    plan = FaultPlan(
        rules=(
            FaultRule(
                kind="omit",
                senders=frozenset(faulty),
                rounds=rounds,
            ),
        ),
        seed=seed,
    )
    return FaultPlanAdversary(faulty, plan)


def delay_storm_adversary(
    faulty: Sequence[int],
    seed: int = 0,
    delay: int = 1,
) -> FaultPlanAdversary:
    """Network delivers everything the faulty pids send ``delay`` rounds
    late (stale to synchronous receivers, visible to journals/meters)."""
    plan = FaultPlan(
        rules=(
            FaultRule(
                kind="delay",
                senders=frozenset(faulty),
                delay=delay,
            ),
        ),
        seed=seed,
    )
    return FaultPlanAdversary(faulty, plan)


class AdaptiveSplitAdversary(PlannedAdversary):
    """Probe → strike → dormant: a budgeted three-phase symbol attack.

    * **probe** (generation 0): every faulty pid corrupts the symbol it
      sends to the *highest* honest pid — one cheap, certain diagnosis
      that reveals how the protocol redraws the trust graph.
    * **strike** (from generation 1): the strategy reads the diagnosis
      graph and redirects every corruption at the *weakest* honest
      victim — the one the graph shows trusting the fewest peers
      (lowest pid on ties).
    * **dormant**: entered by :meth:`~repro.faults.strategy.
      PlannedAdversary.spend` once the corruption budget (default
      ``4 * len(faulty)``) is gone; the adversary plays honestly
      thereafter.

    All choices are deterministic functions of the seed and the shared
    protocol state, so scalar, vectorized and cohort executions replay
    the identical attack.
    """

    initial_phase = "probe"
    _victim: Optional[int] = None

    def adjust_strategy(self, observation: Dict[str, Any]) -> None:
        if self.phase == "dormant":
            return
        if self.phase == "probe":
            self._victim = self._weakest_honest(
                observation.get("diag_graph"), observation["view"]
            )
            self.enter_phase("strike")

    def _weakest_honest(self, graph, view: GlobalView) -> Optional[int]:
        honest = sorted(view.honest)
        if not honest:
            return None
        if graph is None:
            return honest[0]
        # Fewest trusting peers = most damage per corruption; ties to
        # the lowest pid keep the choice deterministic.
        return min(honest, key=lambda pid: (len(graph.trusted_by(pid)), pid))

    def make_plan(
        self, generation: int, view: GlobalView
    ) -> Dict[int, int]:
        if self.phase == "dormant":
            return {}
        honest = sorted(view.honest)
        if not honest:
            return {}
        if self.phase == "probe":
            victim = honest[-1]
        else:
            victim = self._victim if self._victim is not None else honest[0]
        plan: Dict[int, int] = {}
        # Budget is debited at plan time (once per generation per pid),
        # never inside a hook, so every execution path spends alike.
        for pid in sorted(self.faulty):
            if not self.spend():
                break
            plan[pid] = victim
        return plan

    def matching_row(self, pid, recipients, honest_symbol, generation,
                     view):
        # Honest plus at most the one planned victim.
        victim = self.plan_for(generation, view).get(pid)
        if victim is None:
            return honest_symbol, {}
        return honest_symbol, {victim: honest_symbol ^ 1}


def adaptive_split_adversary(
    faulty: Sequence[int],
    seed: int = 0,
    budget: Optional[int] = None,
) -> AdaptiveSplitAdversary:
    return AdaptiveSplitAdversary(faulty, seed=seed, budget=budget)


__all__ = [
    "FaultPlanAdversary",
    "AdaptiveSplitAdversary",
    "omit_rounds_adversary",
    "delay_storm_adversary",
    "adaptive_split_adversary",
]
