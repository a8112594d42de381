"""Multi-phase planned Byzantine strategies.

:class:`PlannedAdversary` gives stateful attacks an explicit life cycle
in the shape of the bribery-zoo ``IByzantineStrategy`` interface: a
``setup_plan()`` that fixes the opening phase before the first message,
and an ``adjust_strategy(observation)`` called once per generation with
what the omniscient adversary just observed (the diagnosis graph, the
generation index), letting the strategy walk a phase state machine.

Two disciplines keep subclasses replay-safe across the scalar,
vectorized and cohort execution paths:

* **plan at generation boundaries, not per hook call** — which hooks a
  path asks in a generation is its own (an all-honest generation may
  ask none); :meth:`PlannedAdversary.plan_for` computes each
  generation's plan exactly once, on the first hook call that
  generation, and every hook reads the cached plan;
* **seeded randomness only** — ``self.rng`` is derived from the
  strategy's seed via :func:`repro.utils.rng.derive_rng`, and the
  corruption budget is spent at plan time, so a replayed run spends it
  identically.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.processors.adversary import Adversary, GlobalView
from repro.utils.rng import derive_rng


class PlannedAdversary(Adversary):
    """Base class for phase-structured, budgeted Byzantine strategies.

    Subclasses override :meth:`make_plan` (what to do this generation,
    given the current phase) and :meth:`adjust_strategy` (how to move
    between phases, given an observation); the base class handles
    per-generation planning, the phase log and the corruption budget.

    The *corruption budget* bounds how many per-edge corruptions the
    strategy may spend over its lifetime; :meth:`spend` debits it and
    reports whether the debit fit, and an exhausted budget flips the
    strategy into the terminal ``"dormant"`` phase.
    """

    #: Phase entered by the default ``setup_plan``.
    initial_phase = "probe"

    def __init__(
        self,
        faulty: Sequence[int],
        seed: int = 0,
        budget: Optional[int] = None,
    ):
        super().__init__(faulty)
        self.seed = seed
        self.rng = derive_rng(seed, "faults.strategy", type(self).__name__)
        self.corruption_budget = (
            4 * len(self.faulty) if budget is None else budget
        )
        self.corruptions_spent = 0
        self.phase: Optional[str] = None
        #: Every phase entered, in order — the observable trace tests
        #: assert the state machine against.
        self.phase_log: List[str] = []
        self._plans: Dict[int, Any] = {}
        self.setup_plan()

    # -- the strategy interface ------------------------------------------------

    def setup_plan(self) -> None:
        """Fix the opening phase; called once, before any message."""
        self.enter_phase(self.initial_phase)

    def adjust_strategy(self, observation: Dict[str, Any]) -> None:
        """Move the phase machine given one generation's observation.

        ``observation`` carries ``generation``, the ``diag_graph`` the
        engine exposes to adversaries (None until the first diagnosis)
        and the full :class:`GlobalView`.  The default keeps the current
        phase.
        """

    def make_plan(self, generation: int, view: GlobalView) -> Any:
        """Build this generation's plan under the current phase."""
        return None

    # -- bookkeeping -----------------------------------------------------------

    def enter_phase(self, name: str) -> None:
        self.phase = name
        self.phase_log.append(name)

    def spend(self, amount: int = 1) -> bool:
        """Debit ``amount`` corruptions; False (and dormancy) if it
        does not fit."""
        if self.corruptions_spent + amount > self.corruption_budget:
            if self.phase != "dormant":
                self.enter_phase("dormant")
            return False
        self.corruptions_spent += amount
        return True

    def plan_for(self, generation: int, view: GlobalView) -> Any:
        """The cached plan for ``generation``, computing it on first use.

        The first hook call of a new generation triggers (in order) one
        ``adjust_strategy`` with that generation's observation — except
        for generation 0, whose phase ``setup_plan`` already fixed —
        then one ``make_plan``.
        """
        if generation not in self._plans:
            if generation > 0:
                self.adjust_strategy(
                    {
                        "generation": generation,
                        "diag_graph": view.extras.get("diag_graph"),
                        "view": view,
                    }
                )
            self._plans[generation] = self.make_plan(generation, view)
        return self._plans[generation]
