"""Adaptive corruption: the adversary takes over processors mid-run.

The paper's model lets the adversary "take over up to t processors
(t < n/3) at any point during the algorithm".  Most attack strategies in
:mod:`repro.processors.byzantine` corrupt a fixed set from the start; this
module adds the adaptive envelope: a schedule maps generation numbers to
the processors corrupted *from that generation on*, and an inner strategy
decides what the corrupted processors do.

Because the engines ask ``adversary.controls(pid)`` at every emission
point, flipping a processor's status between generations is exactly the
paper's adaptive takeover: its past behaviour was honest, its future
behaviour is adversarial, and the total ever corrupted stays <= t.
Every pid-first hook (:data:`~repro.processors.adversary.PID_HOOKS`) is
routed that way, so a hook added to the interface is gated too.
"""

from __future__ import annotations

import inspect
from typing import Dict, Optional, Sequence, Set, Tuple

from repro.processors.adversary import PID_HOOKS, Adversary, route_pid_hooks


def _when(hook: str) -> Tuple[int, str]:
    """Where a call of ``hook`` says its generation: the position (after
    the acting pid) and name of its ``generation`` argument, or of its
    ``view`` when it has none."""
    names = list(inspect.signature(getattr(Adversary, hook)).parameters)[2:]
    name = "generation" if "generation" in names else "view"
    return names.index(name), name


#: Hook -> where its calls carry the generation (see :func:`_when`).
_WHEN = {hook: _when(hook) for hook in PID_HOOKS}


@route_pid_hooks
class AdaptiveAdversary(Adversary):
    """Corruption schedule + inner behaviour strategy.

    ``schedule`` maps generation -> iterable of pids corrupted starting at
    that generation.  ``strategy`` is consulted for every hook once the
    acting pid is corrupted; it must be constructed over the *union* of all
    scheduled pids (its ``faulty`` set is overridden per call).

    The engine-facing ``faulty`` set is the union over the whole schedule
    (needed up front for the t-bound check and result bookkeeping: a
    processor that will ever be corrupted cannot be counted on as
    fault-free).  ``controls_at(pid, generation)`` exposes the time-aware
    view, and every hook honours it: before its corruption generation a
    scheduled processor behaves honestly.  A hook is gated on its
    ``generation`` argument, or on the view's ``extras["generation"]``
    when it has none (a broadcast-internal hook; no recorded generation
    routes to the strategy), and ``input_value`` on generation 0.
    """

    def __init__(
        self,
        schedule: Dict[int, Sequence[int]],
        strategy: Optional[Adversary] = None,
    ):
        all_pids: Set[int] = set()
        for pids in schedule.values():
            all_pids.update(pids)
        super().__init__(sorted(all_pids))
        self.schedule = {
            generation: sorted(pids) for generation, pids in schedule.items()
        }
        self.strategy = strategy if strategy is not None else Adversary(
            sorted(all_pids)
        )
        self.strategy.faulty = set(all_pids)

    def corrupted_at(self, generation: int) -> Set[int]:
        """Processors under adversary control during ``generation``."""
        corrupted: Set[int] = set()
        for start, pids in self.schedule.items():
            if start <= generation:
                corrupted.update(pids)
        return corrupted

    def controls_at(self, pid: int, generation: int) -> bool:
        return pid in self.corrupted_at(generation)

    def _route(self, hook: str, pid: int, args, kwargs):
        if hook == "input_value":
            generation: Optional[int] = 0
        else:
            index, name = _WHEN[hook]
            argument = args[index] if index < len(args) else kwargs[name]
            generation = (
                argument if name == "generation"
                else argument.extras.get("generation")
            )
        if generation is not None and not self.controls_at(pid, generation):
            # Not corrupted yet: honest passthrough via the base class.
            return getattr(Adversary, hook)(self, pid, *args, **kwargs)
        return getattr(self.strategy, hook)(pid, *args, **kwargs)
