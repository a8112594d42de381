"""Composite adversary: different strategies for different faulty pids.

Real Byzantine coalitions are heterogeneous — one member equivocates, one
stays silent, one cries wolf.  ``CompositeAdversary`` routes every hook to
the strategy that owns the acting processor, letting tests and benchmarks
combine the attack library arbitrarily while keeping the total corrupted
set within the ``t`` budget.
"""

from __future__ import annotations

from typing import Dict

from repro.processors.adversary import Adversary, route_pid_hooks


@route_pid_hooks
class CompositeAdversary(Adversary):
    """Route every pid-first hook to the strategy owning the acting pid.

    >>> from repro.processors import CrashAdversary, FalseDetectionAdversary
    >>> adversary = CompositeAdversary({
    ...     5: CrashAdversary([5]),
    ...     6: FalseDetectionAdversary([6]),
    ... })
    >>> sorted(adversary.faulty)
    [5, 6]
    """

    def __init__(self, strategies: Dict[int, Adversary]):
        super().__init__(sorted(strategies))
        self.strategies = dict(strategies)
        for pid, strategy in self.strategies.items():
            if pid not in strategy.faulty:
                strategy.faulty.add(pid)

    def _route(self, hook: str, pid: int, args, kwargs):
        strategy = self.strategies.get(pid)
        if strategy is None:
            # Not one of ours: honest passthrough via the base class.
            return getattr(Adversary, hook)(self, pid, *args, **kwargs)
        return getattr(strategy, hook)(pid, *args, **kwargs)

