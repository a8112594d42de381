"""Composite adversary: different strategies for different faulty pids.

Real Byzantine coalitions are heterogeneous — one member equivocates, one
stays silent, one cries wolf.  ``CompositeAdversary`` routes every hook to
the strategy that owns the acting processor, letting tests and benchmarks
combine the attack library arbitrarily while keeping the total corrupted
set within the ``t`` budget.
"""

from __future__ import annotations

from typing import Dict

from repro.processors.adversary import Adversary

#: Hooks whose first argument is the acting processor id.
_ROUTED_HOOKS = (
    "input_value",
    "matching_symbol",
    "matching_row",
    "m_vector",
    "m_row",
    "detected_flag",
    "diagnosis_symbol",
    "trust_vector",
    "trust_row",
    "bsb_source_bit",
    "ideal_broadcast_bit",
    "king_value",
    "king_proposal",
    "king_bit",
    "eig_relay",
    "source_symbol",
    "forwarded_symbol",
    "source_codeword",
)


class CompositeAdversary(Adversary):
    """Route hooks to per-pid strategies.

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


def _make_router(hook: str):
    def routed(self, pid, *args, **kwargs):
        return self._route(hook, pid, args, kwargs)

    routed.__name__ = hook
    routed.__doc__ = "Routed to the strategy owning the acting pid."
    return routed


for _hook in _ROUTED_HOOKS:
    setattr(CompositeAdversary, _hook, _make_router(_hook))
