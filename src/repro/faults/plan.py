"""Declarative fault plans and their compiled schedules.

A :class:`FaultPlan` is a value object — a tuple of :class:`FaultRule`
records plus one seed — describing which network edges suffer which
timing faults in which rounds.  :meth:`FaultPlan.compile` turns it into
a :class:`FaultSchedule`, the live object :class:`~repro.network.
simulator.SyncNetwork` consults on every send once installed with
``install_faults``.

Determinism is the load-bearing property: every decision is a *stateless*
function of ``(seed, rule, round, sender, receiver)`` — probabilistic
rules draw through :func:`repro.utils.rng.derive_seed`, never through a
shared stream — so the scalar and vectorized send paths, a live run and
its audit replay, all derive byte-identical fault patterns regardless of
the order edges are examined in.  The schedule additionally keeps an
append-only :class:`FaultEvent` log of every non-pass decision, which the
audit tier folds into culpability proofs (a network-level omission never
passes through an adversary hook, so the recorder cannot see it there).

>>> plan = FaultPlan(rules=(FaultRule(kind="omit", senders=(2,)),))
>>> schedule = plan.compile(n=4)
>>> schedule.decide(0, 2, 1, "gen0.matching.symbols").kind
'omit'
>>> schedule.decide(0, 1, 2, "gen0.matching.symbols").kind
'pass'
>>> schedule.event_log()
[(0, 'omit', 2, 1, 'gen0.matching.symbols', 0)]
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, List, Optional, Tuple

from repro.utils.boundary import (
    check_choice, check_int, check_pid, check_probability,
)
from repro.utils.rng import derive_seed

#: Fault kinds a rule may inject.  ``partition`` is sugar: it compiles to
#: ``omit`` on every edge crossing between its groups.
FAULT_KINDS = ("omit", "delay", "duplicate", "partition")

#: Resolution of the per-edge probability draw (decisions quantize
#: ``probability`` to one part in a million).
_DRAW_SCALE = 1_000_000


@dataclass(frozen=True)
class FaultDecision:
    """What the network does to one edge: the rule's verdict."""

    kind: str
    delay: int = 0
    copies: int = 0
    rule_index: int = -1


#: The shared no-fault decision (avoids one allocation per clean edge).
PASS = FaultDecision("pass")


@dataclass(frozen=True)
class FaultEvent:
    """One non-pass decision, as recorded in the schedule's event log."""

    round_index: int
    kind: str
    sender: int
    receiver: int
    tag: str
    rule_index: int

    def key(self) -> Tuple[int, str, int, int, str, int]:
        return (
            self.round_index,
            self.kind,
            self.sender,
            self.receiver,
            self.tag,
            self.rule_index,
        )


@dataclass(frozen=True)
class FaultRule:
    """One declarative fault: kind + scope + parameters.

    Scope fields are conjunctive and ``None`` means "everything": a rule
    applies to an edge when the round falls in ``rounds`` (a half-open
    ``[start, stop)`` window), the sender is in ``senders``, the receiver
    in ``receivers``, and ``tag_substring`` occurs in the message tag.
    ``probability`` thins the rule per edge (stateless seeded draw);
    ``delay`` (rounds) and ``copies`` parameterize the delay/duplicate
    kinds; ``groups`` lists the pid groups of a partition — edges whose
    endpoints fall in different groups are omitted, and pids absent from
    every group form one implicit final group.
    """

    kind: str
    rounds: Optional[Tuple[int, int]] = None
    senders: Optional[FrozenSet[int]] = None
    receivers: Optional[FrozenSet[int]] = None
    tag_substring: Optional[str] = None
    probability: float = 1.0
    delay: int = 1
    copies: int = 1
    groups: Optional[Tuple[FrozenSet[int], ...]] = None

    def __post_init__(self) -> None:
        check_choice(self.kind, FAULT_KINDS, "fault kind")
        for name in ("senders", "receivers"):
            pids = getattr(self, name)
            if pids is not None:
                object.__setattr__(self, name, frozenset(
                    check_int(pid, name) for pid in pids
                ))
        if self.rounds is not None:
            start, stop = (check_int(r, "rounds") for r in self.rounds)
            if start < 0 or stop < start:
                raise ValueError(
                    "rounds window must be 0 <= start <= stop, got %r"
                    % (self.rounds,)
                )
            object.__setattr__(self, "rounds", (start, stop))
        check_probability(self.probability, "probability")
        for name in ("delay", "copies"):
            if check_int(getattr(self, name), name) < 1:
                raise ValueError("%s must be >= 1, got %d" % (
                    name, getattr(self, name)
                ))
        if self.kind == "partition":
            if not self.groups:
                raise ValueError("a partition rule needs non-empty groups")
            object.__setattr__(self, "groups", tuple(
                frozenset(check_int(pid, "groups") for pid in group)
                for group in self.groups
            ))
        elif self.groups is not None:
            raise ValueError("groups is only meaningful for kind='partition'")

    def applies(self, round_index: int, sender: int, receiver: int,
                tag: str) -> bool:
        """Whether the rule's scope covers this edge in this round."""
        if self.rounds is not None and not (
            self.rounds[0] <= round_index < self.rounds[1]
        ):
            return False
        if self.senders is not None and sender not in self.senders:
            return False
        if self.receivers is not None and receiver not in self.receivers:
            return False
        if self.tag_substring is not None and self.tag_substring not in tag:
            return False
        return True


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, seedable description of injected network faults.

    Rules are examined in order and the first that fires wins, so
    earlier rules take priority.  Plans compare and hash by value, which
    lets the service layer treat "has a fault plan" as part of a run's
    identity.
    """

    rules: Tuple[FaultRule, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(self.rules))
        check_int(self.seed, "seed")

    def compile(self, n: int) -> "FaultSchedule":
        """Bind the plan to an ``n``-processor network."""
        return FaultSchedule(self, n)


class FaultSchedule:
    """A plan bound to a network size: the object the simulator consults.

    ``decide`` is a pure function of its arguments (given the plan);
    ``events`` accumulates every non-pass decision in the order the
    simulator asked, which — because the engines examine edges in a
    deterministic order — is itself reproducible run-to-run.
    """

    def __init__(self, plan: FaultPlan, n: int):
        if n < 1:
            raise ValueError("n must be positive, got %d" % n)
        self.plan = plan
        self.n = n
        self.events: List[FaultEvent] = []
        # Pre-resolve partition membership: pid -> group index, with
        # unlisted pids sharing one implicit final group.
        self._group_of: List[Optional[dict]] = []
        for rule in plan.rules:
            if rule.kind != "partition":
                self._group_of.append(None)
                continue
            membership = {}
            for index, group in enumerate(rule.groups):
                for pid in group:
                    if check_pid(pid, n, "partition pid") in membership:
                        raise ValueError(
                            "pid %d appears in two partition groups" % pid
                        )
                    membership[pid] = index
            implicit = len(rule.groups)
            for pid in range(n):
                membership.setdefault(pid, implicit)
            self._group_of.append(membership)

    def decide(
        self, round_index: int, sender: int, receiver: int, tag: str
    ) -> FaultDecision:
        """First-matching-rule verdict for one edge; records the event."""
        for index, rule in enumerate(self.plan.rules):
            if not rule.applies(round_index, sender, receiver, tag):
                continue
            kind = rule.kind
            if kind == "partition":
                membership = self._group_of[index]
                if membership[sender] == membership[receiver]:
                    continue  # same side: this rule lets the edge through
                kind = "omit"
            if rule.probability < 1.0:
                draw = derive_seed(
                    self.plan.seed,
                    "faults.draw",
                    index,
                    round_index,
                    sender,
                    receiver,
                ) % _DRAW_SCALE
                if draw >= int(rule.probability * _DRAW_SCALE):
                    continue
            decision = FaultDecision(
                kind=kind,
                delay=rule.delay,
                copies=rule.copies,
                rule_index=index,
            )
            self.events.append(
                FaultEvent(
                    round_index=round_index,
                    kind=kind,
                    sender=sender,
                    receiver=receiver,
                    tag=tag,
                    rule_index=index,
                )
            )
            return decision
        return PASS

    def event_log(self) -> List[Tuple[int, str, int, int, str, int]]:
        """The event log as plain tuples (stable, comparable, dumpable)."""
        return [event.key() for event in self.events]
