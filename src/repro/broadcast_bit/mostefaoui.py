"""Randomized common-coin 1-bit broadcast (Mostefaoui-Raynal / Ben-Or).

Construction: the source sends its bit to everybody (one round), then all
processors run a synchronous round-based randomized binary consensus in
the Mostefaoui-Raynal shape on what they received:

1. **BV-broadcast (EST phase)** — every processor broadcasts its current
   estimate, then *echoes* any value it has seen from ``t + 1`` distinct
   senders (so at least one honest one), repeating echo sub-rounds to a
   fixpoint; values seen from ``2t + 1`` distinct senders are delivered
   into ``bin_values``.  At the fixpoint ``bin_values`` is identical at
   every fault-free processor: a value echoed by ``t + 1`` honest senders
   is echoed by *all* of them (count ``>= n - t >= 2t + 1`` everywhere),
   while a value with at most ``t`` honest senders never clears ``2t``
   anywhere.
2. **AUX phase** — every processor sends one value of its ``bin_values``;
   a processor collects the received AUX values that lie in its own
   ``bin_values`` into ``values``.
3. **Common coin** — all processors observe one shared random bit
   (pluggable: :class:`SeededCoin` replays from a seed,
   :class:`RiggedCoin` forces scripted worst cases, and the
   ``coin_reveal`` adversary hook models a corruptible dealer).  If
   ``values == {v}`` the estimate becomes ``v`` and the processor
   *decides* ``v`` when ``v`` equals the coin; if both values survived,
   the estimate becomes the coin.

Safety is deterministic — two fault-free processors can only decide the
same value in any execution — while termination is probabilistic: each
round decides with probability 1/2 under a fair coin, so the expected
round count is a small constant (the per-instance distribution is
recorded in ``BroadcastStats.extras``).  A scripted or revealed coin can
stall progress, so after ``round_cap`` rounds the coin derandomizes to
``round & 1`` (ignoring :attr:`coin` and the ``coin_reveal`` hook),
bounding every execution.

Unlike the deterministic backends this one is declared
``error_free = False``: engines must not template-price or vectorize
over it, because its cost is a random variable of the seed.

>>> backend = MostefaouiBroadcast(n=4, t=1, seed=7)
>>> outcome = backend.broadcast_bit(source=0, bit=1, tag="demo")
>>> sorted(set(outcome.values()))
[1]
>>> backend.stats.extras["rounds_total"] >= 1
True
"""

from __future__ import annotations

import abc
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.broadcast_bit.interface import BroadcastBackend
from repro.network.metrics import BitMeter
from repro.network.simulator import SyncNetwork
from repro.processors.adversary import Adversary, GlobalView
from repro.processors.answers import message_bit
from repro.utils.rng import derive_seed


class CommonCoin(abc.ABC):
    """One shared random bit per (instance, round), observed by everybody."""

    @abc.abstractmethod
    def flip(self, instance: int, round_index: int) -> int:
        """The coin of ``round_index`` in broadcast ``instance`` (0 or 1)."""


class SeededCoin(CommonCoin):
    """Deterministic fair coin: a stable hash of (seed, instance, round).

    Stateless, so packed and scalar dispatch paths (and replays) observe
    identical flips regardless of evaluation order.

    >>> SeededCoin(3).flip(0, 1) == SeededCoin(3).flip(0, 1)
    True
    """

    def __init__(self, seed: int = 0):
        self.seed = seed

    def flip(self, instance: int, round_index: int) -> int:
        return derive_seed(self.seed, "mostefaoui.coin", instance, round_index) & 1


class RiggedCoin(CommonCoin):
    """Scripted coin for worst-case tests: ``schedule[round]``, last value
    repeating once the script runs out.

    Rig the coin against the only deliverable value and no round can
    decide until the backend's ``round_cap`` derandomization kicks in —
    the deterministic worst-case round count.
    """

    def __init__(self, schedule: Sequence[int]):
        if not schedule:
            raise ValueError("RiggedCoin needs a non-empty schedule")
        if any(bit not in (0, 1) for bit in schedule):
            raise ValueError("RiggedCoin schedule must hold bits")
        self.schedule = list(schedule)

    def flip(self, instance: int, round_index: int) -> int:
        return self.schedule[min(round_index, len(self.schedule) - 1)]


class MostefaouiBroadcast(BroadcastBackend):
    """Randomized broadcast; every message moves over a real
    :class:`~repro.network.simulator.SyncNetwork` round.

    Faulty processors act through three hooks: ``est_value`` (per-edge
    EST payloads, ``None`` = silent), ``aux_value`` (per-edge AUX
    payloads) and ``coin_reveal`` (the dealer's coin for one round).
    A randomized instance cannot be replayed from accounting alone, so
    ``constant_cost_honest`` stays False and the engines run their
    scalar reference over it.
    """

    name = "mostefaoui"
    error_free = False

    def __init__(
        self,
        n: int,
        t: int,
        meter: Optional[BitMeter] = None,
        adversary: Optional[Adversary] = None,
        view_provider=None,
        seed: int = 0,
        coin: Optional[CommonCoin] = None,
        round_cap: int = 32,
    ):
        super().__init__(n, t, meter, adversary, view_provider)
        if round_cap < 1:
            raise ValueError("round_cap must be positive, got %d" % round_cap)
        self.seed = seed
        self.coin = coin if coin is not None else SeededCoin(seed)
        #: Rounds after which the coin derandomizes to ``round & 1``
        #: (ignoring the coin object and the ``coin_reveal`` hook), so no
        #: adversarial coin can stall termination forever.
        self.round_cap = round_cap
        self.network = SyncNetwork(n, self.meter)

    # -- protocol --------------------------------------------------------------

    def _broadcast_one(
        self, source: int, bit: int, tag: str, ignored: FrozenSet[int]
    ) -> Dict[int, int]:
        instance = self._next_instance()
        view = self._view()
        adversary = self.adversary
        active = [pid for pid in range(self.n) if pid not in ignored]
        honest_active = [pid for pid in active if not adversary.controls(pid)]
        before = self.meter.total_bits

        est = self._source_round(source, bit, tag, instance, active, view)
        decided: Dict[int, Optional[int]] = {pid: None for pid in active}
        rounds = 0
        while True:
            r = rounds
            bin_values = self._bv_broadcast(
                est, active, r, instance, tag, view
            )
            aux = {
                pid: (
                    est[pid]
                    if est[pid] in bin_values[pid] or not bin_values[pid]
                    else min(bin_values[pid])
                )
                for pid in active
            }
            received_aux = self._aux_round(
                aux, active, r, instance, tag, view
            )
            coin = self._coin(instance, r, view)
            for pid in active:
                vals = received_aux[pid] & bin_values[pid]
                if len(vals) == 1:
                    (v,) = vals
                    est[pid] = v
                    if v == coin and decided[pid] is None:
                        decided[pid] = v
                elif len(vals) == 2:
                    est[pid] = coin
            rounds += 1
            if all(decided[pid] is not None for pid in honest_active):
                break
            if rounds > self.round_cap + 8:
                raise AssertionError(
                    "mostefaoui instance %d failed to terminate within "
                    "%d rounds (degenerate active set %r?)"
                    % (instance, rounds, active)
                )

        self.stats.bits_charged += self.meter.total_bits - before
        extras = self.stats.extras
        extras["rounds_total"] = extras.get("rounds_total", 0) + rounds
        extras["rounds_max"] = max(extras.get("rounds_max", 0), rounds)
        extras["decided_instances"] = extras.get("decided_instances", 0) + 1
        hist_key = "rounds_%d" % min(rounds, 9)
        extras[hist_key] = extras.get(hist_key, 0) + 1

        result = {
            pid: (
                decided[pid] if decided[pid] is not None else est[pid]
            )
            for pid in active
        }
        for pid in range(self.n):
            result.setdefault(pid, 0)
        return result

    def _source_round(
        self,
        source: int,
        bit: int,
        tag: str,
        instance: int,
        active: List[int],
        view: GlobalView,
    ) -> Dict[int, int]:
        """The source sends its bit to everybody; per-edge equivocation
        and silence through ``bsb_source_bit`` exactly like Phase-King."""
        sent = self._source_bits(source, bit, active, instance, view)
        est = dict.fromkeys(active, 0)
        for _, recipient, payload in self._round(
            [(source, recipient, payload, 1)
             for recipient, payload in sent.items()],
            "%s.source" % tag,
        ):
            if payload in (0, 1):
                est[recipient] = payload
        est[source] = bit
        return est

    def _round(
        self, edges: List[Tuple[int, int, object, int]], tag: str
    ) -> List[Tuple[int, int, object]]:
        """One network round under ``tag``: ``(sender, recipient,
        payload, bits)`` edges go out as one batch per bit width, and
        the round's ``(sender, recipient, payload)`` edges come back."""
        by_width: Dict[int, List[tuple]] = {}
        for sender, recipient, payload, bits in edges:
            by_width.setdefault(bits, []).append((sender, recipient, payload))
        for bits, group in by_width.items():
            senders, recipients, payloads = zip(*group)
            self.network.send_many(
                np.asarray(senders, dtype=np.int64),
                np.asarray(recipients, dtype=np.int64),
                payloads, bits, tag,
            )
        return [
            edge
            for batch in self.network.deliver_arrays().batches
            for edge in zip(
                batch.senders.tolist(), batch.receivers.tolist(),
                batch.payload_list(),
            )
        ]

    def _bv_broadcast(
        self,
        est: Dict[int, int],
        active: List[int],
        round_index: int,
        instance: int,
        tag: str,
        view: GlobalView,
    ) -> Dict[int, Set[int]]:
        """EST phase: broadcast estimates, echo at ``t + 1`` distinct
        senders to a fixpoint, deliver into ``bin_values`` at ``2t + 1``.

        One network round per echo sub-round; a processor's message
        carries the tuple of values it newly broadcasts this sub-round
        (one bit each), so the one-message-per-edge-per-round network
        invariant holds even when both values cascade together.
        """
        est_tag = "%s.est" % tag
        adversary = self.adversary
        senders_of: Dict[int, Dict[int, Set[int]]] = {
            pid: {0: set(), 1: set()} for pid in active
        }
        sent_vals: Dict[int, Set[int]] = {pid: set() for pid in active}
        pending: Dict[int, List[int]] = {pid: [est[pid]] for pid in active}
        sub_rounds = 0
        while any(pending.values()):
            edges = []
            for pid in active:
                todo = pending[pid]
                pending[pid] = []
                if not todo:
                    continue
                for value in todo:
                    sent_vals[pid].add(value)
                    senders_of[pid][value].add(pid)  # own copy, untransmitted
                for recipient in active:
                    if recipient == pid:
                        continue
                    out: List[int] = []
                    for value in todo:
                        payload: Optional[int] = value
                        if adversary.controls(pid):
                            payload = message_bit(
                                "est_value",
                                adversary.est_value(
                                    pid, recipient, value, round_index,
                                    instance, view,
                                ),
                            )
                        if payload is not None:
                            out.append(payload)
                    if out:
                        edges.append((pid, recipient, tuple(out), len(out)))
            for sender, recipient, payload in self._round(edges, est_tag):
                for value in payload:
                    if value in (0, 1):
                        senders_of[recipient][value].add(sender)
            for pid in active:
                for value in (0, 1):
                    if (
                        len(senders_of[pid][value]) >= self.t + 1
                        and value not in sent_vals[pid]
                        and value not in pending[pid]
                    ):
                        pending[pid].append(value)
            sub_rounds += 1
            if sub_rounds > 2 * self.n + 2:
                raise AssertionError(
                    "BV-broadcast echo cascade failed to reach a fixpoint"
                )
        return {
            pid: {
                value
                for value in (0, 1)
                if len(senders_of[pid][value]) >= 2 * self.t + 1
            }
            for pid in active
        }

    def _aux_round(
        self,
        aux: Dict[int, int],
        active: List[int],
        round_index: int,
        instance: int,
        tag: str,
        view: GlobalView,
    ) -> Dict[int, Set[int]]:
        """AUX phase: one bit per edge; returns the set of values each
        processor received (own AUX included)."""
        adversary = self.adversary
        edges = []
        for pid in active:
            for recipient in active:
                if recipient == pid:
                    continue
                payload: Optional[int] = aux[pid]
                if adversary.controls(pid):
                    payload = message_bit("aux_value", adversary.aux_value(
                        pid, recipient, aux[pid], round_index, instance, view
                    ))
                if payload is not None:
                    edges.append((pid, recipient, payload, 1))
        received: Dict[int, Set[int]] = {pid: {aux[pid]} for pid in active}
        for _, recipient, payload in self._round(edges, "%s.aux" % tag):
            if payload in (0, 1):
                received[recipient].add(payload)
        return received

    def _coin(self, instance: int, round_index: int, view: GlobalView) -> int:
        if round_index >= self.round_cap:
            # Derandomization fallback: alternate deterministically so a
            # rigged coin or a hostile dealer cannot stall termination.
            extras = self.stats.extras
            extras["derandomized_rounds"] = (
                extras.get("derandomized_rounds", 0) + 1
            )
            return round_index & 1
        coin = 1 if self.coin.flip(instance, round_index) else 0
        if self.adversary.faulty:
            revealed = self.adversary.coin_reveal(
                instance, round_index, coin, view
            )
            if revealed in (0, 1):
                coin = revealed
        return coin

    # -- reporting -------------------------------------------------------------

    def expected_rounds(self) -> float:
        """Measured mean rounds per decided instance (0.0 before any)."""
        count = self.stats.extras.get("decided_instances", 0)
        if not count:
            return 0.0
        return self.stats.extras.get("rounds_total", 0) / count

    def bits_per_instance(self) -> float:
        """Analytic *expected* bits of one instance under a fair coin:
        the source round plus ~2 rounds of three all-to-all sub-rounds
        (EST, one echo, AUX).  The measured cost is a random variable;
        this estimate only feeds the analytic overlays."""
        all_to_all = self.n * (self.n - 1)
        return float((self.n - 1) + 2 * 3 * all_to_all)
