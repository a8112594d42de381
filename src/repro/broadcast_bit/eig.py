"""Exponential Information Gathering (``OM(t)``) 1-bit broadcast.

The classic algorithm of Lamport, Shostak and Pease: ``t + 1`` rounds of
relaying, then a bottom-up recursive-majority resolution of the EIG tree.
Message complexity is exponential in ``t``, so this backend exists for
cross-validation of the cheaper backends at small ``n`` (the three
backends must produce identical decisions under identical adversaries),
and as the historical baseline the paper's references build upon.

Tree conventions: a node is the tuple of pids its value travelled through,
starting with the source.  A processor never appears twice in a path, and
a processor does not relay to the processors already in the path.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.broadcast_bit.interface import BroadcastBackend
from repro.processors.answers import message_bit

Path = Tuple[int, ...]


def eig_message_count(n: int, t: int) -> int:
    """Total messages of one EIG instance (for sizing expectations).

    Round 0: ``n - 1`` source messages.  Round ``r`` relays every
    length-``r`` node through every processor not yet on the path, each
    relay reaching the other ``n - 1`` processors.
    """
    total = n - 1
    frontier = 1  # number of length-1 paths: just (source,)
    for r in range(1, t + 1):
        relays = frontier * (n - r)  # new length-(r+1) nodes
        total += relays * (n - 1)
        frontier = relays
    return total


class EIGBroadcast(BroadcastBackend):
    """``OM(t)`` broadcast; exact but exponentially expensive.

    Like Phase-King, this backend simulates real relay rounds whose
    faulty relays get per-edge ``eig_relay`` hooks regardless of who the
    source is, so ``constant_cost_honest`` stays False and the consensus
    engines run their scalar reference over it.
    """

    name = "eig"
    error_free = True

    def _broadcast_one(
        self, source: int, bit: int, tag: str, ignored: FrozenSet[int]
    ) -> Dict[int, int]:
        instance = self._next_instance()
        view = self._view()
        adversary = self.adversary
        active = [pid for pid in range(self.n) if pid not in ignored]
        active_set = set(active)

        # trees[pid][path] = value pid stores for that tree node.
        trees: Dict[int, Dict[Path, int]] = {pid: {} for pid in active}

        # Round 0: source sends its bit to everyone else.
        sent = self._source_bits(source, bit, active, instance, view)
        for recipient, payload in sent.items():
            trees[recipient][(source,)] = payload if payload in (0, 1) else 0
        if source in active_set:
            trees[source][(source,)] = bit
        self._charge("%s.eig.r0" % tag, len(sent), messages=len(sent))

        # Rounds 1..t: relay every node of the previous layer.
        frontier: List[Path] = [(source,)]
        for round_index in range(1, self.t + 1):
            next_frontier: List[Path] = []
            sent = 0
            deliveries: List[Tuple[int, Path, Optional[int]]] = []
            for path in frontier:
                for relay in active:
                    if relay in path:
                        continue
                    new_path = path + (relay,)
                    held = trees[relay].get(path, 0)
                    # Relays send to every processor (even those named in
                    # the path): all fault-free processors must build the
                    # same tree for the global majority resolution to
                    # satisfy the honest-node lemma.
                    for recipient in active:
                        if recipient == relay:
                            continue
                        payload = held
                        if adversary.controls(relay):
                            payload = message_bit(
                                "eig_relay",
                                adversary.eig_relay(
                                    relay, recipient, new_path, held,
                                    instance, view,
                                ),
                            )
                        sent += 1
                        deliveries.append((recipient, new_path, payload))
                    trees[relay][new_path] = held
                    next_frontier.append(new_path)
            for recipient, new_path, payload in deliveries:
                trees[recipient][new_path] = (
                    payload if payload in (0, 1) else 0
                )
            self._charge("%s.eig.r%d" % (tag, round_index), sent, messages=sent)
            frontier = next_frontier

        # Resolve each tree bottom-up with recursive majority.
        def resolve(tree: Dict[Path, int], path: Path) -> int:
            children = [
                pid
                for pid in active
                if pid not in path and len(path) <= self.t
            ]
            if len(path) == self.t + 1 or not children:
                return tree.get(path, 0)
            votes = [resolve(tree, path + (child,)) for child in children]
            ones = sum(votes)
            return 1 if 2 * ones > len(votes) else 0

        result: Dict[int, int] = {}
        for pid in range(self.n):
            if pid not in active_set:
                result[pid] = 0
            elif pid == source:
                result[pid] = bit
            else:
                result[pid] = resolve(trees[pid], (source,))
        return result

    def bits_per_instance(self) -> float:
        return float(eig_message_count(self.n, self.t))
