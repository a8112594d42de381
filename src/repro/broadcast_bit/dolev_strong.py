"""Authenticated 1-bit broadcast (Dolev-Strong) over simulated
pseudo-signatures — the §4 substitution for tolerating ``t >= n/3``.

The paper notes its consensus algorithm needs ``t < n/3`` *only* for the
error-free ``Broadcast_Single_Bit``; swapping in any probabilistically
correct 1-bit broadcast (it cites the authenticated algorithms of
Pfitzmann-Waidner and Dolev-Strong) yields a consensus tolerating whatever
that broadcast tolerates, erring only when the broadcast errs.

Substitution (``docs/BENCHMARKS.md``): real pseudo-signature schemes fail
with probability ~``2^-kappa``.  We simulate signatures as unforgeable tokens
``(signer, message)`` plus an adversary hook deciding whether each forgery
*attempt* succeeds; :class:`BernoulliForgingAdversary` makes attempts
succeed independently with probability ``2^-kappa``.  A successful forgery
lets the adversary plant a second value in honest extraction sets in the
last round, producing exactly the disagreement mode of the real scheme.

Protocol (classic Dolev-Strong, tolerates any ``t < n``): in round 0 the
source signs and sends its bit; in rounds ``1..t`` a processor that newly
*extracted* a value (a chain of ``r`` distinct valid signatures beginning
with the source) appends its signature and relays.  After round ``t`` a
processor whose extraction set is a single value decides it; otherwise it
decides the default 0.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.broadcast_bit.interface import BroadcastBackend
from repro.processors.adversary import Adversary
from repro.processors.answers import bit_answer, message_bit
from repro.utils.rng import derive_rng

#: A simulated signature chain: the bit plus the ordered signer list.
Chain = Tuple[int, Tuple[int, ...]]


class BernoulliForgingAdversary(Adversary):
    """Adversary whose forgery attempts succeed with probability 2^-kappa.

    Faulty processors also try the classic source-equivocation attack
    (signing both bits when the source is faulty), which Dolev-Strong
    neutralises without error; only successful forgeries cause errors.
    """

    def __init__(self, faulty: Sequence[int], kappa: int = 16, seed: int = 0):
        super().__init__(faulty)
        self.kappa = kappa
        # Derived through the shared seeded-RNG utility, so one master
        # seed reproduces the forgery lottery and the mostefaoui common
        # coin together (see repro.utils.rng).
        self.rng = derive_rng(seed, "dolev_strong", "forgery")
        self.forgeries_attempted = 0
        self.forgeries_succeeded = 0

    def forge_signature(self, forger, victim, message, view) -> bool:
        self.forgeries_attempted += 1
        success = self.rng.random() < 2.0 ** (-self.kappa)
        if success:
            self.forgeries_succeeded += 1
        return success


class DolevStrongBroadcast(BroadcastBackend):
    """Probabilistically correct broadcast for any ``t < n``.

    Even honest-source instances run the full signed-relay protocol, so
    ``constant_cost_honest`` stays False and the consensus engines run
    their scalar reference over it (honest views can genuinely diverge
    here, so no shared reference view exists to vectorize over).
    """

    name = "dolev_strong"
    error_free = False

    @staticmethod
    def max_faults(n: int) -> int:
        return n - 1

    def __init__(
        self,
        n: int,
        t: int,
        meter=None,
        adversary=None,
        view_provider=None,
        kappa: int = 16,
    ):
        super().__init__(n, t, meter, adversary, view_provider)
        self.kappa = kappa

    def _chain_bits(self, chain: Chain) -> int:
        """Accounted size: 1 bit of value + kappa bits per signature."""
        return 1 + self.kappa * len(chain[1])

    def _broadcast_one(
        self, source: int, bit: int, tag: str, ignored: FrozenSet[int]
    ) -> Dict[int, int]:
        instance = self._next_instance()
        view = self._view()
        adversary = self.adversary
        active = [pid for pid in range(self.n) if pid not in ignored]
        active_set = set(active)
        faulty = adversary.faulty

        # extracted[pid] = set of bit values pid has accepted so far.
        extracted: Dict[int, Set[int]] = {pid: set() for pid in active}
        # chains pid can relay next round (newly extracted values).
        outbox: Dict[int, List[Chain]] = {pid: [] for pid in active}

        # Round 0: the source signs and sends its bit (a faulty source
        # may equivocate per recipient via the bsb_source_bit hook).
        sent_bits = 0
        sent = self._source_bits(source, bit, active, instance, view)
        for recipient, payload_bit in sent.items():
            if payload_bit is None:
                continue
            chain: Chain = (payload_bit, (source,))
            sent_bits += self._chain_bits(chain)
            extracted[recipient].add(payload_bit)
            outbox[recipient].append((payload_bit, (source, recipient)))
        if source in active_set:
            extracted[source].add(bit)
        self._charge("%s.ds.r0" % tag, sent_bits, messages=len(active) - 1)

        # A successful forgery lets faulty processors fabricate a full
        # valid-looking chain for the opposite bit in the final round.
        forged_chain_planted = False
        if faulty & active_set and source in faulty:
            forger = min(faulty & active_set)
            if bit_answer("forge_signature", adversary.forge_signature(
                forger, source, ("ds", instance), view
            )):
                forged_chain_planted = True

        # Rounds 1..t: relay newly extracted values with one more signature.
        for round_index in range(1, self.t + 1):
            deliveries: List[Tuple[int, Chain]] = []
            sent_bits = 0
            message_count = 0
            for sender in active:
                for chain in outbox[sender]:
                    value, signers = chain
                    if len(signers) != round_index + 1:
                        continue
                    for recipient in active:
                        if recipient in signers:
                            continue
                        payload: Optional[Chain] = chain
                        if sender in faulty:
                            # A faulty relay can drop the message; it cannot
                            # alter the signed value without forging.
                            relayed = message_bit(
                                "eig_relay",
                                adversary.eig_relay(
                                    sender, recipient, signers, value,
                                    instance, view,
                                ),
                            )
                            if relayed is None:
                                continue
                        sent_bits += self._chain_bits(chain)
                        message_count += 1
                        deliveries.append((recipient, payload))
            for pid in active:
                outbox[pid] = []
            for recipient, chain in deliveries:
                value, signers = chain
                # Signature verification: the chain must start at the
                # source, have distinct signers, and length round+1.
                if signers[0] != source or len(set(signers)) != len(signers):
                    continue
                if value not in extracted[recipient]:
                    extracted[recipient].add(value)
                    outbox[recipient].append(
                        (value, signers + (recipient,))
                    )
            # The planted forgery lands in the final round at exactly one
            # honest processor, too late to be relayed onward.
            if forged_chain_planted and round_index == self.t:
                victims = sorted(active_set - faulty)
                if victims and len(extracted[victims[0]]) == 1:
                    held = next(iter(extracted[victims[0]]))
                    extracted[victims[0]].add(held ^ 1)
            self._charge(
                "%s.ds.r%d" % (tag, round_index), sent_bits,
                messages=message_count,
            )

        result: Dict[int, int] = {}
        for pid in range(self.n):
            if pid not in active_set:
                result[pid] = 0
                continue
            values = extracted[pid]
            if len(values) == 1:
                result[pid] = next(iter(values))
            else:
                result[pid] = 0
        return result

    def bits_per_instance(self) -> float:
        # Dominated by round-1 relays: ~n^2 chains of ~kappa bits each.
        return float(self.n * self.n * (1 + 2 * self.kappa))
