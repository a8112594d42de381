"""Reconstruction of the Fitzi-Hirt (PODC 2006) probabilistic multi-valued
Byzantine consensus, per the description in the reproduced paper's §1:

    "an L-bit value is first reduced to a much shorter message, using a
    universal hash function.  Byzantine consensus is then performed for the
    shorter hashed values.  Given the result of consensus on the hashed
    values, consensus on L bits is then achieved by requiring processors
    whose L-bit input value matches the agreed hashed value deliver the L
    bits to the other processors jointly."

Stages of our reconstruction (``docs/BENCHMARKS.md``, "Substitutions",
records it as one for the closed-source original):

1. **Key** — a common random κ-bit hash key (Fitzi-Hirt generate it with a
   protocol coin; we draw it from a seeded RNG known to the adversary,
   which only makes the adversary stronger).
2. **Digest agreement** — κ binary-consensus instances on the digest bits.
3. **Happy flags** — each processor broadcasts whether its own input
   hashes to the agreed digest; fewer than ``n - t`` happy processors
   means honest inputs provably differ -> default.
4. **Joint delivery** — happy processors disperse Reed-Solomon symbols of
   their input ((n, n-2t) code, one symbol per processor as in the
   matching stage); unhappy processors decode and accept iff the decoded
   value hashes to the agreed digest.

The error mode — the reason the reproduced paper exists — is a digest
collision: honest processors with *different* inputs that hash alike all
become happy and keep their own values, violating consistency.  The
adversary cannot force it beyond the ``(d-1)/2^κ`` collision bound, but no
choice of κ makes it zero.  Benchmark E6 constructs the collision
explicitly and shows Algorithm 1 surviving identical inputs/behaviour.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.baselines.bitwise import SUBSTRATES, binary_consensus
from repro.baselines.hashing import PolynomialHash
from repro.broadcast_bit.ideal import default_b
from repro.coding.interleaved import make_symbol_code
from repro.coding.reed_solomon import DecodingError, min_symbol_bits
from repro.core.result import ConsensusOutcome, ground_truth
from repro.network.metrics import BitMeter, MeterSnapshot
from repro.processors.adversary import (
    Adversary, GlobalView, check_tolerated, hook_is_default,
)
from repro.processors.answers import (
    bit_answer, delivery_value_of, substituted_inputs,
)
from repro.utils.bits import int_to_bits, join_symbols, split_symbols
from repro.utils.boundary import check_choice, check_input_value, check_int


@dataclass
class FitziHirtResult(ConsensusOutcome):
    """Outcome of one Fitzi-Hirt run, with ground-truth error accounting."""

    decisions: Dict[int, int]
    meter: MeterSnapshot
    key: int
    agreed_digest: Optional[int]
    default_used: bool
    honest_inputs_equal: bool
    common_input: Optional[int] = None


class FitziHirtConsensus:
    """Probabilistically correct multi-valued consensus, ``O(nL + n³(n+κ))``."""

    def __init__(
        self,
        n: int,
        t: int,
        l_bits: int,
        kappa: int = 16,
        substrate: str = "ideal",
        key_seed: int = 0,
        default_value: int = 0,
        adversary: Optional[Adversary] = None,
        meter: Optional[BitMeter] = None,
    ):
        for name, value in (("n", n), ("t", t), ("l_bits", l_bits),
                            ("kappa", kappa), ("key_seed", key_seed)):
            check_int(value, name)
        check_choice(substrate, SUBSTRATES, "substrate")
        check_input_value(default_value, l_bits, "default_value")
        if n < 3 * t + 1:
            raise ValueError("requires n >= 3t + 1")
        self.n = n
        self.t = t
        self.l_bits = l_bits
        self.kappa = kappa
        self.substrate = substrate
        self.key_seed = key_seed
        self.default_value = default_value
        self.adversary = adversary if adversary is not None else Adversary()
        check_tolerated(self.adversary, n, t)
        self.meter = meter if meter is not None else BitMeter()
        self.hash_family = PolynomialHash(l_bits, kappa)
        k = n - 2 * t
        c_min = min_symbol_bits(n)
        width = max(c_min, -(-l_bits // k))  # ceil(L / k): single shot
        if width > 16 and width % c_min:
            width += c_min - (width % c_min)  # interleaving granularity
        self.symbol_bits = width
        self.code = make_symbol_code(n, k, width)

    def _view(self) -> GlobalView:
        return GlobalView(
            n=self.n, t=self.t, faulty=set(self.adversary.faulty),
            extras={"l_bits": self.l_bits},
        )

    def draw_key(self) -> int:
        """The common random hash key (public coin, adversary-visible)."""
        return random.Random(self.key_seed).randrange(1, 1 << self.kappa)

    def _broadcast_flag(self, source: int, flag: bool, tag: str) -> bool:
        """1-bit broadcast of a happy flag (ideal-charged)."""
        self.meter.add(tag, default_b(self.n), self.n * (self.n - 1))
        if self.adversary.controls(source):
            return bool(bit_answer(
                "ideal_broadcast_bit",
                self.adversary.ideal_broadcast_bit(
                    source, 1 if flag else 0, 0, self._view()
                ),
            ))
        return flag

    def _recover(self, symbols, agreed_digest: int, key: int) -> int:
        """Decode a candidate value whose digest matches the agreement.

        Fast path: all received symbols consistent.  Slow path (some happy
        sender lied): search k-subsets; the digest check screens out
        corrupted decodings -- up to collisions, which is precisely the
        Fitzi-Hirt error probability.
        """
        import itertools

        k = self.code.k
        if len(symbols) >= k and self.code.is_consistent(symbols):
            candidate = join_symbols(
                self.code.decode_subset(symbols), self.symbol_bits,
                self.l_bits,
            )
            if self.hash_family.digest(candidate, key) == agreed_digest:
                return candidate
        for subset in itertools.combinations(sorted(symbols), k):
            try:
                data = self.code.decode_subset(
                    {pos: symbols[pos] for pos in subset}
                )
            except (DecodingError, ValueError):
                continue
            candidate = join_symbols(data, self.symbol_bits, self.l_bits)
            if self.hash_family.digest(candidate, key) == agreed_digest:
                return candidate
        return self.default_value

    def run(self, inputs: Sequence[int]) -> FitziHirtResult:
        """Run the three-phase Fitzi-Hirt protocol."""
        if len(inputs) != self.n:
            raise ValueError(
                "expected %d inputs, got %d" % (self.n, len(inputs))
            )
        for value in inputs:
            check_input_value(value, self.l_bits)
        view = self._view()
        honest = [
            pid for pid in range(self.n)
            if not self.adversary.controls(pid)
        ]
        effective = substituted_inputs(
            self.adversary, inputs, self.l_bits, lambda: view
        )

        # Phase 1: common key (modelled coin: kappa bits charged per pair).
        key = self.draw_key()
        self.meter.add("fh.key", self.n * self.kappa, self.n)

        digests = {
            pid: self.hash_family.digest(effective[pid], key)
            for pid in range(self.n)
        }

        # Phase 2: digest agreement, bit by bit.
        digest_bits = {
            pid: int_to_bits(digests[pid], self.kappa)
            for pid in range(self.n)
        }
        agreed_bits: List[int] = []
        for index in range(self.kappa):
            outcome = binary_consensus(
                self.substrate, self.n, self.t,
                {pid: digest_bits[pid][index] for pid in range(self.n)},
                self.adversary, self.meter, self._view, "fh.digest", index,
            )
            agreed_bits.append(outcome[min(honest)])
        agreed_digest = 0
        for bit in agreed_bits:
            agreed_digest = (agreed_digest << 1) | bit

        # Phase 3: happy flags.
        happy: Dict[int, bool] = {}
        for pid in range(self.n):
            flag = digests[pid] == agreed_digest
            happy[pid] = self._broadcast_flag(pid, flag, "fh.happy")
        happy_set = sorted(pid for pid in range(self.n) if happy[pid])

        if len(happy_set) < self.n - self.t:
            decisions = {pid: self.default_value for pid in honest}
            return FitziHirtResult(
                decisions=decisions,
                meter=self.meter.snapshot(),
                key=key,
                agreed_digest=agreed_digest,
                default_used=True,
                **ground_truth([inputs[pid] for pid in honest]),
            )

        # Phase 4: joint delivery via coded dispersal.  Each happy
        # processor sends its position's symbol of the (n, n-2t) code over
        # its own input (one wide interleaved symbol covers all L bits).
        # An unhappy receiver looks for a decoding whose digest matches the
        # agreed one: it first tries all received symbols at once and, when
        # faulty senders corrupted the set, falls back to k-subsets --
        # accepting any candidate whose digest verifies.  This is where the
        # hash's soundness is load-bearing: a forged value slips through
        # exactly when it collides with the agreed digest.
        decisions = {}
        k, c = self.code.k, self.symbol_bits
        for pid in honest:
            if happy[pid]:
                decisions[pid] = effective[pid]

        # A faulty happy sender delivers what its ``delivery_value``
        # answers; the hook is asked only where it is overridden.
        forging = not hook_is_default(self.adversary, "delivery_value")
        delivered_symbols: Dict[int, int] = {}
        for sender in happy_set:
            value = effective[sender]
            if forging and self.adversary.controls(sender):
                value = delivery_value_of(
                    self.adversary.delivery_value(sender, value, view),
                    self.l_bits,
                )
            delivered_symbols[sender] = self.code.encode(
                split_symbols(value, self.l_bits, c, k)
            )[sender]

        unhappy_honest = [pid for pid in honest if not happy[pid]]
        self.meter.add(
            "fh.delivery",
            len(happy_set) * (self.n - 1) * c,
            len(happy_set) * (self.n - 1),
        )
        for pid in unhappy_honest:
            symbols = {
                sender: sym
                for sender, sym in delivered_symbols.items()
                if sender != pid
            }
            decisions[pid] = self._recover(symbols, agreed_digest, key)

        return FitziHirtResult(
            decisions=decisions,
            meter=self.meter.snapshot(),
            key=key,
            agreed_digest=agreed_digest,
            default_used=False,
            **ground_truth([inputs[pid] for pid in honest]),
        )
