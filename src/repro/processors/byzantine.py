"""Concrete Byzantine strategies.

Each strategy deviates in exactly the hooks its attack needs; everything
else stays honest, which makes tests precise about *which* misbehaviour a
protocol property survives.  All randomness is seeded and keyed, so every
answer is a function of its hook's arguments.
"""

from __future__ import annotations

import random
from typing import Collection, Dict, List, Optional, Sequence

import numpy as np

from repro.processors.adversary import Adversary, GlobalView
from repro.processors.answers import ALL_FALSE, ALL_TRUE
from repro.utils.rng import derive_rng, derive_seed


def _codeword_symbol(
    value: int, pid: int, generation: int, view: GlobalView
) -> Optional[int]:
    """Position ``pid`` of ``value``'s generation-``generation``
    codeword, from the ``code`` and ``parts_of`` every consensus engine
    publishes in the view extras; ``None`` where a view lacks them."""
    code = view.extras.get("code")
    parts_of = view.extras.get("parts_of")
    if code is None or parts_of is None:
        return None
    return code.encode(parts_of(value)[generation])[pid]


class CrashAdversary(Adversary):
    """Faulty processors fall silent from ``crash_generation`` onwards.

    Models fail-stop behaviour inside the Byzantine envelope: silence from
    a trusted peer shows up as a mismatching symbol, so crashes are handled
    by the same matching/diagnosis machinery.
    """

    def __init__(self, faulty: Sequence[int], crash_generation: int = 0):
        super().__init__(faulty)
        self.crash_generation = crash_generation

    def _crashed(self, generation: int) -> bool:
        return generation >= self.crash_generation

    def matching_row(self, pid, recipients, honest_symbol, generation, view):
        # Silent to all, or honest to all.
        return (None if self._crashed(generation) else honest_symbol), {}

    def m_row(self, pid, honest_row, generation, view):
        return ALL_FALSE if self._crashed(generation) else honest_row

    def detected_flag(self, pid, honest_flag, generation, view):
        if self._crashed(generation):
            return False
        return honest_flag

    def source_symbol(self, source, recipient, honest_symbol, generation, view):
        if self._crashed(generation):
            return None
        return honest_symbol

    def forwarded_symbol(self, pid, recipient, honest_symbol, generation, view):
        if self._crashed(generation):
            return None
        return honest_symbol


class SymbolCorruptionAdversary(Adversary):
    """Faulty processors corrupt the RS symbol sent to chosen victims.

    ``victims`` maps faulty pid -> list of recipients whose copy gets
    XOR-flipped; a faulty pid the map does not name corrupts nobody.
    Without a map (``None`` or empty) every faulty processor corrupts
    every recipient.  Everything else (M vectors, broadcasts) stays
    honest, so this exercises detection by the checking stage and blame
    assignment by the diagnosis stage in isolation.
    """

    def __init__(
        self,
        faulty: Sequence[int],
        victims: Optional[Dict[int, Sequence[int]]] = None,
        flip_mask: int = 1,
    ):
        super().__init__(faulty)
        #: Without a map (``None`` or empty) every faulty processor —
        #: one taken over later included — corrupts every recipient;
        #: under an explicit map a pid it does not name corrupts nobody.
        self._everyone = not victims
        if self._everyone:
            self.victims = dict.fromkeys(self.faulty)
        else:
            self.victims = {pid: set(v) for pid, v in victims.items()}
        self.flip_mask = flip_mask

    def _targets(self, pid: int) -> Optional[Collection[int]]:
        """The recipients ``pid`` corrupts; ``None`` means all of them."""
        return None if self._everyone else self.victims.get(pid, ())

    def _is_victim(self, pid: int, recipient: int) -> bool:
        targets = self._targets(pid)
        return targets is None or recipient in targets

    def matching_row(self, pid, recipients, honest_symbol, generation, view):
        # Flipped to all, or honest plus the victims.
        targets = self._targets(pid)
        flipped = honest_symbol ^ self.flip_mask
        if targets is None:
            return flipped, {}
        return honest_symbol, dict.fromkeys(targets, flipped)

    def forwarded_symbol(self, pid, recipient, honest_symbol, generation, view):
        if self._is_victim(pid, recipient):
            return honest_symbol ^ self.flip_mask
        return honest_symbol

    def source_symbol(self, source, recipient, honest_symbol, generation, view):
        if self._is_victim(source, recipient):
            return honest_symbol ^ self.flip_mask
        return honest_symbol


class EquivocatingAdversary(Adversary):
    """Faulty processors pretend to hold different inputs towards different
    peers: recipients with pid below ``split`` see symbols of the honest
    input's codeword, the rest see ``alt_value``'s (split and encoded
    with the ``parts_of`` and ``code`` the engine publishes in the view).
    """

    def __init__(self, faulty: Sequence[int], split: int, alt_value: int):
        super().__init__(faulty)
        self.split = split
        self.alt_value = alt_value

    def input_value(self, pid, honest_input, view):
        return honest_input

    def matching_row(self, pid, recipients, honest_symbol, generation, view):
        # Honest below the split, the alternative codeword's symbol from
        # it up: encoded once per row, and not at all when no recipient
        # is at or above the split.
        deceived = [r for r in recipients if r >= self.split]
        if deceived:
            alt = _codeword_symbol(self.alt_value, pid, generation, view)
            if alt is not None:
                return honest_symbol, dict.fromkeys(deceived, alt)
        return honest_symbol, {}


class FalseAccusationAdversary(Adversary):
    """Faulty processors broadcast all-false M vectors, accusing everyone.

    This can prevent any P_match containing them; the protocol must still
    find a fault-free P_match (Lemma 1) or correctly fall to the default.
    """

    def m_row(self, pid, honest_row, generation, view):
        return ALL_FALSE


class FalseDetectionAdversary(Adversary):
    """Faulty processors outside P_match always cry wolf (Detected = true)
    while behaving honestly otherwise.

    Exercises line 3(f): with a consistent R#, a complainer with no removed
    edge is provably lying and gets isolated.
    """

    def detected_flag(self, pid, honest_flag, generation, view):
        return True


#: ``SlowBleedAdversary``'s plans, one per (n, t, faulty set, packed
#: trust mask, isolated set), kept for the process: the graph starts
#: afresh every instance, so instances on one trajectory meet the same
#: graph states.  Cleared when it holds :data:`MAX_PLAN_ENTRIES`; a key's
#: mask packs to ``ceil(n^2 / 8)`` bytes, 32 641 at n = 511, so the full
#: table's keys hold about 8.4 MB there (about 0.5 MB at n = 127).
_PLANS: Dict[tuple, Optional[tuple]] = {}
MAX_PLAN_ENTRIES = 256


class SlowBleedAdversary(Adversary):
    """Worst-case diagnosis-count strategy for Theorem 1's t(t+1) bound.

    Each generation spends at most *one* bad edge, stretching the number of
    diagnosis stages towards the ``t(t+1)`` ceiling.  Two plays, planned by
    emulating the protocol's deterministic P_match search on the current
    diagnosis graph:

    * **attack** — a faulty processor corrupts the symbol it sends to one
      honest victim, chosen so the corrupted M flags still leave a P_match
      containing the attacker and excluding the victim.  The victim detects
      the inconsistency, diagnosis runs, and exactly the edge
      (attacker, victim) is removed.
    * **accuse** — when no attack is viable, a faulty processor that falls
      outside P_match cries Detected and falsely distrusts a fellow faulty
      processor inside P_match; the mutual bad edge is removed, and the
      removal at the complainer's own vertex shields it from the line-3(f)
      false-alarm isolation.
    """

    def __init__(self, faulty: Sequence[int]):
        super().__init__(faulty)
        self.attack_log: List[Dict[str, int]] = []
        self._plan: Dict[int, Optional[tuple]] = {}

    def _plan_for(self, generation: int, view: GlobalView):
        if generation in self._plan:
            return self._plan[generation]
        graph = view.extras.get("diag_graph")
        choice = None
        if graph is not None:
            choice = self._planned(graph, view.n, view.t)
        self._plan[generation] = choice
        if choice is not None:
            self.attack_log.append(
                {
                    "generation": generation,
                    "play": choice[0],
                    "actor": choice[1],
                    "target": choice[2],
                }
            )
        return choice

    def _planned(self, graph, n: int, t: int) -> Optional[tuple]:
        """The plan on ``graph``, searched once per process: a plan is a
        pure function of (n, t, faulty set, trust mask, isolated set),
        so every instance on one trajectory shares the searches of the
        first (:data:`_PLANS`).  A subclass whose ``_search`` differs
        overrides this too."""
        key = (
            n, t, frozenset(self.faulty),
            np.packbits(graph.trust_mask()).tobytes(),
            frozenset(graph.isolated),
        )
        if key not in _PLANS:
            if len(_PLANS) >= MAX_PLAN_ENTRIES:
                _PLANS.clear()
            _PLANS[key] = self._search(graph, n, t)
        return _PLANS[key]

    def _search(self, graph, n: int, t: int) -> Optional[tuple]:
        """The planned play on ``graph``: ``("attack" | "accuse", actor,
        target)``, or ``None`` when neither play is viable.

        Both plays emulate the engine's exact P_match search
        (:func:`~repro.graphs.cliques.find_clique_masks`, the core of
        ``find_clique_matrix``) on the trust mask, packed once here: an
        (attacker, victim) probe clears that edge's two bits in a copy
        of the mask list instead of copying and re-packing the
        matrix."""
        from repro.graphs.cliques import adjacency_masks, find_clique_masks

        masks = adjacency_masks(graph.trust_mask())
        size = n - t
        # Play 1: find a viable (attacker, victim) symbol corruption, as
        # an all-honest matching round with that one mismatch.
        for attacker in sorted(self.faulty):
            if graph.is_isolated(attacker):
                continue
            for victim in sorted(
                (
                    peer
                    for peer in graph.trusted_by(attacker)
                    if peer not in self.faulty
                ),
                reverse=True,
            ):
                broken = list(masks)
                broken[attacker] &= ~(1 << victim)
                broken[victim] &= ~(1 << attacker)
                match = find_clique_masks(broken, size)
                if (
                    match is not None
                    and attacker in match
                    and victim not in match
                ):
                    return ("attack", attacker, victim)
        # Play 2: burn a faulty-faulty edge via a false accusation.  The
        # accuser broadcasts an all-false M vector, forcing itself out of
        # P_match, then cries Detected and distrusts the target; the
        # removed (accuser, target) edge shields it from line 3(f).
        everyone = (1 << n) - 1
        for accuser in sorted(self.faulty):
            if graph.is_isolated(accuser):
                continue
            match = find_clique_masks(
                masks, size, pool=everyone & ~(1 << accuser)
            )
            if match is None:
                continue
            targets = [
                p
                for p in match
                if p in self.faulty and graph.trusts(accuser, p)
            ]
            if targets:
                return ("accuse", accuser, targets[0])
        return None

    def _victim_of(self, pid, generation, view) -> Optional[int]:
        """The one recipient ``pid`` corrupts this generation, if any."""
        plan = self._plan_for(generation, view)
        if plan is not None and plan[0] == "attack" and pid == plan[1]:
            return plan[2]
        return None

    def matching_row(self, pid, recipients, honest_symbol, generation, view):
        # Honest plus at most the one planned victim.
        victim = self._victim_of(pid, generation, view)
        if victim is None:
            return honest_symbol, {}
        return honest_symbol, {victim: honest_symbol ^ 1}

    def _accused_by(self, pid, generation, view) -> Optional[int]:
        """The fellow faulty pid ``pid`` falsely accuses this
        generation, if it is the planned accuser."""
        plan = self._plan_for(generation, view)
        if plan is not None and plan[0] == "accuse" and pid == plan[1]:
            return plan[2]
        return None

    def m_row(self, pid, honest_row, generation, view):
        if self._accused_by(pid, generation, view) is not None:
            return ALL_FALSE
        return honest_row

    def detected_flag(self, pid, honest_flag, generation, view):
        if self._accused_by(pid, generation, view) is not None:
            return True
        return honest_flag

    def trust_row(self, pid, p_match, honest_row, generation, view):
        target = self._accused_by(pid, generation, view)
        return honest_row if target is None else {target}


class RandomAdversary(Adversary):
    """Seeded chaos monkey: every decision deviates with probability ``rate``.

    Used by property-based tests: whatever this adversary does, the
    protocol must keep Termination, Consistency and Validity (the paper's
    algorithm is error-free against *arbitrary* behaviour).

    Every decision is keyed, not streamed: it is drawn through
    :func:`~repro.utils.rng.derive_seed` from ``(seed, hook, generation
    or backend instance, pid, element)``, the element being the
    recipient, column, ``P_match`` member or phase it is about.  An
    answer is therefore a function of the hook's arguments: an engine
    may ask in any order and any number of times.
    """

    def __init__(self, faulty: Sequence[int], seed: int = 0, rate: float = 0.5):
        super().__init__(faulty)
        self.seed = seed
        self.rate = rate

    def _deviates(self, *key) -> bool:
        """Whether the decision ``key`` names deviates."""
        return derive_seed(self.seed, *key) < self.rate * 2.0 ** 64

    def _deviation(self, *key) -> Optional[int]:
        """``None`` when the decision ``key`` names plays honestly, else
        the 64-bit word, keyed by the same ``key``, that its deviation
        draws from."""
        if not self._deviates(*key):
            return None
        return derive_seed(self.seed, "deviation", *key)

    @staticmethod
    def _symbol_limit(view: GlobalView) -> int:
        code = view.extras.get("code")
        return code.symbol_limit if code is not None else 2

    def input_value(self, pid, honest_input, view):
        word = self._deviation("input_value", pid)
        if word is None:
            return honest_input
        return word % (1 << min(view.extras.get("l_bits", 8), 48))

    def matching_row(self, pid, recipients, honest_symbol, generation, view):
        # Per recipient: deviate?  then silent or a random symbol.  One
        # stream draws the three for every pid in turn, so what a
        # recipient gets is keyed by its pid, not its place in the list.
        rng = derive_rng(self.seed, "matching_row", generation, pid)
        limit = self._symbol_limit(view)
        drawn = [
            (rng.random(), rng.random(), rng.randrange(limit))
            for _ in range(view.n)
        ]
        exceptions = {}
        for recipient in recipients:
            deviate, silent, symbol = drawn[recipient]
            if deviate < self.rate:
                exceptions[recipient] = None if silent < self.rate else symbol
        return honest_symbol, exceptions

    def m_row(self, pid, honest_row, generation, view):
        word = self._deviation("m_row", generation, pid)
        if word is None:
            return honest_row
        rng = random.Random(word)
        return [rng.random() < 0.5 for _ in honest_row]

    def detected_flag(self, pid, honest_flag, generation, view):
        if self._deviates("detected_flag", generation, pid):
            return not honest_flag
        return honest_flag

    def diagnosis_symbol(self, pid, honest_symbol, generation, view):
        word = self._deviation("diagnosis_symbol", generation, pid)
        if word is None:
            return honest_symbol
        return random.Random(word).randrange(self._symbol_limit(view))

    def trust_row(self, pid, p_match, honest_row, generation, view):
        word = self._deviation("trust_row", generation, pid)
        if word is None:
            return honest_row
        # One flag per pid in turn, so a member's is keyed by its pid.
        rng = random.Random(word)
        flags = [rng.random() < 0.5 for _ in range(view.n)]
        return {member: flags[member] for member in p_match}

    def bsb_source_bit(self, source, recipient, honest_bit, instance, view):
        word = self._deviation("bsb_source_bit", instance, source, recipient)
        return honest_bit if word is None else word & 1

    def ideal_broadcast_bit(self, source, honest_bit, instance, view):
        if self._deviates("ideal_broadcast_bit", instance, source):
            return honest_bit ^ 1
        return honest_bit

    def king_value(self, pid, recipient, phase, honest_value, instance, view):
        word = self._deviation("king_value", instance, pid, recipient, phase)
        return honest_value if word is None else word & 1

    def king_proposal(self, pid, recipient, phase, honest_proposal, instance, view):
        word = self._deviation(
            "king_proposal", instance, pid, recipient, phase
        )
        return honest_proposal if word is None else (None, 0, 1)[word % 3]

    def king_bit(self, pid, recipient, phase, honest_bit, instance, view):
        word = self._deviation("king_bit", instance, pid, recipient, phase)
        return honest_bit if word is None else word & 1

    def eig_relay(self, pid, recipient, path, honest_value, instance, view):
        word = self._deviation("eig_relay", instance, pid, recipient, *path)
        return honest_value if word is None else word & 1

    def source_symbol(self, source, recipient, honest_symbol, generation, view):
        word = self._deviation("source_symbol", generation, source, recipient)
        if word is None:
            return honest_symbol
        return random.Random(word).randrange(self._symbol_limit(view))

    def forwarded_symbol(self, pid, recipient, honest_symbol, generation, view):
        word = self._deviation("forwarded_symbol", generation, pid, recipient)
        if word is None:
            return honest_symbol
        return random.Random(word).randrange(self._symbol_limit(view))

    def source_codeword(self, source, honest_codeword, generation, view):
        word = self._deviation("source_codeword", generation, source)
        if word is None:
            return list(honest_codeword)
        rng = random.Random(word)
        limit = self._symbol_limit(view)
        return [rng.randrange(limit) for _ in honest_codeword]


class CollidingInputAdversary(Adversary):
    """Adversary for the Fitzi-Hirt error-probability experiment (E6).

    Faulty "happy" processors deliver ``forged_value`` — crafted off-line to
    collide with the honest value under the baseline's universal hash —
    instead of the value the agreed digest commits to.  Against Fitzi-Hirt
    this succeeds whenever the collision is genuine; against the
    error-free algorithm the same behaviour is caught by the checking
    stage.
    """

    def __init__(self, faulty: Sequence[int], forged_value: int):
        super().__init__(faulty)
        self.forged_value = forged_value

    def delivery_value(self, pid, honest_value, view):
        return self.forged_value


class TrustPoisoningAdversary(Adversary):
    """Faulty processors lie in the diagnosis Trust vectors, accusing every
    fault-free member of P_match.

    This attacks line 3(e) directly: each false accusation removes an edge
    between the liar and an honest processor — a *bad* edge, so Lemma 4's
    soundness holds, and the over-degree rule (line 3(g)) isolates the
    liar after it has squandered t+1 edges.  The faulty also trigger the
    diagnosis stage by crying Detected whenever they sit outside P_match.
    """

    def detected_flag(self, pid, honest_flag, generation, view):
        return True

    def trust_row(self, pid, p_match, honest_row, generation, view):
        return set(p_match).difference(self.faulty)


class StagedEquivocationAdversary(Adversary):
    """Faulty processors present codewords of a *different* value to a
    chosen subset of peers, with M flags doctored to match both stories.

    Unlike :class:`SymbolCorruptionAdversary` (which sends garbage), the
    symbols here lie on a genuine codeword of ``alt_value``, so the lie is
    self-consistent — the strongest form of equivocation.  The checking
    stage still catches it: n - t symbols cannot straddle two codewords
    without some fault-free outsider seeing an inconsistency.
    """

    def __init__(self, faulty: Sequence[int], deceived: Sequence[int],
                 alt_value: int):
        super().__init__(faulty)
        self.deceived = set(deceived)
        self.alt_value = alt_value

    def matching_row(self, pid, recipients, honest_symbol, generation, view):
        # Honest plus the deceived; the alternative symbol is encoded
        # once, and not at all once no deceived pid is left to send to.
        if self.deceived.isdisjoint(recipients):
            return honest_symbol, {}
        alt = _codeword_symbol(self.alt_value, pid, generation, view)
        if alt is None:
            return honest_symbol, {}
        return honest_symbol, dict.fromkeys(self.deceived, alt)

    def m_row(self, pid, honest_row, generation, view):
        # Claim to match everyone: the pairwise condition lets the lie
        # survive only where the counterpart also claims a match.
        return ALL_TRUE
