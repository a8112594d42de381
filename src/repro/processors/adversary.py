"""Adversary interface: every point where a faulty processor can deviate.

The engines (consensus generations, broadcast backends, baselines) call
these hooks whenever a *faulty* processor is about to emit information.
Each hook receives the value an honest processor would have sent plus a
:class:`GlobalView` of the whole system (the paper's adversary hides no
secrets), and returns what the faulty processor actually sends.  The base
class returns the honest value everywhere, modelling faulty-but-compliant
processors; attacks subclass it.

Hooks that can equivocate (send different things to different receivers)
take a ``recipient`` argument.  Hooks that feed ``Broadcast_Single_Bit``
cannot equivocate in their *outcome* — the broadcast primitive guarantees
all fault-free processors receive the same value — but faulty processors
can still lie about the value itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Set, Tuple


@dataclass
class GlobalView:
    """Everything the omniscient adversary can see.

    ``states`` maps pid -> the engine's per-processor state object;
    ``extras`` carries engine-specific context (generation index, stage
    name, the diagnosis graph, ...).  Adversaries must treat the view as
    read-only; engines share live objects for efficiency.
    """

    n: int
    t: int
    faulty: Set[int]
    states: Dict[int, Any] = field(default_factory=dict)
    extras: Dict[str, Any] = field(default_factory=dict)

    @property
    def honest(self) -> Set[int]:
        return set(range(self.n)) - self.faulty


class Adversary:
    """Base adversary: controls ``faulty`` but plays every hook honestly."""

    def __init__(self, faulty: Optional[Sequence[int]] = None):
        self.faulty: Set[int] = set(faulty or ())

    def __init_subclass__(cls, **kwargs):
        """Keep the two forms of the symbol hook from disagreeing: a
        class that redefines :meth:`matching_symbol` alone gets the
        derived :meth:`matching_row` back (whatever row an ancestor
        wrote answered for the ancestor's scalar form), and a row
        without its scalar form beside it is refused."""
        super().__init_subclass__(**kwargs)
        body = cls.__dict__
        if "matching_symbol" in body:
            if "matching_row" not in body:
                cls.matching_row = Adversary.matching_row
        elif "matching_row" in body:
            raise TypeError(
                "%s defines matching_row without the matching_symbol it "
                "answers for; define both in one class body"
                % cls.__name__
            )

    def controls(self, pid: int) -> bool:
        return pid in self.faulty

    # -- consensus: input substitution ---------------------------------------

    def input_value(self, pid: int, honest_input: int, view: GlobalView) -> int:
        """The L-bit input a faulty processor pretends to hold."""
        return honest_input

    # -- consensus: matching stage -------------------------------------------

    def matching_symbol(
        self,
        pid: int,
        recipient: int,
        honest_symbol: int,
        generation: int,
        view: GlobalView,
    ) -> Optional[int]:
        """Symbol ``S_i[i]`` a faulty ``pid`` sends to ``recipient``.

        Return ``None`` to stay silent (the receiver treats a missing
        message from a trusted peer as a mismatching distinguished value).
        """
        return honest_symbol

    def matching_row(
        self,
        pid: int,
        recipients: Sequence[int],
        honest_symbol: int,
        generation: int,
        view: GlobalView,
    ) -> Tuple[Optional[int], Mapping[int, Optional[int]]]:
        """The row form of :meth:`matching_symbol`: everything a faulty
        ``pid`` sends in one symbol round, asked once.

        Line 1(a) has a processor send the *one* symbol ``S_i[i]`` to
        every processor it trusts, so a Byzantine sender's round is that
        one payload plus its exceptions.  Returns ``(payload,
        exceptions)``: the payload every one of ``recipients`` gets and
        a mapping ``recipient -> payload`` of those that get something
        else, keyed by the pids handed in (a key outside ``recipients``
        is ignored).  Payloads mean what :meth:`matching_symbol`'s
        return means, ``None`` included, and the answer expands to
        exactly the scalar answers:
        ``[exceptions.get(r, payload) for r in recipients]``.

        This base implementation *derives* the row: it fires
        :meth:`matching_symbol` once per recipient, in the order given,
        with the one ``view`` — so a strategy that overrides only the
        scalar form keeps its exact call sequence, arguments and RNG
        draws whichever engine runs it.  A strategy whose answer does
        not depend on who is asking overrides both forms, in one class
        body (``__init_subclass__`` enforces it), with an
        O(exceptions) row.  The cohort engine
        (:mod:`repro.service.cohort`) asks for rows; the scalar and
        per-generation engines ask per recipient.
        """
        exceptions = {}
        for recipient in recipients:
            sent = self.matching_symbol(
                pid, recipient, honest_symbol, generation, view
            )
            # Exact comparison: True == 1 and 1.0 == 1, but neither is
            # the symbol 1 on receipt.
            if type(sent) is not type(honest_symbol) or sent != honest_symbol:
                exceptions[recipient] = sent
        return honest_symbol, exceptions

    def m_vector(
        self,
        pid: int,
        honest_m: List[bool],
        generation: int,
        view: GlobalView,
    ) -> List[bool]:
        """The M vector a faulty ``pid`` feeds into Broadcast_Single_Bit."""
        return honest_m

    # -- consensus: checking stage ---------------------------------------------

    def detected_flag(
        self,
        pid: int,
        honest_flag: bool,
        generation: int,
        view: GlobalView,
    ) -> bool:
        """The Detected bit a faulty ``pid`` (outside P_match) broadcasts."""
        return honest_flag

    # -- consensus: diagnosis stage ---------------------------------------------

    def diagnosis_symbol(
        self,
        pid: int,
        honest_symbol: int,
        generation: int,
        view: GlobalView,
    ) -> int:
        """The symbol ``S_j[j]`` a faulty ``pid`` in P_match broadcasts."""
        return honest_symbol

    def trust_vector(
        self,
        pid: int,
        honest_trust: Dict[int, bool],
        generation: int,
        view: GlobalView,
    ) -> Dict[int, bool]:
        """The Trust_i/P_match vector a faulty ``pid`` broadcasts."""
        return honest_trust

    # -- 1-bit broadcast internals -----------------------------------------------

    def bsb_source_bit(
        self,
        source: int,
        recipient: int,
        honest_bit: int,
        instance: int,
        view: GlobalView,
    ) -> Optional[int]:
        """Initial bit a faulty broadcast *source* sends to ``recipient``.

        Equivocation allowed; ``None`` = silent (receiver assumes 0).
        """
        return honest_bit

    def ideal_broadcast_bit(
        self,
        source: int,
        honest_bit: int,
        instance: int,
        view: GlobalView,
    ) -> int:
        """Outcome a faulty source imposes under the accounted-ideal backend.

        A correct broadcast still guarantees agreement, so the adversary
        picks one bit delivered identically to everybody.
        """
        return honest_bit

    def king_value(
        self,
        pid: int,
        recipient: int,
        phase: int,
        honest_value: int,
        instance: int,
        view: GlobalView,
    ) -> Optional[int]:
        """Phase-King round-1 value a faulty ``pid`` sends to ``recipient``."""
        return honest_value

    def king_proposal(
        self,
        pid: int,
        recipient: int,
        phase: int,
        honest_proposal: Optional[int],
        instance: int,
        view: GlobalView,
    ) -> Optional[int]:
        """Phase-King round-2 proposal (``None`` = no proposal)."""
        return honest_proposal

    def king_bit(
        self,
        pid: int,
        recipient: int,
        phase: int,
        honest_bit: int,
        instance: int,
        view: GlobalView,
    ) -> Optional[int]:
        """Phase-King round-3 king message from a faulty king."""
        return honest_bit

    def eig_relay(
        self,
        pid: int,
        recipient: int,
        path: Sequence[int],
        honest_value: int,
        instance: int,
        view: GlobalView,
    ) -> Optional[int]:
        """Value a faulty ``pid`` relays for EIG tree node ``path``."""
        return honest_value

    # -- randomized common-coin backend (Mostefaoui) -------------------------------

    def est_value(
        self,
        pid: int,
        recipient: int,
        honest_est: int,
        round_index: int,
        instance: int,
        view: GlobalView,
    ) -> Optional[int]:
        """EST bit a faulty ``pid`` sends ``recipient`` in BV-broadcast.

        Equivocation allowed; ``None`` = silent (omission).
        """
        return honest_est

    def aux_value(
        self,
        pid: int,
        recipient: int,
        honest_aux: int,
        round_index: int,
        instance: int,
        view: GlobalView,
    ) -> Optional[int]:
        """AUX bit a faulty ``pid`` sends ``recipient``.

        Equivocation allowed; ``None`` = silent (omission).
        """
        return honest_aux

    def coin_reveal(
        self,
        instance: int,
        round_index: int,
        honest_coin: int,
        view: GlobalView,
    ) -> int:
        """Common-coin value the adversary imposes for one round.

        Models a corruptible coin dealer: the returned bit *is* the coin
        every processor sees (the coin stays common — per-processor coin
        splits are out of model).  After the backend's derandomization
        cap the hook is ignored, so termination cannot be stalled
        forever.
        """
        return honest_coin

    # -- multi-valued broadcast (Section 4) ---------------------------------------

    def source_symbol(
        self,
        source: int,
        recipient: int,
        honest_symbol: int,
        generation: int,
        view: GlobalView,
    ) -> Optional[int]:
        """Symbol a faulty *source* disperses to ``recipient``."""
        return honest_symbol

    def forwarded_symbol(
        self,
        pid: int,
        recipient: int,
        honest_symbol: int,
        generation: int,
        view: GlobalView,
    ) -> Optional[int]:
        """Symbol a faulty peer forwards during broadcast relay."""
        return honest_symbol

    def source_codeword(
        self,
        source: int,
        honest_codeword: List[int],
        generation: int,
        view: GlobalView,
    ) -> List[int]:
        """Codeword a faulty source claims during broadcast diagnosis."""
        return list(honest_codeword)

    # -- signatures (t >= n/3 probabilistic substrate) ------------------------------

    def forge_signature(
        self,
        forger: int,
        victim: int,
        message: Any,
        view: GlobalView,
    ) -> bool:
        """Whether a forgery attempt against ``victim``'s key succeeds.

        The information-theoretic pseudo-signatures the paper cites ([10],
        [4]) fail with probability ~2^-kappa; simulated substrates call
        this to decide each attempt.  Honest default: forgeries never
        succeed.
        """
        return False


def hook_is_default(adversary: Adversary, name: str) -> bool:
    """Whether ``adversary``'s class leaves hook ``name`` at the
    :class:`Adversary` base, i.e. plays it as the stateless honest
    identity, so an engine may elide the call unobservably.  Anything
    else — a subclass override, a class-level router
    (``CompositeAdversary``), a wrapper (``DeviationRecorder``) — reads
    as overriding and must keep firing."""
    return getattr(type(adversary), name) is getattr(Adversary, name)
