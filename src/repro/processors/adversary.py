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

Three consensus hooks are asked for a whole *row*, because Algorithm 1
has a processor emit one at once: its one symbol to every peer it trusts
(:meth:`Adversary.matching_row`), its M vector (:meth:`Adversary.m_row`)
and its Trust vector over ``P_match`` (:meth:`Adversary.trust_row`).
Each has this one form, asked once per faulty processor and generation
on every engine.  Each hook's docstring states its answer domain; what
an answer means is decided by :mod:`repro.processors.answers` alone.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.processors.answers import MRow, SymbolRow, TrustRow
from repro.utils.boundary import check_int, check_pid


@dataclass
class GlobalView:
    """Everything the omniscient adversary can see.

    ``extras`` carries engine-specific context (generation index, stage
    name, the diagnosis graph, ...).  Adversaries must treat the view as
    read-only; engines share live objects for efficiency.
    """

    n: int
    t: int
    faulty: Set[int]
    extras: Dict[str, Any] = field(default_factory=dict)

    @property
    def honest(self) -> Set[int]:
        return set(range(self.n)) - self.faulty


class Adversary:
    """Base adversary: controls ``faulty`` but plays every hook honestly."""

    def __init__(self, faulty: Optional[Sequence[int]] = None):
        # Exact ints: True would control pid 1 and index like it; the
        # range is checked where n is known (the engine, the spec).
        self.faulty: Set[int] = {
            check_int(pid, "faulty pid") for pid in faulty or ()
        }

    def controls(self, pid: int) -> bool:
        return pid in self.faulty

    # -- consensus: input substitution ---------------------------------------

    def input_value(self, pid: int, honest_input: int, view: GlobalView) -> int:
        """The L-bit input a faulty processor pretends to hold: an exact
        ``int`` (``answers.input_value_of``)."""
        return honest_input

    # -- consensus: matching stage -------------------------------------------

    def matching_row(
        self,
        pid: int,
        recipients: Sequence[int],
        honest_symbol: int,
        generation: int,
        view: GlobalView,
    ) -> SymbolRow:
        """Everything a faulty ``pid`` sends in one symbol round.

        Line 1(a) has a processor send the *one* symbol ``S_i[i]`` to
        every processor it trusts; ``recipients`` are those that are
        live, ascending.  Returns ``(payload, exceptions)``: the payload
        every one of ``recipients`` gets and a ``recipient -> payload``
        mapping, keyed by exact ``int`` pids, of those that get something
        else (``answers.matching_row_payloads``).  A payload of ``None``
        is silence (the receiver treats a missing message from a trusted
        peer as a mismatching distinguished value); anything
        that is not an exact ``int`` symbol is charged but missing on
        receipt.
        """
        return honest_symbol, {}

    def m_row(
        self,
        pid: int,
        honest_row: Tuple[bool, ...],
        generation: int,
        view: GlobalView,
    ) -> MRow:
        """The M vector a faulty ``pid`` feeds into Broadcast_Single_Bit
        (lines 1(c)-1(d)).

        ``honest_row`` is the immutable ``n``-tuple of ``pid``'s honest
        M flags, own slot included.  Answer ``honest_row`` itself to
        broadcast it, ``answers.ALL_FALSE`` or ``answers.ALL_TRUE`` for a
        constant row, or an explicit row of flags read by truthiness
        (``answers.m_row_bits``).
        """
        return honest_row

    # -- consensus: checking stage ---------------------------------------------

    def detected_flag(
        self,
        pid: int,
        honest_flag: bool,
        generation: int,
        view: GlobalView,
    ) -> bool:
        """The Detected bit a faulty ``pid`` (outside P_match)
        broadcasts: a bit (``answers.bit_answer``)."""
        return honest_flag

    # -- consensus: diagnosis stage ---------------------------------------------

    def diagnosis_symbol(
        self,
        pid: int,
        honest_symbol: int,
        generation: int,
        view: GlobalView,
    ) -> int:
        """The symbol ``S_j[j]`` a faulty ``pid`` in P_match broadcasts:
        an exact ``int`` (``answers.diagnosis_symbol_value``)."""
        return honest_symbol

    def trust_row(
        self,
        pid: int,
        p_match: Sequence[int],
        honest_row: Tuple[bool, ...],
        generation: int,
        view: GlobalView,
    ) -> TrustRow:
        """The Trust_i/P_match vector a faulty ``pid`` broadcasts (lines
        3(c)-3(d)).

        ``honest_row`` is the immutable tuple of ``pid``'s honest Trust
        flags, one per member of ``p_match`` in order.  Answer
        ``honest_row`` itself to broadcast it, a set of members to turn
        those ``False``, or an explicit ``member -> flag`` mapping read
        by truthiness (``answers.trust_row_bits``).
        """
        return honest_row

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

        Equivocation allowed; ``None`` = silent (receiver assumes 0),
        anything else a bit (``answers.message_bit``).
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
        picks one bit delivered identically to everybody
        (``answers.bit_answer``).
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
        """Phase-King round-1 value a faulty ``pid`` sends to ``recipient``
        (``answers.message_bit``; ``None`` is silence, still charged)."""
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
        """Phase-King round-2 proposal (``answers.message_bit``; ``None``
        = no proposal)."""
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
        """Phase-King round-3 king message from a faulty king
        (``answers.message_bit``; ``None`` is silence, still charged)."""
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
        """Value a faulty ``pid`` relays for EIG tree node ``path``
        (``answers.message_bit``; ``None`` is silence)."""
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

        Equivocation allowed; ``None`` = silent (omission), anything
        else a bit (``answers.message_bit``).
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

        Equivocation allowed; ``None`` = silent (omission), anything
        else a bit (``answers.message_bit``).
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
        splits are out of model); an answer other than 0 or 1 keeps the
        honest coin.  After the backend's derandomization cap the hook
        is ignored, so termination cannot be stalled forever.
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
        """Symbol a faulty *source* disperses to ``recipient``, sent as
        answered (``answers.wire_payload``)."""
        return honest_symbol

    def forwarded_symbol(
        self,
        pid: int,
        recipient: int,
        honest_symbol: int,
        generation: int,
        view: GlobalView,
    ) -> Optional[int]:
        """Symbol a faulty peer forwards during broadcast relay, sent as
        answered (``answers.wire_payload``)."""
        return honest_symbol

    def source_codeword(
        self,
        source: int,
        honest_codeword: List[int],
        generation: int,
        view: GlobalView,
    ) -> List[int]:
        """Codeword a faulty source claims during broadcast diagnosis:
        exact ``int`` symbols (``answers.codeword_symbols``)."""
        return list(honest_codeword)

    # -- Fitzi-Hirt baseline ---------------------------------------------

    def delivery_value(
        self, pid: int, honest_value: int, view: GlobalView
    ) -> int:
        """The L-bit value a faulty happy ``pid`` hands over in the
        Fitzi-Hirt joint delivery: an exact ``int``
        (``answers.delivery_value_of``)."""
        return honest_value

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
        this to decide each attempt, a bit (``answers.bit_answer``).
        Honest default: forgeries never succeed.
        """
        return False


#: Every hook whose first argument is the acting processor: each public
#: method with a ``view`` parameter, bar those whose first argument is
#: an ``instance`` (``coin_reveal``: the coin dealer is no processor).
#: The routers (``CompositeAdversary``, ``AdaptiveAdversary``) forward
#: exactly these, so a hook added here cannot be missed by them.
PID_HOOKS: Tuple[str, ...] = tuple(
    name for name, member in vars(Adversary).items()
    if inspect.isfunction(member) and not name.startswith("_")
    and "view" in inspect.signature(member).parameters
    and list(inspect.signature(member).parameters)[1] != "instance"
)


def route_pid_hooks(cls: type) -> type:
    """Class decorator for a router: every hook in :data:`PID_HOOKS`
    becomes ``self._route(hook, pid, args, kwargs)``."""

    def router(hook: str):
        def routed(self, pid, *args, **kwargs):
            return self._route(hook, pid, args, kwargs)

        routed.__name__ = hook
        routed.__doc__ = "Routed by the acting pid (see ``_route``)."
        return routed

    for hook in PID_HOOKS:
        setattr(cls, hook, router(hook))
    return cls


def hook_is_default(adversary: Adversary, name: str) -> bool:
    """Whether ``adversary``'s class leaves hook ``name`` at the
    :class:`Adversary` base, i.e. plays it as the stateless honest
    identity, so an engine may elide the call unobservably.  Anything
    else — a subclass override, a class-level router
    (``CompositeAdversary``), a wrapper (``DeviationRecorder``) — reads
    as overriding and must keep firing."""
    return getattr(type(adversary), name) is getattr(Adversary, name)


def check_tolerated(
    adversary: Adversary, n: int, t: Optional[int]
) -> None:
    """``ValueError`` unless every pid ``adversary`` controls is a
    processor of the ``n``-processor deployment and, given ``t``, it
    controls at most the ``t`` processors a protocol instance tolerates:
    past t, no guarantee of the paper holds, so an engine refuses to
    run rather than decide."""
    for pid in sorted(adversary.faulty):
        check_pid(pid, n, "faulty pid")
    if t is not None and len(adversary.faulty) > t:
        raise ValueError(
            "adversary controls %d processors but config tolerates t=%d"
            % (len(adversary.faulty), t)
        )
