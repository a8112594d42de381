"""What a faulty processor's answer means: one reader per hook answer.

A hook may answer anything, and the paper's claims hold for any
behaviour of the faulty processors, so every engine, both baselines and
the audit recorder read an answer only through these readers
(``docs/ARCHITECTURE.md``, rule 5; ``tests/test_answer_boundary.py``
holds the source to it).  An answer a rule refuses raises
:class:`TypeError` naming the hook and the value, alike on every engine.
A row answer names what the row is — the honest row itself, a constant,
the members accused, a payload plus its exceptions — so an engine that
holds the honest row reuses it.
"""

from __future__ import annotations

from collections import abc
from typing import (
    AbstractSet, Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union,
)

from repro.utils.boundary import is_exact_int


class RowConstant:
    """An ``m_row`` answer that sets every broadcast flag to ``bit``,
    whatever the honest row holds."""

    __slots__ = ("name", "bit")

    def __init__(self, name: str, bit: int):
        self.name = name
        self.bit = bit

    def __repr__(self) -> str:
        return self.name


#: The M row that accuses every peer.
ALL_FALSE = RowConstant("ALL_FALSE", 0)
#: The M row that claims a match with every peer.
ALL_TRUE = RowConstant("ALL_TRUE", 1)

#: What ``matching_row`` answers: the payload every recipient gets and
#: a ``recipient -> payload`` mapping of exceptions.
SymbolRow = Tuple[Any, Mapping[Any, Any]]
#: What ``m_row`` may answer: the honest row itself, a
#: :class:`RowConstant`, or an explicit row of flags.
MRow = Union[RowConstant, Sequence[Any]]
#: What ``trust_row`` may answer: the honest row itself, the set of
#: members accused, or an explicit ``member -> flag`` mapping.
TrustRow = Union[Tuple[bool, ...], AbstractSet[int], Mapping[int, Any]]


def _refused(hook: str, answer: Any, domain: str) -> TypeError:
    article = "an" if hook[0] in "aeiou" else "a"
    return TypeError(
        f"{hook=} {answer=}: {article} {hook} answer is {domain}, "
        f"got {type(answer).__name__}"
    )


_BIT = "a bit (a bool, or an exact int 0 or 1)"


def bit_answer(hook: str, answer: Any, domain: str = _BIT) -> int:
    """The bit a ``detected_flag``, ``ideal_broadcast_bit`` or
    ``forge_signature`` answer stands for; ``1.0``, ``"1"``, ``2``,
    ``numpy.int64(1)`` and ``None`` are refused."""
    if type(answer) in (bool, int) and answer in (0, 1):
        return int(answer)
    raise _refused(hook, answer, domain)


def message_bit(hook: str, answer: Any) -> Optional[int]:
    """The bit a real-round message hook sends, ``None`` for silence."""
    if answer is None:
        return None
    return bit_answer(hook, answer, "None for silence or " + _BIT)


def _exact(hook: str, answer: Any, modulus: int, what: str) -> int:
    if not is_exact_int(answer):
        raise _refused(hook, answer, "an exact int " + what)
    return answer % modulus


def diagnosis_symbol_value(answer: Any, symbol_limit: int) -> int:
    """The symbol a ``diagnosis_symbol`` answer broadcasts: an exact
    ``int`` (``True`` is refused, as it is on receipt) mod
    ``symbol_limit``."""
    return _exact("diagnosis_symbol", answer, symbol_limit, "symbol")


def codeword_symbols(answer: Any, length: int, symbol_limit: int) -> List[int]:
    """The codeword a ``source_codeword`` answer claims: exact ``int``
    symbols mod ``symbol_limit``, padded with zeros or truncated to
    ``length``."""
    symbols = [
        _exact("source_codeword", symbol, symbol_limit, "symbol")
        for symbol in answer
    ]
    return (symbols + [0] * length)[:length]


def input_value_of(answer: Any, l_bits: int) -> int:
    """The input an ``input_value`` answer runs with: an exact ``int``
    (``True`` is not the input 1) mod ``2^l_bits``."""
    return _exact("input_value", answer, 1 << l_bits, "value")


def delivery_value_of(answer: Any, l_bits: int) -> int:
    """The value a ``delivery_value`` answer hands over in the
    Fitzi-Hirt joint delivery: an exact ``int`` mod ``2^l_bits``."""
    return _exact("delivery_value", answer, 1 << l_bits, "value")


def substituted_inputs(
    adversary: Any, inputs: Sequence[int], l_bits: int, view: Any
) -> Dict[int, int]:
    """Every processor's input once its ``input_value`` hook has
    answered: each controlled pid is asked, in pid order and with a
    ``view()``, and its answer read by :func:`input_value_of`."""
    return {
        pid: input_value_of(adversary.input_value(pid, value, view()), l_bits)
        if adversary.controls(pid) else value
        for pid, value in enumerate(inputs)
    }


def wire_payload(answer: Any) -> Any:
    """A ``source_symbol`` or ``forwarded_symbol`` answer goes out as
    answered: ``None`` is silence, anything else is charged and read on
    receipt (:func:`received_symbol`)."""
    return answer


def received_symbol(
    payload: Any, symbol_limit: int, missing: Any = None
) -> Any:
    """The symbol a receiver reads from a payload: an exact ``int`` in
    ``[0, symbol_limit)``, else ``missing`` — ``True`` would pass an
    ``isinstance`` and a range check as the symbol 1."""
    if is_exact_int(payload) and 0 <= payload < symbol_limit:
        return payload
    return missing


def matching_row_answer(answer: SymbolRow) -> Tuple[Any, Mapping[int, Any]]:
    """A ``matching_row`` answer ``(payload, exceptions)`` keeping the
    exceptions keyed by an exact ``int`` (``True`` is not pid 1); a key
    that is no recipient of the row is the engine's to ignore.  Any
    other shape — not a pair, or exceptions that are neither a mapping
    nor ``None`` — is refused."""
    if not (
        isinstance(answer, (tuple, list)) and len(answer) == 2
        and (answer[1] is None or isinstance(answer[1], (dict, abc.Mapping)))
    ):
        raise _refused(
            "matching_row", answer,
            "a (payload, exceptions) pair with a recipient -> payload "
            "mapping or None for exceptions",
        )
    payload, exceptions = answer
    if not exceptions:
        return answer
    return payload, {
        recipient: other for recipient, other in exceptions.items()
        if is_exact_int(recipient)
    }


def matching_row_payloads(
    answer: SymbolRow, recipients: Sequence[int]
) -> List[Any]:
    """The payload each of ``recipients`` gets, in order, for a
    ``matching_row`` answer ``(payload, exceptions)``.

    A recipient named by an exception gets that exception's payload;
    every other recipient gets ``payload``.  A key counts only when it
    is an exact ``int`` among ``recipients``: ``True`` is not pid 1, and
    a key naming the sender, a negative or absent pid or a peer outside
    ``recipients`` is ignored.  ``None`` is silence: nothing is sent.
    """
    payload, named = matching_row_answer(answer)
    if not named:
        return [payload] * len(recipients)
    return [named.get(recipient, payload) for recipient in recipients]


def m_row_bits(answer: MRow, pid: int, n: int) -> List[int]:
    """The ``n - 1`` bits processor ``pid`` broadcasts for an M row
    answer.

    A :class:`RowConstant` sets every bit.  Any other iterable but a
    ``str`` or ``bytes`` is read as an explicit row: padded with
    ``False`` or truncated to ``n`` entries, each flag by its
    truthiness, and the own slot never sent.  Anything else is refused.
    """
    if isinstance(answer, RowConstant):
        return [answer.bit] * (n - 1)
    if isinstance(answer, (str, bytes)) or not isinstance(
        answer, abc.Iterable
    ):
        raise _refused(
            "m_row", answer,
            "the honest row itself, a row constant or a row of flags",
        )
    row = list(answer)
    if len(row) != n:
        row = (row + [False] * n)[:n]
    if 0 <= pid < n:
        del row[pid]
    return list(map(int, map(bool, row)))


def m_row_change(
    answer: MRow, honest_row: Tuple[bool, ...], pid: int, n: int
) -> Optional[List[int]]:
    """``None`` for ``honest_row`` itself, else :func:`m_row_bits`."""
    if answer is honest_row:
        return None
    return m_row_bits(answer, pid, n)


def trust_row_bits(
    answer: TrustRow, p_match: Sequence[int], honest_row: Sequence[bool]
) -> List[int]:
    """The ``|P_match|`` bits a Trust row answer broadcasts.

    The honest row broadcasts itself.  A mapping is read ``answer.get(j,
    False)`` per member, by truthiness.  A set turns the members it
    names ``False`` on the honest row.  Only an exact ``int`` names a
    member (``True``, ``1.0`` and ``numpy.int64(1)`` are not pid 1),
    and a pid outside ``P_match`` is ignored.  Anything else — a copy
    of the honest row included — is refused, since a sequence of flags
    would read as a set of pids.
    """
    if answer is honest_row:
        return list(map(int, map(bool, honest_row)))
    if isinstance(answer, abc.Mapping):
        flags = {j: flag for j, flag in answer.items() if is_exact_int(j)}
        return [1 if flags.get(j, False) else 0 for j in p_match]
    if isinstance(answer, abc.Set):
        accused = {j for j in answer if is_exact_int(j)}
        return [
            1 if flag and j not in accused else 0
            for j, flag in zip(p_match, honest_row)
        ]
    raise _refused(
        "trust_row", answer,
        "the honest row itself, a set of accused members or a "
        "member -> flag mapping",
    )


def trust_row_change(
    answer: TrustRow, p_match: Sequence[int], honest_row: Tuple[bool, ...]
) -> Union[None, AbstractSet[int], List[int]]:
    """``None`` for ``honest_row`` itself, an accuse set as the exact
    ``int`` pids it names (a pid outside ``P_match`` is the engine's to
    ignore), else the bits."""
    if answer is honest_row:
        return None
    if isinstance(answer, abc.Set) and not isinstance(answer, abc.Mapping):
        return {j for j in answer if is_exact_int(j)}
    return trust_row_bits(answer, p_match, honest_row)
