"""What a public argument may be: the boundary rules, in one home.

The paper's claims hold for any L-bit input, but only for the input a
run was given: ``True`` read as 1, or ``4.0`` as 4, runs another input.
Every public entry calls these rules directly on its arguments; each
returns the value it accepts or raises ``ValueError`` naming the
argument.  A user's integer is an *exact* ``int``.  The coding layer
and the network read an *engine integer*, which may be a numpy integer.
"""

from __future__ import annotations

import math
from typing import Any, Collection

import numpy as np


def is_exact_int(value: object) -> bool:
    """True iff ``value`` is exactly ``int``: not a ``bool`` (which would
    pass as the symbol 1), not a float, not a numpy integer."""
    return type(value) is int


def check_int(value: Any, name: str, optional: bool = False) -> Any:
    """An exact ``int``, or ``None`` when ``optional``."""
    if type(value) is int or (optional and value is None):
        return value
    raise ValueError("%s %r is not an int" % (name, value))


def check_pid(value: Any, n: int, name: str) -> int:
    """A processor of an ``n``-processor deployment: an exact ``int`` in
    ``[0, n)``."""
    if type(value) is int and 0 <= value < n:
        return value
    raise ValueError(
        "%s %r is not a processor of an n=%d deployment" % (name, value, n)
    )


def check_input_value(value: Any, l_bits: int, what="input value") -> int:
    """An L-bit value (an input, a default value): an exact ``int`` in
    ``[0, 2^l_bits)``."""
    if type(value) is not int:
        raise ValueError("%s %r is not an int" % (what, value))
    if value < 0 or value.bit_length() > l_bits:
        raise ValueError(
            "%s %#x does not fit in l_bits=%d" % (what, value, l_bits)
        )
    return value


def check_choice(value: Any, choices: Collection[str], name: str) -> str:
    """One of a named set (a backend, a substrate, a fault kind)."""
    if type(value) is str and value in choices:
        return value
    raise ValueError(
        "unknown %s %r (choose from %s)" % (name, value, sorted(choices))
    )


def check_probability(value: Any, name: str) -> float:
    """A float, or an exact ``int``, in ``[0, 1]``."""
    if (type(value) is int or isinstance(value, float)) and 0 <= value <= 1:
        return value
    raise ValueError("%s must lie in [0, 1], got %r" % (name, value))


def check_duration(value: Any, name: str) -> float:
    """A duration (a window, a timeout): a float, or an exact ``int``,
    finite and at least 0."""
    if (type(value) is int or isinstance(value, float)) and (
        0 <= value < math.inf
    ):
        return value
    raise ValueError(
        "%s must be a finite number >= 0, got %r" % (name, value)
    )


def engine_int(value: Any, name: str, error: type = ValueError) -> int:
    """An ``int`` or a numpy integer, as an ``int``; never a ``bool`` or
    a float.  ``error`` is the caller's class.  A per-symbol or
    per-message caller tests ``type(value) is int`` inline first."""
    if type(value) is int:
        return value
    if isinstance(value, np.integer):
        return int(value)
    raise error("%s must be an int, got %r" % (name, value))
