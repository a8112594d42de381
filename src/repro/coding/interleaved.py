"""Interleaved Reed-Solomon codes: symbols of arbitrary width.

The paper's generation size ``D`` makes each coded symbol ``D/(n-2t)``
bits, with no upper bound — but table-driven ``GF(2^c)`` arithmetic is
only practical for ``c <= 16``.  The standard fix (used by every real RS
deployment, e.g. CDs and RAID) is *interleaving*: a ``(n, k)`` code over
``GF(2^c)`` applied to ``m`` independent rows, where position ``j`` of the
interleaved code carries the ``j``-th symbol of all ``m`` rows packed into
one ``m*c``-bit super-symbol.

Every property Algorithm 1 needs lifts row-wise:

* any ``k`` super-symbol positions determine all ``m`` rows, hence the
  data (the code's dimension is still ``k``);
* a super-symbol subset is consistent with a codeword iff every row's
  subset is, so inconsistency detection is preserved;
* two distinct codewords still differ in ``>= n - k + 1`` positions
  (if two interleaved words agreed on ``k`` positions they would be
  row-wise equal).

Row data lives in ``(m, k)`` numpy arrays so every lifted operation is a
*single* GF matrix-matrix product over all ``m`` rows (see
:meth:`~repro.coding.gf.GF.matmat`) instead of ``m`` per-row matvecs, and
super-symbol packing/unpacking is ``np.unpackbits``/``np.packbits``
vectorised over all positions at once.

The class mirrors the :class:`~repro.coding.reed_solomon.ReedSolomonCode`
API so the protocol engines can use either interchangeably.
"""

from __future__ import annotations

from itertools import repeat
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.coding.gf import GFElementError
from repro.coding.reed_solomon import (
    FAR, DecodingError, ReedSolomonCode, agreement_answer, min_symbol_bits,
)
from repro.utils.bits import INT64_LANE_BITS
from repro.utils.boundary import engine_int

#: The one element type :meth:`InterleavedCode._split_many` packs without
#: a per-symbol check.
_EXACT_INT = frozenset({int})


class InterleavedCode:
    """``m`` interleaved ``(n, k)`` Reed-Solomon codes over ``GF(2^c)``.

    Data and codeword symbols are ``m*c``-bit integers (row 0 in the most
    significant bits).

    >>> code = InterleavedCode(n=7, k=3, c=4, interleave=2)
    >>> word = code.encode([0x12, 0x34, 0x56])
    >>> word[:3]
    [18, 52, 86]
    >>> code.decode_subset({3: word[3], 5: word[5], 6: word[6]})
    [18, 52, 86]
    """

    def __init__(self, n: int, k: int, c: int, interleave: int):
        if interleave < 1:
            raise ValueError(
                "interleave depth must be >= 1, got %d" % interleave
            )
        self.rows = interleave
        self.base = ReedSolomonCode(n, k, c)
        self.n = n
        self.k = k
        self.c = c
        #: bits per (super-)symbol.
        self.symbol_bits = interleave * c
        #: exclusive upper bound on symbol values.
        self.symbol_limit = 1 << self.symbol_bits
        self.distance = self.base.distance
        self.field = self.base.field
        self._mask = (1 << c) - 1
        if self.symbol_bits <= INT64_LANE_BITS:
            #: row r's shift in its super-symbol (row 0 most significant).
            self._shifts = c * np.arange(
                interleave - 1, -1, -1, dtype=np.int64
            )[:, np.newaxis]
        else:
            # A wide super-symbol as big-endian 16-bit limbs: row r's
            # c <= 16 bits lie in the 32-bit window of limbs limb[r] and
            # limb[r] + 1, shifted up by shift[r] (at least 16 when the
            # row ends in limb[r], which may be the last: then the window
            # reads it twice and shifts the copy out).
            self._limbs = limbs = (self.symbol_bits + 15) // 16
            start = 16 * limbs - self.symbol_bits + c * np.arange(
                interleave, dtype=np.int64
            )
            self._limb = start // 16
            self._next_limb = np.minimum(self._limb + 1, limbs - 1)
            self._limb_shift = (32 - start % 16 - c)[:, np.newaxis]
            #: Which limb each row's high and low 16 bits land in; rows
            #: share no bit, so the sum of their halves is their OR (and
            #: exact in float64).  A low half past the last limb is zero.
            place = np.zeros((limbs + 1, 2 * interleave))
            place[self._limb, np.arange(interleave)] = 1
            place[self._limb + 1, np.arange(interleave, 2 * interleave)] = 1
            self._place = place[:limbs]

    # -- packing -----------------------------------------------------------------

    def _split_many(self, symbols: Sequence[int]) -> np.ndarray:
        """Unpack super-symbols into an ``(m, len(symbols))`` row array:
        shifts on int64 lanes for a super-symbol of at most
        :data:`~repro.utils.bits.INT64_LANE_BITS` bits, one byte-level
        repack through 16-bit limbs for a wider one."""
        symbols = list(symbols)
        if not symbols:
            return np.zeros((self.rows, 0), dtype=np.int64)
        if not (
            _EXACT_INT.issuperset(map(type, symbols))
            and min(symbols) >= 0 and max(symbols) < self.symbol_limit
        ):
            for index, symbol in enumerate(symbols):
                if type(symbol) is not int:
                    symbol = symbols[index] = engine_int(
                        symbol, "symbol", GFElementError
                    )
                if not 0 <= symbol < self.symbol_limit:
                    raise GFElementError(
                        "symbol %r outside [0, 2^%d)"
                        % (symbol, self.symbol_bits)
                    )
        if self.symbol_bits <= INT64_LANE_BITS:
            lanes = np.array(symbols, dtype=np.int64)
            return (lanes >> self._shifts) & self._mask
        width = 2 * self._limbs
        limbs = np.frombuffer(
            b"".join(map(int.to_bytes, symbols, repeat(width), repeat("big"))),
            dtype=">u2",
        ).reshape(len(symbols), self._limbs).T.astype(np.int64)
        windows = (limbs[self._limb] << 16) | limbs[self._next_limb]
        return (windows >> self._limb_shift) & self._mask

    def _join_many(self, rows: np.ndarray) -> List[int]:
        """Pack an ``(m, s)`` row array back into ``s`` super-symbols
        (the low ``c`` bits of each row value), by the packing rule of
        :meth:`_split_many`."""
        rows = np.asarray(rows, dtype=np.int64) & self._mask
        count = rows.shape[1]
        if count == 0:
            return []
        if self.symbol_bits <= INT64_LANE_BITS:
            return np.bitwise_or.reduce(rows << self._shifts).tolist()
        windows = rows << self._limb_shift  # each below 2^32
        halves = np.concatenate([windows >> 16, windows & 0xFFFF])
        limbs = (self._place @ halves).T.astype(">u2")
        return list(map(
            int.from_bytes,
            np.frombuffer(limbs.tobytes(), "V%d" % (2 * self._limbs)).tolist(),
            repeat("big"),
        ))

    def _split(self, symbol: int) -> List[int]:
        """Unpack a super-symbol into its ``m`` row symbols."""
        return [int(v) for v in self._split_many([symbol])[:, 0]]

    def _join(self, row_symbols: Sequence[int]) -> int:
        column = np.asarray(list(row_symbols), dtype=np.int64)
        return self._join_many(column[:, np.newaxis])[0]

    # -- ReedSolomonCode-compatible API -----------------------------------------------

    def encode(self, data: Sequence[int]) -> List[int]:
        """Encode ``k`` super-symbols into ``n`` super-symbols.

        All ``m`` rows are encoded by one generator matmat.
        """
        data = list(data)
        if len(data) != self.k:
            raise ValueError(
                "expected %d data symbols, got %d" % (self.k, len(data))
            )
        row_data = self._split_many(data)  # (m, k)
        return self._join_many(self.base.encode_many(row_data))

    def encode_generations(
        self, parts: Sequence[Sequence[int]]
    ) -> List[List[int]]:
        """Encode ``g`` independent ``k``-super-symbol parts in one matmat.

        All generations' rows are stacked into one
        ``(g * interleave, k)`` array so the whole batch is a single
        generator product — the ``(generations * rows, k)`` whole-run
        encode of the cohort engine.  Returns one ``n``-super-symbol
        codeword list per part.
        """
        count = len(parts)
        if count == 0:
            return []
        flat: List[int] = []
        for part in parts:
            part = list(part)
            if len(part) != self.k:
                raise ValueError(
                    "expected %d data symbols per part, got %d"
                    % (self.k, len(part))
                )
            flat.extend(part)
        rows = self._split_many(flat)  # (m, count*k)
        stacked = (
            rows.reshape(self.rows, count, self.k)
            .transpose(1, 0, 2)
            .reshape(count * self.rows, self.k)
        )
        words = self.base.encode_many(stacked)  # (count*m, n)
        merged = (
            words.reshape(count, self.rows, self.n)
            .transpose(1, 0, 2)
            .reshape(self.rows, count * self.n)
        )
        symbols = self._join_many(merged)  # count*n super-symbols
        return [
            symbols[g * self.n:(g + 1) * self.n] for g in range(count)
        ]

    def is_consistent(
        self, symbols: Dict[int, int], near: Optional[Sequence[int]] = None
    ) -> bool:
        """True iff every interleaved row is consistent with a codeword;
        counted, not interpolated, given a codeword ``near`` that agrees
        at ``>= k`` positions (:func:`~repro.coding.reed_solomon.\
agreement_answer`)."""
        if len(symbols) < self.k:
            return True
        if near is not None:
            answer = agreement_answer(self, symbols, near)
            if answer is not FAR:
                return answer is not None
        positions = sorted(symbols)
        values = self._split_many([symbols[p] for p in positions])
        if positions == list(range(self.n)):
            # All positions known: one parity-check syndrome matmat.
            return not self.base.syndrome_many(values).any()
        _, ok = self.base.codeword_through_many(positions, values)
        return bool(ok.all())

    def consistent_rows(
        self, positions: Sequence[int], rows: Sequence[Sequence[int]]
    ) -> np.ndarray:
        """Batched :meth:`is_consistent` over ``rows`` of super-symbols
        at the sorted ``positions``: every row's ``m`` interleaved rows
        go through one base ``codeword_through_many``."""
        count = len(rows)
        width = len(positions)
        if width < self.k or not count:
            return np.ones(count, dtype=bool)
        split = self._split_many([symbol for row in rows for symbol in row])
        stacked = (
            split.reshape(self.rows, count, width)
            .transpose(1, 0, 2)
            .reshape(count * self.rows, width)
        )
        _, ok = self.base.codeword_through_many(positions, stacked)
        return ok.reshape(count, self.rows).all(axis=1)

    def codeword_through(
        self, symbols: Dict[int, int], near: Optional[Sequence[int]] = None
    ) -> Optional[List[int]]:
        """The unique codeword through >= k positions, or None; counted,
        not interpolated, given a codeword ``near`` that agrees at
        ``>= k`` positions (:func:`~repro.coding.reed_solomon.\
agreement_answer`)."""
        if len(symbols) < self.k:
            raise ValueError(
                "need at least k=%d symbols, got %d" % (self.k, len(symbols))
            )
        if near is not None:
            answer = agreement_answer(self, symbols, near)
            if answer is not FAR:
                return answer
        positions = sorted(symbols)
        values = self._split_many([symbols[p] for p in positions])
        words, ok = self.base.codeword_through_many(positions, values)
        if not ok.all():
            return None
        return self._join_many(words)

    def decode_subset(self, symbols: Dict[int, int]) -> List[int]:
        """Recover the ``k`` data super-symbols from >= k positions."""
        word = self.codeword_through(symbols)
        if word is None:
            raise DecodingError(
                "interleaved symbol subset at positions %r lies on no "
                "codeword" % sorted(symbols)
            )
        return word[: self.k]

    def decode(self, codeword: Sequence[int]) -> List[int]:
        codeword = list(codeword)
        if len(codeword) != self.n:
            raise ValueError(
                "expected %d symbols, got %d" % (self.n, len(codeword))
            )
        return self.decode_subset(dict(enumerate(codeword)))

    def is_codeword(self, codeword: Sequence[int]) -> bool:
        codeword = list(codeword)
        if len(codeword) != self.n:
            return False
        return self.is_consistent(dict(enumerate(codeword)))

    def __repr__(self) -> str:
        return "InterleavedCode(n=%d, k=%d, c=%d, interleave=%d)" % (
            self.n,
            self.k,
            self.c,
            self.rows,
        )


def field_width(n: int, symbol_bits: int) -> int:
    """The field width ``c`` :func:`make_symbol_code` builds on, by
    arithmetic: ``symbol_bits`` up to 16, else the largest ``c <= 16``
    with ``n <= 2^c - 1`` and ``c | symbol_bits`` (fewest rows)."""
    c_min = min_symbol_bits(n)
    if symbol_bits < c_min:
        raise ValueError(
            "symbol width %d too small for n=%d (need >= %d)"
            % (symbol_bits, n, c_min)
        )
    for c in range(min(symbol_bits, 16), c_min - 1, -1):
        if symbol_bits % c == 0:
            return c
    raise ValueError(
        "symbol width %d has no field-width divisor in [%d, 16] for n=%d"
        % (symbol_bits, c_min, n)
    )


def make_symbol_code(n: int, k: int, symbol_bits: int):
    """A code with ``symbol_bits``-bit symbols over GF(2^c), ``c =``
    :func:`field_width`: plain RS, or interleaved when ``c`` is less."""
    c = field_width(n, symbol_bits)
    if c == symbol_bits:
        return ReedSolomonCode(n, k, c)
    return InterleavedCode(n, k, c, symbol_bits // c)
