"""Bit- and symbol-packing helpers.

The consensus protocol views an L-bit value as a sequence of generations,
each generation as a vector of ``k = n - 2t`` symbols from ``GF(2^c)``.
These helpers convert between Python integers, bit lists and symbol
vectors deterministically (big-endian bit order throughout), so that
every processor derives an identical symbol view of the same input;
:func:`split_symbols`/:func:`join_symbols` are the one home of the value
layout, an L-bit value as zero-padded symbols.

Wide conversions (multi-kilobit values, the protocol's per-run plumbing)
run through ``np.unpackbits``/``np.packbits`` on the value's big-endian
byte form instead of per-bit Python loops; narrow ones keep the original
string-formatting fast path, which beats numpy's per-call overhead below
a few machine words.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

#: Below this width the pure-Python string paths win over numpy call
#: overhead; above it the vectorised byte paths win by orders of magnitude.
_VECTOR_THRESHOLD_BITS = 64

#: The widest symbol an int64 lane carries: its shifts and masks never
#: reach the sign bit.  Wider symbols stay exact Python ints, or bytes.
INT64_LANE_BITS = 62


def _bit_array(value: int, width: int) -> np.ndarray:
    """``width`` bits of ``value`` as a uint8 array, MSB first."""
    if width == 0:
        return np.zeros(0, dtype=np.uint8)
    nbytes = (width + 7) // 8
    raw = value.to_bytes(nbytes, "big")
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8))
    return bits[8 * nbytes - width:]


def _int_of_bit_array(bits: np.ndarray) -> int:
    """Inverse of :func:`_bit_array` (MSB first)."""
    width = bits.shape[0]
    if width == 0:
        return 0
    pad = (-width) % 8
    if pad:
        bits = np.concatenate([np.zeros(pad, dtype=np.uint8), bits])
    return int.from_bytes(np.packbits(bits).tobytes(), "big")


class PackedBits:
    """A length-aware packed bit row: ``np.packbits`` uint8 lanes.

    The data plane's wire format for a "row of bits" — M-flags, Trust
    vectors, symbol bit-planes.  Bits are MSB-first within each lane
    byte (numpy's default ``bitorder="big"``), matching the repo-wide
    big-endian convention, and the tail bits of the final lane byte are
    zero by construction, so lane equality never needs masking.

    ``from_int``/``to_int`` write and read the lanes as the value's
    big-endian bytes, so a several-hundred-bit super-symbol packs into
    lanes without ever touching an int64 or an unpacked bit.

    Instances are treated as immutable once constructed; holders may
    share them freely (the ideal backend hands the *same* row object to
    every honest receiver).
    """

    __slots__ = ("lanes", "length")

    def __init__(self, lanes: np.ndarray, length: int) -> None:
        if lanes.dtype != np.uint8 or lanes.ndim != 1:
            raise ValueError("lanes must be a 1-D uint8 array")
        if lanes.shape[0] != (length + 7) // 8:
            raise ValueError(
                "%d lane bytes cannot hold exactly %d bits"
                % (lanes.shape[0], length)
            )
        self.lanes = lanes
        self.length = length

    @classmethod
    def _of(cls, lanes: np.ndarray, length: int) -> "PackedBits":
        """A row over lanes this class built itself (uint8, exactly
        enough of them, zero tail), so nothing is re-validated."""
        row = object.__new__(cls)
        row.lanes = lanes
        row.length = length
        return row

    # -- constructors -------------------------------------------------

    @classmethod
    def from_bits(cls, bits: Sequence[int]) -> "PackedBits":
        """Pack a validated 0/1 sequence (list, tuple or array)."""
        arr = np.asarray(bits)
        if arr.ndim != 1:
            raise ValueError("bits must be one-dimensional")
        if arr.dtype != np.bool_ and not np.issubdtype(arr.dtype, np.integer):
            # Exotic element types: validate with exact scalar semantics
            # before any lossy numpy cast (mirrors bits_to_int).
            if any(bit not in (0, 1) for bit in bits):
                bad = next(bit for bit in bits if bit not in (0, 1))
                raise ValueError("bits must be 0 or 1, got %r" % (bad,))
            # The uint8 dtype also covers the empty row, which numpy
            # would otherwise default to float64.
            arr = np.asarray(
                [1 if bit else 0 for bit in bits], dtype=np.uint8
            )
        elif arr.size and (
            arr.dtype != np.bool_ and ((arr < 0) | (arr > 1)).any()
        ):
            bad_mask = (arr < 0) | (arr > 1)
            raise ValueError(
                "bits must be 0 or 1, got %r" % (int(arr[bad_mask][0]),)
            )
        return cls._of(np.packbits(arr), int(arr.shape[0]))

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "PackedBits":
        """Pack a trusted uint8/bool 0/1 array without validation."""
        return cls(np.packbits(arr), int(arr.shape[0]))

    @classmethod
    def from_int(cls, value: int, width: int) -> "PackedBits":
        """``width`` MSB-first bits of a (possibly huge) ``value``: the
        value shifted onto whole lane bytes (the tail bits zero) and
        written big-endian, one buffer read."""
        if width < 0:
            raise ValueError("width must be non-negative, got %d" % width)
        if value < 0:
            raise ValueError("value must be non-negative, got %d" % value)
        if value >> width:
            raise ValueError(
                "value %d does not fit in %d bits" % (value, width)
            )
        nbytes = (width + 7) >> 3
        raw = (value << (8 * nbytes - width)).to_bytes(nbytes, "big")
        return cls._of(np.frombuffer(raw, dtype=np.uint8), width)

    @classmethod
    def zeros(cls, length: int) -> "PackedBits":
        if length < 0:
            raise ValueError("length must be non-negative, got %d" % length)
        return cls._of(np.zeros((length + 7) // 8, dtype=np.uint8), length)

    # -- views --------------------------------------------------------

    def to_array(self) -> np.ndarray:
        """The row as a fresh uint8 0/1 array of exactly ``length``."""
        return np.unpackbits(self.lanes, count=self.length)

    def tolist(self) -> List[int]:
        return self.to_array().tolist()

    def to_int(self) -> int:
        """The row as a big integer, first bit most significant: the
        lanes read big-endian, the zero tail shifted off."""
        return int.from_bytes(self.lanes.tobytes(), "big") >> (
            -self.length & 7
        )

    # -- sequence protocol --------------------------------------------

    def __len__(self) -> int:
        return self.length

    def __iter__(self):
        return iter(self.tolist())

    def __getitem__(self, index):
        if isinstance(index, slice):
            return PackedBits.from_array(self.to_array()[index])
        if index < 0:
            index += self.length
        if not 0 <= index < self.length:
            raise IndexError("bit index out of range")
        return int((self.lanes[index >> 3] >> (7 - (index & 7))) & 1)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PackedBits):
            return NotImplemented
        return self.length == other.length and bool(
            np.array_equal(self.lanes, other.lanes)
        )

    def __hash__(self) -> int:
        return hash((self.length, self.lanes.tobytes()))

    def __repr__(self) -> str:
        shown = "".join(str(b) for b in self.tolist()[:64])
        if self.length > 64:
            shown += "..."
        return "PackedBits(%d: %s)" % (self.length, shown)


def ints_to_bit_matrix(values: Sequence[int], width: int) -> np.ndarray:
    """Render ``len(values)`` non-negative ints as a ``(len, width)`` uint8
    bit matrix, MSB first.  Values must fit in ``width`` bits (checked by
    the callers).  The shared primitive behind wide symbol packing here
    and super-symbol row packing in the interleaved code."""
    count = len(values)
    if count == 0 or width == 0:
        return np.zeros((count, width), dtype=np.uint8)
    nbytes = (width + 7) // 8
    raw = b"".join(int(v).to_bytes(nbytes, "big") for v in values)
    octets = np.frombuffer(raw, dtype=np.uint8).reshape(count, nbytes)
    return np.unpackbits(octets, axis=1)[:, 8 * nbytes - width:]


def bit_matrix_to_ints(bits: np.ndarray) -> List[int]:
    """Inverse of :func:`ints_to_bit_matrix`: ``(count, width)`` uint8 bit
    rows (MSB first) back to a list of Python ints."""
    count, width = bits.shape
    if count == 0 or width == 0:
        return [0] * count
    pad = (-width) % 8
    if pad:
        bits = np.concatenate(
            [np.zeros((count, pad), dtype=np.uint8), bits], axis=1
        )
    data = np.packbits(bits, axis=1).tobytes()
    nbytes = (width + pad) // 8
    return [
        int.from_bytes(data[i * nbytes:(i + 1) * nbytes], "big")
        for i in range(count)
    ]


def int_to_bits(value: int, width: int) -> List[int]:
    """Return ``width`` bits of ``value``, most-significant bit first.

    Raises ``ValueError`` if ``value`` does not fit in ``width`` bits or is
    negative.
    """
    if width < 0:
        raise ValueError("width must be non-negative, got %d" % width)
    if value < 0:
        raise ValueError("value must be non-negative, got %d" % value)
    if value >> width:
        raise ValueError("value %d does not fit in %d bits" % (value, width))
    if width == 0:
        return []
    if width <= _VECTOR_THRESHOLD_BITS:
        # String formatting runs in C and avoids the quadratic cost of
        # shifting a large int once per bit position.
        return [1 if ch == "1" else 0 for ch in format(value, "0%db" % width)]
    return _bit_array(value, width).tolist()


def bits_to_int(bits: Sequence[int]) -> int:
    """Inverse of :func:`int_to_bits` (most-significant bit first)."""
    bits = list(bits)
    if not bits:
        return 0
    if len(bits) <= _VECTOR_THRESHOLD_BITS:
        if any(bit not in (0, 1) for bit in bits):
            bad = next(bit for bit in bits if bit not in (0, 1))
            raise ValueError("bits must be 0 or 1, got %r" % (bad,))
        # int(str, 2) parses in C; joining digits beats per-bit shifting of
        # a growing big integer.
        return int("".join("1" if bit else "0" for bit in bits), 2)
    arr = np.asarray(bits)
    if arr.ndim == 1 and (
        arr.dtype == np.bool_ or np.issubdtype(arr.dtype, np.integer)
    ):
        bad_mask = (arr < 0) | (arr > 1)
        if bad_mask.any():
            raise ValueError(
                "bits must be 0 or 1, got %r" % (int(arr[bad_mask][0]),)
            )
    else:
        # Exotic element types (floats, strings, objects): validate with
        # the exact scalar semantics before any lossy numpy cast.
        if any(bit not in (0, 1) for bit in bits):
            bad = next(bit for bit in bits if bit not in (0, 1))
            raise ValueError("bits must be 0 or 1, got %r" % (bad,))
        arr = np.asarray([1 if bit else 0 for bit in bits])
    return _int_of_bit_array(arr.astype(np.uint8))


def pack_symbols(symbols: Sequence[int], symbol_bits: int) -> int:
    """Pack a symbol vector into a single integer, first symbol high."""
    if symbol_bits <= 0:
        raise ValueError("symbol_bits must be positive, got %d" % symbol_bits)
    symbols = list(symbols)
    for symbol in symbols:
        if symbol < 0 or symbol >> symbol_bits:
            raise ValueError(
                "symbol %d does not fit in %d bits" % (symbol, symbol_bits)
            )
    total_bits = len(symbols) * symbol_bits
    if total_bits <= _VECTOR_THRESHOLD_BITS:
        value = 0
        for symbol in symbols:
            value = (value << symbol_bits) | symbol
        return value
    # Render each symbol to a bit row, concatenate, and re-pack — linear
    # in the total bit count, unlike big-int shifting which is quadratic
    # in the number of symbols.
    bits = ints_to_bit_matrix(symbols, symbol_bits)
    return _int_of_bit_array(bits.reshape(total_bits))


def unpack_symbols(value: int, count: int, symbol_bits: int) -> List[int]:
    """Inverse of :func:`pack_symbols`.

    Splits ``value`` into ``count`` symbols of ``symbol_bits`` bits each.
    """
    if symbol_bits <= 0:
        raise ValueError("symbol_bits must be positive, got %d" % symbol_bits)
    if count < 0:
        raise ValueError("count must be non-negative, got %d" % count)
    total_bits = count * symbol_bits
    if value < 0 or (total_bits < value.bit_length()):
        raise ValueError(
            "value %d does not fit in %d symbols of %d bits"
            % (value, count, symbol_bits)
        )
    if total_bits <= _VECTOR_THRESHOLD_BITS:
        mask = (1 << symbol_bits) - 1
        return [
            (value >> ((count - 1 - i) * symbol_bits)) & mask
            for i in range(count)
        ]
    bits = _bit_array(value, total_bits).reshape(count, symbol_bits)
    if symbol_bits <= INT64_LANE_BITS:
        weights = 1 << np.arange(symbol_bits - 1, -1, -1, dtype=np.int64)
        return (bits.astype(np.int64) @ weights).tolist()
    # Wide symbols (the protocol's multi-hundred-bit super-symbols) cannot
    # live in int64 lanes: read each bit row back as a big int.
    return bit_matrix_to_ints(bits)


def split_symbols(
    value: int, l_bits: int, width: int, count: int
) -> List[int]:
    """The value layout: an ``l_bits``-bit ``value`` right-padded with
    zeros to ``count * width`` bits, as ``count`` symbols of ``width``
    bits, first symbol most significant.

    Algorithm 1's generations, the §4 broadcast's symbol stream, the
    Fitzi-Hirt delivery and the polynomial hash's chunks are this one
    layout under their own width and count.
    """
    pad = count * width - l_bits
    if pad < 0:
        raise ValueError(
            "%d symbols of %d bits cannot hold %d bits"
            % (count, width, l_bits)
        )
    return unpack_symbols(value << pad, count, width)


def join_symbols(symbols: Sequence[int], width: int, l_bits: int) -> int:
    """Inverse of :func:`split_symbols`: the symbols packed, first one
    high, with the padding beyond ``l_bits`` shifted off."""
    return pack_symbols(symbols, width) >> max(
        0, len(symbols) * width - l_bits
    )
