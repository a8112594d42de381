"""Unit tests for bit/symbol packing helpers."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.utils.bits import (
    PackedBits,
    bits_to_int,
    bytes_to_symbols,
    int_to_bits,
    pack_symbols,
    symbols_to_bytes,
    unpack_symbols,
)


class TestIntToBits:
    def test_zero(self):
        assert int_to_bits(0, 4) == [0, 0, 0, 0]

    def test_msb_first(self):
        assert int_to_bits(0b1010, 4) == [1, 0, 1, 0]

    def test_leading_zeros(self):
        assert int_to_bits(1, 8) == [0] * 7 + [1]

    def test_zero_width(self):
        assert int_to_bits(0, 0) == []

    def test_overflow_rejected(self):
        with pytest.raises(ValueError):
            int_to_bits(16, 4)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            int_to_bits(-1, 4)

    def test_negative_width_rejected(self):
        with pytest.raises(ValueError):
            int_to_bits(0, -1)


class TestBitsToInt:
    def test_empty(self):
        assert bits_to_int([]) == 0

    def test_msb_first(self):
        assert bits_to_int([1, 0, 1, 0]) == 0b1010

    def test_bad_bit_rejected(self):
        with pytest.raises(ValueError):
            bits_to_int([0, 2, 1])

    @given(st.integers(min_value=0, max_value=2**64 - 1))
    def test_roundtrip(self, value):
        assert bits_to_int(int_to_bits(value, 64)) == value


class TestPackSymbols:
    def test_single(self):
        assert pack_symbols([5], 4) == 5

    def test_order_first_symbol_high(self):
        assert pack_symbols([1, 2], 4) == 0x12

    def test_symbol_overflow_rejected(self):
        with pytest.raises(ValueError):
            pack_symbols([16], 4)

    def test_zero_symbol_bits_rejected(self):
        with pytest.raises(ValueError):
            pack_symbols([0], 0)

    @given(
        st.lists(st.integers(min_value=0, max_value=255), max_size=16),
    )
    def test_roundtrip(self, symbols):
        packed = pack_symbols(symbols, 8)
        assert unpack_symbols(packed, len(symbols), 8) == symbols


class TestUnpackSymbols:
    def test_empty(self):
        assert unpack_symbols(0, 0, 4) == []

    def test_value(self):
        assert unpack_symbols(0xABC, 3, 4) == [0xA, 0xB, 0xC]

    def test_too_large_rejected(self):
        with pytest.raises(ValueError):
            unpack_symbols(1 << 12, 3, 4)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            unpack_symbols(0, -1, 4)


class TestByteConversions:
    def test_bytes_roundtrip(self):
        data = bytes([1, 2, 3, 4])
        symbols = bytes_to_symbols(data, 8)
        assert symbols == [1, 2, 3, 4]
        assert symbols_to_bytes(symbols, 8) == data

    def test_sub_byte_symbols(self):
        assert bytes_to_symbols(b"\xab", 4) == [0xA, 0xB]

    def test_indivisible_rejected(self):
        with pytest.raises(ValueError):
            bytes_to_symbols(b"\xab", 3)

    def test_partial_byte_rejected(self):
        with pytest.raises(ValueError):
            symbols_to_bytes([1, 2, 3], 4)  # 12 bits, not whole bytes

    @given(st.binary(max_size=64))
    def test_roundtrip_various(self, data):
        for width in (4, 8, 16):
            if (8 * len(data)) % width == 0:
                assert symbols_to_bytes(
                    bytes_to_symbols(data, width), width
                ) == data


class TestPackedBits:
    """The packed wire-format row type (the data plane's bit rows)."""

    @pytest.mark.parametrize("length", [1, 3, 5, 7, 9, 13, 30, 127])
    def test_roundtrip_non_multiple_of_eight(self, length):
        bits = [(i * 5 + 3) % 2 for i in range(length)]
        row = PackedBits.from_bits(bits)
        assert len(row) == length
        assert row.tolist() == bits
        assert list(row) == bits
        assert row.to_int() == bits_to_int(bits)
        assert PackedBits.from_int(row.to_int(), length) == row

    def test_int_roundtrip_every_width(self):
        """``from_int`` / ``to_int`` write and read the lanes as the
        value's big-endian bytes: every width up to 300, byte tails or
        not, at 0, at 2^w - 1 and at a value with both end bits set."""
        for width in range(301):
            top = (1 << width) - 1
            for value in {0, top, (1 << (width - 1)) | 1 if width else 0}:
                row = PackedBits.from_int(value, width)
                bits = int_to_bits(value, width)
                assert len(row) == width
                assert row.lanes.shape == ((width + 7) // 8,)
                assert row.to_int() == value
                assert row.tolist() == bits
                assert row == PackedBits.from_bits(bits)
            with pytest.raises(ValueError):
                PackedBits.from_int(top + 1, width)
            with pytest.raises(ValueError):
                PackedBits.from_int(-1, width)

    def test_tail_bits_zero_by_construction(self):
        row = PackedBits.from_bits([1] * 5)
        assert row.lanes.shape == (1,)
        assert int(row.lanes[0]) == 0b11111000

    def test_zero_length_row(self):
        row = PackedBits.from_bits([])
        assert len(row) == 0
        assert row.tolist() == []
        assert row.to_int() == 0
        assert row.lanes.shape == (0,)
        assert row == PackedBits.zeros(0)
        assert (row ^ row) == row
        assert row.popcount() == 0

    def test_widest_super_symbol_object_dtype_fallback(self):
        # A multi-hundred-bit interleaved super-symbol cannot live in an
        # int64 lane; from_int/to_int must stay big-int exact.
        width = 567  # not a multiple of 8, wider than any machine word
        value = (1 << (width - 1)) | (1 << 300) | 0b1011
        row = PackedBits.from_int(value, width)
        assert len(row) == width
        assert row.to_int() == value
        assert row[0] == 1
        assert row.tolist() == int_to_bits(value, width)
        assert row.popcount() == bin(value).count("1")

    def test_from_int_rejects_overflow_and_negatives(self):
        with pytest.raises(ValueError):
            PackedBits.from_int(8, 3)
        with pytest.raises(ValueError):
            PackedBits.from_int(-1, 3)
        with pytest.raises(ValueError):
            PackedBits.from_int(0, -1)

    def test_from_bits_validates(self):
        with pytest.raises(ValueError):
            PackedBits.from_bits([0, 2, 1])
        with pytest.raises(ValueError):
            PackedBits.from_bits([0, -1])
        with pytest.raises(ValueError):
            PackedBits.from_bits([[0, 1]])

    def test_lane_length_consistency_enforced(self):
        with pytest.raises(ValueError):
            PackedBits(np.zeros(2, dtype=np.uint8), 3)
        with pytest.raises(ValueError):
            PackedBits(np.zeros(1, dtype=np.int64), 8)

    def test_xor_and_popcount(self):
        a = PackedBits.from_bits([1, 0, 1, 1, 0])
        b = PackedBits.from_bits([0, 0, 1, 0, 1])
        assert (a ^ b).tolist() == [1, 0, 0, 1, 1]
        assert (a ^ b).popcount() == 3
        with pytest.raises(ValueError):
            a ^ PackedBits.from_bits([1, 0])

    def test_getitem_and_slice(self):
        row = PackedBits.from_bits([1, 0, 1, 1, 0, 0, 1, 0, 1])
        assert row[0] == 1
        assert row[8] == 1
        assert row[-1] == 1
        assert row[2:6].tolist() == [1, 1, 0, 0]
        with pytest.raises(IndexError):
            row[9]

    def test_equality_and_hash(self):
        a = PackedBits.from_bits([1, 0, 1])
        b = PackedBits.from_int(0b101, 3)
        assert a == b and hash(a) == hash(b)
        # Same lanes, different declared length: distinct rows.
        assert PackedBits.zeros(3) != PackedBits.zeros(4)
        assert a != PackedBits.from_bits([1, 0, 1, 0])

    @given(st.integers(min_value=0, max_value=2**200 - 1))
    def test_roundtrip_wide_values(self, value):
        row = PackedBits.from_int(value, 200)
        assert row.to_int() == value
        assert PackedBits.from_bits(row.tolist()) == row
