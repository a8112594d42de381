"""Unit tests for bit/symbol packing helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.bits import (
    PackedBits,
    bits_to_int,
    int_to_bits,
    join_symbols,
    pack_symbols,
    split_symbols,
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


def per_bit_split(value, l_bits, width, count):
    """The value layout walked bit by bit: ``l_bits`` bits of ``value``,
    MSB first, zero-padded to ``count * width``, cut into symbols."""
    bits = [(value >> (l_bits - 1 - i)) & 1 for i in range(l_bits)]
    bits += [0] * (count * width - l_bits)
    return [
        sum(bit << (width - 1 - b)
            for b, bit in enumerate(bits[s * width:(s + 1) * width]))
        for s in range(count)
    ]


@st.composite
def layouts(draw):
    """``(value, l_bits, width, count)``: widths of 1 and above 64, L
    not a multiple of the width, and counts past the last symbol."""
    width = draw(st.one_of(
        st.just(1), st.integers(2, 16), st.integers(60, 200)
    ))
    l_bits = draw(st.integers(1, 700))
    count = -(-l_bits // width) + draw(st.integers(0, 2))
    value = draw(st.integers(0, (1 << l_bits) - 1))
    return value, l_bits, width, count


class TestValueLayout:
    @settings(max_examples=200, deadline=None)
    @given(layouts())
    def test_split_matches_per_bit_and_join_inverts(self, layout):
        value, l_bits, width, count = layout
        symbols = split_symbols(value, l_bits, width, count)
        assert symbols == per_bit_split(value, l_bits, width, count)
        assert join_symbols(symbols, width, l_bits) == value

    def test_the_cases_the_property_draws(self):
        assert split_symbols(0b101, 3, 1, 3) == [1, 0, 1]
        assert split_symbols(0xABC, 12, 8, 2) == [0xAB, 0xC0]
        assert join_symbols([0xAB, 0xC0], 8, 12) == 0xABC
        wide = (1 << 99) | 1
        assert split_symbols(wide, 100, 70, 2) == [1 << 69, 1 << 40]

    def test_too_few_symbols_or_too_wide_a_value_refused(self):
        with pytest.raises(ValueError):
            split_symbols(0, 9, 4, 2)
        with pytest.raises(ValueError):
            split_symbols(1 << 8, 8, 4, 2)
        with pytest.raises(ValueError):
            split_symbols(-1, 8, 4, 2)


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
