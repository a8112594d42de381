"""Interleaved Reed-Solomon codes: wide symbols via row stacking."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding.gf import GFElementError
from repro.coding.interleaved import InterleavedCode, make_symbol_code
from repro.coding.reed_solomon import DecodingError, ReedSolomonCode
from repro.utils.bits import ints_to_bit_matrix


@pytest.fixture(scope="module")
def code():
    return InterleavedCode(n=7, k=3, c=4, interleave=3)  # 12-bit symbols


class TestConstruction:
    def test_symbol_width(self, code):
        assert code.symbol_bits == 12
        assert code.symbol_limit == 1 << 12

    def test_distance_preserved(self, code):
        assert code.distance == 5

    def test_bad_interleave(self):
        with pytest.raises(ValueError):
            InterleavedCode(7, 3, 4, 0)

    def test_repr(self, code):
        assert "interleave=3" in repr(code)

    def test_single_row_matches_plain(self):
        plain = ReedSolomonCode(7, 3, 4)
        inter = InterleavedCode(7, 3, 4, 1)
        data = [1, 9, 14]
        assert inter.encode(data) == plain.encode(data)


class TestEncodeDecode:
    def test_systematic(self, code):
        data = [0x123, 0xABC, 0x777]
        word = code.encode(data)
        assert word[:3] == data

    def test_decode_every_k_subset(self, code):
        data = [0xFFF, 0x001, 0x5A5]
        word = code.encode(data)
        for subset in itertools.combinations(range(7), 3):
            assert code.decode_subset(
                {pos: word[pos] for pos in subset}
            ) == data

    def test_full_decode(self, code):
        data = [1, 2, 3]
        assert code.decode(code.encode(data)) == data

    def test_wrong_data_length(self, code):
        with pytest.raises(ValueError):
            code.encode([1, 2])

    def test_symbol_overflow_rejected(self, code):
        with pytest.raises(ValueError):
            code.encode([1 << 12, 0, 0])

    def test_decode_wrong_length(self, code):
        with pytest.raises(ValueError):
            code.decode([0] * 6)


class TestConsistency:
    def test_codeword_consistent(self, code):
        word = code.encode([0x111, 0x222, 0x333])
        assert code.is_codeword(word)

    def test_any_row_corruption_detected(self, code):
        word = code.encode([0x111, 0x222, 0x333])
        # Flip one bit in each of the three row lanes of position 5.
        for row in range(3):
            tampered = dict(enumerate(word))
            tampered[5] ^= 1 << (4 * row)
            assert not code.is_consistent(tampered)

    def test_sub_k_vacuous(self, code):
        assert code.is_consistent({0: 1, 1: 2})

    def test_corrupt_decode_raises(self, code):
        word = code.encode([7, 8, 9])
        symbols = {pos: word[pos] for pos in range(5)}
        symbols[0] ^= 0x100
        with pytest.raises(DecodingError):
            code.decode_subset(symbols)

    def test_is_codeword_wrong_length(self, code):
        assert not code.is_codeword([0] * 6)


class TestMakeSymbolCode:
    def test_direct_field_width(self):
        code = make_symbol_code(7, 3, 8)
        assert isinstance(code, ReedSolomonCode)
        assert code.symbol_bits == 8

    def test_wide_symbols_interleave(self):
        code = make_symbol_code(7, 3, 48)
        assert isinstance(code, InterleavedCode)
        assert code.symbol_bits == 48

    def test_prefers_largest_field(self):
        code = make_symbol_code(7, 3, 32)
        assert code.c == 16
        assert code.rows == 2

    def test_too_narrow_rejected(self):
        with pytest.raises(ValueError):
            make_symbol_code(7, 3, 2)  # needs >= 3 bits for n=7

    def test_indivisible_width_rejected(self):
        # 17 is prime and > 16: no divisor in [3, 16].
        with pytest.raises(ValueError):
            make_symbol_code(7, 3, 17)

    @pytest.mark.parametrize("width", [3, 4, 8, 15, 16, 24, 30, 33, 48, 96])
    def test_roundtrip_many_widths(self, width):
        code = make_symbol_code(7, 3, width)
        data = [(1 << width) - 1, 0, 1 << (width // 2)]
        word = code.encode(data)
        assert code.decode_subset({1: word[1], 4: word[4], 6: word[6]}) == data


class TestHypothesis:
    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_roundtrip(self, data):
        code = InterleavedCode(7, 3, 4, 2)
        payload = data.draw(
            st.lists(st.integers(0, 255), min_size=3, max_size=3)
        )
        subset = data.draw(st.sets(st.integers(0, 6), min_size=3, max_size=7))
        word = code.encode(payload)
        assert code.decode_subset({p: word[p] for p in subset}) == payload

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_corruption_detected(self, data):
        code = InterleavedCode(7, 3, 4, 2)
        payload = data.draw(
            st.lists(st.integers(0, 255), min_size=3, max_size=3)
        )
        word = code.encode(payload)
        subset = data.draw(st.sets(st.integers(0, 6), min_size=4, max_size=7))
        victim = data.draw(st.sampled_from(sorted(subset)))
        delta = data.draw(st.integers(1, 255))
        symbols = {p: word[p] for p in subset}
        symbols[victim] ^= delta
        assert not code.is_consistent(symbols)


class TestNonSymbolsRefused:
    """Super-symbols are integers: a float is refused, not truncated, and
    an out-of-range one is a :class:`GFElementError` (a ``ValueError``)."""

    def test_float_symbol_refused(self, code):
        with pytest.raises(GFElementError):
            code.decode_subset({0: 1.5, 1: 2, 2: 3})
        word = code.encode([1, 2, 3])
        with pytest.raises(GFElementError):
            code.is_codeword([word[0] + 0.5] + word[1:])

    def test_out_of_range_symbol_is_a_field_error(self, code):
        with pytest.raises(GFElementError):
            code.encode([1 << code.symbol_bits, 0, 0])

    def test_bool_symbol_refused(self, code):
        # True is not the symbol 1, in a data part or a received word.
        with pytest.raises(GFElementError):
            code.encode([True, 2, 3])
        with pytest.raises(GFElementError):
            code.decode_subset({0: True, 1: 2, 2: 3})

    def test_numpy_integers_read_as_ints(self, code):
        word = code.encode([1, 2, 3])
        symbols = {p: np.int64(word[p]) for p in (0, 3, 5)}
        assert code.decode_subset(symbols) == [1, 2, 3]


#: ``(c, interleave)`` shapes of super-symbols 1 to 200 bits wide,
#: field widths 1 to 16 (most not a multiple of 8).
_PACKING_SHAPES = [
    (c, rows) for c in range(1, 17) for rows in range(1, 200 // c + 1)
]
#: The int64 lane's edge: 62 bits is the widest it carries, 63 and 64
#: go through 16-bit limbs.
_LANE_EDGE = [(2, 31), (1, 62), (7, 9), (9, 7), (3, 21), (8, 8), (16, 4)]


def _reference_rows(symbols, c, rows):
    """The ``(rows, s)`` row symbols by way of the bit matrix."""
    bits = ints_to_bit_matrix(symbols, c * rows).reshape(
        len(symbols), rows, c
    )
    weights = 1 << np.arange(c - 1, -1, -1, dtype=np.int64)
    return (bits.astype(np.int64) @ weights).T


@settings(max_examples=300, deadline=None)
@given(
    shape=st.one_of(
        st.sampled_from(_LANE_EDGE), st.sampled_from(_PACKING_SHAPES)
    ),
    data=st.data(),
)
def test_split_and_join_agree_with_the_bit_matrix(shape, data):
    """Shifts on int64 lanes up to 62 bits and 16-bit limbs beyond split
    a super-symbol into the rows its bit matrix holds, and join them
    back, at every width from 1 to 200 bits."""
    c, rows = shape
    code = InterleavedCode(n=1, k=1, c=c, interleave=rows)
    top = code.symbol_limit - 1
    symbols = data.draw(st.lists(
        st.one_of(st.integers(0, top), st.sampled_from([0, top])),
        max_size=12,
    ))
    split = code._split_many(symbols)
    assert split.shape == (rows, len(symbols))
    assert split.dtype == np.int64
    assert np.array_equal(split, _reference_rows(symbols, c, rows))
    assert code._join_many(split) == symbols


@pytest.mark.parametrize("shape", _LANE_EDGE + [(12, 15), (13, 39)])
@pytest.mark.parametrize(
    "bad", [-1, "limit", True, 1.0, "1", None], ids=repr
)
def test_a_bad_symbol_is_refused_at_every_width(shape, bad):
    """An out-of-range or non-int symbol is a :class:`GFElementError`
    on either side of the int64 lane, wherever it sits in the list."""
    c, rows = shape
    code = InterleavedCode(n=1, k=1, c=c, interleave=rows)
    bad = code.symbol_limit if bad == "limit" else bad
    with pytest.raises(GFElementError):
        code._split_many([1, bad, 2])


@pytest.mark.parametrize("shape", [(2, 31), (7, 9), (12, 15)])
def test_numpy_integers_split_as_ints(shape):
    c, rows = shape
    code = InterleavedCode(n=1, k=1, c=c, interleave=rows)
    symbols = [5, (1 << code.symbol_bits) - 1]
    assert np.array_equal(
        code._split_many([np.int64(5), symbols[1]]),
        code._split_many(symbols),
    )
