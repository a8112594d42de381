"""Reed-Solomon code tests: the three operations Algorithm 1 relies on."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding.gf import GFElementError
from repro.coding.reed_solomon import (
    DecodingError,
    ReedSolomonCode,
    min_symbol_bits,
)


@pytest.fixture(scope="module")
def code():
    # The paper's C_2t for n=7, t=2: (7, 3) over GF(2^4).
    return ReedSolomonCode(n=7, k=3, c=4)


class TestMinSymbolBits:
    def test_small(self):
        assert min_symbol_bits(1) == 1
        assert min_symbol_bits(3) == 2
        assert min_symbol_bits(7) == 3
        assert min_symbol_bits(8) == 4

    def test_boundaries(self):
        assert min_symbol_bits(15) == 4
        assert min_symbol_bits(16) == 5
        assert min_symbol_bits(255) == 8
        assert min_symbol_bits(256) == 9

    def test_invalid(self):
        with pytest.raises(ValueError):
            min_symbol_bits(0)


class TestConstruction:
    def test_default_field_width(self):
        assert ReedSolomonCode(7, 3).c == 3

    def test_distance(self, code):
        assert code.distance == 5  # n - k + 1 = 2t + 1 for t=2

    def test_symbol_limit(self, code):
        assert code.symbol_limit == 16
        assert code.symbol_bits == 4

    def test_n_too_large_for_field(self):
        with pytest.raises(ValueError):
            ReedSolomonCode(16, 3, 4)  # needs n <= 15 in GF(2^4)

    def test_k_larger_than_n(self):
        with pytest.raises(ValueError):
            ReedSolomonCode(3, 4)

    def test_k_zero(self):
        with pytest.raises(ValueError):
            ReedSolomonCode(3, 0)

    def test_distinct_evaluation_points(self, code):
        assert len(set(code.points)) == code.n
        assert 0 not in code.points

    def test_repr(self, code):
        assert "n=7" in repr(code) and "k=3" in repr(code)


class TestEncode:
    def test_systematic(self, code):
        word = code.encode([1, 2, 3])
        assert word[:3] == [1, 2, 3]

    def test_zero_data(self, code):
        assert code.encode([0, 0, 0]) == [0] * 7

    def test_linearity(self, code):
        w1 = code.encode([1, 2, 3])
        w2 = code.encode([4, 5, 6])
        sum_word = code.encode([1 ^ 4, 2 ^ 5, 3 ^ 6])
        assert sum_word == [a ^ b for a, b in zip(w1, w2)]

    def test_wrong_length_rejected(self, code):
        with pytest.raises(ValueError):
            code.encode([1, 2])

    def test_distinct_data_distinct_words(self, code):
        w1 = code.encode([1, 2, 3])
        w2 = code.encode([1, 2, 4])
        differing = sum(1 for a, b in zip(w1, w2) if a != b)
        assert differing >= code.distance


class TestDecodeSubset:
    def test_every_k_subset(self, code):
        word = code.encode([9, 4, 13])
        for subset in itertools.combinations(range(7), 3):
            symbols = {pos: word[pos] for pos in subset}
            assert code.decode_subset(symbols) == [9, 4, 13]

    def test_oversized_subsets(self, code):
        word = code.encode([5, 6, 7])
        for size in (4, 5, 6, 7):
            subset = list(range(size))
            symbols = {pos: word[pos] for pos in subset}
            assert code.decode_subset(symbols) == [5, 6, 7]

    def test_corrupt_symbol_detected(self, code):
        word = code.encode([1, 1, 1])
        symbols = {pos: word[pos] for pos in range(5)}
        symbols[4] ^= 1
        with pytest.raises(DecodingError):
            code.decode_subset(symbols)

    def test_too_few_symbols_rejected(self, code):
        word = code.encode([1, 2, 3])
        with pytest.raises(ValueError):
            code.decode_subset({0: word[0], 1: word[1]})

    def test_full_decode(self, code):
        word = code.encode([3, 1, 4])
        assert code.decode(word) == [3, 1, 4]

    def test_full_decode_wrong_length(self, code):
        with pytest.raises(ValueError):
            code.decode([0] * 6)


class TestConsistency:
    def test_codeword_consistent(self, code):
        word = code.encode([2, 7, 1])
        assert code.is_consistent(dict(enumerate(word)))

    def test_sub_k_vacuous(self, code):
        assert code.is_consistent({0: 5, 1: 9})

    def test_exactly_k_always_consistent(self, code):
        # Any k symbols lie on some codeword (dimension k).
        assert code.is_consistent({0: 1, 3: 2, 6: 3})

    def test_corruption_breaks_consistency(self, code):
        word = code.encode([2, 7, 1])
        for pos in range(7):
            tampered = dict(enumerate(word))
            tampered[pos] ^= 3
            assert not code.is_consistent(tampered)

    def test_is_codeword(self, code):
        word = code.encode([1, 2, 3])
        assert code.is_codeword(word)
        assert not code.is_codeword(word[:-1])
        bad = list(word)
        bad[0] ^= 1
        assert not code.is_codeword(bad)

    def test_mixed_codewords_inconsistent(self, code):
        # k correct symbols + 1 from a different codeword never decode.
        w1 = code.encode([1, 2, 3])
        w2 = code.encode([4, 5, 6])
        symbols = {0: w1[0], 1: w1[1], 2: w1[2], 3: w2[3]}
        assert not code.is_consistent(symbols)


class TestExtend:
    def test_reconstruct_from_any_k(self, code):
        word = code.encode([11, 12, 13])
        rebuilt = code.extend([2, 4, 6], [word[2], word[4], word[6]])
        assert rebuilt == word

    def test_cache_reuse(self, code):
        word = code.encode([1, 0, 1])
        first = code.extend([0, 1, 2], word[:3])
        second = code.extend([0, 1, 2], word[:3])
        assert first == second == word

    def test_wrong_count_rejected(self, code):
        with pytest.raises(ValueError):
            code.extend([0, 1], [1, 2])

    def test_duplicate_positions_rejected(self, code):
        with pytest.raises(ValueError):
            code.extend([0, 0, 1], [1, 1, 2])

    def test_out_of_range_position_rejected(self, code):
        with pytest.raises(ValueError):
            code.extend([0, 1, 9], [1, 2, 3])


class TestPaperParameters:
    """The (n, n-2t) codes actually used by consensus configurations."""

    @pytest.mark.parametrize("n,t", [(4, 1), (7, 2), (10, 3), (13, 4)])
    def test_c2t_roundtrip(self, n, t):
        k = n - 2 * t
        code = ReedSolomonCode(n, k)
        data = [i % code.symbol_limit for i in range(1, k + 1)]
        word = code.encode(data)
        # Lemma 2's core: any k symbols determine the data.
        for subset in itertools.combinations(range(n), k):
            assert code.decode_subset(
                {pos: word[pos] for pos in subset}
            ) == data

    @pytest.mark.parametrize("n,t", [(4, 1), (7, 2), (10, 3)])
    def test_distance_is_2t_plus_1(self, n, t):
        code = ReedSolomonCode(n, n - 2 * t)
        assert code.distance == 2 * t + 1


class TestHypothesis:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_encode_decode_roundtrip(self, data):
        code = ReedSolomonCode(7, 3, 4)
        payload = data.draw(
            st.lists(st.integers(0, 15), min_size=3, max_size=3)
        )
        subset = data.draw(
            st.sets(st.integers(0, 6), min_size=3, max_size=7)
        )
        word = code.encode(payload)
        assert code.decode_subset({p: word[p] for p in subset}) == payload

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_single_corruption_never_decodes_wrong(self, data):
        """With > k symbols, one corrupted symbol is always *detected* —
        the checking stage's guarantee."""
        code = ReedSolomonCode(7, 3, 4)
        payload = data.draw(
            st.lists(st.integers(0, 15), min_size=3, max_size=3)
        )
        word = code.encode(payload)
        subset = data.draw(st.sets(st.integers(0, 6), min_size=4, max_size=7))
        victim = data.draw(st.sampled_from(sorted(subset)))
        delta = data.draw(st.integers(1, 15))
        symbols = {p: word[p] for p in subset}
        symbols[victim] ^= delta
        assert not code.is_consistent(symbols)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_interpolation_matrix_is_lagrange(self, data):
        """``extend`` through the closed-form matrix equals the
        interpolating polynomial, evaluated at every point, for any
        k positions in any order."""
        n = data.draw(st.integers(1, 70))
        k = data.draw(st.integers(1, n))
        code = ReedSolomonCode(n, k)
        positions = data.draw(st.permutations(range(n)))[:k]
        values = data.draw(st.lists(
            st.integers(0, code.symbol_limit - 1), min_size=k, max_size=k
        ))
        field = code.field
        coefficients = field.lagrange_interpolate(
            [code.points[p] for p in positions], values
        )
        assert code.extend(positions, values) == [
            field.poly_eval(coefficients, x) for x in code.points
        ]


class TestNonSymbolsRefused:
    """A non-integer symbol, or an integer outside ``[0, 2^c)`` of any
    size, raises :class:`GFElementError` — a ``ValueError``, so callers
    catching ``(DecodingError, ValueError)`` see it — and is never
    truncated onto a field element."""

    def test_float_symbol_in_the_interpolation_base(self, code):
        with pytest.raises(GFElementError):
            code.decode_subset({0: 1.5, 1: 2, 2: 3})

    def test_float_symbol_at_an_extra_position(self, code):
        word = code.encode([1, 2, 3])
        symbols = dict(enumerate(word))
        symbols[5] = word[5] + 0.0
        with pytest.raises(GFElementError):
            code.codeword_through(symbols)

    def test_is_codeword_does_not_truncate(self, code):
        word = code.encode([1, 2, 3])
        with pytest.raises(GFElementError):
            code.is_codeword([word[0] + 0.5] + word[1:])

    @pytest.mark.parametrize(
        "huge", [2 ** 63, 2 ** 64, 2 ** 200], ids=["2^63", "2^64", "2^200"]
    )
    def test_huge_symbol_is_a_field_error_not_an_overflow(self, code, huge):
        with pytest.raises(GFElementError):
            code.decode_subset({0: huge, 1: 2, 2: 3})
        with pytest.raises(GFElementError):
            code.encode([huge, 0, 0])

    def test_bool_symbol_is_not_the_element_1(self, code):
        with pytest.raises(GFElementError):
            code.encode([True, 2, 3])
        with pytest.raises(GFElementError):
            code.decode_subset({0: True, 1: 2, 2: 3})
        with pytest.raises(GFElementError):
            code.encode_many(np.array([[True, False, True]]))

    def test_float_data_refused_by_the_batched_encoders(self, code):
        with pytest.raises(GFElementError):
            code.encode_generations([[1, 2, 3.5]])
        with pytest.raises(GFElementError):
            code.encode_many(np.array([[1.0, 2.0, 3.0]]))


class TestPreLoggedMatricesAreTheCodes:
    """Each code keeps the log image of its own matrices; every product
    through them equals the int64 table product with the matrix itself,
    across interpolation matrices entering the cache."""

    @staticmethod
    def _table(field, lhs, rhs):
        products = field.mul_many(
            lhs[:, :, np.newaxis], rhs[np.newaxis, :, :]
        )
        return np.bitwise_xor.reduce(products, axis=1).tolist()

    @pytest.mark.parametrize("n,k,c", [(7, 3, 4), (15, 5, 8), (13, 5, 15)])
    def test_products_through_logged_matrices(self, n, k, c):
        code = ReedSolomonCode(n=n, k=k, c=c)
        field = code.field
        rng = np.random.default_rng(n * c)
        data = rng.integers(0, field.order, size=(6, k))
        words = code.encode_many(data)
        generator = code._interpolation_matrix(tuple(range(k)))
        assert words.tolist() == self._table(field, data, generator.T)
        assert code.encode(data[0].tolist()) == words[0].tolist()
        assert not code.syndrome_many(words).any()
        for positions in itertools.islice(
            itertools.combinations(range(n), k), 0, None, 7
        ):
            matrix = code._interpolation_matrix(positions)
            values = words[:, list(positions)]
            assert code.extend_many(positions, values).tolist() == (
                self._table(field, values, matrix.T)
            )
            assert code.extend(positions, values[1].tolist()) == (
                words[1].tolist()
            )
