"""Field-axiom and operation tests for GF(2^c)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding.gf import GF, GFElementError, PRIMITIVE_POLYNOMIALS


@pytest.fixture(scope="module", params=[1, 2, 4, 8, 16])
def field(request):
    return GF.get(request.param)


def elements(field, max_examples=None):
    return st.integers(min_value=0, max_value=field.order - 1)


class TestConstruction:
    def test_all_supported_widths(self):
        for c in PRIMITIVE_POLYNOMIALS:
            assert GF.get(c).order == 1 << c

    def test_unsupported_width(self):
        with pytest.raises(ValueError):
            GF(17)

    def test_cache_identity(self):
        assert GF.get(8) is GF.get(8)

    def test_equality_and_hash(self):
        assert GF.get(4) == GF(4)
        assert hash(GF.get(4)) == hash(GF(4))
        assert GF.get(4) != GF.get(8)

    def test_repr(self):
        assert repr(GF.get(8)) == "GF(2^8)"


class TestExpLogTables:
    def test_exp_cycles_through_all_nonzero(self, field):
        seen = {int(field._exp[i]) for i in range(field.order - 1)}
        assert seen == set(range(1, field.order))

    def test_log_exp_inverse(self, field):
        for value in range(1, min(field.order, 300)):
            assert int(field._exp[field._log[value]]) == value


class TestArithmetic:
    def test_add_is_xor(self, field):
        a, b = 1, field.order - 1
        assert field.add(a, b) == a ^ b

    def test_sub_equals_add(self, field):
        assert field.sub(3 % field.order, 1) == field.add(3 % field.order, 1)

    def test_mul_zero(self, field):
        assert field.mul(0, field.order - 1) == 0
        assert field.mul(field.order - 1, 0) == 0

    def test_mul_one_identity(self, field):
        for value in range(min(field.order, 64)):
            assert field.mul(1, value) == value

    def test_known_gf256_product(self):
        # Schoolbook carry-less multiply mod 0x11D.
        field = GF.get(8)
        assert field.mul(0x57, 0x83) == 0x31

    def test_div_by_zero(self, field):
        with pytest.raises(GFElementError):
            field.div(1, 0)

    def test_inv_zero(self, field):
        with pytest.raises(GFElementError):
            field.inv(0)

    def test_out_of_range_rejected(self, field):
        with pytest.raises(GFElementError):
            field.mul(field.order, 1)
        with pytest.raises(GFElementError):
            field.add(-1, 0)

    def test_inverse_property(self, field):
        for value in range(1, min(field.order, 128)):
            assert field.mul(value, field.inv(value)) == 1

    def test_pow_zero_exponent(self, field):
        assert field.pow(0, 0) == 1
        assert field.pow(1, 0) == 1

    def test_pow_matches_repeated_mul(self, field):
        a = field.order - 1
        acc = 1
        for e in range(6):
            assert field.pow(a, e) == acc
            acc = field.mul(acc, a)

    def test_pow_negative(self, field):
        a = min(3, field.order - 1)
        if a == 0:
            pytest.skip("field too small")
        assert field.mul(field.pow(a, -1), a) == 1

    def test_pow_zero_base_negative_exponent(self, field):
        with pytest.raises(GFElementError):
            field.pow(0, -1)


class TestFieldAxiomsHypothesis:
    @given(st.data())
    @settings(max_examples=100)
    def test_mul_commutative_associative(self, data):
        field = GF.get(8)
        a = data.draw(st.integers(0, 255))
        b = data.draw(st.integers(0, 255))
        c = data.draw(st.integers(0, 255))
        assert field.mul(a, b) == field.mul(b, a)
        assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))

    @given(st.data())
    @settings(max_examples=100)
    def test_distributivity(self, data):
        field = GF.get(8)
        a = data.draw(st.integers(0, 255))
        b = data.draw(st.integers(0, 255))
        c = data.draw(st.integers(0, 255))
        left = field.mul(a, field.add(b, c))
        right = field.add(field.mul(a, b), field.mul(a, c))
        assert left == right

    @given(st.data())
    @settings(max_examples=100)
    def test_div_inverts_mul(self, data):
        field = GF.get(8)
        a = data.draw(st.integers(0, 255))
        b = data.draw(st.integers(1, 255))
        assert field.div(field.mul(a, b), b) == a


class TestMulManyMatchesMul:
    """``mul_many`` reads every product, zero operands included, off one
    table lookup (``log[0]`` indexes the exp table's zero tail); scalar
    ``mul`` tests for zero first.  The two must agree on every pair."""

    @pytest.mark.parametrize("c", range(1, 11))
    def test_every_pair(self, c):
        field = GF.get(c)
        values = np.arange(field.order)
        products = field.mul_many(values[:, np.newaxis], values)
        expected = [
            [field.mul(a, b) for b in range(field.order)]
            for a in range(field.order)
        ]
        assert products.tolist() == expected

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_sampled_pairs(self, data):
        c = data.draw(st.integers(11, 16))
        field = GF.get(c)
        # Zero and the largest element are drawn often: the table's ends.
        element = st.one_of(
            st.sampled_from([0, 1, field.order - 1]),
            st.integers(0, field.order - 1),
        )
        pairs = data.draw(
            st.lists(st.tuples(element, element), min_size=1, max_size=64)
        )
        a = np.array([x for x, _ in pairs])
        b = np.array([y for _, y in pairs])
        assert field.mul_many(a, b).tolist() == [
            field.mul(x, y) for x, y in pairs
        ]


def _table_product(field, lhs, rhs):
    """The int64 reference product: ``mul_many`` on every (row, column)
    pair, XOR-reduced over the inner axis."""
    products = field.mul_many(lhs[:, :, np.newaxis], rhs[np.newaxis, :, :])
    return np.bitwise_xor.reduce(products, axis=1)


class TestFieldWidthProduct:
    """:meth:`GF.product_of_logs` sums logs on uint16 lanes (int32 for
    ``c >= 15``) and reads products off uint8/uint16 lanes; it must equal
    the int64 table product for every width, the table's ends included
    (``4 * (2^c - 1)``, two zero operands, is the largest log sum)."""

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_equals_int64_table_product(self, data):
        c = data.draw(st.integers(1, 16))
        field = GF.get(c)
        m, k, p = (data.draw(st.integers(0, 9)) for _ in range(3))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        ends = np.array([0, field.order - 1])

        def operand(shape):
            # Zero and 2^c - 1 drawn often: the lanes' extremes.
            values = rng.integers(0, field.order, size=shape)
            pick = rng.random(shape) < 0.4
            values[pick] = rng.choice(ends, size=int(pick.sum()))
            return values

        lhs, rhs = operand((m, k)), operand((k, p))
        fast = field.product_of_logs(
            field.log_image(lhs), field.log_image(rhs)
        )
        assert fast.shape == (m, p)
        assert fast.tolist() == _table_product(field, lhs, rhs).tolist()
        assert field.matmat(lhs, rhs).tolist() == fast.tolist()

    @pytest.mark.parametrize("c", [8, 14, 15, 16])
    def test_all_zero_and_all_top_operands(self, c):
        field = GF.get(c)
        for value in (0, field.order - 1):
            lhs = np.full((3, 7), value)
            rhs = np.full((7, 2), value)
            assert field.matmat(lhs, rhs).tolist() == (
                _table_product(field, lhs, rhs).tolist()
            )


class TestCheckArrayNeverTruncates:
    """A non-integer or an out-of-field value of any size raises
    :class:`GFElementError` (a ``ValueError``); nothing is truncated."""

    @pytest.mark.parametrize("bad", [
        [1.5, 2], [2.0], [2 ** 63], [2 ** 64, 1], [-1], [object()], ["3"],
    ], ids=["float", "integral-float", "2^63", "2^64", "negative",
            "object", "string"])
    def test_refused(self, bad):
        with pytest.raises(GFElementError):
            GF.get(4).check_array(bad)

    def test_integers_of_any_integer_type_pass(self):
        field = GF.get(4)
        assert field.check_array([np.int32(3), 15, np.uint8(0)]).tolist() == [
            3, 15, 0,
        ]
        assert field.check_array([]).shape == (0,)


class TestScalarOpsTakeTheEngineIntegerRule:
    """The scalar operations read an element as ``check_array`` does: a
    bool or a float is refused typed, never read as 1 or indexed."""

    @pytest.mark.parametrize("op, a, b", [
        ("add", True, 1), ("mul", True, 3), ("add", 2.0, 3), ("mul", 2.0, 3),
        ("div", 3, True), ("pow", 1.0, 2), ("inv", True, None),
    ], ids=repr)
    def test_refused(self, op, a, b):
        args = (a,) if b is None else (a, b)
        with pytest.raises(GFElementError, match="must be an int"):
            getattr(GF(4), op)(*args)

    def test_poly_eval_refuses_a_bool_coefficient_or_point(self):
        with pytest.raises(GFElementError):
            GF(4).poly_eval([1, True], 2)
        with pytest.raises(GFElementError):
            GF(4).poly_eval([1, 2], True)

    def test_numpy_integers_read_as_ints(self):
        field = GF(4)
        assert field.add(np.int64(2), 3) == 1
        assert type(field.mul(np.uint8(2), 3)) is int
        assert field.mul(np.uint8(2), 3) == field.mul(2, 3)


class TestPolynomialOps:
    def test_poly_eval_constant(self, field):
        assert field.poly_eval([1], 0) == 1
        assert field.poly_eval([1], field.order - 1) == 1

    def test_poly_eval_linear(self):
        field = GF.get(8)
        # p(x) = 3 + 2x at x=5: 3 ^ mul(2,5)
        assert field.poly_eval([3, 2], 5) == 3 ^ field.mul(2, 5)

    def test_poly_eval_empty(self, field):
        assert field.poly_eval([], 1) == 0

    def test_lagrange_through_points(self):
        field = GF.get(8)
        points = [1, 2, 3, 4]
        values = [10, 20, 30, 40]
        coeffs = field.lagrange_interpolate(points, values)
        assert len(coeffs) == 4
        for x, y in zip(points, values):
            assert field.poly_eval(coeffs, x) == y

    def test_lagrange_degree_bound(self):
        field = GF.get(8)
        # Values from an actual low-degree polynomial come back exactly.
        original = [7, 11, 0]
        points = [1, 2, 3, 4, 5]
        values = [field.poly_eval(original, x) for x in points]
        coeffs = field.lagrange_interpolate(points, values)
        assert coeffs[:3] == original
        assert all(c == 0 for c in coeffs[3:])

    def test_lagrange_duplicate_points_rejected(self):
        field = GF.get(8)
        with pytest.raises(ValueError):
            field.lagrange_interpolate([1, 1], [2, 3])

    def test_lagrange_length_mismatch_rejected(self):
        field = GF.get(8)
        with pytest.raises(ValueError):
            field.lagrange_interpolate([1, 2], [3])


class TestMatvec:
    def test_identity_matrix(self):
        import numpy as np

        field = GF.get(8)
        eye = np.eye(4, dtype=np.int64)
        assert field.matvec(eye, [9, 8, 7, 6]) == [9, 8, 7, 6]

    def test_matches_scalar_ops(self):
        import numpy as np

        field = GF.get(8)
        rng = np.random.default_rng(7)
        matrix = rng.integers(0, 256, size=(5, 3))
        vector = [3, 200, 77]
        result = field.matvec(matrix, vector)
        for i in range(5):
            acc = 0
            for j in range(3):
                acc ^= field.mul(int(matrix[i, j]), vector[j])
            assert result[i] == acc

    def test_shape_mismatch_rejected(self):
        import numpy as np

        field = GF.get(8)
        with pytest.raises(ValueError):
            field.matvec(np.zeros((2, 3), dtype=np.int64), [1, 2])

    def test_out_of_field_vector_rejected(self):
        import numpy as np

        field = GF.get(4)
        with pytest.raises(GFElementError):
            field.matvec(np.zeros((1, 1), dtype=np.int64), [16])
