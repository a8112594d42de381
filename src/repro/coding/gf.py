"""Arithmetic in the binary extension fields ``GF(2^c)`` for ``1 <= c <= 16``.

Field elements are plain Python ints in ``[0, 2^c)``.  Multiplication and
division use exp/log tables built once per field width from a standard
primitive polynomial, which keeps single-element operations O(1) and lets
:meth:`GF.matvec` / :meth:`GF.matmat` run vectorised over numpy arrays for
the hot encoding path: a plain Reed-Solomon encode is one matrix-vector
product, and an ``m``-row interleaved encode is one matrix-matrix product
instead of ``m`` separate matvecs.

The protocol requires ``n <= 2^c - 1`` evaluation points, so consensus
configurations pick the smallest ``c`` that fits ``n`` and the generation
size ``D`` (see :func:`repro.coding.reed_solomon.min_symbol_bits`).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.utils.boundary import engine_int

#: Standard primitive polynomials for GF(2^c), c = 1..16, written as bit
#: masks including the leading term.  E.g. 0x11D = x^8+x^4+x^3+x^2+1 is the
#: usual AES-adjacent choice for GF(256).
PRIMITIVE_POLYNOMIALS: Dict[int, int] = {
    1: 0x3,  # x + 1
    2: 0x7,  # x^2 + x + 1
    3: 0xB,  # x^3 + x + 1
    4: 0x13,  # x^4 + x + 1
    5: 0x25,  # x^5 + x^2 + 1
    6: 0x43,  # x^6 + x + 1
    7: 0x89,  # x^7 + x^3 + 1
    8: 0x11D,  # x^8 + x^4 + x^3 + x^2 + 1
    9: 0x211,  # x^9 + x^4 + 1
    10: 0x409,  # x^10 + x^3 + 1
    11: 0x805,  # x^11 + x^2 + 1
    12: 0x1053,  # x^12 + x^6 + x^4 + x + 1
    13: 0x201B,  # x^13 + x^4 + x^3 + x + 1
    14: 0x402B,  # x^14 + x^5 + x^3 + x + 1
    15: 0x8003,  # x^15 + x + 1
    16: 0x1100B,  # x^16 + x^12 + x^3 + x + 1
}


class GFElementError(ValueError):
    """Raised when a value is outside the field or a zero divide occurs."""


class GF:
    """The finite field ``GF(2^c)``.

    Instances are cached per ``c`` via :meth:`get`, so tables are built once
    per process per field width.

    >>> field = GF.get(8)
    >>> field.mul(0x57, 0x83)
    49
    >>> field.div(49, 0x83)
    87
    """

    _cache: Dict[int, "GF"] = {}

    def __init__(self, c: int):
        if c not in PRIMITIVE_POLYNOMIALS:
            raise ValueError(
                "unsupported field width c=%d (supported: 1..16)" % c
            )
        self.c = c
        self.order = 1 << c
        self.poly = PRIMITIVE_POLYNOMIALS[c]
        self._build_tables()

    @classmethod
    def get(cls, c: int) -> "GF":
        """Return the cached field of width ``c`` (building it if needed)."""
        field = cls._cache.get(c)
        if field is None:
            field = cls(c)
            cls._cache[c] = field
        return field

    def _build_tables(self) -> None:
        size = self.order - 1
        # exp: alpha^i twice over (so mul skips a modulo), then a zero
        # tail.  log[0] is the sentinel 2 * size, so a log sum with a
        # zero operand lands in the tail (both zero: 4 * size) and
        # exp[log[a] + log[b]] is the product for every pair of elements.
        exp = np.zeros(4 * size + 1, dtype=np.int64)
        log = np.zeros(self.order, dtype=np.int64)
        log[0] = 2 * size
        x = 1
        for i in range(size):
            exp[i] = x
            log[x] = i
            x <<= 1
            if x & self.order:
                x ^= self.poly
        exp[size:2 * size] = exp[:size]
        self._exp = exp
        self._log = log
        # The same tables on field-width lanes for the batched products:
        # a log sum is at most 4 * size, which fits uint16 for c <= 14,
        # and a product fits uint8 for c <= 8.
        self._log_lanes = log.astype(np.uint16 if self.c <= 14 else np.int32)
        self._exp_lanes = exp.astype(np.uint8 if self.c <= 8 else np.uint16)
        #: check_array's shift: an element has no bit at or above c.
        self._width = np.uint8(self.c)
        exp_public = exp[:size].copy()
        exp_public.setflags(write=False)
        self._exp_public = exp_public

    # -- table accessors ---------------------------------------------------

    @property
    def exp_table(self) -> np.ndarray:
        """Read-only view of the exponent table: ``exp_table[j] == alpha^j``
        for ``0 <= j < order - 1``, where ``alpha`` is the primitive root.

        Public accessor (with :meth:`alpha` as its scalar form, used for
        evaluation-point selection in
        :class:`~repro.coding.reed_solomon.ReedSolomonCode`) so callers
        never reach into the private ``_exp`` buffer.
        """
        return self._exp_public

    def alpha(self, j: int) -> int:
        """The ``j``-th power of the primitive root, ``alpha^j``.

        ``j`` may be any integer; it is reduced modulo ``order - 1``.
        """
        return int(self._exp_public[j % (self.order - 1)])

    # -- scalar operations -------------------------------------------------

    def _check(self, value: int) -> int:
        """``value`` as a field element: an engine integer (never a bool
        or a float) in ``[0, 2^c)``, as ``check_array`` reads one."""
        if type(value) is not int:
            value = engine_int(
                value, "GF(2^%d) element" % self.c, GFElementError
            )
        if not 0 <= value < self.order:
            raise GFElementError(
                "value %r outside GF(2^%d)" % (value, self.c)
            )
        return value

    def add(self, a: int, b: int) -> int:
        """Field addition (= subtraction = XOR in characteristic 2)."""
        return self._check(a) ^ self._check(b)

    sub = add

    def mul(self, a: int, b: int) -> int:
        """Field multiplication via log tables."""
        a = self._check(a)
        b = self._check(b)
        if a == 0 or b == 0:
            return 0
        return int(self._exp[self._log[a] + self._log[b]])

    def div(self, a: int, b: int) -> int:
        """Field division; raises :class:`GFElementError` on divide-by-zero."""
        a = self._check(a)
        b = self._check(b)
        if b == 0:
            raise GFElementError("division by zero in GF(2^%d)" % self.c)
        if a == 0:
            return 0
        return int(
            self._exp[self._log[a] - self._log[b] + self.order - 1]
        )

    def inv(self, a: int) -> int:
        """Multiplicative inverse; raises on zero."""
        return self.div(1, a)

    def pow(self, a: int, e: int) -> int:
        """Raise ``a`` to the integer power ``e`` (``e`` may be negative)."""
        a = self._check(a)
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise GFElementError("0 has no negative powers")
            return 0
        size = self.order - 1
        exponent = (self._log[a] * e) % size
        return int(self._exp[exponent])

    # -- polynomial / vector operations ------------------------------------

    def poly_eval(self, coeffs: Sequence[int], x: int) -> int:
        """Evaluate a polynomial with ``coeffs[i]`` the coefficient of x^i."""
        x = self._check(x)
        acc = 0
        for coeff in reversed(list(coeffs)):
            acc = self.mul(acc, x) ^ self._check(coeff)
        return acc

    def check_array(self, values, what: str = "array") -> np.ndarray:
        """Validate that every entry of ``values`` is a field element.

        Returns the array as ``int64``; raises :class:`GFElementError`
        naming ``what`` for an entry outside ``[0, 2^c)`` of any size or
        one that is not an engine integer, so no value is ever truncated
        or aliased to an element.  Used on every caller-supplied operand,
        so the table lookups below never index out of bounds.
        """
        arr = np.asarray(values)
        # numpy reads True in a sequence as 1, so a sequence takes the
        # typed path unless every entry is an exact int.
        if arr.dtype.kind not in "iu" or (
            arr is not values
            and set(map(type, np.asarray(values, dtype=object).flat)) != {int}
        ):
            arr = np.asarray(values, dtype=object)
            for value in arr.flat:
                if type(value) is not int:
                    engine_int(value, what + " entry", GFElementError)
                if not 0 <= value < self.order:
                    raise GFElementError(
                        "%s contains value %d outside GF(2^%d)"
                        % (what, value, self.c)
                    )
            arr = arr.astype(np.int64)
        # A negative entry shifts to -1, one of 2^c or more to >= 1.
        if (arr >> self._width).any():
            bad = arr[(arr < 0) | (arr >= self.order)].flat[0]
            raise GFElementError(
                "%s contains value %d outside GF(2^%d)"
                % (what, int(bad), self.c)
            )
        return arr.astype(np.int64, copy=False)

    def mul_many(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise field multiplication of two broadcastable arrays.

        Operands must already be validated (see :meth:`check_array`).
        A zero operand needs no mask: its log sentinel indexes the exp
        table's zero tail.
        """
        return self._exp[self._log[a] + self._log[b]]

    def log_image(self, values: np.ndarray) -> np.ndarray:
        """The logs of *validated* elements on the products' sum lanes
        (zero's sentinel included): the operand form of
        :meth:`product_of_logs`, which a code keeps for its own
        matrices so only the data operand is gathered per call."""
        return self._log_lanes[values]

    def product_of_logs(
        self, lhs_log: np.ndarray, rhs_log: np.ndarray
    ) -> np.ndarray:
        """GF product of an ``(m, k)`` by a ``(k, p)`` operand, both
        given as :meth:`log_image` s: the log sums stay on uint16 lanes
        (int32 for ``c >= 15``), the products are read off uint8 lanes
        (uint16 for ``c > 8``) and XOR-reduced there.  Returns the
        ``(m, p)`` product on those lanes."""
        m, k = lhs_log.shape
        if k == 0:
            return np.zeros((m, rhs_log.shape[1]), dtype=self._exp_lanes.dtype)
        products = self._exp_lanes.take(
            lhs_log[:, :, np.newaxis] + rhs_log[np.newaxis, :, :]
        )
        return np.bitwise_xor.reduce(products, axis=1)

    def matvec(self, matrix: np.ndarray, vector: Sequence[int]) -> List[int]:
        """Multiply an m-by-k GF matrix by a length-k vector.

        This is the scalar-encode path of Reed-Solomon coding: the
        generator matrix is fixed per code, so each encode is a single
        table-driven matrix-vector product.
        """
        mat = self.check_array(matrix, "matrix")
        vec = self.check_array(list(vector), "vector")
        if mat.ndim != 2 or vec.ndim != 1 or mat.shape[1] != vec.shape[0]:
            raise ValueError(
                "shape mismatch: matrix %r, vector %r"
                % (mat.shape, vec.shape)
            )
        return self.product_of_logs(
            self.log_image(mat), self.log_image(vec)[:, np.newaxis]
        )[:, 0].tolist()

    def matmat(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """GF matrix-matrix product of an ``(m, k)`` by a ``(k, p)`` array.

        One table-driven product replaces ``m`` (or ``p``) separate
        matvecs; this is the batched hot path of interleaved Reed-Solomon
        encoding, extension and syndrome checking.  Returns an ``(m, p)``
        int64 array.
        """
        lhs = self.check_array(a, "lhs matrix")
        rhs = self.check_array(b, "rhs matrix")
        if lhs.ndim != 2 or rhs.ndim != 2 or lhs.shape[1] != rhs.shape[0]:
            raise ValueError(
                "shape mismatch: lhs %r, rhs %r" % (lhs.shape, rhs.shape)
            )
        return self.product_of_logs(
            self.log_image(lhs), self.log_image(rhs)
        ).astype(np.int64)

    def poly_eval_many(
        self, coeffs: Sequence[int], xs: Sequence[int]
    ) -> np.ndarray:
        """Evaluate one polynomial at many points (vectorised Horner).

        ``coeffs[i]`` multiplies ``x^i``; returns an int64 array of
        ``len(xs)`` values.
        """
        points = self.check_array(np.asarray(list(xs)), "points")
        acc = np.zeros_like(points)
        for coeff in reversed(list(coeffs)):
            acc = self.mul_many(acc, points) ^ self._check(coeff)
        return acc

    def lagrange_interpolate(
        self, points: Sequence[int], values: Sequence[int]
    ) -> List[int]:
        """Return coefficients of the unique degree-<len(points) polynomial
        through ``(points[i], values[i])``.

        Coefficient order: ``coeffs[i]`` multiplies ``x^i``.  Points must be
        distinct field elements.
        """
        xs = [self._check(x) for x in points]
        ys = [self._check(y) for y in values]
        if len(xs) != len(ys):
            raise ValueError("points and values must have equal length")
        if len(set(xs)) != len(xs):
            raise ValueError("interpolation points must be distinct")
        k = len(xs)
        coeffs = [0] * k
        for i in range(k):
            if ys[i] == 0:
                continue
            # Build the i-th Lagrange basis polynomial numerator
            # prod_{j != i} (x - xs[j]) incrementally.
            basis = [1]
            denom = 1
            for j in range(k):
                if j == i:
                    continue
                # Multiply basis by (x + xs[j])  (== x - xs[j] in char 2).
                new = [0] * (len(basis) + 1)
                for d, coeff in enumerate(basis):
                    new[d + 1] ^= coeff
                    new[d] ^= self.mul(coeff, xs[j])
                basis = new
                denom = self.mul(denom, xs[i] ^ xs[j])
            scale = self.div(ys[i], denom)
            for d, coeff in enumerate(basis):
                coeffs[d] ^= self.mul(coeff, scale)
        return coeffs

    def __repr__(self) -> str:
        return "GF(2^%d)" % self.c

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GF) and other.c == self.c

    def __hash__(self) -> int:
        return hash(("GF", self.c))
