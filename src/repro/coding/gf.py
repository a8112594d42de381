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
        self._check(a)
        self._check(b)
        if a == 0 or b == 0:
            return 0
        return int(self._exp[self._log[a] + self._log[b]])

    def div(self, a: int, b: int) -> int:
        """Field division; raises :class:`GFElementError` on divide-by-zero."""
        self._check(a)
        self._check(b)
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
        self._check(a)
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
        self._check(x)
        acc = 0
        for coeff in reversed(list(coeffs)):
            acc = self.mul(acc, x) ^ self._check(coeff)
        return acc

    def check_array(self, values: np.ndarray, what: str = "array") -> np.ndarray:
        """Validate that every entry of ``values`` lies in the field.

        Returns the array as ``int64``; raises :class:`GFElementError`
        naming ``what`` otherwise.  Used at matrix-construction time so the
        table lookups below can never index out of bounds or silently
        alias an out-of-field entry.
        """
        arr = np.asarray(values, dtype=np.int64)
        if arr.size and ((arr < 0) | (arr >= self.order)).any():
            bad = arr[(arr < 0) | (arr >= self.order)].flat[0]
            raise GFElementError(
                "%s contains value %d outside GF(2^%d)"
                % (what, int(bad), self.c)
            )
        return arr

    def mul_many(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise field multiplication of two broadcastable arrays.

        Operands must already be validated (see :meth:`check_array`).
        A zero operand needs no mask: its log sentinel indexes the exp
        table's zero tail.
        """
        return self._exp[self._log[a] + self._log[b]]

    def matvec(self, matrix: np.ndarray, vector: Sequence[int]) -> List[int]:
        """Multiply an m-by-k GF matrix by a length-k vector.

        This is the scalar-encode path of Reed-Solomon coding: the
        generator matrix is fixed per code, so each encode is a single
        table-driven matrix-vector product.
        """
        mat = np.asarray(matrix, dtype=np.int64)
        vec = np.asarray(list(vector), dtype=np.int64)
        if mat.ndim != 2 or vec.ndim != 1 or mat.shape[1] != vec.shape[0]:
            raise ValueError(
                "shape mismatch: matrix %r, vector %r"
                % (mat.shape, vec.shape)
            )
        self.check_array(mat, "matrix")
        self.check_array(vec, "vector")
        # XOR-reduce products along rows.
        result = np.bitwise_xor.reduce(self.mul_many(mat, vec), axis=1)
        return [int(v) for v in result]

    def matmat(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """GF matrix-matrix product of an ``(m, k)`` by a ``(k, p)`` array.

        One table-driven product replaces ``m`` (or ``p``) separate
        matvecs; this is the batched hot path of interleaved Reed-Solomon
        encoding, extension and syndrome checking.  Returns an ``(m, p)``
        int64 array.
        """
        lhs = np.asarray(a, dtype=np.int64)
        rhs = np.asarray(b, dtype=np.int64)
        if lhs.ndim != 2 or rhs.ndim != 2 or lhs.shape[1] != rhs.shape[0]:
            raise ValueError(
                "shape mismatch: lhs %r, rhs %r" % (lhs.shape, rhs.shape)
            )
        self.check_array(lhs, "lhs matrix")
        self.check_array(rhs, "rhs matrix")
        return self._matmat_core(lhs, rhs)

    def _matmat_core(self, lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Table-driven product of two *pre-validated* int64 arrays.

        Internal fast path: callers that own one operand (e.g. a code's
        generator matrix, validated once at construction) skip re-scanning
        it on every call.
        """
        if lhs.shape[1] == 0:
            return np.zeros((lhs.shape[0], rhs.shape[1]), dtype=np.int64)
        products = self.mul_many(lhs[:, :, np.newaxis], rhs[np.newaxis, :, :])
        return np.bitwise_xor.reduce(products, axis=1)

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
            self._check(coeff)
            acc = self.mul_many(acc, points) ^ coeff
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
