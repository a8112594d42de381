"""Systematic Reed-Solomon codes over ``GF(2^c)``.

The paper uses an ``(n, k = n - 2t)`` Reed-Solomon code ``C_2t`` with
distance ``2t + 1``.  Algorithm 1 needs exactly three operations from it,
all of which this module provides:

* :meth:`ReedSolomonCode.encode` — ``C_2t(v)``: encode ``k`` data symbols
  into ``n`` coded symbols.
* :meth:`ReedSolomonCode.decode_subset` — the extended inverse
  ``C_2t^{-1}(V/A)``: given the values of the codeword at any subset ``A``
  of at least ``k`` positions, recover the data vector, or report that no
  codeword agrees with the subset.
* :meth:`ReedSolomonCode.is_consistent` — the membership test
  ``V/A ∈ C_2t``: does *some* codeword agree with the given positions?

Both questions take an optional codeword ``near`` the caller already
holds, and then follow the *agreement rule* (:func:`agreement_answer`):
the code is MDS, so symbols that agree with ``near`` at ``>= k``
positions lie on ``near`` if they agree everywhere and on no codeword
otherwise — a count, not an interpolation.

Construction: the data vector ``v`` of ``k`` symbols defines the unique
polynomial ``p`` of degree < ``k`` with ``p(alpha_j) = v[j]`` for the first
``k`` evaluation points; the codeword is ``(p(alpha_1), ..., p(alpha_n))``.
This makes the code *systematic* (the first ``k`` codeword symbols are the
data), while any ``k`` of the ``n`` symbols still determine ``p`` — the
property Lemma 2 and Lemma 5 of the paper rely on.  Encoding is a single
GF matrix-vector product with a precomputed ``n x k`` generator matrix.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.coding.gf import GF, GFElementError
from repro.utils.boundary import engine_int


class DecodingError(ValueError):
    """Raised when a symbol subset is not consistent with any codeword."""


#: :func:`agreement_answer`'s "fewer than ``k`` agreements": interpolate.
FAR = object()


def agreement_answer(code, symbols: Dict[int, int], near: Sequence[int]):
    """The agreement rule, one for both code classes: ``near`` is a
    codeword of ``code``, and ``symbols`` (position -> symbol) agree
    with it at ``a`` positions.  Any ``k`` positions fix a codeword, so
    with ``a >= k`` the only codeword through ``symbols`` can be
    ``near``: it is ``list(near)`` when they agree everywhere, and there
    is none (``None``) otherwise.  With ``a < k`` the count settles
    nothing and the answer is :data:`FAR`.

    Positions and symbols are validated as an interpolation would:
    a position outside ``[0, n)`` is a :class:`ValueError`, and a symbol
    that is not an engine integer, or lies outside ``[0, symbol_limit)``, a
    :class:`~repro.coding.gf.GFElementError`."""
    n, limit = code.n, code.symbol_limit
    agree = 0
    for p, value in symbols.items():
        if not 0 <= p < n:
            raise ValueError("position %d out of range [0, %d)" % (p, n))
        if type(value) is not int:
            value = engine_int(value, "symbol", GFElementError)
        if not 0 <= value < limit:
            raise GFElementError(
                "symbol %r outside [0, %d)" % (value, limit)
            )
        if value == near[p]:
            agree += 1
    if agree < code.k:
        return FAR
    return list(near) if agree == len(symbols) else None


def min_symbol_bits(n: int) -> int:
    """Smallest field width ``c`` such that ``n <= 2^c - 1``.

    The code needs ``n`` distinct nonzero evaluation points in ``GF(2^c)``,
    hence the constraint (the paper's ``n <= 2^{D/(n-2t)} - 1``).
    """
    if n < 1:
        raise ValueError("n must be positive, got %d" % n)
    return max(1, math.ceil(math.log2(n + 1)))


class ReedSolomonCode:
    """An ``(n, k)`` systematic Reed-Solomon code over ``GF(2^c)``.

    Positions are 0-based in the API (the paper writes 1-based indices).

    >>> code = ReedSolomonCode(n=7, k=3, c=4)
    >>> word = code.encode([1, 2, 3])
    >>> word[:3]
    [1, 2, 3]
    >>> code.decode_subset({4: word[4], 5: word[5], 6: word[6]})
    [1, 2, 3]
    """

    def __init__(self, n: int, k: int, c: Optional[int] = None):
        if k < 1:
            raise ValueError("code dimension k must be >= 1, got %d" % k)
        if n < k:
            raise ValueError("need n >= k, got n=%d k=%d" % (n, k))
        if c is None:
            c = min_symbol_bits(n)
        field = GF.get(c)
        if n > field.order - 1:
            raise ValueError(
                "n=%d exceeds the %d nonzero points of GF(2^%d)"
                % (n, field.order - 1, c)
            )
        self.n = n
        self.k = k
        self.c = c
        self.field = field
        #: bits per symbol (alias of ``c``; matches InterleavedCode's API).
        self.symbol_bits = c
        #: exclusive upper bound on symbol values.
        self.symbol_limit = field.order
        #: minimum Hamming distance; for the paper's C_2t this is 2t + 1.
        self.distance = n - k + 1
        # Evaluation points alpha_j = alpha^j, j = 0..n-1 — distinct, nonzero.
        self.points: List[int] = [field.alpha(j) for j in range(n)]
        # The n-by-k systematic generator: row i holds the Lagrange
        # basis values l_j(alpha_i) for the basis of the first k points,
        # so G @ v evaluates the interpolating polynomial everywhere.
        generator = field.check_array(
            self._interpolation_matrix(tuple(range(k))), "generator matrix"
        )
        # Systematic parity check: a word w is a codeword iff
        # G[k:] @ w[:k] == w[k:], i.e. H @ w == 0 for H = [G[k:] | I].
        # One syndrome matmat replaces interpolate-and-compare for
        # full-length membership tests.
        self.parity_check: np.ndarray = np.concatenate(
            [generator[k:], np.eye(n - k, dtype=np.int64)], axis=1
        )
        # Matrices are validated and logged once here (and per
        # interpolation matrix as it enters the cache): a product
        # validates and gathers the logs of the caller-supplied data
        # operand only.
        self._generator_log = field.log_image(generator)
        self._parity_log_t = self._generator_log[k:].T.copy()
        self._check_log_t = field.log_image(self.parity_check.T)
        #: positions -> the log image of their interpolation matrix.
        self._interp_cache: Dict[Tuple[int, ...], np.ndarray] = {}

    def _interpolation_matrix(self, positions: Tuple[int, ...]) -> np.ndarray:
        """n-by-k matrix mapping codeword values at ``positions`` (exactly k
        of them) to the full codeword.

        Entry (i, j) is the Lagrange basis value
        ``prod_{m != j} (alpha_i + x_m) / prod_{m != j} (x_j + x_m)`` for
        the points ``x`` at ``positions``, summed in the log domain; a row
        whose point is one of the positions is one-hot."""
        field = self.field
        points = np.asarray(self.points, dtype=np.int64)
        rows = list(positions)
        xs = points[rows]
        # Logs summed in int64: the uint16 log lanes overflow here.
        spans = field.log_image(points[:, None] ^ xs).astype(np.int64)
        gaps = field.log_image(xs[:, None] ^ xs).astype(np.int64)
        np.fill_diagonal(gaps, 0)
        logs = spans.sum(axis=1, keepdims=True) - spans - gaps.sum(axis=1)
        matrix = field.exp_table[logs % (field.order - 1)].astype(np.int64)
        matrix[rows] = np.eye(self.k, dtype=np.int64)
        return matrix

    # -- public API ---------------------------------------------------------

    def _apply_logged(
        self, matrix_log: np.ndarray, values, what: str = "vector"
    ) -> np.ndarray:
        """``matrix @ values`` for one of the code's own (logged)
        ``(n, k)`` matrices and a length-``k`` symbol vector: one
        matvec on field-width lanes."""
        vec = self.field.check_array(values, what)
        if vec.ndim != 1 or vec.shape[0] != matrix_log.shape[1]:
            raise ValueError(
                "shape mismatch: matrix %r, vector %r"
                % (matrix_log.shape, vec.shape)
            )
        field = self.field
        return field.product_of_logs(
            matrix_log, field.log_image(vec)[:, np.newaxis]
        )[:, 0]

    def _rows_matmat(
        self, rows, matrix_log_t: np.ndarray, what: str
    ) -> np.ndarray:
        """``rows @ matrix_t`` for a logged ``matrix_t`` of the code's,
        with only ``rows`` validated and logged per call."""
        rows = self.field.check_array(rows, what)
        if rows.ndim != 2 or rows.shape[1] != matrix_log_t.shape[0]:
            raise ValueError(
                "expected an (m, %d) %s array, got shape %r"
                % (matrix_log_t.shape[0], what, rows.shape)
            )
        field = self.field
        return field.product_of_logs(field.log_image(rows), matrix_log_t)

    def encode(self, data: Sequence[int]) -> List[int]:
        """``C_2t(v)``: encode ``k`` data symbols into ``n`` coded symbols."""
        data = list(data)
        if len(data) != self.k:
            raise ValueError(
                "expected %d data symbols, got %d" % (self.k, len(data))
            )
        return self._apply_logged(self._generator_log, data, "data").tolist()

    # -- batched (row-stacked) API ------------------------------------------
    #
    # The *_many methods operate on ``m`` independent data/codeword rows at
    # once via a single GF matrix-matrix product — the hot path of
    # :class:`~repro.coding.interleaved.InterleavedCode`, where one encode
    # used to issue ``m`` tiny matvecs.

    def encode_many(self, data: np.ndarray) -> np.ndarray:
        """Encode an ``(m, k)`` array of data rows into ``(m, n)`` words.

        The code is systematic, so only the ``n - k`` parity columns are
        a product; the data rows are the words' first ``k`` symbols.
        """
        data = self.field.check_array(data, "data")
        parity = self._rows_matmat(data, self._parity_log_t, "data")
        return np.concatenate([data, parity], axis=1)

    def encode_generations(
        self, parts: Sequence[Sequence[int]]
    ) -> List[List[int]]:
        """Encode ``g`` independent ``k``-symbol parts in one matmat.

        The cross-generation batching primitive: all generations of a
        run (or of a batch of runs) encode as a single ``(g, k)``
        row-stacked product instead of ``g`` separate :meth:`encode`
        calls.  Returns
        one ``n``-symbol codeword list per part.
        """
        if not parts:
            return []
        rows = self.field.check_array(
            [list(part) for part in parts], "part"
        )
        if rows.ndim != 2 or rows.shape[1] != self.k:
            raise ValueError(
                "expected (g, %d) parts, got shape %r" % (self.k, rows.shape)
            )
        return self.encode_many(rows).tolist()

    def extend_many(
        self, positions: Sequence[int], values: np.ndarray
    ) -> np.ndarray:
        """Batched :meth:`extend`: ``(m, k)`` known-symbol rows at exactly
        ``k`` ``positions`` -> the ``(m, n)`` full codewords."""
        matrix_log = self._interp_for(tuple(positions))
        return self._rows_matmat(values, matrix_log.T, "value")

    def codeword_through_many(
        self, positions: Sequence[int], values: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Batched :meth:`codeword_through` over ``m`` rows.

        ``positions`` are >= k sorted distinct indices; ``values`` is the
        ``(m, len(positions))`` array of the rows' symbols there.  Returns
        ``(words, ok)`` where ``words`` is ``(m, n)`` (the codeword through
        each row's first ``k`` symbols) and ``ok[i]`` is True iff row ``i``
        agrees with that codeword at every remaining position.
        """
        positions = list(positions)
        for p in positions:
            if not 0 <= p < self.n:
                raise ValueError(
                    "position %d out of range [0, %d)" % (p, self.n)
                )
        rows = self.field.check_array(values, "value")
        if rows.ndim != 2 or rows.shape[1] != len(positions):
            raise ValueError(
                "expected an (m, %d) value array, got shape %r"
                % (len(positions), rows.shape)
            )
        base = positions[: self.k]
        words = self.extend_many(base, rows[:, : self.k])
        extra = positions[self.k:]
        if extra:
            ok = (words[:, extra] == rows[:, self.k:]).all(axis=1)
        else:
            ok = np.ones(rows.shape[0], dtype=bool)
        return words, ok

    def syndrome_many(self, words: np.ndarray) -> np.ndarray:
        """``(m, n)`` full-length words -> ``(m, n-k)`` syndromes.

        A row is a codeword iff its syndrome row is all zeros; this is one
        parity-check matmat instead of ``m`` Lagrange
        interpolate-and-compare passes.
        """
        return self._rows_matmat(words, self._check_log_t, "word")

    def _interp_for(self, key: Tuple[int, ...]) -> np.ndarray:
        """The cached log image of the k-point interpolation matrix for
        ``key``; a key is validated when its matrix enters the cache."""
        matrix_log = self._interp_cache.get(key)
        if matrix_log is None:
            if len(key) != self.k:
                raise ValueError(
                    "need exactly k=%d positions, got %d"
                    % (self.k, len(key))
                )
            if len(set(key)) != len(key):
                raise ValueError("positions must be distinct: %r" % (key,))
            for p in key:
                if not 0 <= p < self.n:
                    raise ValueError(
                        "position %d out of range [0, %d)" % (p, self.n)
                    )
            matrix_log = self.field.log_image(self.field.check_array(
                self._interpolation_matrix(key), "interpolation matrix"
            ))
            self._interp_cache[key] = matrix_log
        return matrix_log

    def extend(self, positions: Sequence[int], values: Sequence[int]) -> List[int]:
        """Reconstruct the full codeword from exactly ``k`` known symbols.

        ``positions`` are 0-based codeword indices; the code precomputes and
        caches one interpolation matrix per distinct position set, so
        repeated reconstructions (e.g. every generation with the same
        ``P_decide``) cost one matvec.
        """
        matrix_log = self._interp_for(tuple(positions))
        return self._apply_logged(matrix_log, list(values)).tolist()

    def codeword_through(
        self, symbols: Dict[int, int], near: Optional[Sequence[int]] = None
    ) -> Optional[List[int]]:
        """Return the unique codeword agreeing with ``symbols`` at all given
        positions, or ``None`` if no codeword does.

        ``symbols`` maps 0-based position -> symbol value and must contain at
        least ``k`` entries.  This realises the paper's ``V/A ∈ C_2t`` test
        constructively: one range check on the sorted positions, one
        array of the symbols, one matvec through the first ``k`` and one
        comparison at the rest.  Given a codeword ``near`` that agrees
        with ``symbols`` at ``>= k`` positions, the answer is counted
        instead (:func:`agreement_answer`).
        """
        k = self.k
        if len(symbols) < k:
            raise ValueError(
                "need at least k=%d symbols to identify a codeword, got %d"
                % (k, len(symbols))
            )
        if near is not None:
            answer = agreement_answer(self, symbols, near)
            if answer is not FAR:
                return answer
        positions = sorted(symbols)
        for p in (positions[0], positions[-1]):
            if not 0 <= p < self.n:
                raise ValueError(
                    "position %d out of range [0, %d)" % (p, self.n)
                )
        values = self.field.check_array(
            [symbols[p] for p in positions], "symbols"
        )
        word = self.extend_many(positions[:k], values[np.newaxis, :k])[0]
        if (word[positions[k:]] != values[k:]).any():
            return None
        return word.tolist()

    def is_consistent(
        self, symbols: Dict[int, int], near: Optional[Sequence[int]] = None
    ) -> bool:
        """``V/A ∈ C_2t``: is the symbol subset consistent with a codeword?

        Subsets with fewer than ``k`` symbols are vacuously consistent (some
        codeword always passes through fewer than ``k`` points).  Given a
        codeword ``near`` that agrees with the subset at ``>= k``
        positions, the answer is whether it agrees everywhere
        (:func:`agreement_answer`).  Otherwise a full-length subset is a
        single syndrome matmat; partial subsets go through the cached
        interpolation matrices.
        """
        if len(symbols) < self.k:
            return True
        if near is not None:
            answer = agreement_answer(self, symbols, near)
            if answer is not FAR:
                return answer is not None
        if len(symbols) == self.n and all(p in symbols for p in range(self.n)):
            return self.is_codeword([symbols[p] for p in range(self.n)])
        return self.codeword_through(symbols) is not None

    def consistent_rows(
        self, positions: Sequence[int], rows: Sequence[Sequence[int]]
    ) -> np.ndarray:
        """Batched :meth:`is_consistent`: ``rows[i]`` holds one word's
        symbols at the sorted ``positions``, and entry ``i`` of the
        result says whether they lie on a codeword — one
        :meth:`codeword_through_many` for all rows."""
        if len(positions) < self.k or not len(rows):
            return np.ones(len(rows), dtype=bool)
        return self.codeword_through_many(positions, rows)[1]

    def decode_subset(self, symbols: Dict[int, int]) -> List[int]:
        """``C_2t^{-1}(V/A)``: recover the data from >= k codeword symbols.

        Raises :class:`DecodingError` if the symbols do not agree with any
        codeword (the caller should have run the checking stage first).
        """
        word = self.codeword_through(symbols)
        if word is None:
            raise DecodingError(
                "symbol subset at positions %r lies on no codeword"
                % sorted(symbols)
            )
        return word[: self.k]

    def decode(self, codeword: Sequence[int]) -> List[int]:
        """Recover data from a full, error-free codeword."""
        codeword = list(codeword)
        if len(codeword) != self.n:
            raise ValueError(
                "expected %d symbols, got %d" % (self.n, len(codeword))
            )
        return self.decode_subset(dict(enumerate(codeword)))

    def is_codeword(self, codeword: Sequence[int]) -> bool:
        """Full-length membership test: one parity-check syndrome matmat."""
        codeword = list(codeword)
        if len(codeword) != self.n:
            return False
        return not self.syndrome_many([codeword]).any()

    def __repr__(self) -> str:
        return "ReedSolomonCode(n=%d, k=%d, c=%d)" % (self.n, self.k, self.c)
