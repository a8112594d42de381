"""Polynomial universal hashing over ``GF(2^kappa)``.

Fitzi-Hirt reduce the L-bit value to a short digest with a universal hash
family; the standard choice (and ours) is polynomial hashing: split the
value into ``d`` chunks of ``kappa`` bits, interpret them as coefficients
``m_0..m_{d-1}`` over ``GF(2^kappa)``, and evaluate at the random key
``r``:

    ``h_r(v) = m_0 + m_1 r + m_2 r² + ... + m_{d-1} r^{d-1}``

Two distinct values collide on at most ``d - 1`` keys, so the collision
probability over a uniform key is ``<= (d-1) / 2^kappa`` — the error floor
of the Fitzi-Hirt algorithm that the reproduced paper removes.

:func:`collision_for` constructs, for a *known* key, a second value with
the same digest (add the polynomial ``(x + r)`` to the coefficients, which
evaluates to zero at ``r``).  Benchmark E6 uses it to realise the error
event deterministically.
"""

from __future__ import annotations

from typing import List

from repro.coding.gf import GF
from repro.utils.bits import join_symbols, split_symbols
from repro.utils.boundary import check_input_value, check_int


class PolynomialHash:
    """The universal hash family ``h_r`` for L-bit values, κ-bit digests."""

    def __init__(self, l_bits: int, kappa: int):
        check_int(l_bits, "l_bits")
        if check_int(kappa, "kappa") < 1 or kappa > 16:
            raise ValueError("kappa must be in 1..16, got %d" % kappa)
        if l_bits < 1:
            raise ValueError("l_bits must be positive, got %d" % l_bits)
        self.l_bits = l_bits
        self.kappa = kappa
        self.field = GF.get(kappa)
        self.chunks = -(-l_bits // kappa)  # ceil division

    def coefficients(self, value: int) -> List[int]:
        """Split ``value`` into κ-bit chunks ``m_0..m_{d-1}`` (MSB chunk
        first becomes m_0; zero-padded on the right)."""
        check_input_value(value, self.l_bits, "value")
        return split_symbols(value, self.l_bits, self.kappa, self.chunks)

    def value_from_coefficients(self, coeffs: List[int]) -> int:
        """Inverse of :meth:`coefficients` (truncates padding)."""
        return join_symbols(coeffs, self.kappa, self.l_bits)

    def digest(self, value: int, key: int) -> int:
        """``h_key(value)``: evaluate the chunk polynomial at ``key``."""
        coeffs = self.coefficients(value)
        return self.field.poly_eval(coeffs, key)

    def collision_probability_bound(self) -> float:
        """Union bound on Pr[collision] for any fixed pair of values."""
        return (self.chunks - 1) / float(1 << self.kappa)


def collision_for(hash_family: PolynomialHash, value: int, key: int) -> int:
    """A value ``!= value`` with the same digest under ``key``.

    Adds the polynomial ``(x + key)`` — i.e. XORs ``key`` into ``m_0`` and
    ``1`` into ``m_1`` — whose evaluation at ``key`` is ``key + key = 0``.
    Requires at least two chunks and that the tampered bits survive the
    padding truncation; raises ``ValueError`` when L is too small.
    """
    if hash_family.chunks < 2:
        raise ValueError("need at least 2 chunks for a collision")
    coeffs = hash_family.coefficients(value)
    coeffs[0] ^= key
    coeffs[1] ^= 1
    forged = hash_family.value_from_coefficients(coeffs)
    if forged == value:
        raise ValueError(
            "collision construction degenerate (key=0 and padding ate the "
            "m_1 tweak); pick a nonzero key or larger L"
        )
    if hash_family.digest(forged, key) != hash_family.digest(value, key):
        raise AssertionError("collision construction failed")
    return forged
