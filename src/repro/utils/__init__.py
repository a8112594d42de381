"""Utility helpers shared across the repro package."""

from repro.utils.bits import (
    bits_to_int,
    int_to_bits,
    pack_symbols,
    unpack_symbols,
)
from repro.utils.rng import derive_rng, derive_seed

__all__ = [
    "bits_to_int",
    "int_to_bits",
    "pack_symbols",
    "unpack_symbols",
    "derive_rng",
    "derive_seed",
]
