"""Shared utilities: bit manipulation, deterministic RNG streams, logging."""

from repro.utils.bitops import (
    bit,
    bits,
    mask,
    sign_extend,
    to_signed,
    to_unsigned,
    popcount,
    is_aligned,
)
from repro.utils.rng import DeterministicRng

__all__ = [
    "bit",
    "bits",
    "mask",
    "sign_extend",
    "to_signed",
    "to_unsigned",
    "popcount",
    "is_aligned",
    "DeterministicRng",
]
