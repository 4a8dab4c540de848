"""Bit-level helpers used across the RTL, ISA and microarchitecture layers.

All helpers operate on plain Python integers interpreted as fixed-width
two's-complement words.  Widths are explicit everywhere; nothing in this module
assumes 32 or 64 bits.
"""

from __future__ import annotations


def mask(width: int) -> int:
    """Return a bit mask of ``width`` ones (``mask(4) == 0b1111``)."""
    if width < 0:
        raise ValueError(f"width must be non-negative, got {width}")
    return (1 << width) - 1


def bit(value: int, index: int) -> int:
    """Return bit ``index`` of ``value`` as 0 or 1."""
    if index < 0:
        raise ValueError(f"bit index must be non-negative, got {index}")
    return (value >> index) & 1


def bits(value: int, hi: int, lo: int) -> int:
    """Return the bit slice ``value[hi:lo]`` inclusive, like Verilog part-select."""
    if hi < lo:
        raise ValueError(f"hi ({hi}) must be >= lo ({lo})")
    return (value >> lo) & mask(hi - lo + 1)


def to_unsigned(value: int, width: int) -> int:
    """Reinterpret ``value`` as an unsigned ``width``-bit integer."""
    return value & ((1 << width) - 1)


def to_signed(value: int, width: int) -> int:
    """Reinterpret the low ``width`` bits of ``value`` as a signed integer."""
    value &= (1 << width) - 1
    if value & (1 << (width - 1)):
        return value - (1 << width)
    return value


def sign_extend(value: int, from_width: int, to_width: int = 64) -> int:
    """Sign-extend ``value`` from ``from_width`` bits to ``to_width`` bits."""
    if from_width > to_width:
        raise ValueError(
            f"cannot sign-extend from {from_width} bits to narrower {to_width} bits"
        )
    return to_unsigned(to_signed(value, from_width), to_width)


def popcount(value: int) -> int:
    """Count the number of set bits in a non-negative integer."""
    if value < 0:
        raise ValueError("popcount expects a non-negative integer")
    return bin(value).count("1")


def is_aligned(value: int, alignment: int) -> bool:
    """Return True when ``value`` is a multiple of ``alignment`` (a power of two)."""
    _check_alignment(alignment)
    return (value & (alignment - 1)) == 0


def _check_alignment(alignment: int) -> None:
    if alignment <= 0 or (alignment & (alignment - 1)) != 0:
        raise ValueError(f"alignment must be a positive power of two, got {alignment}")
