"""Taint propagation policies.

The data-taint policies follow CellIFT (Policy 1 of §2.2 for AND, plus the
standard word-level rules for the other data-flow cells).  The control-taint
policies implement both variants:

* CellIFT mode (Policy 2): the control-taint term always propagates when the
  control signal is tainted.
* diffIFT mode (Table 1): the control-taint term additionally requires the
  cross-instance difference signal (``*_diff``) to be non-zero, i.e. the taint
  only propagates when a different secret actually produced a different value
  of the control signal.

All functions operate on plain integers interpreted as ``width``-bit words;
taints are bit masks of the same width.
"""

from __future__ import annotations

import enum

from repro.utils.bitops import mask


class TaintMode(enum.Enum):
    """Which control-taint gating discipline to apply."""

    CELLIFT = "cellift"
    DIFFIFT = "diffift"


def replicate(bit_value: int, width: int) -> int:
    """Replicate a 1-bit value across ``width`` bits (Verilog ``{WIDTH{b}}``)."""
    return mask(width) if bit_value & 1 else 0


def and_taint(a: int, b: int, a_t: int, b_t: int) -> int:
    """Policy 1: ``Ot = (A & Bt) | (B & At) | (At & Bt)``."""
    return (a & b_t) | (b & a_t) | (a_t & b_t)


def or_taint(a: int, b: int, a_t: int, b_t: int, width: int) -> int:
    """Dual of Policy 1 for OR: a tainted input only matters where the other is 0."""
    not_a = (~a) & mask(width)
    not_b = (~b) & mask(width)
    return (not_a & b_t) | (not_b & a_t) | (a_t & b_t)


def not_taint(a_t: int) -> int:
    """Inversion preserves taint bit-for-bit."""
    return a_t


def xor_taint(a_t: int, b_t: int) -> int:
    """XOR output bits depend on both inputs bit-for-bit."""
    return a_t | b_t


def add_taint(a_t: int, b_t: int, width: int) -> int:
    """Addition/subtraction: taint propagates upward through the carry chain.

    Every output bit at or above the lowest tainted input bit may be affected.
    """
    combined = (a_t | b_t) & mask(width)
    if combined == 0:
        return 0
    lowest = (combined & -combined).bit_length() - 1
    return (mask(width) >> lowest) << lowest


def shift_taint(a: int, a_t: int, shamt: int, shamt_t: int, width: int, left: bool) -> int:
    """Shift: tainted shift amounts taint the whole word; otherwise shift the taint."""
    if shamt_t:
        if a_t or a:
            return mask(width)
        return 0
    if left:
        return (a_t << shamt) & mask(width)
    return a_t >> shamt


def comparison_taint(
    a_t: int,
    b_t: int,
    out_diff: int = 1,
    mode: TaintMode = TaintMode.CELLIFT,
) -> int:
    """Comparison cells produce a 1-bit output.

    CellIFT: the output is tainted whenever any input bit is tainted.
    diffIFT (Table 1): ``Ot = Odiff & |(At | Bt)`` — additionally require that
    the comparison outcome actually differs between the two instances.
    """
    any_taint = 1 if (a_t | b_t) else 0
    if mode is TaintMode.DIFFIFT:
        return any_taint & (1 if out_diff else 0)
    return any_taint


def mux_taint(
    sel: int,
    a: int,
    b: int,
    sel_t: int,
    a_t: int,
    b_t: int,
    width: int,
    sel_diff: int = 1,
    mode: TaintMode = TaintMode.CELLIFT,
) -> int:
    """Multiplexer policy (Policy 2 / Table 1 row 1).

    ``Ot = (S ? Bt : At) | (St [& Sdiff] ? (A ^ B) | (At | Bt) : 0)``
    """
    data_term = b_t if (sel & 1) else a_t
    gate = sel_t & 1
    if mode is TaintMode.DIFFIFT:
        gate &= 1 if sel_diff else 0
    control_term = ((a ^ b) | a_t | b_t) & mask(width) if gate else 0
    return (data_term | control_term) & mask(width)


def register_enable_taint(
    en: int,
    d: int,
    q: int,
    en_t: int,
    d_t: int,
    q_t: int,
    width: int,
    en_diff: int = 1,
    mode: TaintMode = TaintMode.CELLIFT,
) -> int:
    """Register-with-enable policy (Table 1 row 3).

    ``Qt' = (En ? Dt : Qt) | (Ent [& Endiff] ? (D ^ Q) | (Dt | Qt) : 0)``
    """
    data_term = d_t if (en & 1) else q_t
    gate = en_t & 1
    if mode is TaintMode.DIFFIFT:
        gate &= 1 if en_diff else 0
    control_term = ((d ^ q) | d_t | q_t) & mask(width) if gate else 0
    return (data_term | control_term) & mask(width)


def memory_read_taint(
    entry_taint: int,
    addr_t: int,
    width: int,
    addr_diff: int = 1,
    mode: TaintMode = TaintMode.CELLIFT,
) -> int:
    """Memory read policy (Table 1 row 4).

    ``Ot = memt[addr] | {WIDTH{addr_t [& addr_diff]}}``
    """
    gate = 1 if addr_t else 0
    if mode is TaintMode.DIFFIFT:
        gate &= 1 if addr_diff else 0
    return (entry_taint | replicate(gate, width)) & mask(width)


def memory_write_taint(
    wen: int,
    wdata_t: int,
    entry_taint: int,
    wen_t: int,
    addr_t: int,
    width: int,
    wen_diff: int = 1,
    addr_diff: int = 1,
    mode: TaintMode = TaintMode.CELLIFT,
) -> int:
    """Memory write policy (Table 1 row 5) for the addressed entry.

    ``memt[addr]' = (Wen ? Wdatat : memt[addr])
                    | {WIDTH{Went [& Wendiff] | (addr_t [& addr_diff] & Wen)}}``
    """
    data_term = wdata_t if (wen & 1) else entry_taint
    wen_gate = wen_t & 1
    addr_gate = 1 if addr_t else 0
    if mode is TaintMode.DIFFIFT:
        wen_gate &= 1 if wen_diff else 0
        addr_gate &= 1 if addr_diff else 0
    control_gate = wen_gate | (addr_gate & (wen & 1))
    return (data_term | replicate(control_gate, width)) & mask(width)


def concat_taint(a_t: int, b_t: int, b_width: int) -> int:
    """Concatenation keeps each operand's taint in its own bit positions."""
    return (a_t << b_width) | b_t


def slice_taint(a_t: int, hi: int, lo: int) -> int:
    """Slicing selects the corresponding taint bits."""
    return (a_t >> lo) & mask(hi - lo + 1)


def reduce_or_taint(a: int, a_t: int, width: int) -> int:
    """Reduction OR: tainted iff some tainted bit could change the outcome.

    If any untainted bit is already 1 the result is pinned at 1 and taint does
    not propagate; otherwise any tainted bit taints the 1-bit result.
    """
    untainted_ones = a & ~a_t & mask(width)
    if untainted_ones:
        return 0
    return 1 if a_t else 0
