"""Architectural (ISA-level) simulator used as the golden model.

The fuzzer uses this simulator in Step 1.1 of the paper to "compute the
operands required to trigger the transient window and generate the related
register initialization instructions": given a candidate trigger instruction
and a desired architectural outcome (branch taken / not taken, jump target,
fault / no fault), the generator consults the golden model to pick operand
values.  The out-of-order pipeline simulator reuses the same single-instruction
semantics (:func:`compute_alu`, :func:`branch_taken`, :func:`effective_address`)
so that architectural behaviour always agrees between the two.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.isa.instructions import Instruction
from repro.isa.program import Program
from repro.utils.bitops import is_aligned, mask, sign_extend, to_signed, to_unsigned

XLEN = 64
_WORD_MASK = mask(XLEN)


class TrapCause(enum.Enum):
    """Architectural trap causes (the subset relevant to transient windows)."""

    MISALIGNED_FETCH = "misaligned_fetch"
    FETCH_ACCESS_FAULT = "fetch_access_fault"
    ILLEGAL_INSTRUCTION = "illegal_instruction"
    BREAKPOINT = "breakpoint"
    MISALIGNED_LOAD = "misaligned_load"
    LOAD_ACCESS_FAULT = "load_access_fault"
    MISALIGNED_STORE = "misaligned_store"
    STORE_ACCESS_FAULT = "store_access_fault"
    ECALL = "ecall"
    LOAD_PAGE_FAULT = "load_page_fault"
    STORE_PAGE_FAULT = "store_page_fault"


@dataclass
class Trap(Exception):
    """An architectural exception raised during execution."""

    cause: TrapCause
    tval: int = 0
    pc: int = 0

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"Trap({self.cause.value}, tval={self.tval:#x}, pc={self.pc:#x})"


class Permission(enum.Flag):
    """Page-granular access permissions used by the sparse memory model."""

    NONE = 0
    READ = enum.auto()
    WRITE = enum.auto()
    EXECUTE = enum.auto()
    USER = enum.auto()

    @classmethod
    def rwx(cls) -> "Permission":
        return cls.READ | cls.WRITE | cls.EXECUTE


PAGE_SIZE = 4096


class SimMemory:
    """Sparse byte-addressable memory with page-granular permissions.

    Pages that have never been mapped raise access faults; mapped pages whose
    permissions do not allow the access raise page faults.  This distinction
    matches how the paper's generator produces both access-fault and
    page-fault flavoured Meltdown windows.
    """

    def __init__(self, default_value: int = 0) -> None:
        self._pages: Dict[int, bytearray] = {}
        self._permissions: Dict[int, Permission] = {}
        self._default = default_value & 0xFF

    def reset(self) -> None:
        """Drop every page and mapping, restoring construction state in place.

        Existing references to this memory (e.g. a pooled processor's
        ``memory`` attribute) stay valid — only the contents vanish.
        """
        self._pages = {}
        self._permissions = {}

    def map_page(self, address: int, permission: Permission = Permission.rwx()) -> None:
        """Map the page containing ``address`` with the given permissions."""
        self._permissions[address // PAGE_SIZE] = permission

    def map_range(self, base: int, size: int, permission: Permission = Permission.rwx()) -> None:
        page = base // PAGE_SIZE
        last = (base + max(size, 1) - 1) // PAGE_SIZE
        for index in range(page, last + 1):
            self._permissions[index] = permission

    def set_permission(self, address: int, permission: Permission) -> None:
        self._permissions[address // PAGE_SIZE] = permission

    def permission_at(self, address: int) -> Optional[Permission]:
        return self._permissions.get(address // PAGE_SIZE)

    def is_mapped(self, address: int) -> bool:
        return address // PAGE_SIZE in self._permissions

    def _page_for(self, address: int) -> bytearray:
        index = address // PAGE_SIZE
        page = self._pages.get(index)
        if page is None:
            page = bytearray([self._default]) * PAGE_SIZE
            self._pages[index] = page
        return page

    def check(self, address: int, nbytes: int, access: Permission, pc: int = 0) -> None:
        """Raise the appropriate :class:`Trap` when the access is not allowed."""
        for offset in (0, nbytes - 1):
            byte_address = address + offset
            permission = self._permissions.get(byte_address // PAGE_SIZE)
            if permission is None:
                cause = {
                    Permission.READ: TrapCause.LOAD_ACCESS_FAULT,
                    Permission.WRITE: TrapCause.STORE_ACCESS_FAULT,
                    Permission.EXECUTE: TrapCause.FETCH_ACCESS_FAULT,
                }[access]
                raise Trap(cause, tval=address, pc=pc)
            if not permission & access:
                cause = {
                    Permission.READ: TrapCause.LOAD_PAGE_FAULT,
                    Permission.WRITE: TrapCause.STORE_PAGE_FAULT,
                    Permission.EXECUTE: TrapCause.FETCH_ACCESS_FAULT,
                }[access]
                raise Trap(cause, tval=address, pc=pc)

    def read(self, address: int, nbytes: int) -> int:
        """Read ``nbytes`` little-endian bytes without permission checks."""
        value = 0
        for offset in range(nbytes):
            byte_address = address + offset
            page = self._page_for(byte_address)
            value |= page[byte_address % PAGE_SIZE] << (8 * offset)
        return value

    def write(self, address: int, value: int, nbytes: int) -> None:
        """Write ``nbytes`` little-endian bytes without permission checks."""
        for offset in range(nbytes):
            byte_address = address + offset
            page = self._page_for(byte_address)
            page[byte_address % PAGE_SIZE] = (value >> (8 * offset)) & 0xFF

    def write_bytes(self, address: int, data: bytes) -> None:
        for offset, byte in enumerate(data):
            self.write(address + offset, byte, 1)

    def read_bytes(self, address: int, size: int) -> bytes:
        return bytes(self.read(address + offset, 1) for offset in range(size))


@dataclass
class ExecutionResult:
    """The outcome of running the ISA simulator."""

    instructions_retired: int
    final_pc: int
    trap: Optional[Trap] = None
    trace: List[Tuple[int, str]] = field(default_factory=list)
    register_file: Dict[int, int] = field(default_factory=dict)


def _sext32(value: int) -> int:
    """Sign-extend the low 32 bits of ``value`` (the result of a ``*w`` operation)."""
    value &= 0xFFFFFFFF
    return value - (1 << 32) if value & 0x80000000 else value


def _signed_divide(dividend: int, divisor: int) -> int:
    """RISC-V signed division: exact, truncating toward zero, ``x / 0 == -1``.

    The overflow case (most negative value divided by -1) yields the
    dividend once the caller truncates to the register width.
    """
    if divisor == 0:
        return -1
    quotient = abs(dividend) // abs(divisor)
    return -quotient if (dividend < 0) != (divisor < 0) else quotient


def _signed_remainder(dividend: int, divisor: int) -> int:
    """RISC-V signed remainder: takes the dividend's sign, ``x % 0 == x``."""
    if divisor == 0:
        return dividend
    return dividend - _signed_divide(dividend, divisor) * divisor


def _upper_immediate(imm: int) -> int:
    return sign_extend(imm & 0xFFFFF000, 32, 64)


# mnemonic -> f(a, b, imm, pc), with ``a``/``b`` the unsigned 64-bit source
# operands and ``imm`` the raw immediate.  ``compute_alu`` truncates the
# result to XLEN; ``*w`` entries sign-extend their 32-bit result themselves.
_ALU_OPERATIONS: Dict[str, Callable[[int, int, int, int], int]] = {
    "add": lambda a, b, imm, pc: a + b,
    "addw": lambda a, b, imm, pc: _sext32(a + b),
    "addi": lambda a, b, imm, pc: a + to_signed(imm, 64),
    "addiw": lambda a, b, imm, pc: _sext32(a + to_signed(imm, 64)),
    "sub": lambda a, b, imm, pc: a - b,
    "subw": lambda a, b, imm, pc: _sext32(a - b),
    "and": lambda a, b, imm, pc: a & b,
    "andi": lambda a, b, imm, pc: a & (imm & _WORD_MASK),
    "or": lambda a, b, imm, pc: a | b,
    "ori": lambda a, b, imm, pc: a | (imm & _WORD_MASK),
    "xor": lambda a, b, imm, pc: a ^ b,
    "xori": lambda a, b, imm, pc: a ^ (imm & _WORD_MASK),
    "sll": lambda a, b, imm, pc: a << (b & 63),
    "sllw": lambda a, b, imm, pc: _sext32(a << (b & 31)),
    "slli": lambda a, b, imm, pc: a << (imm & 63),
    "slliw": lambda a, b, imm, pc: _sext32(a << (imm & 31)),
    "srl": lambda a, b, imm, pc: a >> (b & 63),
    "srlw": lambda a, b, imm, pc: _sext32((a & 0xFFFFFFFF) >> (b & 31)),
    "srli": lambda a, b, imm, pc: a >> (imm & 63),
    "srliw": lambda a, b, imm, pc: _sext32((a & 0xFFFFFFFF) >> (imm & 31)),
    "sra": lambda a, b, imm, pc: to_signed(a, 64) >> (b & 63),
    "sraw": lambda a, b, imm, pc: _sext32(to_signed(a, 32) >> (b & 31)),
    "srai": lambda a, b, imm, pc: to_signed(a, 64) >> (imm & 63),
    "sraiw": lambda a, b, imm, pc: _sext32(to_signed(a, 32) >> (imm & 31)),
    "slt": lambda a, b, imm, pc: 1 if to_signed(a, 64) < to_signed(b, 64) else 0,
    "slti": lambda a, b, imm, pc: 1 if to_signed(a, 64) < to_signed(imm, 64) else 0,
    "sltu": lambda a, b, imm, pc: 1 if a < b else 0,
    "sltiu": lambda a, b, imm, pc: 1 if a < (imm & _WORD_MASK) else 0,
    "mul": lambda a, b, imm, pc: a * b,
    "mulw": lambda a, b, imm, pc: _sext32(a * b),
    "mulh": lambda a, b, imm, pc: (to_signed(a, 64) * to_signed(b, 64)) >> 64,
    "mulhu": lambda a, b, imm, pc: (a * b) >> 64,
    "div": lambda a, b, imm, pc: _signed_divide(to_signed(a, 64), to_signed(b, 64)),
    "divw": lambda a, b, imm, pc: _sext32(_signed_divide(to_signed(a, 32), to_signed(b, 32))),
    "divu": lambda a, b, imm, pc: _WORD_MASK if b == 0 else a // b,
    "rem": lambda a, b, imm, pc: _signed_remainder(to_signed(a, 64), to_signed(b, 64)),
    "remw": lambda a, b, imm, pc: _sext32(_signed_remainder(to_signed(a, 32), to_signed(b, 32))),
    "remu": lambda a, b, imm, pc: a if b == 0 else a % b,
    "lui": lambda a, b, imm, pc: _upper_immediate(imm),
    "auipc": lambda a, b, imm, pc: pc + _upper_immediate(imm),
    "jal": lambda a, b, imm, pc: pc + 4,
    "jalr": lambda a, b, imm, pc: pc + 4,
    "fadd.d": lambda a, b, imm, pc: _fp_arith("fadd.d", a, b),
    "fsub.d": lambda a, b, imm, pc: _fp_arith("fsub.d", a, b),
    "fmul.d": lambda a, b, imm, pc: _fp_arith("fmul.d", a, b),
    "fdiv.d": lambda a, b, imm, pc: _fp_arith("fdiv.d", a, b),
    "fcvt.d.l": lambda a, b, imm, pc: _double_to_bits(float(to_signed(a, 64))),
    "fmv.x.d": lambda a, b, imm, pc: a,
    "csrrw": lambda a, b, imm, pc: a,
    "csrrs": lambda a, b, imm, pc: a,
}


def compute_alu(instruction: Instruction, rs1: int, rs2: int, pc: int) -> int:
    """Compute the architectural result of a non-memory instruction.

    Mnemonics the table does not list (memory accesses, conditional
    branches and most system instructions) yield 0.
    """
    operation = _ALU_OPERATIONS.get(instruction.mnemonic)
    if operation is None:
        return 0
    return operation(rs1 & _WORD_MASK, rs2 & _WORD_MASK, instruction.imm, pc) & _WORD_MASK


def branch_taken(instruction: Instruction, rs1: int, rs2: int) -> bool:
    """Evaluate a conditional branch."""
    a = to_unsigned(rs1, XLEN)
    b = to_unsigned(rs2, XLEN)
    sa = to_signed(a, XLEN)
    sb = to_signed(b, XLEN)
    m = instruction.mnemonic
    if m == "beq":
        return a == b
    if m == "bne":
        return a != b
    if m == "blt":
        return sa < sb
    if m == "bge":
        return sa >= sb
    if m == "bltu":
        return a < b
    if m == "bgeu":
        return a >= b
    raise ValueError(f"not a branch: {instruction.mnemonic}")


def effective_address(instruction: Instruction, rs1: int) -> int:
    """Compute the effective address of a load/store."""
    return to_unsigned(rs1 + to_signed(instruction.imm, 64), XLEN)


def next_pc(instruction: Instruction, pc: int, rs1: int, rs2: int) -> int:
    """Compute the architectural next PC (ignoring traps)."""
    if instruction.is_branch:
        if branch_taken(instruction, rs1, rs2):
            return to_unsigned(pc + to_signed(instruction.imm, 64), XLEN)
        return pc + 4
    if instruction.mnemonic == "jal":
        return to_unsigned(pc + to_signed(instruction.imm, 64), XLEN)
    if instruction.mnemonic == "jalr":
        return to_unsigned((rs1 + to_signed(instruction.imm, 64)) & ~1, XLEN)
    return pc + 4


def _fp_arith(mnemonic: str, a_bits: int, b_bits: int) -> int:
    a = _bits_to_double(a_bits)
    b = _bits_to_double(b_bits)
    try:
        if mnemonic == "fadd.d":
            value = a + b
        elif mnemonic == "fsub.d":
            value = a - b
        elif mnemonic == "fmul.d":
            value = a * b
        else:
            value = a / b if b != 0.0 else float("inf")
    except (OverflowError, ValueError):
        value = float("nan")
    return _double_to_bits(value)


def _bits_to_double(value: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", to_unsigned(value, 64)))[0]


def _double_to_bits(value: float) -> int:
    try:
        return struct.unpack("<Q", struct.pack("<d", value))[0]
    except (OverflowError, ValueError):
        return 0x7FF8000000000000


class IsaSimulator:
    """Executes a :class:`Program` architecturally, one instruction at a time."""

    def __init__(
        self,
        program: Program,
        memory: Optional[SimMemory] = None,
    ) -> None:
        self.program = program
        self.memory = memory if memory is not None else SimMemory()
        self.registers: List[int] = [0] * 32
        self.pc = program.entry if program.entry is not None else 0
        self.instructions_retired = 0
        if memory is None:
            for section in program.sections:
                self.memory.map_range(section.base, max(section.size, 4))

    def write_register(self, index: int, value: int) -> None:
        if index != 0:
            self.registers[index] = to_unsigned(value, XLEN)

    def read_register(self, index: int) -> int:
        return 0 if index == 0 else self.registers[index]

    def step(self) -> Optional[Trap]:
        """Execute one instruction; return a trap if one was raised."""
        instruction = self.program.instruction_at(self.pc)
        if instruction is None:
            return Trap(TrapCause.FETCH_ACCESS_FAULT, tval=self.pc, pc=self.pc)
        try:
            self._execute(instruction)
            self.instructions_retired += 1
            return None
        except Trap as trap:
            trap.pc = self.pc
            return trap

    def _execute(self, instruction: Instruction) -> None:
        rs1 = self.read_register(instruction.rs1)
        rs2 = self.read_register(instruction.rs2)
        pc = self.pc

        if instruction.is_illegal:
            raise Trap(TrapCause.ILLEGAL_INSTRUCTION, tval=0, pc=pc)
        if instruction.mnemonic == "ecall":
            raise Trap(TrapCause.ECALL, pc=pc)
        if instruction.mnemonic == "ebreak":
            raise Trap(TrapCause.BREAKPOINT, pc=pc)

        if instruction.is_load:
            address = effective_address(instruction, rs1)
            nbytes = instruction.info.mem_bytes
            if not is_aligned(address, nbytes):
                raise Trap(TrapCause.MISALIGNED_LOAD, tval=address, pc=pc)
            self.memory.check(address, nbytes, Permission.READ, pc=pc)
            raw = self.memory.read(address, nbytes)
            if instruction.info.is_unsigned_load:
                value = raw
            else:
                value = sign_extend(raw, nbytes * 8, XLEN)
            self.write_register(instruction.rd, value)
            self.pc = pc + 4
            return

        if instruction.is_store:
            address = effective_address(instruction, rs1)
            nbytes = instruction.info.mem_bytes
            if not is_aligned(address, nbytes):
                raise Trap(TrapCause.MISALIGNED_STORE, tval=address, pc=pc)
            self.memory.check(address, nbytes, Permission.WRITE, pc=pc)
            self.memory.write(address, rs2, nbytes)
            self.pc = pc + 4
            return

        if instruction.is_control_flow:
            link = pc + 4
            target = next_pc(instruction, pc, rs1, rs2)
            if instruction.is_jump and instruction.info.writes_rd:
                self.write_register(instruction.rd, link)
            self.pc = target
            return

        if instruction.is_system and instruction.mnemonic in ("fence", "fence.i"):
            self.pc = pc + 4
            return

        result = compute_alu(instruction, rs1, rs2, pc)
        if instruction.info.writes_rd:
            self.write_register(instruction.rd, result)
        self.pc = pc + 4

    def run(self, max_instructions: int = 10_000) -> ExecutionResult:
        """Run until the first trap or until ``max_instructions`` have been stepped.

        A trap leaves ``pc`` at the faulting instruction, as the DUT halts.
        """
        trace: List[Tuple[int, str]] = []
        trap: Optional[Trap] = None
        for _ in range(max_instructions):
            instruction = self.program.instruction_at(self.pc)
            if instruction is not None:
                trace.append((self.pc, instruction.render()))
            trap = self.step()
            if trap is not None:
                break
        return ExecutionResult(
            instructions_retired=self.instructions_retired,
            final_pc=self.pc,
            trap=trap,
            trace=trace,
            register_file={i: self.registers[i] for i in range(32) if self.registers[i]},
        )


# The class name used throughout the paper's terminology.
GoldenModel = IsaSimulator
