"""Instruction data model for the RV64 subset used by the fuzzer.

Instructions are represented symbolically (mnemonic + register indices +
immediate + optional label) rather than as encoded words, because the stimulus
generator manipulates them structurally: aligning training instructions with
trigger instructions, replacing secret-encoding blocks with ``nop`` sleds, and
deriving training control flow from transient control flow all operate on this
representation.  :mod:`repro.isa.encoding` can round-trip the subset to and
from 32-bit words when a binary image is needed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.utils.bitops import to_signed


class InstructionClass(enum.Enum):
    """Coarse functional class, used for port assignment and generation."""

    ALU = "alu"
    MUL_DIV = "mul_div"
    LOAD = "load"
    STORE = "store"
    BRANCH = "branch"
    JUMP = "jump"
    FP = "fp"
    FP_DIV = "fp_div"
    SYSTEM = "system"
    ILLEGAL = "illegal"


@dataclass(frozen=True)
class OpcodeInfo:
    """Static metadata describing one mnemonic."""

    mnemonic: str
    iclass: InstructionClass
    fmt: str  # one of: r, i, s, b, u, j, none
    writes_rd: bool = True
    reads_rs1: bool = True
    reads_rs2: bool = False
    mem_bytes: int = 0
    is_word_op: bool = False
    is_unsigned_load: bool = False


def _r(mnemonic: str, iclass: InstructionClass = InstructionClass.ALU, **kw) -> OpcodeInfo:
    return OpcodeInfo(mnemonic, iclass, "r", reads_rs2=True, **kw)


def _i(mnemonic: str, iclass: InstructionClass = InstructionClass.ALU, **kw) -> OpcodeInfo:
    return OpcodeInfo(mnemonic, iclass, "i", **kw)


OPCODE_TABLE: Dict[str, OpcodeInfo] = {}


def _register(info: OpcodeInfo) -> None:
    OPCODE_TABLE[info.mnemonic] = info


# Integer register-register ALU operations.
for _m in ["add", "sub", "and", "or", "xor", "sll", "srl", "sra", "slt", "sltu"]:
    _register(_r(_m))
for _m in ["addw", "subw", "sllw", "srlw", "sraw"]:
    _register(_r(_m, is_word_op=True))

# Multiply / divide.
for _m in ["mul", "mulh", "mulhu", "div", "divu", "rem", "remu"]:
    _register(_r(_m, InstructionClass.MUL_DIV))
for _m in ["mulw", "divw", "remw"]:
    _register(_r(_m, InstructionClass.MUL_DIV, is_word_op=True))

# Integer register-immediate ALU operations.
for _m in ["addi", "andi", "ori", "xori", "slti", "sltiu", "slli", "srli", "srai"]:
    _register(_i(_m))
for _m in ["addiw", "slliw", "srliw", "sraiw"]:
    _register(_i(_m, is_word_op=True))

# Upper-immediate operations.
_register(OpcodeInfo("lui", InstructionClass.ALU, "u", reads_rs1=False))
_register(OpcodeInfo("auipc", InstructionClass.ALU, "u", reads_rs1=False))

# Loads.
_register(_i("lb", InstructionClass.LOAD, mem_bytes=1))
_register(_i("lbu", InstructionClass.LOAD, mem_bytes=1, is_unsigned_load=True))
_register(_i("lh", InstructionClass.LOAD, mem_bytes=2))
_register(_i("lhu", InstructionClass.LOAD, mem_bytes=2, is_unsigned_load=True))
_register(_i("lw", InstructionClass.LOAD, mem_bytes=4))
_register(_i("lwu", InstructionClass.LOAD, mem_bytes=4, is_unsigned_load=True))
_register(_i("ld", InstructionClass.LOAD, mem_bytes=8))

# Stores.
for _m, _b in [("sb", 1), ("sh", 2), ("sw", 4), ("sd", 8)]:
    _register(
        OpcodeInfo(_m, InstructionClass.STORE, "s", writes_rd=False, reads_rs2=True, mem_bytes=_b)
    )

# Branches.
for _m in ["beq", "bne", "blt", "bge", "bltu", "bgeu"]:
    _register(
        OpcodeInfo(_m, InstructionClass.BRANCH, "b", writes_rd=False, reads_rs2=True)
    )

# Jumps.
_register(OpcodeInfo("jal", InstructionClass.JUMP, "j", reads_rs1=False))
_register(OpcodeInfo("jalr", InstructionClass.JUMP, "i"))

# Floating point (double precision subset).
_register(_r("fadd.d", InstructionClass.FP))
_register(_r("fsub.d", InstructionClass.FP))
_register(_r("fmul.d", InstructionClass.FP))
_register(_r("fdiv.d", InstructionClass.FP_DIV))
_register(_i("fld", InstructionClass.LOAD, mem_bytes=8))
_register(
    OpcodeInfo("fsd", InstructionClass.STORE, "s", writes_rd=False, reads_rs2=True, mem_bytes=8)
)
_register(_i("fcvt.d.l", InstructionClass.FP, ))
_register(_i("fmv.x.d", InstructionClass.FP))

# System / miscellaneous.
_register(OpcodeInfo("ecall", InstructionClass.SYSTEM, "none", writes_rd=False, reads_rs1=False))
_register(OpcodeInfo("ebreak", InstructionClass.SYSTEM, "none", writes_rd=False, reads_rs1=False))
# Neither model has a CSR file or ``mepc`` to return to, so ``mret`` takes an
# illegal-instruction trap.
_register(OpcodeInfo("mret", InstructionClass.ILLEGAL, "none", writes_rd=False, reads_rs1=False))
_register(OpcodeInfo("fence", InstructionClass.SYSTEM, "none", writes_rd=False, reads_rs1=False))
_register(OpcodeInfo("fence.i", InstructionClass.SYSTEM, "none", writes_rd=False, reads_rs1=False))
_register(_i("csrrw", InstructionClass.SYSTEM))
_register(_i("csrrs", InstructionClass.SYSTEM))
_register(
    OpcodeInfo("illegal", InstructionClass.ILLEGAL, "none", writes_rd=False, reads_rs1=False)
)


# Instructions that serialize the frontend at dispatch.
SERIALIZING_MNEMONICS = frozenset(("ecall", "ebreak", "fence", "fence.i"))


def _opcode_facts(info: OpcodeInfo) -> Dict[str, object]:
    """The classification attributes every instruction of one mnemonic shares."""
    mnemonic = info.mnemonic
    iclass = info.iclass
    is_branch = iclass is InstructionClass.BRANCH
    is_jump = iclass is InstructionClass.JUMP
    is_load = iclass is InstructionClass.LOAD
    is_store = iclass is InstructionClass.STORE
    is_fp = iclass in (InstructionClass.FP, InstructionClass.FP_DIV)
    is_illegal = iclass is InstructionClass.ILLEGAL
    return {
        "info": info,
        "iclass": iclass,
        "is_branch": is_branch,
        "is_jump": is_jump,
        "is_indirect_jump": mnemonic == "jalr",
        "is_control_flow": is_branch or is_jump,
        "is_load": is_load,
        "is_store": is_store,
        "is_memory": is_load or is_store,
        "is_fp": is_fp,
        "is_system": iclass is InstructionClass.SYSTEM,
        "is_illegal": is_illegal,
        "may_fault": is_load or is_store or is_illegal or mnemonic in ("ecall", "ebreak"),
        # Execution-resource classification, read once per executed
        # instruction: the non-pipelined divider, the issue-port class and
        # whether dispatch serializes the frontend.
        "is_divider": mnemonic.startswith(("div", "rem")) or iclass is InstructionClass.FP_DIV,
        "port_class": "mem" if is_load or is_store else "fp" if is_fp else "int",
        "is_serializing": mnemonic in SERIALIZING_MNEMONICS,
    }


# Per-mnemonic classification, computed once at import.
_OPCODE_FACTS: Dict[str, Dict[str, object]] = {
    mnemonic: _opcode_facts(info) for mnemonic, info in OPCODE_TABLE.items()
}


@dataclass(frozen=True)
class Instruction:
    """A single symbolic instruction.

    ``imm`` is interpreted per instruction format (branch/jump offsets are
    byte offsets relative to the instruction's own address).  ``target_label``
    may name a label that the assembler resolves to an immediate.
    """

    mnemonic: str
    rd: int = 0
    rs1: int = 0
    rs2: int = 0
    imm: int = 0
    target_label: Optional[str] = None
    comment: str = ""
    tags: frozenset = field(default_factory=frozenset)

    # Classification is precomputed once at construction (instances are
    # immutable) instead of being exposed as properties: the processor's
    # per-cycle stages read ``iclass`` / ``is_control_flow`` / ``reads()``
    # hundreds of thousands of times per campaign and the attribute lookups
    # dominate the property-call overhead.  The names below are plain
    # instance attributes written straight into ``__dict__`` (the dataclass
    # is frozen); they are not fields, so equality/hash/replace are
    # unaffected.  Everything that depends on the mnemonic alone is copied
    # from ``_OPCODE_FACTS``; only the register-dependent attributes are
    # computed per instance.

    def __post_init__(self) -> None:
        facts = _OPCODE_FACTS.get(self.mnemonic)
        if facts is None:
            raise ValueError(f"unknown mnemonic: {self.mnemonic!r}")
        rd, rs1, rs2 = self.rd, self.rs1, self.rs2
        for name, value in (("rd", rd), ("rs1", rs1), ("rs2", rs2)):
            if not 0 <= value < 32:
                raise ValueError(f"{name} out of range for {self.mnemonic}: {value}")
        attributes = self.__dict__
        attributes.update(facts)
        info = facts["info"]
        is_indirect = facts["is_indirect_jump"]
        # ``ret`` in RISC-V is ``jalr x0, 0(ra)``; calls use ``rd == ra``.
        attributes["is_return"] = is_indirect and rd == 0 and rs1 == 1 and self.imm == 0
        attributes["is_call"] = facts["is_jump"] and rd == 1
        attributes["is_nop"] = self.mnemonic == "addi" and rd == 0 and rs1 == 0 and self.imm == 0
        attributes["_writes"] = rd if info.writes_rd and rd != 0 else None
        if info.reads_rs1:
            reads = (rs1, rs2) if info.reads_rs2 else (rs1,)
        else:
            reads = (rs2,) if info.reads_rs2 else ()
        attributes["_reads"] = reads

    def writes(self) -> Optional[int]:
        """Return the destination register index, or None."""
        return self._writes

    def reads(self) -> tuple:
        """Return the tuple of source register indices actually read."""
        return self._reads

    def with_tag(self, tag: str) -> "Instruction":
        # A tag changes no classification: copy the computed attributes
        # instead of constructing (and classifying) the instruction again.
        tagged = object.__new__(type(self))
        attributes = tagged.__dict__
        attributes.update(self.__dict__)
        attributes["tags"] = self.tags | {tag}
        return tagged

    def has_tag(self, tag: str) -> bool:
        return tag in self.tags

    def render(self) -> str:
        """Render assembly-like text for logging and debugging."""
        info = self.info
        from repro.isa.registers import reg_name

        if self.is_nop:
            return "nop"
        if info.fmt == "r":
            return f"{self.mnemonic} {reg_name(self.rd)}, {reg_name(self.rs1)}, {reg_name(self.rs2)}"
        if info.fmt == "i":
            if self.is_load:
                return f"{self.mnemonic} {reg_name(self.rd)}, {self.imm}({reg_name(self.rs1)})"
            if self.mnemonic == "jalr":
                return f"jalr {reg_name(self.rd)}, {self.imm}({reg_name(self.rs1)})"
            return f"{self.mnemonic} {reg_name(self.rd)}, {reg_name(self.rs1)}, {to_signed(self.imm, 64)}"
        if info.fmt == "s":
            return f"{self.mnemonic} {reg_name(self.rs2)}, {self.imm}({reg_name(self.rs1)})"
        if info.fmt == "b":
            target = self.target_label or f"{to_signed(self.imm, 64):+d}"
            return f"{self.mnemonic} {reg_name(self.rs1)}, {reg_name(self.rs2)}, {target}"
        if info.fmt == "u":
            return f"{self.mnemonic} {reg_name(self.rd)}, {self.imm:#x}"
        if info.fmt == "j":
            target = self.target_label or f"{to_signed(self.imm, 64):+d}"
            return f"{self.mnemonic} {reg_name(self.rd)}, {target}"
        return self.mnemonic

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.render()


_NOP = Instruction("addi", rd=0, rs1=0, imm=0)


def nop() -> Instruction:
    """The canonical ``nop`` (``addi x0, x0, 0``).

    Every call returns the same instance: instructions are immutable (tagging
    builds a new one), and generated stimuli hold tens of thousands of nops.
    """
    return _NOP
