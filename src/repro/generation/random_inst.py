"""Random instruction generation over the RV64 subset.

Used for the filler/setup portion of transient packets, for SpecDoctor-style
purely random stimuli, and for the DejaVuzz* ablation (random, underived
training packets).  Generated memory accesses stay inside caller-provided
safe address ranges so that filler instructions never fault by accident.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.isa.instructions import Instruction
from repro.utils.rng import DeterministicRng

# Registers the generator may freely clobber.  It avoids sp/gp/tp/ra, the
# registers used by the window blocks (t0/t1/t2, s0/s1), the trigger operands
# (a0/a1), the slow-address registers of the disambiguation trigger (a3-a5)
# and the filler's own memory base register (a6).
SCRATCH_REGISTERS: Tuple[int, ...] = (12, 17, 28, 29, 30, 31)  # a2, a7, t3-t6
ARITHMETIC_MNEMONICS: Tuple[str, ...] = (
    "add", "sub", "and", "or", "xor", "sll", "srl", "sra", "slt", "sltu",
    "addw", "subw", "mul",
)
IMMEDIATE_MNEMONICS: Tuple[str, ...] = (
    "addi", "andi", "ori", "xori", "slti", "sltiu", "slli", "srli", "addiw",
)
BRANCH_MNEMONICS: Tuple[str, ...] = ("beq", "bne", "blt", "bge", "bltu", "bgeu")
LOAD_MNEMONICS: Tuple[str, ...] = ("lb", "lbu", "lh", "lhu", "lw", "lwu", "ld")
STORE_MNEMONICS: Tuple[str, ...] = ("sb", "sh", "sw", "sd")


@dataclass
class SafeRegion:
    """An address range that random memory accesses may touch."""

    base: int
    size: int


class RandomInstructionGenerator:
    """Generates individual random instructions and filler blocks."""

    def __init__(
        self,
        rng: DeterministicRng,
        safe_regions: Optional[Sequence[SafeRegion]] = None,
        scratch_registers: Sequence[int] = SCRATCH_REGISTERS,
    ) -> None:
        self.rng = rng
        self.safe_regions = list(safe_regions or [])
        self.scratch = list(scratch_registers)

    # -- single instructions -------------------------------------------------------

    def scratch_register(self) -> int:
        return self.rng.choice(self.scratch)

    def arithmetic(self) -> Instruction:
        if self.rng.bernoulli(0.5):
            return Instruction(
                self.rng.choice(ARITHMETIC_MNEMONICS),
                rd=self.scratch_register(),
                rs1=self.scratch_register(),
                rs2=self.scratch_register(),
            )
        mnemonic = self.rng.choice(IMMEDIATE_MNEMONICS)
        imm = self.rng.randint(0, 31) if mnemonic in ("slli", "srli") else self.rng.randint(0, 2047)
        return Instruction(
            mnemonic,
            rd=self.scratch_register(),
            rs1=self.scratch_register(),
            imm=imm,
        )

    def memory_access(self, address_register: int) -> Instruction:
        """A load or store whose base register must already hold a safe address."""
        offset = self.rng.randint(0, 15) * 8
        if self.rng.bernoulli(0.7):
            return Instruction(
                self.rng.choice(LOAD_MNEMONICS),
                rd=self.scratch_register(),
                rs1=address_register,
                imm=offset,
            )
        return Instruction(
            self.rng.choice(STORE_MNEMONICS),
            rs1=address_register,
            rs2=self.scratch_register(),
            imm=offset,
        )

    def branch(self, max_forward_instructions: int = 4) -> Instruction:
        """A short forward branch (never jumps backwards, never leaves the block)."""
        offset = 4 * self.rng.randint(1, max_forward_instructions)
        return Instruction(
            self.rng.choice(BRANCH_MNEMONICS),
            rs1=self.scratch_register(),
            rs2=self.scratch_register(),
            imm=offset,
        )

    def any_instruction(self, allow_branches: bool = True) -> Instruction:
        roll = self.rng.random()
        if allow_branches and roll < 0.15:
            return self.branch()
        if roll < 0.30 and self.safe_regions:
            # Memory filler uses a6 which filler_block pre-loads with a safe base.
            return self.memory_access(address_register=16)
        return self.arithmetic()

    # -- blocks -----------------------------------------------------------------------

    def materialize_address(self, register: int, address: int) -> List[Instruction]:
        """lui+addi sequence placing ``address`` (32-bit range) in ``register``."""
        low = address & 0xFFF
        if low >= 0x800:
            high = (address + 0x1000) & 0xFFFFF000
            low = low - 0x1000
        else:
            high = address & 0xFFFFF000
        return [
            Instruction("lui", rd=register, imm=high),
            Instruction("addi", rd=register, rs1=register, imm=low),
        ]

    def filler_block(self, length: int, allow_branches: bool = True) -> List[Instruction]:
        """Random filler; the first instructions set up a safe memory base in a6."""
        instructions: List[Instruction] = []
        if self.safe_regions and length >= 3:
            region = self.rng.choice(self.safe_regions)
            instructions.extend(self.materialize_address(16, region.base))
        while len(instructions) < length:
            instructions.append(self.any_instruction(allow_branches=allow_branches))
        return instructions[:length]
