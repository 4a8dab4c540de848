"""RISC-V RV64 subset: instruction model, assembler, encoder and ISA simulator.

The fuzzer generates instruction streams as :class:`~repro.isa.instructions.Instruction`
objects.  The architectural simulator (:class:`~repro.isa.simulator.IsaSimulator`)
serves as the golden model used during stimulus generation to derive the
operand values required to steer control flow into a transient window, exactly
as the paper uses an ISA simulator in Step 1.1.
"""

from repro.isa.registers import (
    ABI_NAMES,
    NUM_REGS,
    Register,
    reg_index,
    reg_name,
)
from repro.isa.instructions import (
    Instruction,
    InstructionClass,
    OPCODE_TABLE,
)
from repro.isa.program import Program, Section
from repro.isa.assembler import Assembler, AssemblyError
from repro.isa.encoding import decode_word, encode_instruction, EncodingError
from repro.isa.simulator import (
    IsaSimulator,
    Permission,
    SimMemory,
    Trap,
    TrapCause,
    ExecutionResult,
)

__all__ = [
    "ABI_NAMES",
    "NUM_REGS",
    "Register",
    "reg_index",
    "reg_name",
    "Instruction",
    "InstructionClass",
    "OPCODE_TABLE",
    "Program",
    "Section",
    "Assembler",
    "AssemblyError",
    "decode_word",
    "encode_instruction",
    "EncodingError",
    "IsaSimulator",
    "Permission",
    "SimMemory",
    "Trap",
    "TrapCause",
    "ExecutionResult",
]
