"""A small two-pass assembler for the RV64 subset.

The assembler accepts either assembly source text or lists of symbolic
:class:`~repro.isa.instructions.Instruction` objects, expands the common
pseudo-instructions (``li``, ``la``, ``mv``, ``j``, ``ret``, ``call``,
``beqz``/``bnez``, ``nop``), resolves labels to PC-relative immediates, and
produces a :class:`~repro.isa.program.Program`.

It exists so that the example scripts and the test suite can express the
paper's attack gadgets (Figure 1, the B2/B3 proof-of-concept listings)
readably, and so that generated packets can be rendered into binary images.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Sequence, Tuple

from repro.isa.instructions import Instruction, OPCODE_TABLE
from repro.isa.program import Program, Section
from repro.isa.registers import fp_reg_index, reg_index
from repro.utils.bitops import to_signed, to_unsigned


class AssemblyError(ValueError):
    """Raised on malformed assembly source or unresolvable labels."""


_LABEL_RE = re.compile(r"^\s*([A-Za-z_][A-Za-z0-9_.]*)\s*:\s*(.*)$")
_MEM_OPERAND_RE = re.compile(r"^(-?\w+)\s*\(\s*(\w+)\s*\)$")


class Assembler:
    """Two-pass assembler producing a :class:`Program`."""

    def __init__(self, base: int = 0x8000_0000, section_name: str = "text") -> None:
        self._base = base
        self._section_name = section_name

    def assemble(self, source: str, extra_symbols: Optional[Dict[str, int]] = None) -> Program:
        """Assemble ``source`` text into a single-section program."""
        lines = self._strip(source)
        symbols = dict(extra_symbols or {})
        expanded = self._first_pass(lines, symbols)
        section = self._second_pass(expanded, symbols)
        program = Program()
        program.add_section(section)
        program.entry = self._base
        return program

    def assemble_instructions(
        self,
        instructions: Sequence[Instruction],
        base: Optional[int] = None,
        labels: Optional[Dict[str, int]] = None,
    ) -> Program:
        """Wrap pre-built instructions into a program with optional labels.

        ``labels`` maps label names to instruction indices.
        """
        section = Section(self._section_name, base if base is not None else self._base)
        section.instructions = list(instructions)
        if labels:
            for name, index in labels.items():
                section.labels[name] = index * 4
        program = Program()
        program.add_section(section)
        program.entry = section.base
        return program

    # -- first pass: tokenize, expand pseudo-instructions, collect labels -----

    def _strip(self, source: str) -> List[str]:
        lines = []
        for raw in source.splitlines():
            line = raw.split("#", 1)[0].split("//", 1)[0].strip()
            if line:
                lines.append(line)
        return lines

    def _first_pass(
        self, lines: List[str], symbols: Dict[str, int]
    ) -> List[Tuple[str, List[str]]]:
        expanded: List[Tuple[str, List[str]]] = []
        pc = self._base
        pending_labels: List[str] = []
        for line in lines:
            while True:
                match = _LABEL_RE.match(line)
                if not match:
                    break
                pending_labels.append(match.group(1))
                line = match.group(2).strip()
            if not line:
                continue
            mnemonic, operands = self._split_operands(line)
            pieces = self._expand_pseudo(mnemonic, operands)
            for label in pending_labels:
                symbols[label] = pc
            pending_labels = []
            for piece in pieces:
                expanded.append(piece)
                pc += 4
        for label in pending_labels:
            symbols[label] = pc
        return expanded

    def _split_operands(self, line: str) -> Tuple[str, List[str]]:
        parts = line.split(None, 1)
        mnemonic = parts[0].lower()
        operands = []
        if len(parts) > 1:
            operands = [op.strip() for op in parts[1].split(",")]
        return mnemonic, operands

    def _expand_pseudo(self, mnemonic: str, ops: List[str]) -> List[Tuple[str, List[str]]]:
        if mnemonic == "nop":
            return [("addi", ["x0", "x0", "0"])]
        if mnemonic == "mv":
            return [("addi", [ops[0], ops[1], "0"])]
        if mnemonic == "not":
            return [("xori", [ops[0], ops[1], "-1"])]
        if mnemonic == "neg":
            return [("sub", [ops[0], "x0", ops[1]])]
        if mnemonic == "li":
            return self._expand_li(ops[0], ops[1])
        if mnemonic == "la":
            # la is resolved against the symbol table in the second pass via
            # auipc/addi; represented as a two-instruction pseudo pair.
            return [("__la_hi", [ops[0], ops[1]]), ("__la_lo", [ops[0], ops[1]])]
        if mnemonic == "j":
            return [("jal", ["x0", ops[0]])]
        if mnemonic == "jr":
            return [("jalr", ["x0", "0(" + ops[0] + ")"])]
        if mnemonic == "ret":
            return [("jalr", ["x0", "0(ra)"])]
        if mnemonic == "call":
            return [("jal", ["ra", ops[0]])]
        if mnemonic == "beqz":
            return [("beq", [ops[0], "x0", ops[1]])]
        if mnemonic == "bnez":
            return [("bne", [ops[0], "x0", ops[1]])]
        if mnemonic == "bgtz":
            return [("blt", ["x0", ops[0], ops[1]])]
        if mnemonic == "blez":
            return [("bge", ["x0", ops[0], ops[1]])]
        return [(mnemonic, ops)]

    def _expand_li(self, rd: str, value_text: str) -> List[Tuple[str, List[str]]]:
        value = _parse_int(value_text)
        signed = to_signed(value, 64)
        if -2048 <= signed < 2048:
            return [("addi", [rd, "x0", str(signed)])]
        low = to_signed(value & 0xFFF, 12)
        high = to_unsigned(value - low, 64)
        if high & 0xFFF:
            # Values needing more than lui+addi are materialised via shifts.
            upper = to_unsigned(value, 64) >> 12
            return [
                ("lui", [rd, str((upper >> 20) << 12 if upper >> 20 else 0x1000)]),
                ("addi", [rd, rd, str(to_signed((upper >> 8) & 0xFFF, 12))]),
                ("slli", [rd, rd, "20"]),
                ("addi", [rd, rd, str(to_signed(value & 0xFFF, 12))]),
            ]
        return [("lui", [rd, str(high)]), ("addi", [rd, rd, str(low)])]

    # -- second pass: resolve symbols and build Instruction objects -----------

    def _second_pass(
        self, expanded: List[Tuple[str, List[str]]], symbols: Dict[str, int]
    ) -> Section:
        section = Section(self._section_name, self._base)
        for label, address in symbols.items():
            offset = address - self._base
            if 0 <= offset <= len(expanded) * 4:
                section.labels[label] = offset
        pc = self._base
        for mnemonic, ops in expanded:
            instruction = self._build(mnemonic, ops, pc, symbols)
            section.instructions.append(instruction)
            pc += 4
        return section

    def _build(
        self, mnemonic: str, ops: List[str], pc: int, symbols: Dict[str, int]
    ) -> Instruction:
        if mnemonic == "__la_hi":
            target = self._resolve(ops[1], symbols)
            offset = target - pc
            hi = (offset + 0x800) & ~0xFFF
            return Instruction("auipc", rd=_reg(ops[0]), imm=to_unsigned(hi, 32))
        if mnemonic == "__la_lo":
            target = self._resolve(ops[1], symbols)
            offset = target - (pc - 4)
            hi = (offset + 0x800) & ~0xFFF
            lo = offset - hi
            return Instruction("addi", rd=_reg(ops[0]), rs1=_reg(ops[0]), imm=to_unsigned(lo, 64))
        if mnemonic not in OPCODE_TABLE:
            raise AssemblyError(f"unknown mnemonic {mnemonic!r}")
        info = OPCODE_TABLE[mnemonic]
        if info.fmt == "none":
            return Instruction(mnemonic)
        if info.fmt == "r":
            return Instruction(mnemonic, rd=_reg(ops[0]), rs1=_reg(ops[1]), rs2=_reg(ops[2]))
        if info.fmt == "u":
            return Instruction(mnemonic, rd=_reg(ops[0]), imm=to_unsigned(_parse_int(ops[1]), 32))
        if info.fmt == "j":
            target = self._resolve(ops[1], symbols)
            return Instruction(
                mnemonic,
                rd=_reg(ops[0]),
                imm=to_unsigned(target - pc, 64),
                target_label=ops[1] if not _is_int(ops[1]) else None,
            )
        if info.fmt == "b":
            target = self._resolve(ops[2], symbols)
            return Instruction(
                mnemonic,
                rs1=_reg(ops[0]),
                rs2=_reg(ops[1]),
                imm=to_unsigned(target - pc, 64),
                target_label=ops[2] if not _is_int(ops[2]) else None,
            )
        if info.fmt == "s":
            imm, base_reg = _split_mem_operand(ops[1])
            return Instruction(mnemonic, rs1=base_reg, rs2=_reg(ops[0]), imm=to_unsigned(imm, 64))
        if info.fmt == "i":
            if info.mem_bytes > 0 or mnemonic == "jalr":
                if len(ops) == 2 and "(" in ops[1]:
                    imm, base_reg = _split_mem_operand(ops[1])
                    return Instruction(
                        mnemonic, rd=_reg(ops[0]), rs1=base_reg, imm=to_unsigned(imm, 64)
                    )
                if mnemonic == "jalr" and len(ops) == 3:
                    return Instruction(
                        mnemonic,
                        rd=_reg(ops[0]),
                        rs1=_reg(ops[1]),
                        imm=to_unsigned(_parse_int(ops[2]), 64),
                    )
                raise AssemblyError(f"bad memory operand in {mnemonic} {ops}")
            return Instruction(
                mnemonic,
                rd=_reg(ops[0]),
                rs1=_reg(ops[1]),
                imm=to_unsigned(_parse_int(ops[2]), 64),
            )
        raise AssemblyError(f"unsupported format for {mnemonic!r}")

    def _resolve(self, token: str, symbols: Dict[str, int]) -> int:
        if _is_int(token):
            return _parse_int(token)
        if token in symbols:
            return symbols[token]
        raise AssemblyError(f"undefined label {token!r}")


def _reg(token: str) -> int:
    token = token.strip()
    if token.startswith("f") and token[1:].isdigit():
        return fp_reg_index(token)
    try:
        return reg_index(token)
    except ValueError:
        try:
            return fp_reg_index(token)
        except ValueError:
            raise AssemblyError(f"unknown register {token!r}") from None


def _parse_int(token: str) -> int:
    token = token.strip()
    try:
        return int(token, 0)
    except ValueError:
        raise AssemblyError(f"not an integer literal: {token!r}") from None


def _is_int(token: str) -> bool:
    try:
        int(token.strip(), 0)
        return True
    except ValueError:
        return False


def _split_mem_operand(token: str) -> Tuple[int, int]:
    match = _MEM_OPERAND_RE.match(token.strip())
    if not match:
        raise AssemblyError(f"bad memory operand {token!r}")
    return _parse_int(match.group(1)), _reg(match.group(2))
