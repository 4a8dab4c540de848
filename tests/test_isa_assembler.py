"""Tests for the two-pass assembler and the program representation."""

import pytest

from repro.isa import Assembler, AssemblyError, Program, Section
from repro.isa.instructions import Instruction, nop


class TestSectionsAndPrograms:
    def test_section_add_and_label(self):
        section = Section("text", 0x1000, labels={"after_nop": 4})
        section.add(nop()).add(nop())
        assert section.label_address("after_nop") == 0x1004
        assert section.size == 8

    def test_program_overlap_rejected(self):
        program = Program()
        first = Section("a", 0x1000)
        first.add(nop())
        second = Section("b", 0x1000)
        second.add(nop())
        program.add_section(first)
        with pytest.raises(ValueError):
            program.add_section(second)

    def test_instruction_at(self):
        program = Program()
        section = Section("text", 0x1000)
        section.add(Instruction("addi", rd=1, rs1=0, imm=5))
        program.add_section(section)
        assert program.instruction_at(0x1000).rd == 1
        assert program.instruction_at(0x2000) is None
        assert program.instruction_at(0x1002) is None  # not word aligned

    def test_label_lookup_across_sections(self):
        program = Program()
        a = Section("a", 0x1000, labels={"start": 0})
        a.add(nop())
        b = Section("b", 0x2000, labels={"other": 0})
        b.add(nop())
        program.add_section(a)
        program.add_section(b)
        assert program.label_address("start") == 0x1000
        assert program.label_address("other") == 0x2000
        with pytest.raises(KeyError):
            program.label_address("missing")


class TestAssembler:
    def test_simple_program(self):
        program = Assembler(base=0x1000).assemble(
            """
            start:
              addi t0, zero, 5
              addi t1, t0, 1
            """
        )
        instructions = [i for section in program.sections for i in section.instructions]
        assert len(instructions) == 2
        assert instructions[0].rd == 5 and instructions[0].imm == 5

    def test_label_resolution_forward_and_backward(self):
        program = Assembler(base=0x1000).assemble(
            """
            top:
              beq t0, t1, bottom
              nop
            bottom:
              j top
            """
        )
        branch = program.instruction_at(0x1000)
        assert branch.imm == 8  # two instructions forward
        jump = program.instruction_at(0x1008)
        assert jump.imm == ((-8) & ((1 << 64) - 1))

    def test_pseudo_instructions(self):
        program = Assembler(base=0x0).assemble(
            """
              nop
              mv a0, a1
              li t0, 42
              li t1, 0x12345
              ret
              beqz a0, end
            end:
              nop
            """
        )
        rendered = [i.render() for section in program.sections for i in section.instructions]
        assert rendered[0] == "nop"
        assert rendered[1] == "addi a0, a1, 0"
        assert "addi t0, zero, 42" in rendered[2]
        assert any(r.startswith("lui") for r in rendered)  # large li uses lui
        assert any("jalr zero, 0(ra)" in r for r in rendered)

    def test_la_resolves_pc_relative(self):
        program = Assembler(base=0x1000).assemble(
            """
              la t0, data
              nop
            data:
              nop
            """,
        )
        # auipc+addi must land exactly on the label address.
        from repro.isa import IsaSimulator

        simulator = IsaSimulator(program)
        simulator.run(max_instructions=2)
        assert simulator.read_register(5) == program.label_address("data")

    def test_memory_operands(self):
        program = Assembler(base=0x0).assemble("ld a0, 16(sp)\nsd a1, -8(sp)\n")
        load = program.instruction_at(0)
        store = program.instruction_at(4)
        assert load.rs1 == 2 and load.imm == 16
        assert store.rs2 == 11 and store.imm == ((-8) & ((1 << 64) - 1))

    def test_external_symbols(self):
        program = Assembler(base=0x1000).assemble(
            "la t0, secret\n", extra_symbols={"secret": 0x8000}
        )
        from repro.isa import IsaSimulator

        simulator = IsaSimulator(program)
        simulator.run(max_instructions=2)
        assert simulator.read_register(5) == 0x8000

    def test_unknown_mnemonic_rejected(self):
        with pytest.raises(AssemblyError):
            Assembler().assemble("bogus t0, t1\n")

    def test_undefined_label_rejected(self):
        with pytest.raises(AssemblyError):
            Assembler().assemble("j nowhere\n")

    def test_unknown_register_rejected(self):
        with pytest.raises(AssemblyError):
            Assembler().assemble("addi q0, zero, 1\n")

    def test_assemble_instructions_with_labels(self):
        instructions = [nop(), Instruction("addi", rd=1, rs1=0, imm=1)]
        program = Assembler(base=0x4000).assemble_instructions(
            instructions, labels={"second": 1}
        )
        assert program.label_address("second") == 0x4004
        assert program.entry == 0x4000

    def test_comments_ignored(self):
        program = Assembler().assemble("nop # trailing comment\n// full line\nnop\n")
        assert program.instruction_count == 2
