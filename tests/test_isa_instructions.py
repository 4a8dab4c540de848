"""Tests for the symbolic instruction model."""

import pytest

from repro.isa.instructions import (
    Instruction,
    InstructionClass,
    OPCODE_TABLE,
    make_instruction,
    nop,
)


class TestOpcodeTable:
    def test_basic_coverage(self):
        for mnemonic in ("add", "addi", "ld", "sd", "beq", "jal", "jalr", "ecall", "illegal"):
            assert mnemonic in OPCODE_TABLE

    def test_loads_have_sizes(self):
        assert OPCODE_TABLE["lb"].mem_bytes == 1
        assert OPCODE_TABLE["lh"].mem_bytes == 2
        assert OPCODE_TABLE["lw"].mem_bytes == 4
        assert OPCODE_TABLE["ld"].mem_bytes == 8

    def test_stores_do_not_write_rd(self):
        for mnemonic in ("sb", "sh", "sw", "sd"):
            assert not OPCODE_TABLE[mnemonic].writes_rd

    def test_branches_read_both_sources(self):
        for mnemonic in ("beq", "bne", "blt", "bge", "bltu", "bgeu"):
            info = OPCODE_TABLE[mnemonic]
            assert info.reads_rs1 and info.reads_rs2 and not info.writes_rd

    def test_word_ops_flagged(self):
        assert OPCODE_TABLE["addw"].is_word_op
        assert not OPCODE_TABLE["add"].is_word_op


class TestInstructionProperties:
    def test_unknown_mnemonic_rejected(self):
        with pytest.raises(ValueError):
            Instruction("not_an_instruction")

    def test_register_range_checked(self):
        with pytest.raises(ValueError):
            Instruction("add", rd=32)

    def test_classification(self):
        assert Instruction("ld", rd=1, rs1=2).is_load
        assert Instruction("sd", rs1=1, rs2=2).is_store
        assert Instruction("beq", rs1=1, rs2=2).is_branch
        assert Instruction("jal", rd=1).is_jump
        assert Instruction("fdiv.d", rd=1, rs1=2, rs2=3).is_fp
        assert Instruction("illegal").is_illegal
        assert Instruction("ecall").is_system

    def test_return_detection(self):
        ret = Instruction("jalr", rd=0, rs1=1, imm=0)
        assert ret.is_return
        assert Instruction("jalr", rd=0, rs1=5, imm=0).is_return is False
        assert Instruction("jalr", rd=1, rs1=1, imm=0).is_return is False

    def test_call_detection(self):
        assert Instruction("jal", rd=1, imm=16).is_call
        assert Instruction("jal", rd=0, imm=16).is_call is False

    def test_may_fault(self):
        assert Instruction("ld", rd=1, rs1=2).may_fault
        assert Instruction("illegal").may_fault
        assert Instruction("ecall").may_fault
        assert Instruction("add", rd=1, rs1=2, rs2=3).may_fault is False

    def test_nop_detection(self):
        assert nop().is_nop
        assert Instruction("addi", rd=1, rs1=0, imm=0).is_nop is False

    def test_writes_and_reads(self):
        add = Instruction("add", rd=3, rs1=1, rs2=2)
        assert add.writes() == 3
        assert add.reads() == (1, 2)
        store = Instruction("sd", rs1=4, rs2=5)
        assert store.writes() is None
        assert store.reads() == (4, 5)
        lui = Instruction("lui", rd=6, imm=0x1000)
        assert lui.reads() == ()

    def test_writes_to_x0_is_none(self):
        assert Instruction("add", rd=0, rs1=1, rs2=2).writes() is None

    def test_tags_are_immutable_additions(self):
        base = nop()
        tagged = base.with_tag("window")
        assert tagged.has_tag("window")
        assert not base.has_tag("window")
        double = tagged.with_tag("encode")
        assert double.has_tag("window") and double.has_tag("encode")

    def test_nop_is_one_shared_instance(self):
        assert nop() is nop()

    def test_tagging_the_shared_nop_leaves_it_untagged(self):
        tagged = nop().with_tag("window")
        assert tagged is not nop()
        assert tagged.has_tag("window") and tagged.is_nop
        assert nop().tags == frozenset()
        assert nop() == Instruction("addi", rd=0, rs1=0, imm=0)

    def test_with_imm(self):
        assert Instruction("addi", rd=1, rs1=0, imm=1).with_imm(7).imm == 7


class TestRendering:
    def test_render_formats(self):
        assert Instruction("add", rd=10, rs1=11, rs2=12).render() == "add a0, a1, a2"
        assert Instruction("ld", rd=5, rs1=6, imm=8).render() == "ld t0, 8(t1)"
        assert Instruction("sd", rs1=6, rs2=5, imm=16).render() == "sd t0, 16(t1)"
        assert "beq" in Instruction("beq", rs1=1, rs2=2, imm=8).render()
        assert Instruction("addi", rd=0, rs1=0, imm=0).render() == "nop"

    def test_render_uses_label_when_present(self):
        branch = Instruction("beq", rs1=1, rs2=2, imm=8, target_label="window")
        assert "window" in branch.render()

    def test_make_instruction_helper(self):
        assert make_instruction("add", rd=1, rs1=2, rs2=3).mnemonic == "add"
