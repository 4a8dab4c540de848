"""Tests for the symbolic instruction model."""

import dataclasses
import itertools

import pytest

from repro.isa.instructions import (
    Instruction,
    InstructionClass,
    OPCODE_TABLE,
    SERIALIZING_MNEMONICS,
    nop,
)


def _reference_attributes(instruction):
    """Classify ``instruction`` from scratch, the way construction did before
    the per-mnemonic facts table: every attribute recomputed per instance."""
    mnemonic, rd, rs1, rs2, imm = (
        instruction.mnemonic,
        instruction.rd,
        instruction.rs1,
        instruction.rs2,
        instruction.imm,
    )
    info = OPCODE_TABLE[mnemonic]
    iclass = info.iclass
    is_branch = iclass is InstructionClass.BRANCH
    is_jump = iclass is InstructionClass.JUMP
    is_indirect = mnemonic == "jalr"
    is_load = iclass is InstructionClass.LOAD
    is_store = iclass is InstructionClass.STORE
    is_fp = iclass in (InstructionClass.FP, InstructionClass.FP_DIV)
    is_illegal = iclass is InstructionClass.ILLEGAL
    if info.reads_rs1:
        reads = (rs1, rs2) if info.reads_rs2 else (rs1,)
    else:
        reads = (rs2,) if info.reads_rs2 else ()
    return {
        "info": info,
        "iclass": iclass,
        "is_branch": is_branch,
        "is_jump": is_jump,
        "is_indirect_jump": is_indirect,
        "is_return": is_indirect and rd == 0 and rs1 == 1 and imm == 0,
        "is_call": is_jump and rd == 1,
        "is_control_flow": is_branch or is_jump,
        "is_load": is_load,
        "is_store": is_store,
        "is_memory": is_load or is_store,
        "is_fp": is_fp,
        "is_system": iclass is InstructionClass.SYSTEM,
        "is_illegal": is_illegal,
        "may_fault": is_load or is_store or is_illegal or mnemonic in ("ecall", "ebreak"),
        "is_nop": mnemonic == "addi" and rd == 0 and rs1 == 0 and imm == 0,
        "is_divider": mnemonic.startswith(("div", "rem")) or iclass is InstructionClass.FP_DIV,
        "port_class": "mem" if is_load or is_store else "fp" if is_fp else "int",
        "is_serializing": mnemonic in SERIALIZING_MNEMONICS,
        "_writes": rd if info.writes_rd and rd != 0 else None,
        "_reads": reads,
    }


def _operand_variants(mnemonic):
    """Every mnemonic with ``rd``/``rs1`` at 0, 1 or another register, two
    ``rs2`` values and a zero and non-zero immediate."""
    for rd, rs1, rs2, imm in itertools.product((0, 1, 7), (0, 1, 7), (0, 2), (0, 8)):
        yield Instruction(mnemonic, rd=rd, rs1=rs1, rs2=rs2, imm=imm)


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


class TestDecodeOnce:
    """Construction copies per-mnemonic facts; the result must match a full
    per-instance classification, and tagging must change nothing else."""

    @pytest.mark.parametrize("mnemonic", sorted(OPCODE_TABLE))
    def test_attributes_match_a_from_scratch_classification(self, mnemonic):
        for instruction in _operand_variants(mnemonic):
            expected = _reference_attributes(instruction)
            actual = {name: getattr(instruction, name) for name in expected}
            assert actual == expected, instruction
            # Nothing beyond the fields and the reference attributes.
            fields = {f.name for f in dataclasses.fields(Instruction)}
            assert set(vars(instruction)) == fields | set(expected)

    @pytest.mark.parametrize("mnemonic", sorted(OPCODE_TABLE))
    def test_with_tag_changes_only_tags(self, mnemonic):
        for instruction in _operand_variants(mnemonic):
            tagged = instruction.with_tag("window").with_tag("secret-access")
            assert type(tagged) is Instruction
            assert tagged.tags == instruction.tags | {"window", "secret-access"}
            assert isinstance(tagged.tags, frozenset)
            before = dict(vars(instruction), tags=None)
            after = dict(vars(tagged), tags=None)
            assert after == before
            assert tagged == dataclasses.replace(instruction, tags=tagged.tags)
            assert hash(tagged) == hash(dataclasses.replace(instruction, tags=tagged.tags))


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
