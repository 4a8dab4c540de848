"""Tests for the architectural (golden model) simulator."""

import pytest
from hypothesis import given, strategies as st

from repro.isa import Assembler, IsaSimulator, Permission, SimMemory, TrapCause
from repro.isa.instructions import Instruction
from repro.isa.simulator import branch_taken, compute_alu, effective_address, next_pc
from repro.utils.bitops import mask, to_signed, to_unsigned

U64 = st.integers(min_value=0, max_value=mask(64))


def run_asm(source, memory=None, max_instructions=200, extra_symbols=None, base=0x1000):
    program = Assembler(base=base).assemble(source, extra_symbols=extra_symbols)
    simulator = IsaSimulator(program, memory=memory)
    result = simulator.run(max_instructions=max_instructions)
    return simulator, result


class TestAluSemantics:
    @given(a=U64, b=U64)
    def test_add_matches_python(self, a, b):
        assert compute_alu(Instruction("add", rd=1, rs1=2, rs2=3), a, b, 0) == (a + b) & mask(64)

    @given(a=U64, b=U64)
    def test_xor_and_or(self, a, b):
        assert compute_alu(Instruction("xor", rd=1, rs1=2, rs2=3), a, b, 0) == a ^ b
        assert compute_alu(Instruction("and", rd=1, rs1=2, rs2=3), a, b, 0) == a & b
        assert compute_alu(Instruction("or", rd=1, rs1=2, rs2=3), a, b, 0) == a | b

    @given(a=U64, b=U64)
    def test_sltu(self, a, b):
        expected = 1 if a < b else 0
        assert compute_alu(Instruction("sltu", rd=1, rs1=2, rs2=3), a, b, 0) == expected

    @given(a=U64)
    def test_addiw_sign_extends(self, a):
        result = compute_alu(Instruction("addiw", rd=1, rs1=2, imm=0), a, 0, 0)
        assert result == to_unsigned(to_signed(a & mask(32), 32), 64)

    def test_divide_by_zero_semantics(self):
        assert compute_alu(Instruction("div", rd=1, rs1=2, rs2=3), 10, 0, 0) == mask(64)
        assert compute_alu(Instruction("divu", rd=1, rs1=2, rs2=3), 10, 0, 0) == mask(64)
        assert compute_alu(Instruction("remu", rd=1, rs1=2, rs2=3), 10, 0, 0) == 10
        assert compute_alu(Instruction("rem", rd=1, rs1=2, rs2=3), to_unsigned(-10, 64), 0, 0) == (
            to_unsigned(-10, 64)
        )
        # The *w forms test and divide only the low 32 bits of the divisor.
        assert compute_alu(Instruction("divw", rd=1, rs1=2, rs2=3), 10, 1 << 32, 0) == mask(64)
        assert compute_alu(Instruction("remw", rd=1, rs1=2, rs2=3), 0x1_8000_0001, 1 << 32, 0) == (
            to_unsigned(-0x7FFF_FFFF, 64)
        )

    def test_signed_division_is_exact(self):
        # Float division loses the low bits of operands wider than 53 bits.
        dividend = (1 << 62) + 1
        div = Instruction("div", rd=1, rs1=2, rs2=3)
        rem = Instruction("rem", rd=1, rs1=2, rs2=3)
        assert compute_alu(div, dividend, 3, 0) == dividend // 3
        assert compute_alu(rem, dividend, 3, 0) == dividend % 3
        assert compute_alu(div, to_unsigned(-dividend, 64), 3, 0) == to_unsigned(-(dividend // 3), 64)
        assert compute_alu(rem, to_unsigned(-dividend, 64), 3, 0) == to_unsigned(-(dividend % 3), 64)

    @given(a=U64, b=U64)
    def test_signed_division_truncates_toward_zero(self, a, b):
        sa, sb = to_signed(a, 64), to_signed(b, 64)
        quotient = compute_alu(Instruction("div", rd=1, rs1=2, rs2=3), a, b, 0)
        remainder = compute_alu(Instruction("rem", rd=1, rs1=2, rs2=3), a, b, 0)
        if sb == 0:
            assert (quotient, remainder) == (mask(64), a)
            return
        # a == q * b + r with |r| < |b| and r taking the dividend's sign.
        q, r = to_signed(quotient, 64), to_signed(remainder, 64)
        assert to_unsigned(q * sb + r, 64) == a
        assert abs(r) < abs(sb) and (r == 0 or (r < 0) == (sa < 0))

    def test_signed_division_overflow(self):
        most_negative = 1 << 63
        assert compute_alu(Instruction("div", rd=1, rs1=2, rs2=3), most_negative, mask(64), 0) == (
            most_negative
        )
        assert compute_alu(Instruction("rem", rd=1, rs1=2, rs2=3), most_negative, mask(64), 0) == 0
        assert compute_alu(Instruction("divw", rd=1, rs1=2, rs2=3), 0x8000_0000, mask(64), 0) == (
            to_unsigned(-(1 << 31), 64)
        )
        assert compute_alu(Instruction("remw", rd=1, rs1=2, rs2=3), 0x8000_0000, mask(64), 0) == 0

    def test_word_division_uses_the_low_32_bits(self):
        divw = Instruction("divw", rd=1, rs1=2, rs2=3)
        remw = Instruction("remw", rd=1, rs1=2, rs2=3)
        assert compute_alu(divw, 0x1_0000_0006, 3, 0) == 2
        assert compute_alu(remw, 0x1_0000_0007, 3, 0) == 1
        # -7 / 2 on the low words, whatever the upper halves hold.
        assert compute_alu(divw, 0xABCD_0000_FFFF_FFF9, 0x1234_0000_0000_0002, 0) == (
            to_unsigned(-3, 64)
        )
        assert compute_alu(remw, 0xABCD_0000_FFFF_FFF9, 0x1234_0000_0000_0002, 0) == (
            to_unsigned(-1, 64)
        )

    def test_lui_sign_extension(self):
        value = compute_alu(Instruction("lui", rd=1, imm=0x80000000), 0, 0, 0)
        assert value == to_unsigned(-0x80000000, 64)

    @given(a=U64, b=U64)
    def test_branch_taken_consistency(self, a, b):
        assert branch_taken(Instruction("beq", rs1=1, rs2=2), a, b) == (a == b)
        assert branch_taken(Instruction("bne", rs1=1, rs2=2), a, b) == (a != b)
        assert branch_taken(Instruction("bltu", rs1=1, rs2=2), a, b) == (a < b)

    def test_branch_taken_rejects_non_branch(self):
        with pytest.raises(ValueError):
            branch_taken(Instruction("add", rd=1, rs1=2, rs2=3), 0, 0)

    def test_effective_address_and_next_pc(self):
        load = Instruction("ld", rd=1, rs1=2, imm=to_unsigned(-8, 64))
        assert effective_address(load, 0x1008) == 0x1000
        jalr = Instruction("jalr", rd=0, rs1=2, imm=3)
        assert next_pc(jalr, 0x100, 0x2000, 0) == 0x2002  # lowest bit cleared


class TestMemoryModel:
    def test_read_write_roundtrip(self):
        memory = SimMemory()
        memory.map_range(0x1000, 0x100)
        memory.write(0x1000, 0xDEADBEEF, 4)
        assert memory.read(0x1000, 4) == 0xDEADBEEF
        assert memory.read(0x1002, 1) == 0xAD

    def test_unmapped_access_fault(self):
        memory = SimMemory()
        with pytest.raises(Exception) as excinfo:
            memory.check(0x5000, 8, Permission.READ)
        assert excinfo.value.cause == TrapCause.LOAD_ACCESS_FAULT

    def test_permission_page_fault(self):
        memory = SimMemory()
        memory.map_page(0x3000, Permission.READ)
        memory.check(0x3000, 8, Permission.READ)
        with pytest.raises(Exception) as excinfo:
            memory.check(0x3000, 8, Permission.WRITE)
        assert excinfo.value.cause == TrapCause.STORE_PAGE_FAULT

    def test_permission_change(self):
        memory = SimMemory()
        memory.map_range(0x4000, 0x1000)
        memory.set_permission(0x4000, Permission.EXECUTE)
        with pytest.raises(Exception):
            memory.check(0x4000, 8, Permission.READ)

    def test_write_and_read_bytes(self):
        memory = SimMemory()
        memory.map_range(0, 64)
        memory.write_bytes(0, b"hello")
        assert memory.read_bytes(0, 5) == b"hello"


class TestProgramExecution:
    def test_arithmetic_program(self):
        simulator, result = run_asm(
            """
              li t0, 6
              li t1, 7
              mul t2, t0, t1
              ecall
            """
        )
        assert simulator.read_register(7) == 42
        assert result.trap is not None and result.trap.cause == TrapCause.ECALL

    def test_loop_execution(self):
        simulator, _ = run_asm(
            """
              li a0, 0
              li a1, 5
            loop:
              addi a0, a0, 1
              blt a0, a1, loop
              ecall
            """
        )
        assert simulator.read_register(10) == 5

    def test_memory_program(self):
        memory = SimMemory()
        memory.map_range(0x1000, 0x1000)
        memory.map_range(0x8000, 0x1000)
        simulator, _ = run_asm(
            """
              li t0, 0x8000
              li t1, 123
              sd t1, 0(t0)
              ld t2, 0(t0)
              ecall
            """,
            memory=memory,
        )
        assert simulator.read_register(7) == 123
        assert memory.read(0x8000, 8) == 123

    def test_call_and_return(self):
        simulator, _ = run_asm(
            """
              call func
              li t1, 1
              ecall
            func:
              li t0, 9
              ret
            """
        )
        assert simulator.read_register(5) == 9
        assert simulator.read_register(6) == 1

    def test_misaligned_load_traps(self):
        memory = SimMemory()
        memory.map_range(0x1000, 0x1000)
        memory.map_range(0x8000, 0x1000)
        _, result = run_asm(
            """
              li t0, 0x8001
              ld t1, 0(t0)
            """,
            memory=memory,
        )
        assert result.trap.cause == TrapCause.MISALIGNED_LOAD

    def test_page_fault_on_protected_page(self):
        memory = SimMemory()
        memory.map_range(0x1000, 0x1000)
        memory.map_page(0x8000, Permission.EXECUTE)
        _, result = run_asm(
            """
              li t0, 0x8000
              ld t1, 0(t0)
            """,
            memory=memory,
        )
        assert result.trap.cause == TrapCause.LOAD_PAGE_FAULT

    def test_illegal_instruction_traps(self):
        program = Assembler(base=0x1000).assemble_instructions([Instruction("illegal")])
        simulator = IsaSimulator(program)
        result = simulator.run()
        assert result.trap.cause == TrapCause.ILLEGAL_INSTRUCTION

    def test_x0_is_always_zero(self):
        simulator, _ = run_asm("addi zero, zero, 5\necall\n")
        assert simulator.read_register(0) == 0
