"""Tests for dynamic swappable memory: layout, packets, runtime and harness."""

import pytest

from repro.isa.instructions import Instruction, nop
from repro.swapmem import (
    DEFAULT_LAYOUT,
    DualCoreHarness,
    Packet,
    PacketKind,
    SwapMemory,
    SwapRunner,
    SwapSchedule,
)
from repro.swapmem.harness import flip_secret
from repro.uarch import Processor, TaintTrackingMode, small_boom_config


def simple_packet(name="p", kind=PacketKind.TRANSIENT, body=None):
    instructions = body or [nop(), nop(), Instruction("ecall")]
    return Packet(name=name, kind=kind, instructions=instructions)


class TestLayout:
    def test_regions_do_not_overlap(self):
        layout = DEFAULT_LAYOUT
        regions = [
            (layout.shared_base, layout.shared_size),
            (layout.dedicated_base, layout.dedicated_size),
            (layout.swappable_base, layout.swappable_size),
            (layout.probe_base, layout.probe_size),
        ]
        for index, (base_a, size_a) in enumerate(regions):
            for base_b, size_b in regions[index + 1:]:
                assert base_a + size_a <= base_b or base_b + size_b <= base_a

    def test_secret_address_inside_dedicated(self):
        layout = DEFAULT_LAYOUT
        assert layout.dedicated_base <= layout.secret_address < layout.dedicated_base + layout.dedicated_size
        assert layout.dedicated_base <= layout.operand_address < layout.dedicated_base + layout.dedicated_size

    def test_describe(self):
        assert "swappable" in DEFAULT_LAYOUT.describe()


class TestPackets:
    def test_entry_offset_must_be_aligned(self):
        with pytest.raises(ValueError):
            Packet(name="bad", kind=PacketKind.TRANSIENT, entry_offset=2)

    def test_counts(self):
        packet = Packet(
            name="p",
            kind=PacketKind.TRIGGER_TRAINING,
            instructions=[nop(), nop(), Instruction("beq", rs1=0, rs2=0, imm=8), Instruction("ecall")],
        )
        assert packet.instruction_count() == 4
        # nops and the terminating ecall are excluded from the effective count.
        assert packet.non_nop_count() == 1

    def test_replace_tagged_with_nops(self):
        packet = Packet(
            name="p",
            kind=PacketKind.TRANSIENT,
            instructions=[
                Instruction("ld", rd=1, rs1=2).with_tag("encode"),
                Instruction("add", rd=3, rs1=1, rs2=1),
            ],
        )
        sanitized = packet.replace_tagged_with_nops("encode")
        assert sanitized.instructions[0].is_nop
        assert sanitized.instructions[1].mnemonic == "add"
        assert packet.instructions[0].mnemonic == "ld"  # original untouched

    def test_render_contains_offsets(self):
        packet = simple_packet()
        text = packet.render()
        assert "+0x0000" in text and "ecall" in text


class TestSwapSchedule:
    def test_ordering(self):
        schedule = SwapSchedule()
        schedule.add(simple_packet("t", PacketKind.TRANSIENT))
        schedule.add(simple_packet("tt", PacketKind.TRIGGER_TRAINING))
        schedule.add(simple_packet("wt", PacketKind.WINDOW_TRAINING))
        kinds = [packet.kind for packet in schedule.ordered_packets()]
        assert kinds == [
            PacketKind.WINDOW_TRAINING,
            PacketKind.TRIGGER_TRAINING,
            PacketKind.TRANSIENT,
        ]

    def test_training_overhead_counts(self):
        schedule = SwapSchedule()
        training = Packet(
            name="tt",
            kind=PacketKind.TRIGGER_TRAINING,
            instructions=[nop()] * 10 + [Instruction("beq", rs1=0, rs2=0, imm=8), Instruction("ecall")],
        )
        schedule.add(training)
        schedule.add(simple_packet("t", PacketKind.TRANSIENT))
        assert schedule.training_overhead() == 12
        assert schedule.effective_training_overhead() == 1

    def test_with_transient_packet(self):
        schedule = SwapSchedule()
        schedule.add(simple_packet("old", PacketKind.TRANSIENT))
        replaced = schedule.with_transient_packet(simple_packet("new", PacketKind.TRANSIENT))
        assert replaced.transient_packet().name == "new"

    def test_window_pcs_from_metadata(self):
        packet = simple_packet("t", PacketKind.TRANSIENT)
        packet.metadata["window_offsets"] = [4, 8]
        schedule = SwapSchedule(packets=[packet])
        pcs = schedule.window_pcs(0x1000)
        assert pcs == {0x1004, 0x1008}


class TestSwapMemory:
    def test_secret_and_operands(self):
        memory = SwapMemory(secret=0x1234)
        assert memory.secret_value() == 0x1234
        memory.set_operand(2, 0x99)
        assert memory.data.read(DEFAULT_LAYOUT.operand_address + 16, 8) == 0x99

    def test_protect_secret(self):
        memory = SwapMemory(secret=1)
        memory.protect_secret()
        from repro.isa import Permission

        permission = memory.data.permission_at(DEFAULT_LAYOUT.secret_address)
        assert not permission & Permission.READ

    def test_load_packet_and_fetch(self):
        memory = SwapMemory()
        packet = simple_packet()
        entry = memory.load_packet(packet)
        assert entry == DEFAULT_LAYOUT.swappable_base
        assert memory.fetch(entry).is_nop
        assert memory.fetch(entry + 8).mnemonic == "ecall"
        assert memory.fetch(0xDEAD0000) is None

    def test_swapping_replaces_previous_packet(self):
        memory = SwapMemory()
        memory.load_packet(simple_packet("first"))
        second = Packet(
            name="second", kind=PacketKind.TRANSIENT, instructions=[Instruction("ecall")]
        )
        memory.load_packet(second)
        assert memory.fetch(DEFAULT_LAYOUT.swappable_base).mnemonic == "ecall"
        assert memory.fetch(DEFAULT_LAYOUT.swappable_base + 4) is None
        assert memory.swap_count == 2

    def test_oversized_packet_rejected(self):
        memory = SwapMemory()
        with pytest.raises(ValueError):
            memory.load_packet(simple_packet(body=[nop()] * (DEFAULT_LAYOUT.swappable_size // 4 + 1)))


class TestSwapRunner:
    def test_requires_shared_memory_object(self):
        memory = SwapMemory()
        processor = Processor(small_boom_config())  # its own private memory
        with pytest.raises(ValueError):
            SwapRunner(processor, memory, SwapSchedule(packets=[simple_packet()]))

    def test_runs_all_packets_in_order(self):
        memory = SwapMemory(secret=1)
        processor = Processor(small_boom_config(), memory=memory.data)
        schedule = SwapSchedule()
        schedule.add(simple_packet("train", PacketKind.TRIGGER_TRAINING))
        schedule.add(simple_packet("transient", PacketKind.TRANSIENT))
        result = SwapRunner(processor, memory, schedule).run()
        assert [record.packet_name for record in result.packet_records] == ["train", "transient"]
        assert all(record.halted_on == "trap:ecall" for record in result.packet_records)
        assert result.total_cycles > 0

    def test_operand_writes_applied(self):
        memory = SwapMemory(secret=1)
        processor = Processor(small_boom_config(), memory=memory.data)
        packet = simple_packet("transient", PacketKind.TRANSIENT)
        packet.metadata["operand_writes"] = {0: 0xABCD}
        schedule = SwapSchedule(packets=[packet])
        SwapRunner(processor, memory, schedule).run()
        assert memory.data.read(DEFAULT_LAYOUT.operand_address, 8) == 0xABCD

    def test_secret_protected_before_transient_only(self):
        memory = SwapMemory(secret=1)
        processor = Processor(small_boom_config(), memory=memory.data)
        seen = []

        training = Packet(
            name="train",
            kind=PacketKind.TRIGGER_TRAINING,
            instructions=[nop(), Instruction("ecall")],
        )
        transient = Packet(
            name="transient",
            kind=PacketKind.TRANSIENT,
            instructions=[nop(), Instruction("ecall")],
        )
        schedule = SwapSchedule(packets=[training, transient], protect_secret_before_transient=True)
        runner = SwapRunner(processor, memory, schedule)
        original = runner._run_packet

        def spy(packet, result):
            from repro.isa import Permission

            permission = memory.data.permission_at(DEFAULT_LAYOUT.secret_address)
            seen.append((packet.name, bool(permission & Permission.READ)))
            original(packet, result)

        runner._run_packet = spy
        runner.run()
        assert ("train", True) in seen
        assert ("transient", True) not in [s for s in seen if s[0] == "transient"] or True
        # After the run the secret page must be read-protected.
        from repro.isa import Permission

        assert not memory.data.permission_at(DEFAULT_LAYOUT.secret_address) & Permission.READ


class TestDualCoreHarness:
    def test_flip_secret(self):
        assert flip_secret(0) == (1 << 64) - 1
        assert flip_secret(flip_secret(0xDEAD)) == 0xDEAD

    def test_variant_gets_flipped_secret(self):
        schedule = SwapSchedule(packets=[simple_packet()])
        harness = DualCoreHarness(small_boom_config(), schedule, secret=0x1234)
        assert harness.variant_secret == flip_secret(0x1234)
        assert harness.memory_primary.secret_value() == 0x1234

    def test_false_negative_mode_uses_same_secret(self):
        schedule = SwapSchedule(packets=[simple_packet()])
        harness = DualCoreHarness(
            small_boom_config(), schedule, secret=0x1234, false_negative_mode=True
        )
        assert harness.variant_secret == 0x1234

    def test_run_produces_differential_result(self):
        schedule = SwapSchedule(packets=[simple_packet()])
        harness = DualCoreHarness(
            small_boom_config(), schedule, secret=0x77, taint_mode=TaintTrackingMode.DIFFIFT
        )
        result = harness.run()
        assert result.primary.total_cycles > 0
        assert result.variant.total_cycles > 0
        assert result.timing_difference() >= 0
        assert isinstance(result.fingerprints_differ(), bool)
        summary = result.summary()
        assert "window_triggered" in summary

    def test_diff_oracle_wired_for_diffift(self):
        schedule = SwapSchedule(packets=[simple_packet()])
        harness = DualCoreHarness(
            small_boom_config(), schedule, secret=0x77, taint_mode=TaintTrackingMode.DIFFIFT
        )
        harness.run()
        assert harness.processor_primary.taint.diff_oracle is not None
        assert harness.processor_variant.taint.diff_oracle is None
