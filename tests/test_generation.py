"""Tests for stimulus generation: seeds, triggers, training, windows, mutation."""

import pytest

from repro.generation import (
    EncodeStrategy,
    Mutator,
    RandomInstructionGenerator,
    Seed,
    SeedGenotype,
    TrainingDeriver,
    TrainingMode,
    TransientWindowType,
    TriggerGenerator,
    WindowCompleter,
)
from repro.generation.random_inst import SCRATCH_REGISTERS, SafeRegion
from repro.generation.window_types import (
    WINDOW_TYPE_GROUPS,
    group_of,
    supported_window_types,
    window_types_for_table3,
)
from repro.swapmem import DEFAULT_LAYOUT, PacketKind
from repro.utils.rng import DeterministicRng


class TestWindowTypes:
    def test_groups_cover_all_types(self):
        grouped = [t for members in WINDOW_TYPE_GROUPS.values() for t in members]
        assert set(grouped) == set(TransientWindowType)

    def test_table3_has_eight_columns(self):
        assert len(window_types_for_table3()) == 8

    def test_classification(self):
        assert TransientWindowType.LOAD_PAGE_FAULT.is_exception_type
        assert TransientWindowType.LOAD_PAGE_FAULT.attack_type == "meltdown"
        assert TransientWindowType.RETURN_MISPREDICTION.attack_type == "spectre"

    def test_group_of(self):
        assert group_of(TransientWindowType.LOAD_MISALIGN) == "Load/Store Misalign"
        with pytest.raises(KeyError):
            group_of("not-a-type")


class TestSeeds:
    def test_seed_rng_deterministic(self):
        seed = Seed.fresh(entropy=5, window_type=TransientWindowType.BRANCH_MISPREDICTION)
        assert seed.rng().randint(0, 10**9) == seed.rng().randint(0, 10**9)

    def test_mutation_lineage(self):
        parent = Seed.fresh(entropy=5, window_type=TransientWindowType.BRANCH_MISPREDICTION)
        child = parent.mutated(encode_block_length=2)
        assert child.parent_id == parent.seed_id
        assert child.generation == parent.generation + 1
        assert child.seed_id != parent.seed_id


class _FakeCore:
    """Duck-typed CoreConfig stand-in (keeps the generation layer uarch-free)."""

    def __init__(self, illegal_opens_window: bool):
        self.illegal_instruction_opens_window = illegal_opens_window


class TestSeedGenotype:
    def make_seed(self, **kwargs):
        defaults = dict(
            seed_id=7,
            entropy=123,
            window_type=TransientWindowType.LOAD_PAGE_FAULT,
            encode_strategies=(EncodeStrategy.DCACHE_INDEX, EncodeStrategy.TLB_INDEX),
            secret_value=0xDEAD,
            core="small-boom",
        )
        defaults.update(kwargs)
        return Seed.fresh(**defaults)

    def test_supported_window_types_gates_illegal_instruction(self):
        full = supported_window_types(_FakeCore(illegal_opens_window=True))
        gated = supported_window_types(_FakeCore(illegal_opens_window=False))
        assert set(full) == set(TransientWindowType)
        assert set(full) - set(gated) == {TransientWindowType.ILLEGAL_INSTRUCTION}

    def test_core_config_exposes_supported_window_types(self):
        from repro.uarch import small_boom_config, xiangshan_minimal_config

        boom = small_boom_config().supported_window_types()
        xiangshan = xiangshan_minimal_config().supported_window_types()
        assert TransientWindowType.ILLEGAL_INSTRUCTION not in boom
        assert TransientWindowType.ILLEGAL_INSTRUCTION in xiangshan

    def test_genotype_is_the_portable_part(self):
        seed = self.make_seed()
        genotype = seed.genotype()
        assert genotype.window_group == group_of(seed.window_type)
        assert genotype.entropy == seed.entropy
        assert genotype.secret_value == seed.secret_value
        assert genotype.encode_strategies == seed.encode_strategies
        # No core binding and no id: both are realization-specific.
        assert not hasattr(genotype, "core")
        assert not hasattr(genotype, "seed_id")

    def test_genotype_wire_roundtrip(self):
        genotype = self.make_seed().genotype()
        assert SeedGenotype.from_dict(genotype.to_dict()) == genotype

    def test_realize_rejects_foreign_window_type(self):
        genotype = self.make_seed().genotype()  # Load/Store Page Fault group
        with pytest.raises(ValueError, match="not in group"):
            genotype.realize(
                seed_id=1,
                core="xiangshan-minimal",
                window_type=TransientWindowType.BRANCH_MISPREDICTION,
            )

    def test_transfer_keeps_group_and_secret_and_lineage(self):
        seed = self.make_seed()
        moved = seed.transfer("xiangshan-minimal", seed_id=99)
        assert moved.core == "xiangshan-minimal"
        assert moved.seed_id == 99
        assert group_of(moved.window_type) == group_of(seed.window_type)
        assert moved.secret_value == seed.secret_value
        assert moved.parent_id == seed.seed_id
        assert moved.generation == seed.generation + 1

    def test_transfer_is_deterministic(self):
        seed = self.make_seed()
        first = seed.transfer("xiangshan-minimal", seed_id=99)
        second = seed.transfer("xiangshan-minimal", seed_id=99)
        assert first == second
        # A different target core re-realizes differently (encodings are
        # core-specific): the per-transfer rng stream includes the target.
        other = seed.transfer("some-other-core", seed_id=99)
        assert (other.entropy, other.encode_strategies) != (
            first.entropy,
            first.encode_strategies,
        )

    def test_transfer_respects_supported_window_types(self):
        seed = self.make_seed(
            window_type=TransientWindowType.ILLEGAL_INSTRUCTION,
            core="xiangshan-minimal",
        )
        boom_like = supported_window_types(_FakeCore(illegal_opens_window=False))
        assert not seed.transferable_to(boom_like)
        with pytest.raises(ValueError, match="no window type"):
            seed.transfer("small-boom", seed_id=1, supported=boom_like)
        # The same seed transfers fine to a core that opens the window.
        assert seed.transferable_to(supported_window_types(_FakeCore(True)))

    def test_compatibility(self):
        seed = self.make_seed()
        assert seed.compatible_with("small-boom")
        assert not seed.compatible_with("xiangshan-minimal")
        unbound = self.make_seed(core="")
        assert unbound.compatible_with("small-boom")
        assert unbound.compatible_with("xiangshan-minimal")

    def test_seed_wire_form_carries_the_core_tag(self):
        seed = self.make_seed()
        assert Seed.from_dict(seed.to_dict()) == seed
        # Every writer writes the tag, so a payload without it is refused.
        untagged = {k: v for k, v in seed.to_dict().items() if k != "core"}
        with pytest.raises(KeyError, match="core"):
            Seed.from_dict(untagged)


class TestRandomInstructionGenerator:
    def test_scratch_registers_avoid_reserved(self):
        reserved = {0, 1, 2, 5, 6, 7, 8, 9, 10, 11, 13, 14, 15, 16}
        assert not (set(SCRATCH_REGISTERS) & reserved)

    def test_filler_block_length_and_safety(self):
        rng = DeterministicRng(3)
        generator = RandomInstructionGenerator(
            rng, safe_regions=[SafeRegion(DEFAULT_LAYOUT.probe_base, DEFAULT_LAYOUT.probe_size)]
        )
        block = generator.filler_block(50)
        assert len(block) == 50
        for instruction in block:
            destination = instruction.writes()
            if destination is not None:
                assert destination in SCRATCH_REGISTERS or destination == 16
            if instruction.is_branch:
                assert 0 < instruction.imm <= 4 * 4  # short forward branches only

    def test_filler_memory_base_setup(self):
        generator = RandomInstructionGenerator(
            DeterministicRng(3), safe_regions=[SafeRegion(0x2000_0000, 64)]
        )
        block = generator.filler_block(10)
        assert block[0].mnemonic == "lui" and block[0].rd == 16

    def test_materialize_address_roundtrip(self):
        from repro.isa.simulator import compute_alu

        generator = RandomInstructionGenerator(DeterministicRng(3))
        for address in (0x10010000, 0x1002_0FF8, 0x7FFF_F000):
            lui, addi = generator.materialize_address(17, address)
            value = compute_alu(lui, 0, 0, 0)
            value = compute_alu(addi, value, 0, 0)
            assert value == address


class TestTriggerGenerator:
    @pytest.mark.parametrize("window_type", list(TransientWindowType))
    def test_generation_structure(self, window_type):
        seed = Seed.fresh(entropy=9, window_type=window_type)
        spec = TriggerGenerator().generate(seed)
        assert spec.window_type is window_type
        assert spec.packet.kind is PacketKind.TRANSIENT
        assert len(spec.window_offsets) > 0
        assert spec.trigger_offset < spec.window_offsets[0] or window_type in (
            TransientWindowType.MEMORY_DISAMBIGUATION,
        )
        # The dummy window is made of nops tagged "window".
        for offset in spec.window_offsets:
            instruction = spec.packet.instructions[offset // 4]
            assert instruction.is_nop and instruction.has_tag("window")
        # Exception windows protect the secret; prediction windows do not.
        assert spec.protect_secret == window_type.is_exception_type
        # The packet ends with the swap terminator.
        assert any(instruction.mnemonic == "ecall" for instruction in spec.packet.instructions)

    @pytest.mark.parametrize("window_type", list(TransientWindowType))
    def test_golden_model_validates_architectural_path(self, window_type):
        seed = Seed.fresh(entropy=10, window_type=window_type)
        generator = TriggerGenerator()
        spec = generator.generate(seed)
        assert generator.verify_with_golden_model(spec)

    def test_trigger_is_icache_line_aligned(self):
        seed = Seed.fresh(entropy=11, window_type=TransientWindowType.LOAD_ACCESS_FAULT)
        spec = TriggerGenerator().generate(seed)
        assert spec.trigger_offset % 64 == 0

    def test_misprediction_triggers_read_cold_operand(self):
        seed = Seed.fresh(entropy=12, window_type=TransientWindowType.BRANCH_MISPREDICTION)
        spec = TriggerGenerator().generate(seed)
        assert 0 in spec.packet.metadata.get("operand_writes", {})

    def test_deterministic_for_same_seed(self):
        seed = Seed.fresh(entropy=13, window_type=TransientWindowType.RETURN_MISPREDICTION)
        first = TriggerGenerator().generate(seed)
        second = TriggerGenerator().generate(seed)
        assert [i.render() for i in first.packet.instructions] == [
            i.render() for i in second.packet.instructions
        ]


class TestTrainingDeriver:
    def _spec(self, window_type, entropy=21):
        return TriggerGenerator().generate(Seed.fresh(entropy=entropy, window_type=window_type))

    def test_derived_training_aligns_with_trigger(self):
        spec = self._spec(TransientWindowType.BRANCH_MISPREDICTION)
        packets = TrainingDeriver(mode=TrainingMode.DERIVED).derive_trigger_training(
            spec, DeterministicRng(1), count=3
        )
        assert len(packets) == 3
        derived = packets[0]
        aligned_offset = int(spec.training_hints["trigger_offset"])
        training_instruction = derived.instructions[aligned_offset // 4]
        assert training_instruction.is_branch
        # The training branch jumps to the transient window start.
        assert training_instruction.imm == spec.window_start_offset - aligned_offset

    def test_derived_return_training_pushes_window_address(self):
        spec = self._spec(TransientWindowType.RETURN_MISPREDICTION)
        packets = TrainingDeriver().derive_trigger_training(spec, DeterministicRng(1), count=1)
        call_offset = spec.window_start_offset - 4
        call = packets[0].instructions[call_offset // 4]
        assert call.mnemonic == "jal" and call.rd == 1

    def test_random_training_has_no_alignment(self):
        spec = self._spec(TransientWindowType.BRANCH_MISPREDICTION)
        packets = TrainingDeriver(mode=TrainingMode.RANDOM).derive_trigger_training(
            spec, DeterministicRng(1), count=2
        )
        assert all(packet.kind is PacketKind.TRIGGER_TRAINING for packet in packets)
        assert all(packet.non_nop_count() > 50 for packet in packets)

    def test_window_training_warms_the_secret(self):
        spec = self._spec(TransientWindowType.LOAD_PAGE_FAULT)
        packets = TrainingDeriver().derive_window_training(spec, DeterministicRng(1))
        assert len(packets) == 1
        assert packets[0].kind is PacketKind.WINDOW_TRAINING
        assert any(instruction.is_load for instruction in packets[0].instructions)

    def test_training_statistics(self):
        spec = self._spec(TransientWindowType.INDIRECT_MISPREDICTION)
        packets = TrainingDeriver().derive_trigger_training(spec, DeterministicRng(1), count=2)
        total = sum(packet.instruction_count() for packet in packets)
        effective = sum(packet.non_nop_count() for packet in packets)
        assert total > effective > 0


class TestWindowCompleter:
    def _completed(self, strategies, window_type=TransientWindowType.LOAD_PAGE_FAULT, mask=False):
        seed = Seed.fresh(
            entropy=31,
            window_type=window_type,
            encode_strategies=strategies,
            mask_high_bits=mask,
        )
        spec = TriggerGenerator().generate(seed)
        packet = WindowCompleter().complete(spec, seed, seed.rng("window"))
        return spec, packet

    def test_window_filled_with_payload(self):
        spec, packet = self._completed((EncodeStrategy.DCACHE_INDEX,))
        window_instructions = [packet.instructions[offset // 4] for offset in spec.window_offsets]
        assert any(instruction.has_tag("secret-access") for instruction in window_instructions)
        assert any(instruction.has_tag("encode") for instruction in window_instructions)
        assert all(instruction.has_tag("window") for instruction in window_instructions)

    def test_payload_fits_window_budget(self):
        for strategy in EncodeStrategy:
            spec, packet = self._completed((strategy,))
            assert packet.instruction_count() == spec.packet.instruction_count()

    def test_mask_high_bits_adds_or_with_high_bit(self):
        spec, packet = self._completed((EncodeStrategy.DCACHE_INDEX,), mask=True)
        window_instructions = [packet.instructions[offset // 4] for offset in spec.window_offsets]
        assert any(instruction.mnemonic == "or" for instruction in window_instructions)

    def test_instructions_outside_window_untouched(self):
        spec, packet = self._completed((EncodeStrategy.FPU_CONTENTION,))
        for offset, original in enumerate(spec.packet.instructions):
            if offset * 4 not in spec.window_offsets:
                assert packet.instructions[offset].render() == original.render()

    def test_metadata_records_strategies(self):
        _, packet = self._completed((EncodeStrategy.TLB_INDEX,))
        assert packet.metadata["encode_strategies"] == [EncodeStrategy.TLB_INDEX.value]


class TestMutator:
    def test_mutate_window_changes_encoding_only(self):
        mutator = Mutator(DeterministicRng(5))
        seed = Seed.fresh(entropy=1, window_type=TransientWindowType.BRANCH_MISPREDICTION)
        child = mutator.mutate_window(seed)
        assert child.window_type is seed.window_type
        assert child.parent_id == seed.seed_id

    def test_mutate_trigger_may_change_type(self):
        mutator = Mutator(DeterministicRng(6))
        seed = Seed.fresh(entropy=1, window_type=TransientWindowType.BRANCH_MISPREDICTION)
        types = {mutator.mutate_trigger(seed).window_type for _ in range(20)}
        assert len(types) > 1
