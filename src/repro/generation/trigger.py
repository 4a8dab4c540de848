"""Step 1.1 — trigger generation.

For a given seed the generator emits the *transient packet*: register
initialisation and random filler, the trigger instruction of the targeted
window type, a dummy transient window filled with nop instructions, and the
architectural continuation.  Operand values that steer the architectural
outcome (branch not taken, jump to the continuation, fault on the chosen
address) are derived constructively and can be double-checked against the ISA
golden model with :meth:`TriggerGenerator.verify_with_golden_model`.

Two structural properties matter for reliably opening wide windows:

* the trigger section is aligned to an instruction-cache line so the whole
  window shares the trigger's (resident) line and wrong-path fetch does not
  stall on a line fill, and
* misprediction triggers read their resolving operand from a *cold* slot in
  the dedicated region (the ``mutable operand`` area of swapMem), so the
  trigger resolves tens of cycles after the predicted path started executing
  — the same structure real Spectre gadgets rely on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.generation.random_inst import RandomInstructionGenerator, SafeRegion
from repro.generation.seeds import Seed
from repro.generation.window_types import TransientWindowType
from repro.isa.assembler import Assembler
from repro.isa.instructions import Instruction, nop
from repro.isa.simulator import IsaSimulator, Permission, SimMemory
from repro.swapmem.layout import DEFAULT_LAYOUT
from repro.swapmem.packets import Packet, PacketKind

# Register conventions used by generated packets.
REG_TRIGGER_A = 10  # a0: primary trigger operand (branch lhs, jump target, address)
REG_TRIGGER_B = 11  # a1: secondary trigger operand
REG_RA = 1          # ra: return address for return-misprediction triggers
REG_SLOW = 13       # a3: slowly computed store address (memory disambiguation)
REG_SLOW_SRC = 14   # a4: divider operand
REG_SLOW_DIV = 15   # a5: divider operand

# An address in no mapped region: loads/stores to it raise access faults.
UNMAPPED_ADDRESS = 0x2000_0000
# An address above the physical address range: architecturally illegal, and
# the input to the MeltDown-Sampling (B1) truncation path when masked.
ILLEGAL_HIGH_ADDRESS_BIT = 1 << 40

DUMMY_WINDOW_LENGTH = 10
# The trigger section is aligned to an instruction-cache line so that the
# whole transient window shares the trigger's cache line; otherwise wrong-path
# fetch stalls on a line fill and the window closes before the encoding block
# has executed.
ICACHE_LINE_BYTES = 64


@dataclass
class TriggerSpec:
    """Everything Phase 1 and Phase 2 need to know about a generated trigger."""

    seed: Seed
    window_type: TransientWindowType
    packet: Packet
    trigger_offset: int                 # byte offset of the trigger instruction
    window_offsets: List[int]           # byte offsets of the (dummy) window
    continue_offset: int                # byte offset of the architectural continuation
    protect_secret: bool
    training_hints: Dict[str, object] = field(default_factory=dict)

    @property
    def window_start_offset(self) -> int:
        return self.window_offsets[0]

    def window_addresses(self) -> List[int]:
        return [DEFAULT_LAYOUT.swappable_base + offset for offset in self.window_offsets]


class TriggerGenerator:
    """Generates transient packets with dummy windows for every window type."""

    # -- public API ------------------------------------------------------------------

    def generate(self, seed: Seed) -> TriggerSpec:
        rng = seed.rng("trigger")
        random_gen = RandomInstructionGenerator(
            rng.split("filler"),
            safe_regions=[SafeRegion(DEFAULT_LAYOUT.probe_base, DEFAULT_LAYOUT.probe_size)],
        )
        trigger_index = rng.randint(80, 88)
        window_type = seed.window_type

        builder = _PacketBuilder()
        setup = self._setup_instructions(window_type, rng)
        filler_needed = max(trigger_index - len(setup), 0)
        builder.extend(setup)
        builder.extend(
            instruction.with_tag("filler")
            for instruction in random_gen.filler_block(filler_needed, allow_branches=False)
        )
        # Align the trigger section to an I-cache line boundary.
        while builder.current_offset % ICACHE_LINE_BYTES != 0:
            builder.add(nop().with_tag("filler"))

        hints: Dict[str, object] = {"trigger_index": builder.current_index}
        if window_type is TransientWindowType.BRANCH_MISPREDICTION:
            trigger_offset, window_offsets, continue_offset = self._emit_branch_trigger(builder, rng, hints)
        elif window_type is TransientWindowType.INDIRECT_MISPREDICTION:
            trigger_offset, window_offsets, continue_offset = self._emit_indirect_trigger(builder, hints)
        elif window_type is TransientWindowType.RETURN_MISPREDICTION:
            trigger_offset, window_offsets, continue_offset = self._emit_return_trigger(builder, hints)
        elif window_type is TransientWindowType.MEMORY_DISAMBIGUATION:
            trigger_offset, window_offsets, continue_offset = self._emit_disambiguation_trigger(builder, hints)
        else:
            trigger_offset, window_offsets, continue_offset = self._emit_exception_trigger(
                builder, window_type, hints
            )

        packet = builder.build(
            name=f"transient_{seed.seed_id}",
            kind=PacketKind.TRANSIENT,
            metadata={
                "window_offsets": window_offsets,
                "trigger_offset": trigger_offset,
                "window_type": window_type.value,
            },
        )
        return TriggerSpec(
            seed=seed,
            window_type=window_type,
            packet=packet,
            trigger_offset=trigger_offset,
            window_offsets=window_offsets,
            continue_offset=continue_offset,
            protect_secret=window_type.is_exception_type,
            training_hints=hints,
        )

    # -- per-type emission -----------------------------------------------------------------

    def _setup_instructions(self, window_type: TransientWindowType, rng) -> List[Instruction]:
        """Register initialisation placed at the start of the transient packet.

        Misprediction triggers set their operands up inside the aligned trigger
        section instead (so the resolving operand load is still outstanding
        when the window opens); only exception and disambiguation triggers are
        initialised here.
        """
        helper = RandomInstructionGenerator(rng.split("setup"))
        instructions: List[Instruction] = []
        if window_type is TransientWindowType.MEMORY_DISAMBIGUATION:
            instructions += helper.materialize_address(REG_TRIGGER_A, DEFAULT_LAYOUT.probe_base)
            instructions += _li(REG_TRIGGER_B, rng.randint(1, 255))
            instructions += _li(REG_SLOW_SRC, rng.randint(64, 4096))
            instructions += _li(REG_SLOW_DIV, 3)
        elif window_type in (
            TransientWindowType.LOAD_ACCESS_FAULT,
            TransientWindowType.STORE_ACCESS_FAULT,
        ):
            instructions += helper.materialize_address(REG_TRIGGER_A, UNMAPPED_ADDRESS)
        elif window_type in (
            TransientWindowType.LOAD_PAGE_FAULT,
            TransientWindowType.STORE_PAGE_FAULT,
        ):
            instructions += helper.materialize_address(
                REG_TRIGGER_A, DEFAULT_LAYOUT.secret_address
            )
        elif window_type in (
            TransientWindowType.LOAD_MISALIGN,
            TransientWindowType.STORE_MISALIGN,
        ):
            instructions += helper.materialize_address(
                REG_TRIGGER_A, DEFAULT_LAYOUT.probe_base + 1 + 2 * rng.randint(0, 2)
            )
        return [instruction.with_tag("setup") for instruction in instructions]

    def _slow_operand_load(self, builder: "_PacketBuilder", register: int, slot: int) -> None:
        """Emit a cold load of operand ``slot`` from the dedicated region into ``register``."""
        address = DEFAULT_LAYOUT.operand_address + 8 * slot
        for instruction in _li_address(register, address):
            builder.add(instruction.with_tag("setup"))
        builder.add(Instruction("ld", rd=register, rs1=register, imm=0).with_tag("setup"))

    def _emit_branch_trigger(self, builder: "_PacketBuilder", rng, hints: Dict) -> tuple:
        # The branch compares a value loaded from a cold operand slot against
        # an equal immediate: architecturally not taken, but resolving only
        # after the slow load completes.  Training teaches the predictor
        # "taken", steering transient fetch into the window.
        operand_value = rng.randint(1, 2047)
        builder.operand_writes[0] = operand_value
        self._slow_operand_load(builder, REG_TRIGGER_A, 0)
        builder.add(Instruction("addi", rd=REG_TRIGGER_B, rs1=0, imm=operand_value).with_tag("setup"))
        trigger_offset = builder.add(
            Instruction("bne", rs1=REG_TRIGGER_A, rs2=REG_TRIGGER_B, imm=8).with_tag("trigger")
        )
        skip_placeholder = builder.add(nop().with_tag("arch-path"))
        window_offsets = builder.add_dummy_window(DUMMY_WINDOW_LENGTH)
        continue_offset = builder.mark_continue()
        builder.patch(
            skip_placeholder,
            Instruction("jal", rd=0, imm=continue_offset - skip_placeholder).with_tag("arch-path"),
        )
        hints.update(
            {
                "training_kind": "branch",
                "branch_target_offset": window_offsets[0],
                "train_taken": True,
                "trigger_offset": trigger_offset,
            }
        )
        return trigger_offset, window_offsets, continue_offset

    def _emit_indirect_trigger(self, builder: "_PacketBuilder", hints: Dict) -> tuple:
        # The architectural target of the indirect jump is its own fall-through
        # (the continuation sits right behind it), so an *untrained* BTB — which
        # predicts sequential fetch — predicts correctly and no window opens.
        # Only BTB training can steer transient fetch into the window, which
        # lives past the continuation.  The target register is loaded from a
        # cold operand slot so the jump resolves late.
        self._slow_operand_load(builder, REG_TRIGGER_A, 0)
        trigger_offset = builder.add(
            Instruction("jalr", rd=0, rs1=REG_TRIGGER_A, imm=0).with_tag("trigger")
        )
        continue_offset = builder.mark_continue()
        window_offsets = builder.add_dummy_window(DUMMY_WINDOW_LENGTH)
        builder.add(Instruction("ecall").with_tag("terminator"))
        builder.operand_writes[0] = DEFAULT_LAYOUT.swappable_base + continue_offset
        hints.update(
            {
                "training_kind": "indirect",
                "train_target_offset": window_offsets[0],
                "trigger_offset": trigger_offset,
            }
        )
        return trigger_offset, window_offsets, continue_offset

    def _emit_return_trigger(self, builder: "_PacketBuilder", hints: Dict) -> tuple:
        # ``ret`` whose return address register is loaded from a cold operand
        # slot.  The RAS (trained by a call in the training packet) predicts
        # the window address; the architectural target is the continuation.
        self._slow_operand_load(builder, REG_RA, 0)
        trigger_offset = builder.add(
            Instruction("jalr", rd=0, rs1=REG_RA, imm=0).with_tag("trigger")
        )
        continue_offset = builder.mark_continue()
        window_offsets = builder.add_dummy_window(DUMMY_WINDOW_LENGTH)
        builder.add(Instruction("ecall").with_tag("terminator"))
        builder.operand_writes[0] = DEFAULT_LAYOUT.swappable_base + continue_offset
        hints.update(
            {
                "training_kind": "return",
                "return_to_offset": window_offsets[0],
                "trigger_offset": trigger_offset,
            }
        )
        return trigger_offset, window_offsets, continue_offset

    def _emit_disambiguation_trigger(self, builder: "_PacketBuilder", hints: Dict) -> tuple:
        # The store address is produced by a chain of long-latency divides, so
        # the younger load bypasses it and reads stale data until the ordering
        # violation squashes the window.
        trigger_offset = builder.add(
            Instruction("div", rd=REG_SLOW, rs1=REG_SLOW_SRC, rs2=REG_SLOW_DIV).with_tag("trigger")
        )
        builder.add(
            Instruction("div", rd=REG_SLOW, rs1=REG_SLOW, rs2=REG_SLOW, imm=0).with_tag("trigger")
        )
        builder.add(
            Instruction("andi", rd=REG_SLOW, rs1=REG_SLOW, imm=0).with_tag("trigger")
        )
        builder.add(
            Instruction("add", rd=REG_SLOW, rs1=REG_SLOW, rs2=REG_TRIGGER_A).with_tag("trigger")
        )
        builder.add(
            Instruction("sd", rs1=REG_SLOW, rs2=REG_TRIGGER_B, imm=0).with_tag("trigger")
        )
        builder.add(
            Instruction("ld", rd=6, rs1=REG_TRIGGER_A, imm=0).with_tag("trigger")
        )
        window_offsets = builder.add_dummy_window(DUMMY_WINDOW_LENGTH)
        continue_offset = builder.mark_continue()
        hints.update({"training_kind": "none", "trigger_offset": trigger_offset})
        return trigger_offset, window_offsets, continue_offset

    def _emit_exception_trigger(
        self, builder: "_PacketBuilder", window_type: TransientWindowType, hints: Dict
    ) -> tuple:
        if window_type is TransientWindowType.ILLEGAL_INSTRUCTION:
            trigger_offset = builder.add(Instruction("illegal").with_tag("trigger"))
        elif window_type in (
            TransientWindowType.LOAD_ACCESS_FAULT,
            TransientWindowType.LOAD_PAGE_FAULT,
            TransientWindowType.LOAD_MISALIGN,
        ):
            trigger_offset = builder.add(
                Instruction("ld", rd=6, rs1=REG_TRIGGER_A, imm=0).with_tag("trigger")
            )
        else:
            trigger_offset = builder.add(
                Instruction("sd", rs1=REG_TRIGGER_A, rs2=0, imm=0).with_tag("trigger")
            )
        window_offsets = builder.add_dummy_window(DUMMY_WINDOW_LENGTH)
        continue_offset = builder.mark_continue()
        hints.update({"training_kind": "none", "trigger_offset": trigger_offset})
        return trigger_offset, window_offsets, continue_offset

    # -- golden model verification --------------------------------------------------------------

    def verify_with_golden_model(self, spec: TriggerSpec, max_instructions: int = 400) -> bool:
        """Check architecturally (ISA simulator) that the window is *not* reached.

        For misprediction windows the architectural path must skip the window;
        for exception and disambiguation windows the run must stop at (or
        squash past) the trigger.  This mirrors the paper's use of the ISA
        simulator to validate derived operands.  Campaigns never call it: the
        operands are derived constructively.  The tests use it as the ISA
        oracle for every window type.
        """
        memory = SimMemory()
        layout = DEFAULT_LAYOUT
        memory.map_range(layout.shared_base, layout.shared_size)
        memory.map_range(layout.dedicated_base, layout.dedicated_size)
        memory.map_range(layout.swappable_base, layout.swappable_size)
        memory.map_range(layout.probe_base, layout.probe_size)
        for slot, value in spec.packet.metadata.get("operand_writes", {}).items():
            memory.write(layout.operand_address + 8 * slot, value, 8)
        if spec.protect_secret:
            memory.set_permission(layout.secret_address, Permission.EXECUTE)

        assembler = Assembler(base=layout.swappable_base)
        program = assembler.assemble_instructions(
            spec.packet.instructions, base=layout.swappable_base
        )
        simulator = IsaSimulator(program, memory=memory)
        simulator.pc = layout.swappable_base + spec.packet.entry_offset
        window_addresses = set(spec.window_addresses())
        for _ in range(max_instructions):
            if simulator.pc in window_addresses:
                if spec.window_type is TransientWindowType.MEMORY_DISAMBIGUATION:
                    return True  # architecturally re-executed after the squash: fine
                return False
            trap = simulator.step()
            if trap is not None:
                return True
            instruction = program.instruction_at(simulator.pc)
            if instruction is not None and instruction.mnemonic == "ecall":
                return True
        return True


class _PacketBuilder:
    """Accumulates instructions and tracks byte offsets while building a packet."""

    def __init__(self) -> None:
        self.instructions: List[Instruction] = []
        self.labels: Dict[str, int] = {}
        self.operand_writes: Dict[int, int] = {}

    @property
    def current_offset(self) -> int:
        return len(self.instructions) * 4

    @property
    def current_index(self) -> int:
        return len(self.instructions)

    def add(self, instruction: Instruction) -> int:
        offset = self.current_offset
        self.instructions.append(instruction)
        return offset

    def extend(self, instructions) -> None:
        for instruction in instructions:
            self.add(instruction)

    def patch(self, offset: int, instruction: Instruction) -> None:
        self.instructions[offset // 4] = instruction

    def add_dummy_window(self, length: int) -> List[int]:
        offsets = []
        for _ in range(length):
            offsets.append(self.add(nop().with_tag("window")))
        return offsets

    def mark_continue(self) -> int:
        offset = self.current_offset
        self.labels["continue"] = offset
        self.add(nop().with_tag("arch-path"))
        self.add(Instruction("ecall").with_tag("terminator"))
        return offset

    def build(self, name: str, kind: PacketKind, metadata: Optional[Dict] = None) -> Packet:
        merged = dict(metadata or {})
        if self.operand_writes:
            merged["operand_writes"] = dict(self.operand_writes)
        return Packet(
            name=name,
            kind=kind,
            instructions=list(self.instructions),
            entry_offset=0,
            labels=dict(self.labels),
            metadata=merged,
        )


def _li(register: int, value: int) -> List[Instruction]:
    """Materialise a small positive constant."""
    if 0 <= value < 2048:
        return [Instruction("addi", rd=register, rs1=0, imm=value)]
    return _li_address(register, value)


def _li_address(register: int, address: int) -> List[Instruction]:
    """Materialise a 32-bit absolute address with lui+addi."""
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
