"""Swap packets and the swap schedule.

A *packet* is one instruction sequence destined for the swappable region: a
trigger-training packet, a window-training packet, or the transient packet
itself (§4.1).  All packets share the same base address — that is the whole
point of swapMem — and each declares its own entry offset so training
instructions can sit at the same address as the trigger instruction they
train.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.isa.instructions import Instruction, nop


class PacketKind(enum.Enum):
    """The role a packet plays in the swap schedule."""

    TRIGGER_TRAINING = "trigger_training"
    WINDOW_TRAINING = "window_training"
    TRANSIENT = "transient"


@dataclass
class Packet:
    """One swappable instruction sequence."""

    name: str
    kind: PacketKind
    instructions: List[Instruction] = field(default_factory=list)
    entry_offset: int = 0  # byte offset of the first instruction to execute
    labels: Dict[str, int] = field(default_factory=dict)  # name -> byte offset
    metadata: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.entry_offset % 4 != 0:
            raise ValueError(f"entry offset must be word aligned, got {self.entry_offset:#x}")

    @property
    def size(self) -> int:
        return len(self.instructions) * 4

    def instruction_count(self) -> int:
        return len(self.instructions)

    def non_nop_count(self) -> int:
        """Instructions that are not alignment padding (the ETO numerator).

        The trailing ``ecall`` that hands control back to the swap scheduler is
        part of the runtime convention, not of the training, so it is excluded.
        """
        return sum(
            1
            for instruction in self.instructions
            if not instruction.is_nop and instruction.mnemonic != "ecall"
        )

    def offsets(self) -> Iterator[Tuple[int, Instruction]]:
        for index, instruction in enumerate(self.instructions):
            yield index * 4, instruction

    def with_instructions(self, instructions: List[Instruction]) -> "Packet":
        return replace(self, instructions=list(instructions))

    def replace_tagged_with_nops(self, tag: str) -> "Packet":
        """Return a copy with every ``tag``-tagged instruction replaced by a nop.

        Used by Phase 3's encode sanitization, which replaces the secret
        encoding block with nop instructions and re-runs the simulation.
        """
        sanitized = [
            nop().with_tag("sanitized") if instruction.has_tag(tag) else instruction
            for instruction in self.instructions
        ]
        return self.with_instructions(sanitized)

    def render(self) -> str:
        lines = [f"# packet {self.name} ({self.kind.value}), entry +{self.entry_offset:#x}"]
        label_at = {offset: name for name, offset in self.labels.items()}
        for offset, instruction in self.offsets():
            if offset in label_at:
                lines.append(f"{label_at[offset]}:")
            lines.append(f"  +{offset:#06x}: {instruction.render()}")
        return "\n".join(lines)


@dataclass
class SwapSchedule:
    """The ordered list of packets one DUT executes in a single run.

    The canonical order (§4.2.1) is: window-training packets first (so the
    memory state they warm up survives), then trigger-training packets, then
    the transient packet.  :meth:`ordered_packets` enforces that order
    regardless of insertion order.
    """

    packets: List[Packet] = field(default_factory=list)
    protect_secret_before_transient: bool = False
    name: str = "schedule"

    def add(self, packet: Packet) -> "SwapSchedule":
        self.packets.append(packet)
        return self

    def ordered_packets(self) -> List[Packet]:
        order = {
            PacketKind.WINDOW_TRAINING: 0,
            PacketKind.TRIGGER_TRAINING: 1,
            PacketKind.TRANSIENT: 2,
        }
        return sorted(self.packets, key=lambda packet: order[packet.kind])

    def transient_packet(self) -> Optional[Packet]:
        for packet in self.packets:
            if packet.kind is PacketKind.TRANSIENT:
                return packet
        return None

    def training_packets(self) -> List[Packet]:
        return [p for p in self.packets if p.kind is PacketKind.TRIGGER_TRAINING]

    def with_transient_packet(self, packet: Packet) -> "SwapSchedule":
        """A copy of the schedule with the transient packet replaced."""
        replaced = [p for p in self.packets if p.kind is not PacketKind.TRANSIENT]
        replaced.append(packet)
        return SwapSchedule(
            packets=replaced,
            protect_secret_before_transient=self.protect_secret_before_transient,
            name=self.name,
        )

    # -- Table 3 bookkeeping ------------------------------------------------------

    def training_overhead(self) -> int:
        """TO: total number of instructions in training packets."""
        return sum(
            packet.instruction_count()
            for packet in self.packets
            if packet.kind is PacketKind.TRIGGER_TRAINING
        )

    def effective_training_overhead(self) -> int:
        """ETO: training instructions excluding alignment nops."""
        return sum(
            packet.non_nop_count()
            for packet in self.packets
            if packet.kind is PacketKind.TRIGGER_TRAINING
        )

    def packet_names(self) -> List[str]:
        return [packet.name for packet in self.packets]

    def window_pcs(self, swappable_base: int) -> Set[int]:
        """Absolute addresses of the transient window instructions."""
        transient = self.transient_packet()
        if transient is None:
            return set()
        window_offsets = transient.metadata.get("window_offsets", [])
        return {swappable_base + offset for offset in window_offsets}
