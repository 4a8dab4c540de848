"""Training derivation (Step 1.1) and window-training derivation (Step 2.1).

The *training derivation strategy* builds trigger-training packets from the
transient-execution information in the transient packet: the training
instruction is aligned (with nop padding) to the same address as the trigger
instruction, and when it is a control transfer its control flow is adjusted to
match the transient window (§4.1.1).  The DejaVuzz* ablation replaces this
with underived random instruction sequences (``TrainingMode.RANDOM``), and
SpecDoctor-style linear stimuli are generated by
:mod:`repro.baselines.specdoctor`.
"""

from __future__ import annotations

import enum
from typing import Dict, List

from repro.generation.random_inst import RandomInstructionGenerator, SafeRegion
from repro.generation.trigger import REG_TRIGGER_A, TriggerSpec, _li_address
from repro.isa.instructions import Instruction, nop
from repro.swapmem.layout import DEFAULT_LAYOUT
from repro.swapmem.packets import Packet, PacketKind
from repro.utils.rng import DeterministicRng


# Trigger-training candidates derived per transient packet; Phase 1's
# reduction keeps the ones the window needs.
TRIGGER_TRAINING_CANDIDATES = 3


class TrainingMode(enum.Enum):
    """How trigger-training packets are produced."""

    DERIVED = "derived"   # DejaVuzz: targeted training derived from the transient packet
    RANDOM = "random"     # DejaVuzz*: random, underived training instructions


class TrainingDeriver:
    """Produces trigger-training and window-training packets for a trigger spec."""

    def __init__(self, mode: TrainingMode = TrainingMode.DERIVED) -> None:
        self.mode = mode

    # -- trigger training -------------------------------------------------------------

    def derive_trigger_training(
        self,
        spec: TriggerSpec,
        rng: DeterministicRng,
        count: int = TRIGGER_TRAINING_CANDIDATES,
    ) -> List[Packet]:
        """Generate ``count`` candidate trigger-training packets.

        Only some of them actually contribute to triggering the window; the
        training-reduction strategy of Phase 1 prunes the rest.
        """
        if self.mode is TrainingMode.RANDOM:
            return [
                self._random_training_packet(spec, rng.split(f"random{i}"), i)
                for i in range(count)
            ]
        packets = []
        for index in range(count):
            if index == 0:
                packets.append(self._derived_training_packet(spec, rng.split("derived")))
            else:
                packets.append(self._decoy_training_packet(spec, rng.split(f"decoy{index}"), index))
        return packets

    def _aligned_offset(self, spec: TriggerSpec) -> int:
        """The byte offset the training instruction must be aligned to."""
        return int(spec.training_hints.get("trigger_offset", spec.trigger_offset))

    def _derived_training_packet(self, spec: TriggerSpec, rng: DeterministicRng) -> Packet:
        """The targeted training packet for the spec's window type."""
        hints = spec.training_hints
        kind = hints.get("training_kind", "none")
        trigger_offset = self._aligned_offset(spec)
        window_start = spec.window_start_offset
        end_offset = max(window_start + 8, trigger_offset + 8)

        instructions: Dict[int, Instruction] = {}
        if kind == "branch":
            target_offset = int(hints["branch_target_offset"])
            instructions[trigger_offset] = Instruction(
                "beq", rs1=0, rs2=0, imm=target_offset - trigger_offset
            ).with_tag("training")
        elif kind == "indirect":
            target_address = DEFAULT_LAYOUT.swappable_base + int(hints["train_target_offset"])
            setup = _li_address(REG_TRIGGER_A, target_address)
            instructions[trigger_offset - 8] = setup[0].with_tag("training")
            instructions[trigger_offset - 4] = setup[1].with_tag("training")
            instructions[trigger_offset] = Instruction(
                "jalr", rd=0, rs1=REG_TRIGGER_A, imm=0
            ).with_tag("training")
        elif kind == "return":
            # A call whose return address equals the transient window start:
            # the call site is window_start - 4 (which coincides with the
            # trigger's ``ret`` when the window directly follows it).
            call_site = int(hints["return_to_offset"]) - 4
            instructions[call_site] = Instruction(
                "jal", rd=1, imm=end_offset - call_site
            ).with_tag("training")
        else:
            # Exception / disambiguation windows need no training; emit one
            # aligned random instruction so the reduction step has work to do.
            helper = RandomInstructionGenerator(rng)
            instructions[trigger_offset] = helper.arithmetic().with_tag("training")

        return self._packet_from_sparse(
            spec, instructions, end_offset, name_suffix="derived", rng=rng
        )

    def _decoy_training_packet(
        self, spec: TriggerSpec, rng: DeterministicRng, index: int
    ) -> Packet:
        """A derived-format packet whose training instruction is unhelpful."""
        helper = RandomInstructionGenerator(rng)
        trigger_offset = self._aligned_offset(spec)
        window_start = spec.window_start_offset
        end_offset = max(window_start + 8, trigger_offset + 8)
        instructions = {trigger_offset: helper.arithmetic().with_tag("training")}
        return self._packet_from_sparse(
            spec, instructions, end_offset, name_suffix=f"decoy{index}", rng=rng
        )

    def _random_training_packet(
        self, spec: TriggerSpec, rng: DeterministicRng, index: int
    ) -> Packet:
        """DejaVuzz*: a packet of purely random instructions (no alignment)."""
        helper = RandomInstructionGenerator(
            rng,
            safe_regions=[SafeRegion(DEFAULT_LAYOUT.probe_base, DEFAULT_LAYOUT.probe_size)],
        )
        length = rng.randint(90, 110)
        body: List[Instruction] = []
        for position in range(length):
            roll = rng.random()
            if roll < 0.06:
                # occasional call with a short forward target
                body.append(Instruction("jal", rd=1, imm=4 * rng.randint(1, 6)))
            elif roll < 0.12:
                body.append(helper.branch())
            else:
                body.append(helper.arithmetic())
        body = [instruction.with_tag("training") for instruction in body]
        body.append(Instruction("ecall").with_tag("terminator"))
        return Packet(
            name=f"trigger_train_random_{spec.seed.seed_id}_{index}",
            kind=PacketKind.TRIGGER_TRAINING,
            instructions=body,
            entry_offset=0,
        )

    def _packet_from_sparse(
        self,
        spec: TriggerSpec,
        placed: Dict[int, Instruction],
        end_offset: int,
        name_suffix: str,
        rng: DeterministicRng,
    ) -> Packet:
        """Build a packet of nops with specific instructions at fixed offsets."""
        length_words = end_offset // 4 + 1
        body: List[Instruction] = [nop() for _ in range(length_words)]
        for offset, instruction in placed.items():
            index = offset // 4
            if index < 0 or index >= length_words:
                raise ValueError(f"training instruction offset {offset:#x} outside packet")
            body[index] = instruction
        body.append(Instruction("ecall").with_tag("terminator"))
        return Packet(
            name=f"trigger_train_{name_suffix}_{spec.seed.seed_id}_{rng.randint(0, 9999)}",
            kind=PacketKind.TRIGGER_TRAINING,
            instructions=body,
            entry_offset=0,
        )

    # -- window training ------------------------------------------------------------------

    def derive_window_training(self, spec: TriggerSpec, rng: DeterministicRng) -> List[Packet]:
        """Warm the sensitive data into the data cache and load buffers (§4.2.1).

        Window-training packets run before everything else in the schedule and
        before the secret's permissions are tightened, so the secret line is
        resident when the transient window reads it.
        """
        secret_address = DEFAULT_LAYOUT.secret_address
        body: List[Instruction] = []
        body += [i.with_tag("window-training") for i in _li_address(5, secret_address)]
        body.append(Instruction("ld", rd=9, rs1=5, imm=0).with_tag("window-training"))
        body.append(Instruction("ld", rd=9, rs1=5, imm=8).with_tag("window-training"))
        if rng.bernoulli(0.5):
            body.append(Instruction("ld", rd=9, rs1=5, imm=16).with_tag("window-training"))
        body.append(Instruction("ecall").with_tag("terminator"))
        return [
            Packet(
                name=f"window_train_{spec.seed.seed_id}",
                kind=PacketKind.WINDOW_TRAINING,
                instructions=body,
                entry_offset=0,
            )
        ]
