"""Step 2.1 — transient window completion.

The dummy (nop) window produced by Phase 1 is replaced with a real payload:

* the **secret access block** loads the sensitive data, optionally masking the
  high-order bits of the address to probe for MDS/MeltDown-Sampling-style
  truncation bugs (B1);
* the **secret encoding block** propagates the secret into some
  microarchitectural structure, chosen by the seed's encode strategies
  (probe-array load, page-granular load, secret-dependent store, branch,
  floating-point division, load burst, or instruction-fetch target).

Every encode instruction is tagged ``"encode"`` so Phase 3's encode
sanitization can replace exactly that block with nops.
"""

from __future__ import annotations

from typing import List

from repro.generation.seeds import EncodeStrategy, Seed
from repro.generation.trigger import TriggerSpec, _li_address
from repro.isa.instructions import Instruction, nop
from repro.swapmem.layout import DEFAULT_LAYOUT
from repro.swapmem.packets import Packet
from repro.utils.rng import DeterministicRng

# Register conventions inside the window (kept clear of filler scratch registers).
REG_SECRET_PTR = 5    # t0
REG_SECRET = 8        # s0
REG_ENCODE_PTR = 6    # t1
REG_ENCODE_TMP = 9    # s1
REG_ENCODE_TMP2 = 7   # t2


class WindowCompleter:
    """Fills the dummy window with secret-access and secret-encoding blocks."""

    def complete(self, spec: TriggerSpec, seed: Seed, rng: DeterministicRng) -> Packet:
        """Return a new transient packet whose window carries the real payload."""
        window_slots = len(spec.window_offsets)
        payload = self.secret_access_block(seed, rng)
        payload += self.secret_encoding_block(seed, rng, budget=window_slots - len(payload))
        if len(payload) > window_slots:
            payload = payload[:window_slots]
        while len(payload) < window_slots:
            payload.append(nop().with_tag("window"))

        instructions = list(spec.packet.instructions)
        for slot, offset in enumerate(spec.window_offsets):
            instructions[offset // 4] = payload[slot]
        completed = spec.packet.with_instructions(instructions)
        completed.metadata = dict(spec.packet.metadata)
        completed.metadata["window_completed"] = True
        completed.metadata["encode_strategies"] = [s.value for s in seed.encode_strategies]
        return completed

    # -- blocks -----------------------------------------------------------------------

    def secret_access_block(self, seed: Seed, rng: DeterministicRng) -> List[Instruction]:
        """Load the secret; optionally mask in illegal high address bits (MDS probing)."""
        block: List[Instruction] = []
        secret_address = DEFAULT_LAYOUT.secret_address
        for instruction in _li_address(REG_SECRET_PTR, secret_address):
            block.append(instruction.with_tag("window").with_tag("secret-access"))
        if seed.mask_high_bits:
            # Set an illegal high bit on the pointer: on a correct core this
            # simply faults; on MeltDown-Sampling cores the truncated address
            # still samples the chosen location.
            high_bit_register = REG_ENCODE_TMP2
            block.append(
                Instruction("addi", rd=high_bit_register, rs1=0, imm=1)
                .with_tag("window")
                .with_tag("secret-access")
            )
            block.append(
                Instruction("slli", rd=high_bit_register, rs1=high_bit_register, imm=40)
                .with_tag("window")
                .with_tag("secret-access")
            )
            block.append(
                Instruction("or", rd=REG_SECRET_PTR, rs1=REG_SECRET_PTR, rs2=high_bit_register)
                .with_tag("window")
                .with_tag("secret-access")
            )
        block.append(
            Instruction("ld", rd=REG_SECRET, rs1=REG_SECRET_PTR, imm=0)
            .with_tag("window")
            .with_tag("secret-access")
        )
        return block

    def secret_encoding_block(
        self, seed: Seed, rng: DeterministicRng, budget: int
    ) -> List[Instruction]:
        """Instructions that depend on the secret and imprint it on the microarchitecture."""
        block: List[Instruction] = []
        strategies = list(seed.encode_strategies) or [EncodeStrategy.DCACHE_INDEX]
        index = 0
        while len(block) < min(budget, max(seed.encode_block_length, 1) * 3) and budget > 0:
            strategy = strategies[index % len(strategies)]
            block.extend(self._encode_with(strategy, rng))
            index += 1
            if index >= max(seed.encode_block_length, 1):
                break
        return [instruction.with_tag("window").with_tag("encode") for instruction in block]

    def _encode_with(self, strategy: EncodeStrategy, rng: DeterministicRng) -> List[Instruction]:
        probe = DEFAULT_LAYOUT.probe_base
        if strategy is EncodeStrategy.DCACHE_INDEX:
            shift = rng.choice([6, 7, 8])
            return _li_address(REG_ENCODE_PTR, probe) + [
                Instruction("andi", rd=REG_ENCODE_TMP, rs1=REG_SECRET, imm=0xFF),
                Instruction("slli", rd=REG_ENCODE_TMP, rs1=REG_ENCODE_TMP, imm=shift),
                Instruction("add", rd=REG_ENCODE_PTR, rs1=REG_ENCODE_PTR, rs2=REG_ENCODE_TMP),
                Instruction("ld", rd=REG_ENCODE_TMP2, rs1=REG_ENCODE_PTR, imm=0),
            ]
        if strategy is EncodeStrategy.TLB_INDEX:
            return _li_address(REG_ENCODE_PTR, probe) + [
                Instruction("andi", rd=REG_ENCODE_TMP, rs1=REG_SECRET, imm=0x7),
                Instruction("slli", rd=REG_ENCODE_TMP, rs1=REG_ENCODE_TMP, imm=12),
                Instruction("add", rd=REG_ENCODE_PTR, rs1=REG_ENCODE_PTR, rs2=REG_ENCODE_TMP),
                Instruction("lw", rd=REG_ENCODE_TMP2, rs1=REG_ENCODE_PTR, imm=0),
            ]
        if strategy is EncodeStrategy.STORE_INDEX:
            return _li_address(REG_ENCODE_PTR, probe + 0x4000) + [
                Instruction("andi", rd=REG_ENCODE_TMP, rs1=REG_SECRET, imm=0x3F),
                Instruction("slli", rd=REG_ENCODE_TMP, rs1=REG_ENCODE_TMP, imm=6),
                Instruction("add", rd=REG_ENCODE_PTR, rs1=REG_ENCODE_PTR, rs2=REG_ENCODE_TMP),
                Instruction("sd", rs1=REG_ENCODE_PTR, rs2=REG_SECRET, imm=0),
            ]
        if strategy is EncodeStrategy.BRANCH_DIRECTION:
            return [
                Instruction("andi", rd=REG_ENCODE_TMP, rs1=REG_SECRET, imm=1),
                Instruction("beq", rs1=REG_ENCODE_TMP, rs2=0, imm=8),
                Instruction("add", rd=REG_ENCODE_TMP2, rs1=REG_ENCODE_TMP, rs2=REG_SECRET),
            ]
        if strategy is EncodeStrategy.FPU_CONTENTION:
            return [
                Instruction("andi", rd=REG_ENCODE_TMP, rs1=REG_SECRET, imm=1),
                Instruction("beq", rs1=REG_ENCODE_TMP, rs2=0, imm=12),
                Instruction("fcvt.d.l", rd=REG_ENCODE_TMP2, rs1=REG_SECRET),
                Instruction("fdiv.d", rd=REG_ENCODE_TMP2, rs1=REG_ENCODE_TMP2, rs2=REG_ENCODE_TMP2),
            ]
        if strategy is EncodeStrategy.LSU_CONTENTION:
            return _li_address(REG_ENCODE_PTR, probe) + [
                Instruction("andi", rd=REG_ENCODE_TMP, rs1=REG_SECRET, imm=1),
                Instruction("beq", rs1=REG_ENCODE_TMP, rs2=0, imm=16),
                Instruction("ld", rd=REG_ENCODE_TMP2, rs1=REG_ENCODE_PTR, imm=0),
                Instruction("ld", rd=REG_ENCODE_TMP2, rs1=REG_ENCODE_PTR, imm=8),
                Instruction("ld", rd=REG_ENCODE_TMP2, rs1=REG_ENCODE_PTR, imm=16),
            ]
        if strategy is EncodeStrategy.ICACHE_TARGET:
            # Jump to a secret-dependent, instruction-cache-cold address inside
            # the swappable region (Spectre-Refetch style fetch-port pressure).
            return [
                Instruction("andi", rd=REG_ENCODE_TMP, rs1=REG_SECRET, imm=1),
                Instruction("slli", rd=REG_ENCODE_TMP, rs1=REG_ENCODE_TMP, imm=10),
                Instruction("auipc", rd=REG_ENCODE_PTR, imm=0),
                Instruction("add", rd=REG_ENCODE_PTR, rs1=REG_ENCODE_PTR, rs2=REG_ENCODE_TMP),
                Instruction("jalr", rd=0, rs1=REG_ENCODE_PTR, imm=16),
            ]
        raise ValueError(f"unknown encode strategy {strategy}")
