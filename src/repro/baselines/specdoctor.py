"""A SpecDoctor-style baseline fuzzer (Hur et al., CCS'22), as characterised in §2.3/§6.

The baseline reproduces the behaviours the paper compares against rather than
the full SpecDoctor implementation:

* **Linear stimuli.**  Training, trigger, window and receiver share one
  address space in a single packet — there is no swapMem, so training
  instructions cannot be isolated, aligned or reduced.  The random
  transient-trigger phase instructions that precede the trigger are all
  counted as training overhead (the ~125-instruction TO of Table 3).
* **Limited window types.**  Only the four window kinds SpecDoctor reaches on
  BOOM are generated: page faults, memory disambiguation, conditional-branch
  and indirect-jump mispredictions (no RSB windows — those need training
  mixed with the window, which the linear layout cannot express — and no
  access-fault/misalign/illegal windows).
* **Hash-based oracle.**  Two DUT instances run the same stimulus with
  different secrets; a test case is a *candidate leakage* when the hashes of
  the final timing-component states differ.  There is no taint coverage, no
  encode sanitization and no liveness analysis, so candidates include the
  false positives §6.3 describes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.coverage import TaintCoverageMatrix
from repro.core.report import CampaignResult
from repro.generation.random_inst import RandomInstructionGenerator, SafeRegion
from repro.generation.window_types import TransientWindowType, group_of
from repro.isa.instructions import Instruction
from repro.swapmem.harness import DualCoreHarness
from repro.swapmem.layout import DEFAULT_LAYOUT
from repro.swapmem.packets import Packet, PacketKind, SwapSchedule
from repro.uarch.config import CoreConfig, TaintTrackingMode
from repro.utils.rng import DeterministicRng

SPECDOCTOR_SUPPORTED_WINDOWS: Tuple[TransientWindowType, ...] = (
    TransientWindowType.LOAD_PAGE_FAULT,
    TransientWindowType.MEMORY_DISAMBIGUATION,
    TransientWindowType.BRANCH_MISPREDICTION,
    TransientWindowType.INDIRECT_MISPREDICTION,
)

# Registers used by the generated gadget (kept clear of the filler scratch set).
_REG_A = 10
_REG_B = 11
_REG_PTR = 5
_REG_SECRET = 8
_REG_TMP = 9


@dataclass
class SpecDoctorStimulus:
    """One linear stimulus: a single packet plus its window addresses."""

    schedule: SwapSchedule
    window_type: TransientWindowType
    training_instructions: int
    window_offsets: List[int]


@dataclass
class SpecDoctorConfiguration:
    core: CoreConfig
    entropy: int = 99
    # SpecDoctor has no IFT; taint instrumentation is only attached when the
    # caller wants to *measure* its exploration with DejaVuzz's coverage
    # metric (the replay methodology of Figure 7).
    measure_taint_coverage: bool = True


class SpecDoctorFuzzer:
    """Multi-phase random generation with a differential hash oracle."""

    def __init__(self, configuration: SpecDoctorConfiguration) -> None:
        self.configuration = configuration
        self.rng = DeterministicRng(configuration.entropy, "specdoctor")
        self.coverage = TaintCoverageMatrix()
        self.candidates: List[Dict[str, object]] = []

    # -- stimulus generation --------------------------------------------------------------

    def generate_stimulus(self, window_type: Optional[TransientWindowType] = None) -> SpecDoctorStimulus:
        """Phase 1+2 of SpecDoctor: random instructions, then trigger + transmit."""
        rng = self.rng.split(f"stimulus{self.rng.randint(0, 1 << 30)}")
        if window_type is None:
            window_type = rng.choice(list(SPECDOCTOR_SUPPORTED_WINDOWS))
        if window_type not in SPECDOCTOR_SUPPORTED_WINDOWS:
            raise ValueError(f"SpecDoctor cannot generate {window_type.value} windows")

        filler = RandomInstructionGenerator(
            rng.split("filler"),
            safe_regions=[SafeRegion(DEFAULT_LAYOUT.probe_base, DEFAULT_LAYOUT.probe_size)],
        )
        # The transient-trigger phase keeps appending random instructions until
        # a RoB rollback is observed; the successful cases carry ~110-140 of
        # them, none of which can be removed afterwards.
        training_length = rng.randint(110, 140)
        body: List[Instruction] = list(filler.filler_block(training_length, allow_branches=True))

        trigger_block, window_offsets_relative = self._trigger_and_window(
            window_type, rng, base_offset=len(body) * 4
        )
        window_offsets = [len(body) * 4 + offset for offset in window_offsets_relative]
        body.extend(trigger_block)
        body.append(Instruction("ecall").with_tag("terminator"))

        packet = Packet(
            name=f"specdoctor_{window_type.value}",
            kind=PacketKind.TRANSIENT,
            instructions=body,
            metadata={"window_offsets": window_offsets, "window_type": window_type.value},
        )
        schedule = SwapSchedule(
            packets=[packet],
            protect_secret_before_transient=window_type.is_exception_type,
            name=packet.name,
        )
        return SpecDoctorStimulus(
            schedule=schedule,
            window_type=window_type,
            training_instructions=training_length,
            window_offsets=window_offsets,
        )

    def _trigger_and_window(
        self,
        window_type: TransientWindowType,
        rng: DeterministicRng,
        base_offset: int,
    ) -> Tuple[List[Instruction], List[int]]:
        """The trigger, the transient window (secret transmit) and the receiver."""
        block: List[Instruction] = []
        window_block = self._transmit_block()

        def _li_address(register: int, address: int) -> None:
            low = address & 0xFFF
            high = (address + 0x1000) & 0xFFFFF000 if low >= 0x800 else address & 0xFFFFF000
            if low >= 0x800:
                low -= 0x1000
            block.append(Instruction("lui", rd=register, imm=high))
            block.append(Instruction("addi", rd=register, rs1=register, imm=low))

        if window_type is TransientWindowType.LOAD_PAGE_FAULT:
            _li_address(_REG_A, DEFAULT_LAYOUT.secret_address)
            block.append(Instruction("ld", rd=_REG_TMP, rs1=_REG_A, imm=0))
        elif window_type is TransientWindowType.MEMORY_DISAMBIGUATION:
            _li_address(_REG_A, DEFAULT_LAYOUT.probe_base)
            block.append(Instruction("addi", rd=_REG_B, rs1=0, imm=rng.randint(1, 255)))
            block.append(Instruction("addi", rd=14, rs1=0, imm=rng.randint(65, 2000)))
            block.append(Instruction("addi", rd=15, rs1=0, imm=3))
            block.append(Instruction("div", rd=13, rs1=14, rs2=15))
            block.append(Instruction("div", rd=13, rs1=13, rs2=13))
            block.append(Instruction("andi", rd=13, rs1=13, imm=0))
            block.append(Instruction("add", rd=13, rs1=13, rs2=_REG_A))
            block.append(Instruction("sd", rs1=13, rs2=_REG_B, imm=0))
            block.append(Instruction("ld", rd=_REG_TMP, rs1=_REG_A, imm=0))
        elif window_type is TransientWindowType.BRANCH_MISPREDICTION:
            # An architecturally-taken branch predicted not-taken by the
            # untrained predictor: the fall-through is the transient window.
            block.append(
                Instruction("beq", rs1=_REG_A, rs2=_REG_A, imm=4 * (len(window_block) + 1))
            )
        else:  # INDIRECT_MISPREDICTION
            # jalr over the window; the untrained BTB predicts sequential
            # fetch, so the window executes transiently.
            target_address = (
                DEFAULT_LAYOUT.swappable_base
                + base_offset
                + (len(block) + 3 + len(window_block)) * 4
            )
            _li_address(_REG_A, target_address)
            block.append(Instruction("jalr", rd=0, rs1=_REG_A, imm=0))

        window_start = len(block) * 4
        offsets = [window_start + 4 * index for index in range(len(window_block))]
        block.extend(window_block)
        return block, offsets

    def _transmit_block(self) -> List[Instruction]:
        """Secret access + a fixed probe-array encoding (SpecDoctor's transmit phase)."""
        block: List[Instruction] = []
        low = DEFAULT_LAYOUT.secret_address & 0xFFF
        high = DEFAULT_LAYOUT.secret_address & 0xFFFFF000
        block.append(Instruction("lui", rd=_REG_PTR, imm=high))
        block.append(Instruction("addi", rd=_REG_PTR, rs1=_REG_PTR, imm=low))
        block.append(Instruction("ld", rd=_REG_SECRET, rs1=_REG_PTR, imm=0))
        probe = DEFAULT_LAYOUT.probe_base
        block.append(Instruction("lui", rd=6, imm=probe & 0xFFFFF000))
        block.append(Instruction("andi", rd=_REG_TMP, rs1=_REG_SECRET, imm=0xFF))
        block.append(Instruction("slli", rd=_REG_TMP, rs1=_REG_TMP, imm=6))
        block.append(Instruction("add", rd=6, rs1=6, rs2=_REG_TMP))
        block.append(Instruction("ld", rd=7, rs1=6, imm=0))
        return [instruction.with_tag("window").with_tag("encode") for instruction in block]

    # -- campaign -----------------------------------------------------------------------------

    def run_iteration(self) -> Dict[str, object]:
        """One fuzzing iteration: generate, simulate differentially, apply the hash oracle."""
        configuration = self.configuration
        stimulus = self.generate_stimulus()
        taint_mode = (
            TaintTrackingMode.DIFFIFT
            if configuration.measure_taint_coverage
            else TaintTrackingMode.NONE
        )
        harness = DualCoreHarness(
            configuration.core,
            stimulus.schedule,
            secret=self.rng.randbits(64) | 1,
            taint_mode=taint_mode,
        )
        run = harness.run()
        fingerprints_differ = run.fingerprints_differ()
        window_triggered = run.window_triggered
        new_points = 0
        if configuration.measure_taint_coverage:
            new_points = self.coverage.observe_census_log(
                run.taint_census_log(), cycle_range=run.window_cycle_range
            )
        record = {
            "window_type": stimulus.window_type,
            "window_triggered": window_triggered,
            "training_instructions": stimulus.training_instructions,
            "candidate_leakage": fingerprints_differ,
            "timing_difference": run.timing_difference(),
            "new_coverage_points": new_points,
            "run": run,
        }
        if fingerprints_differ:
            self.candidates.append(record)
        return record

    def run_campaign(self, iterations: int) -> CampaignResult:
        result = CampaignResult(fuzzer_name="specdoctor", core=self.configuration.core.name)
        for iteration in range(iterations):
            record = self.run_iteration()
            result.iterations_run = iteration + 1
            result.coverage_history.append(len(self.coverage))
            if record["window_triggered"]:
                group = group_of(record["window_type"])
                result.triggered_windows[group] = result.triggered_windows.get(group, 0) + 1
                result.training_overhead.setdefault(group, []).append(
                    record["training_instructions"]
                )
                result.effective_training_overhead.setdefault(group, []).append(
                    record["training_instructions"]
                )
        result.finish()
        return result
