"""Tests for the taint engine, trace-log queries, reports and co-simulation."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.engine import resolve_core
from repro.core.phase1 import TransientWindowTriggering
from repro.core.phase2 import TransientExecutionExploration
from repro.core.report import CampaignResult, classify_report
from repro.core.phase3 import LeakageVerdict
from repro.generation import TransientWindowType
from repro.generation.random_inst import RandomInstructionGenerator, SafeRegion
from repro.isa import Assembler, IsaSimulator, SimMemory
from repro.isa.instructions import Instruction, nop
from repro.swapmem.harness import DualCoreHarness
from repro.swapmem.layout import DEFAULT_LAYOUT
from repro.swapmem.memory import SwapMemory
from repro.swapmem.scheduler import SwapRunner
from repro.uarch import (
    Processor,
    RobCommitEvent,
    RobEnqueueEvent,
    RobSquashEvent,
    SquashReason,
    TaintTrackingMode,
    TraceLog,
)
from repro.uarch.config import TaintTrackingMode as Mode
from repro.uarch.taint import BIT_WEIGHTS, TaintCensus, TaintState, make_peer_diff_oracle
from repro.utils.rng import DeterministicRng

from test_processor_golden import CORES, _run_digests, _seed


class TestTaintState:
    def test_disabled_mode_tracks_nothing(self):
        taint = TaintState(mode=Mode.NONE)
        taint.set_register_taint(5, True)
        assert not taint.register_is_tainted(5)
        assert not taint.enabled

    def test_register_taint_and_x0(self):
        taint = TaintState(mode=Mode.CELLIFT)
        taint.set_register_taint(5, True)
        taint.set_register_taint(0, True)
        assert taint.register_is_tainted(5)
        assert not taint.register_is_tainted(0)
        assert taint.tainted_register_count() == 1

    def test_address_range_taint(self):
        taint = TaintState(mode=Mode.DIFFIFT)
        taint.taint_address_range(0x1000, 8)
        assert taint.address_tainted(0x1004)
        assert taint.address_tainted(0x0FFF, nbytes=2)
        assert not taint.address_tainted(0x1008)
        taint.taint_memory_write(0x2000, 4, tainted=True)
        assert taint.address_tainted(0x2002)
        taint.taint_memory_write(0x2000, 4, tainted=False)
        assert not taint.address_tainted(0x2002)

    def test_control_event_gating_by_mode(self):
        cellift = TaintState(mode=Mode.CELLIFT)
        assert cellift.control_event("dcache_set", (1,), 3, tainted=True, cycle=0) is True
        assert cellift.control_event("dcache_set", (2,), 3, tainted=False, cycle=0) is False

        diffift_no_oracle = TaintState(mode=Mode.DIFFIFT)
        assert diffift_no_oracle.control_event("dcache_set", (1,), 3, tainted=True, cycle=0) is False

        diffift = TaintState(mode=Mode.DIFFIFT, diff_oracle=lambda kind, key, value: value == 3)
        assert diffift.control_event("dcache_set", (1,), 3, tainted=True, cycle=0) is True
        assert diffift.control_event("dcache_set", (1,), 4, tainted=True, cycle=0) is False

    def test_peer_diff_oracle(self):
        peer = TaintState(mode=Mode.DIFFIFT)
        peer.control_event("dcache_set", (7,), 5, tainted=True, cycle=1)
        oracle = make_peer_diff_oracle(peer)
        assert oracle("dcache_set", (7,), 6) is True    # values differ
        assert oracle("dcache_set", (7,), 5) is False   # identical
        assert oracle("dcache_set", (99,), 5) is True   # peer never got there

    def test_census_and_overlays(self):
        taint = TaintState(mode=Mode.CELLIFT)
        taint.set_register_taint(3, True)
        taint.add_control_overlay("rob", 4)
        census = taint.record_census(cycle=10, component_counts={"dcache": 2})
        assert census.element_counts["regfile"] == 1
        assert census.element_counts["rob"] == 4
        assert census.bit_count("dcache") == 2 * BIT_WEIGHTS["dcache"]
        assert census.total_bits() > 0
        assert taint.census_log == [census]

    def test_census_totals(self):
        census = TaintCensus(cycle=0, element_counts={"dcache": 1, "rob": 2, "tlb": 0})
        assert census.nonzero_modules() == {"dcache": 1, "rob": 2}


class TestTraceLog:
    def _log(self):
        log = TraceLog()
        log.enqueues.extend(
            [
                RobEnqueueEvent(cycle=1, rob_index=0, sequence=0, pc=0x100, mnemonic="addi"),
                RobEnqueueEvent(cycle=2, rob_index=1, sequence=1, pc=0x104, mnemonic="ld"),
                RobEnqueueEvent(cycle=3, rob_index=2, sequence=2, pc=0x108, mnemonic="add"),
            ]
        )
        log.commits.append(RobCommitEvent(cycle=4, rob_index=0, sequence=0, pc=0x100, mnemonic="addi"))
        log.record_squash(
            RobSquashEvent(
                cycle=5,
                reason=SquashReason.EXCEPTION,
                trigger_sequence=1,
                trigger_pc=0x104,
                squashed_sequences=(1, 2),
            )
        )
        return log

    def test_summary(self):
        log = self._log()
        committed = {event.sequence for event in log.commits}
        assert [event.sequence for event in log.enqueues] == [0, 1, 2]
        assert [
            event.sequence for event in log.enqueues if event.sequence not in committed
        ] == [1, 2]
        assert [event.squashed_sequences for event in log.squashes] == [(1, 2)]
        assert log.committed_sequences() == [0]
        assert (log.traps, log.redirects) == ([], [])


class TestReports:
    def _verdict(self, live=None, reason="live_taint", timing=0):
        return LeakageVerdict(
            is_leak=True,
            reason=reason,
            timing_difference=timing,
            live_sinks=live or {"dcache": 1},
        )

    def test_classification_components_and_matching(self):
        report = classify_report(
            iteration=1,
            seed_id=2,
            core_name="xiangshan-minimal",
            window_type=TransientWindowType.LOAD_ACCESS_FAULT,
            verdict=self._verdict(),
        )
        assert report.attack_type == "meltdown"
        assert report.window_category == "mem-excp"
        assert "dcache" in report.timing_components
        assert "meltdown-sampling" in report.matched_known_bugs

    def test_timing_report_uses_contention(self):
        report = classify_report(
            iteration=0,
            seed_id=0,
            core_name="small-boom",
            window_type=TransientWindowType.BRANCH_MISPREDICTION,
            verdict=LeakageVerdict(is_leak=True, reason="timing", timing_difference=4),
            contention={"fdiv": 10},
        )
        assert "fpu" in report.timing_components

    def test_signature_deduplication(self):
        result = CampaignResult(fuzzer_name="dejavuzz", core="small-boom")
        for _ in range(3):
            result.record_report(
                classify_report(
                    iteration=0,
                    seed_id=0,
                    core_name="small-boom",
                    window_type=TransientWindowType.LOAD_PAGE_FAULT,
                    verdict=self._verdict(),
                )
            )
        assert len(result.reports) == 3
        assert len(result.unique_bug_signatures()) == 1
        assert result.first_bug_iteration == 0
        assert result.table5_rows()[0]["attack_type"] == "meltdown"

    def test_campaign_summary_fields(self):
        result = CampaignResult(fuzzer_name="dejavuzz", core="c")
        result.coverage_history = [1, 2, 3]
        result.iterations_run = 3
        summary = result.finish().summary()
        assert summary["coverage"] == 3
        assert summary["iterations"] == 3
        assert summary["elapsed_seconds"] >= 0


class TestCoSimulation:
    """Property test: the OoO pipeline retires the same architectural state as the ISA model."""

    SAFE_BASE = 0xA000
    SAFE_SIZE = 0x1000
    # An address on a page neither model maps.
    UNMAPPED = 0x50000

    def _fault(self, rng):
        """One faulting instruction (after the ``lui`` that sets up its
        address, for memory faults) and the trap cause it must raise."""
        kind = rng.choice(["load-unmapped", "store-unmapped", "misaligned", "ebreak", "illegal"])
        if kind == "ebreak":
            return [Instruction("ebreak")], "breakpoint"
        if kind == "illegal":
            return [Instruction("illegal")], "illegal_instruction"
        if kind == "misaligned":
            return [
                Instruction("lui", rd=31, imm=self.SAFE_BASE),
                Instruction("ld", rd=30, rs1=31, imm=rng.randint(1, 7)),
            ], "misaligned_load"
        access = (
            Instruction("ld", rd=30, rs1=31, imm=0)
            if kind == "load-unmapped"
            else Instruction("sd", rs1=31, rs2=30, imm=0)
        )
        cause = "load_access_fault" if kind == "load-unmapped" else "store_access_fault"
        return [Instruction("lui", rd=31, imm=self.UNMAPPED), access], cause

    @pytest.mark.parametrize("shape", ["straight-line", "branches", "mret", "fault"])
    @pytest.mark.parametrize("core", CORES)
    @settings(max_examples=12, deadline=None)
    @given(entropy=st.integers(min_value=0, max_value=10_000))
    def test_random_programs_commit_in_lockstep_with_golden_model(
        self, core, shape, entropy
    ):
        """Random filler with loads/stores into a mapped region (and forward
        branches), with runs of 0-40 nops between the filler instructions so
        the nop-run macro-step enters and exits around them, and a ``fence``
        or ``fence.i`` after about one in four runs so fetch serializes and
        resumes: the pipeline commits exactly the golden model's instruction
        sequence, traps where it traps, and leaves the same registers and the
        same bytes in the region.  The ``mret`` shape puts one ``mret`` at a
        random point of the straight-line filler; neither model has a CSR
        file or ``mepc``, so both take an illegal-instruction trap there.
        The ``fault`` shape puts one faulting instruction there instead: a
        load or store to an unmapped page, a misaligned load into the
        region, an ``ebreak`` or an illegal instruction.  Both models halt
        at the first trap, so its cause must match too."""
        rng = DeterministicRng(entropy, "cosim")
        generator = RandomInstructionGenerator(
            rng, safe_regions=[SafeRegion(self.SAFE_BASE, self.SAFE_SIZE)]
        )
        body = []
        for instruction in generator.filler_block(40, allow_branches=shape == "branches"):
            body.append(instruction)
            body.extend(nop() for _ in range(rng.randint(0, 40)))
            fence = rng.randint(0, 7)
            if fence < 2:
                body.append(Instruction(("fence", "fence.i")[fence]))
        cause = "ecall"
        if shape == "mret":
            body.insert(rng.randint(0, len(body)), Instruction("mret"))
            cause = "illegal_instruction"
        elif shape == "fault":
            fault, cause = self._fault(rng)
            point = rng.randint(0, len(body))
            body[point:point] = fault
        # A branch near the end skips at most four instructions: it lands on
        # the padding, never past the ecall.
        body.extend(nop() for _ in range(4))
        body.append(Instruction("ecall"))
        program = Assembler(base=0x1000).assemble_instructions(body)

        def fresh_memory():
            memory = SimMemory()
            memory.map_range(0x1000, 0x1000)
            memory.map_range(self.SAFE_BASE, self.SAFE_SIZE)
            return memory

        reference_memory = fresh_memory()
        reference = IsaSimulator(program, memory=reference_memory).run(max_instructions=5_000)
        assert reference.trap is not None and reference.trap.cause.value == cause
        *committed_pcs, trap_pc = [pc for pc, _ in reference.trace]

        memory = fresh_memory()
        processor = Processor(resolve_core(core), memory=memory)
        processor.load_program(program, map_pages=False)
        outcome = processor.run(max_cycles=20_000)
        assert outcome.halted_on == f"trap:{cause}"
        assert [event.pc for event in outcome.trace.commits] == committed_pcs
        assert [trap.pc for trap in outcome.trace.traps] == [trap_pc]
        assert [processor.read_register(index) for index in range(32)] == [
            reference.register_file.get(index, 0) for index in range(32)
        ]
        for address in range(self.SAFE_BASE, self.SAFE_BASE + self.SAFE_SIZE, 8):
            assert memory.read(address, 8) == reference_memory.read(address, 8), hex(address)


WINDOW_TYPES = list(TransientWindowType)
TAINT_ENTROPY_BASE = 7_600_000


class TestTaintModeInvariance:
    """Taint tracking observes the pipeline; it never changes what it runs."""

    @staticmethod
    def _digests_per_mode(config, schedule, secret):
        def single(mode):
            swap_memory = SwapMemory(secret=secret)
            processor = Processor(config, memory=swap_memory.data, taint_mode=mode)
            if mode is not Mode.NONE:
                processor.mark_secret(DEFAULT_LAYOUT.secret_address, DEFAULT_LAYOUT.secret_size)
            return SwapRunner(processor, swap_memory, schedule).run()

        cellift = single(Mode.CELLIFT)
        # diffIFT runs as the fuzzer runs it: a primary DUT whose diff oracle
        # is a variant DUT holding the flipped secret.
        diffift = DualCoreHarness(config, schedule, secret, taint_mode=Mode.DIFFIFT).run()
        digests = {
            mode: _run_digests(run, census=False)
            for mode, run in (
                (Mode.NONE, single(Mode.NONE)),
                (Mode.CELLIFT, cellift),
                (Mode.DIFFIFT, diffift.primary),
            )
        }
        census = cellift.processor.taint.census_log
        reached = any(sum(entry.element_counts.values()) for entry in census)
        return digests, reached

    @staticmethod
    def _schedules(core, window_type):
        """The core's config, the seed, its Phase-1 schedule and, when the
        window triggered, the Phase-2 completion of that window."""
        config = resolve_core(core)
        seed = _seed(core, window_type, TAINT_ENTROPY_BASE + WINDOW_TYPES.index(window_type))
        phase1 = TransientWindowTriggering(config)
        _, schedule = phase1.generate_schedule(seed)
        schedules = [schedule]
        result = phase1.run(seed)
        if result.triggered:
            schedules.append(TransientExecutionExploration(config).complete_window(result, seed))
        return config, seed, schedules

    @pytest.mark.parametrize("window_type", WINDOW_TYPES, ids=lambda w: w.value)
    @pytest.mark.parametrize("core", CORES)
    def test_architectural_state_does_not_depend_on_taint_mode(self, core, window_type):
        """The Phase-1 schedule, and the Phase-2 completion of its window
        (which reads the secret), retire identically untainted, under CellIFT
        and under diffIFT: every digest but the census matches."""
        config, seed, schedules = self._schedules(core, window_type)
        for index, schedule in enumerate(schedules):
            digests, reached = self._digests_per_mode(config, schedule, seed.secret_value)
            assert digests[Mode.CELLIFT] == digests[Mode.NONE]
            assert digests[Mode.DIFFIFT] == digests[Mode.NONE]
            if index == 1:
                assert reached, "the completed window never tainted anything"

    @pytest.mark.parametrize("window_type", WINDOW_TYPES, ids=lambda w: w.value)
    @pytest.mark.parametrize("core", CORES)
    def test_precision_order_on_the_primary_census(self, core, window_type):
        """Figure 6's precision order on the processor model: on every cycle
        and module the primary DUT taints no more elements under diffIFT_FN
        (both DUTs hold the same secret) than under diffIFT, and no more
        under diffIFT than under CellIFT."""
        config, seed, schedules = self._schedules(core, window_type)
        for schedule in schedules:
            logs = [
                DualCoreHarness(
                    config, schedule, seed.secret_value, taint_mode=mode, false_negative_mode=fn
                ).run().taint_census_log()
                for mode, fn in ((Mode.DIFFIFT, True), (Mode.DIFFIFT, False), (Mode.CELLIFT, False))
            ]
            assert len({tuple(census.cycle for census in log) for log in logs}) == 1
            for censuses in zip(*logs):
                for module in set().union(*(census.element_counts for census in censuses)):
                    fn_count, diff_count, cell_count = (
                        census.element_counts.get(module, 0) for census in censuses
                    )
                    assert fn_count <= diff_count <= cell_count, (module, censuses[0].cycle)

    @pytest.mark.parametrize("window_type", WINDOW_TYPES, ids=lambda w: w.value)
    @pytest.mark.parametrize("core", CORES)
    def test_variant_observables_do_not_depend_on_taint_mode(self, core, window_type):
        """What the primary's diff oracle and the leak oracles read from the
        variant DUT (its control decisions, its cycle counts and its
        side-channel fingerprint) is the same for the harness's untainted
        variant and for one run under diffIFT with the secret marked: the
        precondition for running it untainted."""
        config, seed, schedules = self._schedules(core, window_type)

        def observed(run):
            return (
                [(event.kind, event.key, event.value) for event in run.processor.taint.control_log],
                run.total_cycles,
                run.transient_packet_cycles(),
                run.processor.side_channel_fingerprint(),
            )

        for schedule in schedules:
            harness = DualCoreHarness(config, schedule, seed.secret_value)
            assert harness.processor_variant.taint.mode is Mode.NONE
            untainted = harness.run().variant
            swap_memory = SwapMemory(secret=harness.variant_secret)
            processor = Processor(config, memory=swap_memory.data, taint_mode=Mode.DIFFIFT)
            processor.mark_secret(DEFAULT_LAYOUT.secret_address, DEFAULT_LAYOUT.secret_size)
            tainted = SwapRunner(processor, swap_memory, schedule).run()
            assert observed(untainted) == observed(tainted)
