"""Tests for the out-of-order pipeline model (the DUT)."""

import dataclasses
import hashlib
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.engine import resolve_core
from repro.isa import Assembler, IsaSimulator, Permission, SimMemory
from repro.isa.instructions import Instruction
from repro.uarch import (
    Processor,
    SquashReason,
    TaintTrackingMode,
    small_boom_config,
    xiangshan_minimal_config,
)

SECRET = 0x8000
PROBE = 0xA000


def make_memory(*ranges):
    memory = SimMemory()
    for base, size in ranges:
        memory.map_range(base, size)
    return memory


def build_processor(source, config=None, memory=None, taint_mode=TaintTrackingMode.NONE,
                    extra_symbols=None, base=0x1000):
    config = config or small_boom_config()
    program = Assembler(base=base).assemble(source, extra_symbols=extra_symbols)
    if memory is None:
        memory = make_memory((base, 0x2000))
    else:
        memory.map_range(base, 0x2000)
    processor = Processor(config, memory=memory, taint_mode=taint_mode)
    processor.load_program(program, map_pages=False)
    return processor, program


def run_by_steps(processor, max_cycles):
    """What ``Processor.run`` does, one ``step_cycle`` at a time.

    ``step_cycle`` never fast-forwards and never enters the nop-run
    macro-step, so this is the reference every shortcut of ``run`` must
    reproduce.  Returns the halt reason ``run`` would report.
    """
    processor._halt_reason = None
    limit = processor.cycle + max_cycles
    while processor.cycle < limit:
        processor.step_cycle()
        if processor._halt_reason is not None:
            break
    return processor._halt_reason or "max_cycles"


def pipeline_state(processor):
    """Everything a run leaves behind that a shortcut could get wrong."""
    trace = processor.trace
    icache = processor.hierarchy.icache
    return {
        "enqueues": list(trace.enqueues),
        "commits": list(trace.commits),
        "squashes": list(trace.squashes),
        "traps": list(trace.traps),
        "redirects": list(trace.redirects),
        "contention": dict(processor.ports.contention_cycles),
        "lsu_writeback": processor.lsu.port_contention_cycles,
        "icache": (icache.accesses, icache.misses),
        "fingerprint": processor.side_channel_fingerprint(),
        "registers": list(processor.registers),
        "cycle": processor.cycle,
        "committed": processor.committed_instructions,
        "census": [(census.cycle, census.element_counts) for census in processor.taint.census_log],
    }


class TestArchitecturalCorrectness:
    def test_simple_program_matches_isa_simulator(self):
        source = """
          li a0, 11
          li a1, 31
          mul a2, a0, a1
          xor a3, a0, a1
          sub a4, a1, a0
          ecall
        """
        memory = make_memory((0x1000, 0x2000))
        processor, program = build_processor(source, memory=memory)
        outcome = processor.run(max_cycles=400)
        reference = IsaSimulator(program, memory=make_memory((0x1000, 0x2000)))
        reference.run()
        for register in (10, 11, 12, 13, 14):
            assert processor.read_register(register) == reference.read_register(register)
        assert outcome.halted_on == "trap:ecall"

    def test_store_to_load_forwarding_with_mixed_sizes(self):
        # Regression (found by the cosim property test): forwarding used to
        # hand the load the store's *full* value, so a narrow load reading a
        # wide in-flight store (or a load spanning several partial stores)
        # diverged from the golden model.  Bytes must compose per-byte:
        # memory underneath, older stores overlaid oldest-to-youngest.
        source = """
          li a0, 0xA000
          li a1, 0x3f1
          sw a1, 32(a0)
          lbu a2, 32(a0)
          lb a3, 33(a0)
          li a4, 0xAB
          sb a4, 34(a0)
          lw a5, 32(a0)
          ecall
        """
        memory = make_memory((0x1000, 0x2000), (0xA000, 0x1000))
        processor, program = build_processor(source, memory=memory)
        processor.run(max_cycles=600)
        reference = IsaSimulator(
            program, memory=make_memory((0x1000, 0x2000), (0xA000, 0x1000))
        )
        reference.run()
        for register in (12, 13, 15):
            assert processor.read_register(register) == reference.read_register(register)
        assert processor.read_register(12) == 0xF1          # low byte of the word
        assert processor.read_register(15) == 0x00AB_03F1   # sb overlaid on sw

    def test_forwarded_untainted_store_shadows_tainted_memory(self):
        # Taint is resolved per byte like the data: an in-flight untainted
        # store fully covering the load hides the tainted memory underneath,
        # so the load result must come back clean.
        source = """
          li a0, 0xA000
          li a1, 17
          sd a1, 0(a0)
          ld a2, 0(a0)
          ecall
        """
        memory = make_memory((0x1000, 0x2000), (0xA000, 0x1000))
        processor, _ = build_processor(
            source, memory=memory, taint_mode=TaintTrackingMode.CELLIFT
        )
        processor.mark_secret(0xA000, 8)
        processor.run(max_cycles=400)
        assert processor.read_register(12) == 17
        assert not processor.taint.register_is_tainted(12)

    def test_loop_commits_expected_count(self):
        source = """
          li a0, 0
          li a1, 8
        loop:
          addi a0, a0, 1
          blt a0, a1, loop
          ecall
        """
        processor, _ = build_processor(source)
        outcome = processor.run(max_cycles=600)
        assert processor.read_register(10) == 8
        # 2 setup + 8*2 loop body + ecall commit is not architectural
        assert outcome.committed_instructions == 2 + 16

    def test_store_visible_after_commit_only(self):
        source = """
          li t0, 0xA000
          li t1, 77
          sd t1, 0(t0)
          ecall
        """
        memory = make_memory((0x1000, 0x2000), (PROBE, 0x1000))
        processor, _ = build_processor(source, memory=memory)
        processor.run(max_cycles=300)
        assert memory.read(PROBE, 8) == 77

    def test_store_to_load_forwarding(self):
        source = """
          li t0, 0xA000
          li t1, 123
          sd t1, 0(t0)
          ld t2, 0(t0)
          ecall
        """
        memory = make_memory((0x1000, 0x2000), (PROBE, 0x1000))
        processor, _ = build_processor(source, memory=memory)
        processor.run(max_cycles=300)
        assert processor.read_register(7) == 123

    def test_call_return(self):
        source = """
          call helper
          li a1, 5
          ecall
        helper:
          li a0, 9
          ret
        """
        processor, _ = build_processor(source)
        processor.run(max_cycles=300)
        assert processor.read_register(10) == 9
        assert processor.read_register(11) == 5

    @pytest.mark.parametrize("core", ["boom", "xiangshan", "boom-large"])
    @pytest.mark.parametrize("op", ["fence", "fence.i", "mret"])
    def test_fetch_resumes_after_a_serializing_commit(self, op, core):
        # Regression: a serializing instruction that committed without
        # trapping left fetch serialized for good, so the run ended at
        # max_cycles after one commit.  Neither model has a CSR file or
        # mepc, so mret is no longer a fall-through: both models trap on it.
        source = f"{op}\naddi a0, zero, 1\necall\n"
        processor, program = build_processor(source, config=resolve_core(core))
        outcome = processor.run(max_cycles=500)
        reference = IsaSimulator(program, memory=make_memory((0x1000, 0x2000)))
        result = reference.run()
        cause, a0 = ("illegal_instruction", 0) if op == "mret" else ("ecall", 1)
        assert outcome.halted_on == f"trap:{result.trap.cause.value}" == f"trap:{cause}"
        assert processor.read_register(10) == reference.read_register(10) == a0


class TestSpeculationAndSquashes:
    def test_branch_misprediction_squashes_wrong_path(self):
        # Train the branch taken in a loop, then flip the condition: the final
        # execution mispredicts and the wrong path must not commit.
        source = """
          li a0, 0
          li a1, 4
        loop:
          addi a0, a0, 1
          blt a0, a1, loop
          li a2, 1
          ecall
        """
        processor, _ = build_processor(source)
        outcome = processor.run(max_cycles=600)
        assert processor.read_register(12) == 1
        assert SquashReason.BRANCH_MISPREDICTION in {event.reason for event in outcome.trace.squashes}
        # Architectural state must be unaffected by squashed wrong-path work.
        assert processor.read_register(10) == 4

    def test_exception_commits_at_head_and_squashes_younger(self):
        source = """
          li t0, 0x6000
          ld t1, 0(t0)
          li a2, 1
          ecall
        """
        processor, _ = build_processor(source)
        outcome = processor.run(max_cycles=400)
        assert outcome.halted_on == "trap:load_access_fault"
        assert processor.read_register(12) == 0  # younger write never committed
        assert len(outcome.trace.enqueues) > len(outcome.trace.commits)

    def test_meltdown_forwarding_taints_dependents(self):
        """A faulting load still forwards data to transient dependents."""
        source = """
          li t0, 0x8000
          ld s0, 0(t0)
          slli s1, s0, 6
          li t1, 0xA000
          add t1, t1, s1
          ld t2, 0(t1)
          ecall
        """
        memory = make_memory((0x1000, 0x2000), (PROBE, 0x10000))
        memory.map_page(SECRET, Permission.EXECUTE)  # mapped, not readable
        memory.write(SECRET, 0x42, 8)
        processor, _ = build_processor(source, memory=memory, taint_mode=TaintTrackingMode.CELLIFT)
        processor.mark_secret(SECRET, 8)
        outcome = processor.run(max_cycles=400)
        assert outcome.halted_on == "trap:load_page_fault"
        # The probe line indexed by the secret was touched and tainted.
        assert processor.hierarchy.dcache.tainted_entry_count() >= 1
        assert any(census.total_bits() for census in outcome.taint.census_log)

    def test_memory_disambiguation_squash(self):
        source = """
          li a0, 0xA000
          li a4, 900
          li a5, 3
          li t3, 55
          sd t3, 0(a0)
          div a3, a4, a5
          div a3, a3, a3
          andi a3, a3, 0
          add a3, a3, a0
          sd zero, 0(a3)
          ld t4, 0(a0)
          ecall
        """
        memory = make_memory((0x1000, 0x2000), (PROBE, 0x1000))
        processor, _ = build_processor(source, memory=memory)
        outcome = processor.run(max_cycles=600)
        assert SquashReason.MEMORY_DISAMBIGUATION in {event.reason for event in outcome.trace.squashes}
        # After re-execution the load observes the (architecturally correct) zero.
        assert processor.read_register(29) == 0

    def test_illegal_instruction_window_policy(self):
        instructions = [
            Instruction("illegal"),
            Instruction("addi", rd=10, rs1=0, imm=1),
            Instruction("addi", rd=11, rs1=0, imm=1),
            Instruction("ecall"),
        ]
        for config, expect_window in (
            (small_boom_config(), False),
            (xiangshan_minimal_config(), True),
        ):
            program = Assembler(base=0x1000).assemble_instructions(instructions)
            memory = make_memory((0x1000, 0x1000))
            processor = Processor(config, memory=memory)
            processor.load_program(program, map_pages=False)
            outcome = processor.run(max_cycles=400)
            assert outcome.halted_on == "trap:illegal_instruction"
            committed = set(outcome.trace.committed_sequences())
            transient_younger = [
                event.sequence
                for event in outcome.trace.enqueues
                if event.sequence > 0 and event.sequence not in committed
            ]
            assert bool(transient_younger) == expect_window


class TestSameCycleSquashes:
    def test_branch_squashed_by_older_branch_does_not_resolve(self):
        # Both branches are predicted not taken and resolve in the same
        # cycle.  The older one squashes the younger, which must then not
        # redirect fetch to its own target.
        source = """
          li a0, 1
          li a1, 1
          beq a0, a1, first
          beq a0, a1, second
          li a2, 99
          ecall
        first:
          li a2, 1
          ecall
        second:
          li a2, 2
          ecall
        """
        memory = make_memory((0x1000, 0x2000))
        processor, program = build_processor(source, memory=memory)
        outcome = processor.run(max_cycles=400)
        reference = IsaSimulator(program, memory=make_memory((0x1000, 0x2000)))
        reference.run()
        assert outcome.halted_on == "trap:ecall"
        assert processor.read_register(12) == reference.read_register(12) == 1
        mispredictions = [
            squash
            for squash in outcome.trace.squashes
            if squash.reason is SquashReason.BRANCH_MISPREDICTION
        ]
        assert len(mispredictions) == 1

    def test_entries_squashed_by_memory_disambiguation_do_not_execute(self):
        # The dependents of the violating load become ready in the cycle the
        # older store executes and squashes them; they must not execute.
        source = """
          li a0, 0xA000
          li a4, 900
          li a5, 3
          li t3, 55
          sd t3, 0(a0)
          div a3, a4, a5
          andi a3, a3, 0
          add a3, a3, a0
          sd zero, 0(a3)
          ld t4, 0(a0)
          add t5, t4, t4
          add t6, t4, t4
          ecall
        """
        memory = make_memory((0x1000, 0x2000), (PROBE, 0x1000))
        processor, program = build_processor(source, memory=memory)
        squashes = []
        remove_younger_than = processor.rob.remove_younger_than

        def recording_remove(sequence):
            squashed = remove_younger_than(sequence)
            squashes.append((processor.cycle, squashed))
            return squashed

        processor.rob.remove_younger_than = recording_remove
        outcome = processor.run(max_cycles=600)
        assert SquashReason.MEMORY_DISAMBIGUATION in {event.reason for event in outcome.trace.squashes}
        assert squashes and all(squashed for _, squashed in squashes)
        executed_after_squash = [
            (cycle, entry.sequence)
            for cycle, squashed in squashes
            for entry in squashed
            if entry.dispatch_cycle >= cycle
        ]
        assert executed_after_squash == []
        reference = IsaSimulator(program, memory=make_memory((0x1000, 0x2000), (PROBE, 0x1000)))
        reference.run()
        for register in (29, 30, 31):
            assert processor.read_register(register) == reference.read_register(register)


class TestWorklists:
    SOURCE = """
      li a0, 0xA000
      li a1, 0
      li a2, 4
      li a4, 900
      li a5, 3
    loop:
      addi a1, a1, 1
      sd a1, 0(a0)
      div a3, a4, a5
      andi a3, a3, 0
      add a3, a3, a0
      sd zero, 0(a3)
      ld t4, 0(a0)
      blt a1, a2, loop
      call helper
      ecall
    helper:
      li t5, 9
      ret
    """

    @staticmethod
    def _check_against_rob(processor):
        cycle = processor.cycle
        entries = processor.rob.entries
        assert processor._unexecuted == [entry for entry in entries if not entry.executed]
        assert processor._unresolved == [
            entry
            for entry in entries
            if entry.instruction.is_control_flow
            and not (entry.executed and entry.complete_cycle <= cycle)
        ]
        live = sorted(
            (complete, sequence)
            for complete, sequence, entry in processor._executing
            if complete > cycle and not entry.squashed
        )
        assert live == sorted(
            (entry.complete_cycle, entry.sequence)
            for entry in entries
            if entry.executed and entry.complete_cycle > cycle
        )

    @pytest.mark.parametrize(
        "core, taint_mode",
        [
            ("boom", TaintTrackingMode.NONE),
            ("xiangshan", TaintTrackingMode.NONE),
            ("boom-large", TaintTrackingMode.NONE),
            ("boom", TaintTrackingMode.DIFFIFT),
        ],
        ids=["boom", "xiangshan", "boom-large", "boom-diffift"],
    )
    def test_worklists_mirror_the_rob_every_cycle(self, core, taint_mode):
        """``step_cycle`` is the one-cycle entry into the fused cycle loop:
        the worklists it leaves behind must match the RoB after every cycle."""
        memory = make_memory((0x1000, 0x2000), (PROBE, 0x1000))
        processor, _ = build_processor(
            self.SOURCE, config=resolve_core(core), memory=memory, taint_mode=taint_mode
        )
        if taint_mode is TaintTrackingMode.DIFFIFT:
            # Every control decision diverges, so the rollback taint paths run.
            processor.taint.diff_oracle = lambda kind, key, value: True
            processor.mark_secret(PROBE, 0x1000)
        reasons = set()
        while processor._halt_reason is None and processor.cycle < 2000:
            processor.step_cycle()
            self._check_against_rob(processor)
            processor._fast_forward(2000)
            reasons.update(event.reason for event in processor.trace.squashes)
        assert processor._halt_reason == "trap:ecall"
        assert {SquashReason.BRANCH_MISPREDICTION, SquashReason.MEMORY_DISAMBIGUATION} <= reasons
        if taint_mode is TaintTrackingMode.DIFFIFT:
            census = processor.taint.census_log
            assert [entry.cycle for entry in census] == list(range(1, processor.cycle + 1))
            assert any(entry.nonzero_modules() for entry in census)
        processor.flush_transient_state()
        assert not (processor._unexecuted or processor._unresolved or processor._executing)

    def test_reset_clears_worklists(self):
        processor, _ = build_processor(self.SOURCE, memory=make_memory((0x1000, 0x2000), (PROBE, 0x1000)))
        processor.run(max_cycles=30)
        assert processor._unexecuted or processor._unresolved or processor._executing
        processor.reset()
        assert not (processor._unexecuted or processor._unresolved or processor._executing)


class TestNopIssuePorts:
    """Nops must compete for the int issue ports in program order.  In each
    loop iteration a divide holds back sixteen dependent adds; once it
    completes they saturate the int ports and the nops fetched behind them
    wait (the second iteration fetches from a warm icache, so fetch keeps
    up).  The pinned figures were computed with ``step_cycle``, which never
    takes a shortcut; the nop-run macro-step must leave them unchanged."""

    SOURCE = "\n".join(
        ["li a0, 1000", "li a1, 7", "li s0, 2", "loop:", "div a2, a0, a1"]
        + [f"add t{index % 3}, a2, a2" for index in range(16)]
        + ["nop"] * 24
        + ["addi s0, s0, -1", "bnez s0, loop", "last:", "nop", "ecall"]
    )

    # core -> (cycles, int-port contention, SHA-256 of the [cycle, pc] commit list)
    EXPECTED = {
        "boom": (178, 244, "a3bcff497ea1439887431069adf36bfeb5e05020fb619293264efc35919c2d12"),
        "xiangshan": (173, 52, "1a6c2a5c2e270f62ee10ff1a9a9bac4c18f269112222bb6a186400513d79d459"),
        "boom-large": (161, 146, "42d61bde5f66e0d9a5a5f393c669d6991fc81bcbd19b6faf3ca43b4c5b6a9b1c"),
    }

    @pytest.mark.parametrize("core", sorted(EXPECTED))
    def test_nop_port_contention_and_commit_cycles(self, core):
        processor, program = build_processor(self.SOURCE, config=resolve_core(core))
        outcome = processor.run(max_cycles=800)
        cycles, contention, digest = self.EXPECTED[core]
        assert outcome.halted_on == "trap:ecall"
        assert outcome.cycles == cycles
        assert processor.ports.contention_cycles["int"] == contention
        # Three set-up instructions, two iterations of 43, then the last nop
        # (the ecall traps instead of committing).
        last = program.label_address("last")
        commit_cycles = [[event.cycle, event.pc] for event in processor.trace.commits]
        assert len(commit_cycles) == 3 + 2 * 43 + 1
        assert commit_cycles[-1][1] == last
        commits = json.dumps(commit_cycles)
        assert hashlib.sha256(commits.encode()).hexdigest() == digest

    @pytest.mark.parametrize("core", sorted(EXPECTED))
    def test_nops_wait_for_a_port(self, core):
        """A nop is ready one cycle after fetch; it executes later only
        because older instructions held every int port."""
        processor, _ = build_processor(self.SOURCE, config=resolve_core(core))
        nops = {}
        while processor._halt_reason is None and processor.cycle < 800:
            processor.step_cycle()
            for entry in processor.rob.entries:
                if entry.instruction.is_nop:
                    nops[entry.sequence] = entry
        assert processor._halt_reason == "trap:ecall"
        assert any(entry.dispatch_cycle > entry.fetch_cycle + 1 for entry in nops.values())


class TestSideChannelState:
    def test_dcache_state_persists_across_squash(self):
        """The core Spectre property: squashed loads leave cache lines resident."""
        source = """
          li a0, 0
          li a1, 4
        loop:
          addi a0, a0, 1
          blt a0, a1, loop
          li a2, 1
          ecall
        """
        processor, _ = build_processor(source)
        processor.run(max_cycles=600)
        assert processor.hierarchy.dcache.accesses >= 0  # structure exists and is queried
        fingerprint_one = processor.side_channel_fingerprint()
        assert isinstance(hash(fingerprint_one), int)

    def test_fingerprint_differs_for_different_data_paths(self):
        template = """
          li t0, {offset}
          li t1, 0xA000
          add t1, t1, t0
          ld t2, 0(t1)
          ecall
        """
        fingerprints = []
        for offset in (0, 0x1000):
            memory = make_memory((0x1000, 0x2000), (PROBE, 0x2000))
            processor, _ = build_processor(template.format(offset=offset), memory=memory)
            processor.run(max_cycles=300)
            fingerprints.append(hash(processor.side_channel_fingerprint()))
        assert fingerprints[0] != fingerprints[1]

    def test_b1_truncation_samples_valid_location(self):
        """MeltDown-Sampling: illegal high addresses are truncated on XiangShan."""
        source = """
          li t3, 1
          slli t3, t3, 40
          li t0, 0xA000
          ld t6, 0(t0)        # warm the target line (the attacker can do this)
          or t0, t0, t3
          ld s0, 0(t0)
          slli s1, s0, 6
          li t1, 0xA000
          add t1, t1, s1
          ld t2, 0(t1)
          ecall
        """
        results = {}
        for name, config in (
            ("buggy", xiangshan_minimal_config()),
            ("clean", xiangshan_minimal_config(enable_bugs=False)),
        ):
            memory = make_memory((0x1000, 0x2000), (PROBE, 0x10000))
            memory.write(PROBE, 0x7, 8)
            processor, _ = build_processor(
                source, config=config, memory=memory, taint_mode=TaintTrackingMode.CELLIFT
            )
            processor.mark_secret(PROBE, 8)
            outcome = processor.run(max_cycles=400)
            assert outcome.halted_on == "trap:load_access_fault"
            # The value at the truncated address is 0x7; if it was sampled the
            # transient probe load touches PROBE + (0x7 << 6).
            dcache = processor.hierarchy.dcache
            probe_line = (PROBE + (0x7 << 6)) // dcache.config.line_bytes
            results[name] = any(probe_line in ways for ways in dcache.sets)
        assert results["buggy"] is True
        assert results["clean"] is False

    def test_contention_counters_exposed(self):
        # Back-to-back divisions pile up on the non-pipelined FP divider.
        source = "\n".join(["fdiv.d f1, f2, f3"] * 5) + "\necall\n"
        processor, _ = build_processor(source)
        processor.run(max_cycles=600)
        assert processor.ports.contention_cycles["fdiv"] > 0


class TestTraceLog:
    def test_enqueue_commit_counts(self):
        source = "li a0, 1\nli a1, 2\necall\n"
        processor, _ = build_processor(source)
        outcome = processor.run(max_cycles=200)
        assert len(outcome.trace.commits) == 2
        assert len(outcome.trace.enqueues) >= len(outcome.trace.commits)

    def test_window_cycle_range_none_without_window(self):
        source = "li a0, 1\necall\n"
        processor, _ = build_processor(source)
        outcome = processor.run(max_cycles=200)
        committed = set(outcome.trace.committed_sequences())
        only_ecall_transient = all(
            outcome.trace.enqueues[index].mnemonic == "ecall"
            for index, event in enumerate(outcome.trace.enqueues)
            if event.sequence not in committed
        )
        assert only_ecall_transient

    def test_commit_cycles_recorded_in_order(self):
        source = "li a0, 1\nli a1, 2\nli a2, 3\necall\n"
        processor, _ = build_processor(source)
        processor.run(max_cycles=200)
        cycles = [event.cycle for event in processor.trace.commits]
        assert cycles == sorted(cycles)


PROGRAM_SEGMENTS = st.lists(
    st.one_of(
        st.tuples(st.just("nops"), st.integers(0, 80), st.none()),
        st.tuples(st.just("arith"), st.sampled_from(["div", "divu", "rem", "mul"]), st.integers(0, 3)),
        st.tuples(st.just("memory"), st.booleans(), st.integers(0, 63)),
        st.tuples(st.just("branch"), st.booleans(), st.integers(0, 6)),
    ),
    min_size=1,
    max_size=8,
)


def segments_source(segments):
    """Assembly for a packet of nop sleds, divide/multiply chains, loads and
    stores into ``PROBE`` and forward branches, ending in ``ecall``."""
    lines = [f"li a0, {PROBE}", "li t0, 100", "li t1, 7"]
    for index, (kind, first, second) in enumerate(segments):
        if kind == "nops":
            lines += ["nop"] * first
        elif kind == "arith":
            lines.append(f"{first} s0, t0, t1")
            lines += ["add s1, s1, s0"] * second
        elif kind == "memory":
            lines.append(f"sd s1, {second * 8}(a0)" if first else f"ld t2, {second * 8}(a0)")
        else:
            # t0 != t1: bne is taken, beq falls through.
            lines.append(f"{'bne' if first else 'beq'} t0, t1, skip{index}")
            lines += ["addi t3, t3, 1"] * second
            lines.append(f"skip{index}:")
    lines.append("ecall")
    return "\n".join(lines)


def build_tainted(source, core, taint_mode):
    """A processor for ``source`` on ``core`` (a name or a ``CoreConfig``)."""
    config = resolve_core(core) if isinstance(core, str) else core
    memory = make_memory((0x1000, 0x2000), (PROBE, 0x1000))
    processor, program = build_processor(
        source, config=config, memory=memory, taint_mode=taint_mode
    )
    if taint_mode is TaintTrackingMode.DIFFIFT:
        # The always-diverge oracle of TestWorklists: every control
        # decision diverges, so the rollback taint paths run.
        processor.taint.diff_oracle = lambda kind, key, value: True
        processor.mark_secret(PROBE, 0x1000)
    return processor, program


CORE_NAMES = ("boom", "xiangshan", "boom-large")
CORE_TAINT_ARMS = [
    (core, mode) for mode in (TaintTrackingMode.NONE, TaintTrackingMode.DIFFIFT) for core in CORE_NAMES
]


def assert_run_matches_steps(source, core, taint_mode=TaintTrackingMode.NONE, max_cycles=20_000):
    """Run ``source`` once through ``run`` and once by ``step_cycle``; both
    must leave the same state behind.  Returns both processors and the
    outcome of ``run``."""
    fast, _ = build_tainted(source, core, taint_mode)
    reference, _ = build_tainted(source, core, taint_mode)
    outcome = fast.run(max_cycles=max_cycles)
    halted_on = run_by_steps(reference, max_cycles)
    assert outcome.halted_on == halted_on
    assert outcome.cycles == reference.cycle
    assert pipeline_state(fast) == pipeline_state(reference)
    return fast, reference, outcome


class TestRunMatchesStepCycle:
    """``run`` skips inert cycles (``_fast_forward``) and advances nop-only
    cycles on integer bookkeeping (``_nop_run``); ``step_cycle`` does
    neither, so it is the reference both shortcuts must reproduce."""

    @pytest.mark.parametrize(
        "core, taint_mode", CORE_TAINT_ARMS, ids=[f"{core}-{mode.value}" for core, mode in CORE_TAINT_ARMS]
    )
    @settings(max_examples=25, deadline=None)
    @given(segments=PROGRAM_SEGMENTS)
    def test_run_matches_repeated_step_cycle(self, core, taint_mode, segments):
        _, _, outcome = assert_run_matches_steps(segments_source(segments), core, taint_mode)
        assert outcome.halted_on == "trap:ecall"

    def test_fast_forward_waits_for_an_instruction_fetched_on_a_miss(self):
        """Regression: the last nop is fetched at cycle 114 on a new icache
        line, behind a divide.  ``_fast_forward`` used to jump straight to
        the divide's completion, skipping the cycle in which the nop
        issues, so ``run`` committed it at 117 instead of 116."""
        source = "\n".join(
            ["addi t0, zero, 100", "addi t1, zero, 7"]
            + ["nop"] * 32
            + ["div s0, t0, t1", "nop", "div t2, t0, t1"]
            + ["nop"] * 11
            + ["div t2, t0, t1", "nop", "ecall"]
        )
        fast, _, outcome = assert_run_matches_steps(source, "xiangshan")
        assert outcome.cycles == 162
        (last_nop,) = [event for event in fast.trace.commits if event.sequence == 49]
        assert last_nop.cycle == 116


def sled(length, before=(), after=("ecall",)):
    """Assembly for ``length`` nops between two set-up lines plus ``before``
    and the lines ``after``."""
    return "\n".join(["li t0, 100", "li t1, 7", *before] + ["nop"] * length + list(after))


class TestNopRun:
    """Edge cases of the nop-run macro-step (``Processor._nop_run``), each
    checked against the ``step_cycle`` reference."""

    @staticmethod
    def _count_entries(monkeypatch):
        """Record (cycle on entry, RoB size on entry, cycle on exit) per call."""
        calls = []
        nop_run = Processor._nop_run

        def counting(self, limit_cycle):
            start, inflight = self.cycle, len(self.rob.entries)
            end = nop_run(self, limit_cycle)
            calls.append((start, inflight, end))
            return end

        monkeypatch.setattr(Processor, "_nop_run", counting)
        return calls

    @pytest.mark.parametrize("core", CORE_NAMES)
    @pytest.mark.parametrize("taint_mode", [TaintTrackingMode.NONE, TaintTrackingMode.DIFFIFT])
    def test_max_cycles_cutting_a_sled_then_resuming(self, core, taint_mode, monkeypatch):
        """Runs of five cycles at a time, cut inside sleds with the RoB full
        of nops, leave RobEntry objects, worklists and flags from which the
        next run resumes exactly."""
        calls = self._count_entries(monkeypatch)
        fast, _ = build_tainted(self.warm_sled_loop(core), core, taint_mode)
        reference, _ = build_tainted(self.warm_sled_loop(core), core, taint_mode)
        cuts_with_nops_in_flight = 0
        outcome = None
        while outcome is None or outcome.halted_on == "max_cycles":
            outcome = fast.run(max_cycles=5)
            assert outcome.halted_on == run_by_steps(reference, 5)
            if calls and calls[-1][2] == fast.cycle and fast.rob.entries:
                cuts_with_nops_in_flight += 1
            assert pipeline_state(fast) == pipeline_state(reference)
            TestWorklists._check_against_rob(fast)
            assert [
                (entry.sequence, entry.executed, entry.complete_cycle, entry.head_arrival_cycle)
                for entry in fast.rob.entries
            ] == [
                (entry.sequence, entry.executed, entry.complete_cycle, entry.head_arrival_cycle)
                for entry in reference.rob.entries
            ]
            assert (fast.fetch_pc, fast.fetch_stall_until, fast._port_denied) == (
                reference.fetch_pc,
                reference.fetch_stall_until,
                reference._port_denied,
            )
        assert outcome.halted_on == "trap:ecall"
        assert cuts_with_nops_in_flight >= 10

    @staticmethod
    def warm_sled_loop(core):
        """Two passes over three chained divides and a sled three RoBs
        long: on the second pass (warm icache) the divides hold the head
        while the sled fills the RoB."""
        capacity = resolve_core(core).rob_entries
        return "\n".join(
            ["li t0, 100", "li t1, 7", "li s1, 2", "loop:"]
            + ["div s0, t0, t1", "div s0, s0, t1", "div s0, s0, t1"]
            + ["nop"] * (3 * capacity)
            + ["addi s1, s1, -1", "bnez s1, loop", "ecall"]
        )

    def test_boom_large_sled_contends_for_int_ports(self):
        """boom-large fetches four nops a cycle but has three int ports."""
        config = resolve_core("boom-large")
        assert config.fetch_width > config.int_issue_ports
        # Two passes over the sled: the second fetches from a warm icache,
        # so fetch outruns issue.
        source = "\n".join(
            ["li s0, 2", "loop:"] + ["nop"] * 64 + ["addi s0, s0, -1", "bnez s0, loop", "ecall"]
        )
        fast, _, _ = assert_run_matches_steps(source, "boom-large")
        assert fast.ports.contention_cycles["int"] > 0

    @pytest.mark.parametrize("core", CORE_NAMES)
    def test_sled_longer_than_the_rob_entered_with_nops_in_flight(self, core, monkeypatch):
        """The macro-step takes over with the RoB full of nops."""
        calls = self._count_entries(monkeypatch)
        assert_run_matches_steps(self.warm_sled_loop(core), core)
        capacity = resolve_core(core).rob_entries
        assert any(inflight == capacity and end > start for start, inflight, end in calls)

    def test_multi_cycle_nops(self):
        """With a three-cycle ALU, nops in flight need not complete next
        cycle, so an idle jump could skip the first issue attempt of a nop
        fetched on an icache miss.  The jump lands on the sled's fourth-last
        slot of a cold 64-byte line: after that miss two nops stream in,
        then the third misses on the next line while the two have not
        completed."""
        config = dataclasses.replace(small_boom_config(), alu_latency=3)
        assert (config.fetch_width, config.icache.line_bytes) == (2, 64)
        # Three set-up instructions, then padding up to 0x1074, 52 bytes
        # into the line at 0x1040.
        jump_into_line = "\n".join(
            ["li t0, 100", "li t1, 7", "j sled"] + ["nop"] * 26 + ["sled:"] + ["nop"] * 100 + ["ecall"]
        )
        assert_run_matches_steps(jump_into_line, config)
        for source in (sled(200), sled(120, before=["div s0, t0, t1"]), self.warm_sled_loop("boom")):
            assert_run_matches_steps(source, config)

    @pytest.mark.parametrize("core", CORE_NAMES)
    def test_macro_step_carries_a_long_sled(self, core, monkeypatch):
        """On a 5,000-nop sled at least 90% of the cycles advance inside
        ``_nop_run``."""
        calls = self._count_entries(monkeypatch)
        processor, _ = build_processor(sled(5000), config=resolve_core(core))
        outcome = processor.run(max_cycles=100_000)
        assert outcome.halted_on == "trap:ecall"
        inside = sum(end - start for start, _, end in calls)
        assert inside >= 0.9 * outcome.cycles
