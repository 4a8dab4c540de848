"""Tests for the individual microarchitectural components."""

import pytest
from hypothesis import given, strategies as st

from repro.isa import Assembler, SimMemory
from repro.isa.instructions import Instruction
from repro.uarch.boom import small_boom_config
from repro.uarch.bugs import BUG_REGISTRY, bugs_for_core, default_bug_set
from repro.uarch.cache import LineFillBuffer, MemoryHierarchy, SetAssociativeCache
from repro.uarch.config import CacheConfig
from repro.uarch.execute import ExecutionPorts, base_latency
from repro.uarch.lsu import LoadStoreUnit
from repro.uarch.predictors import (
    BranchHistoryTable,
    BranchPredictorUnit,
    BranchTargetBuffer,
    LoopPredictor,
    ReturnAddressStack,
)
from repro.uarch.processor import Processor
from repro.uarch.rob import ReorderBuffer, RobEntry
from repro.uarch.tlb import Tlb
from repro.uarch.xiangshan import xiangshan_minimal_config


class TestBranchHistoryTable:
    def test_default_prediction_is_not_taken(self):
        bht = BranchHistoryTable(entries=16)
        assert bht.predict(0x1000).taken is False

    def test_training_flips_prediction(self):
        bht = BranchHistoryTable(entries=16)
        bht.train(0x1000, taken=True)
        assert bht.predict(0x1000).taken is True
        bht.train(0x1000, taken=False)
        bht.train(0x1000, taken=False)
        assert bht.predict(0x1000).taken is False

    def test_counters_saturate(self):
        bht = BranchHistoryTable(entries=4, counter_bits=2)
        for _ in range(10):
            bht.train(0x0, taken=True)
        assert bht.counters[bht._index(0x0)] == 3

    def test_aliasing_by_index(self):
        bht = BranchHistoryTable(entries=4)
        bht.train(0x0, taken=True)
        # 0x10 >> 2 = 4 which aliases with index 0 in a 4-entry table.
        assert bht.predict(0x10).taken is True

    def test_taint_tracking(self):
        bht = BranchHistoryTable(entries=16)
        bht.train(0x4, taken=True, tainted=True)
        assert bht.tainted_entry_count() == 1
        bht.reset()
        assert bht.tainted_entry_count() == 0


class TestBranchTargetBuffer:
    def test_miss_then_hit(self):
        btb = BranchTargetBuffer(entries=8)
        assert btb.predict(0x2000).hit is False
        btb.install(0x2000, 0x3000)
        prediction = btb.predict(0x2000)
        assert prediction.hit and prediction.target == 0x3000

    def test_tag_mismatch_is_miss(self):
        btb = BranchTargetBuffer(entries=8)
        btb.install(0x2000, 0x3000)
        aliased = 0x2000 + 8 * 4  # same index, different tag
        assert btb.predict(aliased).hit is False

    def test_install_untainted_clears_taint(self):
        btb = BranchTargetBuffer(entries=8)
        btb.install(0x2000, 0x3000, tainted=True)
        assert btb.tainted_entry_count() == 1
        btb.install(0x2000, 0x4000, tainted=False)
        assert btb.tainted_entry_count() == 0

    def test_invalidate(self):
        btb = BranchTargetBuffer(entries=8)
        btb.install(0x2000, 0x3000)
        btb.invalidate(0x2000)
        assert btb.predict(0x2000).hit is False


class TestReturnAddressStack:
    def test_push_pop(self):
        ras = ReturnAddressStack(entries=4)
        ras.push(0x100)
        ras.push(0x200)
        assert ras.pop() == 0x200
        assert ras.pop() == 0x100

    def test_snapshot_restore_full(self):
        ras = ReturnAddressStack(entries=4, restore_below_tos=True)
        ras.push(0x100)
        snapshot = ras.snapshot()
        ras.push(0xBAD)
        ras.push(0xBAD2)
        ras.restore(snapshot)
        assert ras.peek() == 0x100
        assert 0xBAD not in ras.stack

    def test_phantom_rsb_bug_leaves_entries_below_tos(self):
        """B2: the buggy recovery restores only the top entry and the pointer."""
        ras = ReturnAddressStack(entries=4, restore_below_tos=False)
        ras.push(0x100)
        ras.push(0x200)
        ras.pop()
        ras.pop()
        snapshot = ras.snapshot()
        # Transient calls overwrite entries below the (restored) TOS.
        ras.push(0xDEAD)
        ras.push(0xBEEF)
        ras.restore(snapshot)
        assert ras.top_of_stack == snapshot.top_of_stack
        assert 0xDEAD in ras.stack or 0xBEEF in ras.stack  # corruption survives

    def test_fixed_ras_restores_everything(self):
        ras = ReturnAddressStack(entries=4, restore_below_tos=True)
        ras.push(0x100)
        ras.push(0x200)
        ras.pop()
        ras.pop()
        snapshot = ras.snapshot()
        ras.push(0xDEAD)
        ras.push(0xBEEF)
        ras.restore(snapshot)
        assert 0xDEAD not in ras.stack and 0xBEEF not in ras.stack


class TestLoopPredictor:
    def test_learns_trip_count(self):
        loop = LoopPredictor(entries=8, confidence_threshold=2)
        pc = 0x40
        for _ in range(3):  # three identical loop executions of 4 iterations
            for _ in range(3):
                loop.train(pc, taken=True)
            loop.train(pc, taken=False)
        assert loop.predict(pc) is not None

    def test_not_confident_returns_none(self):
        loop = LoopPredictor(entries=8)
        loop.train(0x40, taken=True)
        assert loop.predict(0x40) is None


class TestCaches:
    def test_hit_after_fill(self):
        cache = SetAssociativeCache("d", CacheConfig(sets=4, ways=2, line_bytes=64))
        miss = cache.access(0x1000)
        assert miss.hit is False
        hit = cache.access(0x1000)
        assert hit.hit is True and hit.latency < miss.latency

    def test_lru_eviction(self):
        cache = SetAssociativeCache("d", CacheConfig(sets=1, ways=2, line_bytes=64))
        cache.access(0x0)
        cache.access(0x40)
        cache.access(0x0)      # touch line 0: line 1 becomes LRU
        cache.access(0x80)     # evicts line at 0x40
        assert cache.sets == [[0x80 // 64, 0x0 // 64]]

    def test_tainted_lines_tracked_and_evicted(self):
        cache = SetAssociativeCache("d", CacheConfig(sets=1, ways=1, line_bytes=64))
        cache.access(0x0, tainted=True)
        assert cache.tainted_entry_count() == 1
        cache.access(0x40)  # evicts the tainted line
        assert cache.tainted_entry_count() == 0

    def test_flush(self):
        cache = SetAssociativeCache("d", CacheConfig())
        cache.access(0x1234, tainted=True)
        cache.flush()
        assert not any(cache.sets)
        assert cache.tainted_entry_count() == 0

    def test_access_counters(self):
        cache = SetAssociativeCache("d", CacheConfig())
        cache.access(0x0)
        cache.access(0x0)
        assert (cache.accesses, cache.misses) == (2, 1)

    @given(addresses=st.lists(st.integers(min_value=0, max_value=1 << 20), min_size=1, max_size=60))
    def test_occupancy_never_exceeds_capacity(self, addresses):
        config = CacheConfig(sets=4, ways=2, line_bytes=64)
        cache = SetAssociativeCache("d", config)
        for address in addresses:
            cache.access(address)
        for ways in cache.sets:
            assert len(ways) <= config.ways

    def test_hierarchy_data_access_allocates_lfb(self):
        hierarchy = MemoryHierarchy.from_config(small_boom_config())
        result = hierarchy.data_access(0x9000, tainted=True)
        assert result.hit is False
        assert hierarchy.lfb.tainted_entry_count() >= 1

    def test_hierarchy_flushes(self):
        hierarchy = MemoryHierarchy.from_config(small_boom_config())
        hierarchy.icache.access(0x4000)
        hierarchy.data_access(0x8000)
        hierarchy.flush_icache()
        assert not any(hierarchy.icache.sets)
        assert any(hierarchy.dcache.sets)

    @staticmethod
    def _mixed_stream(config, count=400):
        # Repeats (MRU hits), revisits (non-MRU hits) and conflicting lines
        # (evictions) in every set, deterministic from the geometry alone.
        span = config.sets * config.line_bytes
        stream = []
        for index in range(count):
            way = (index * 7) % (config.ways + 2)
            set_offset = ((index * 5) % config.sets) * config.line_bytes
            stream.append(way * span + set_offset + (index % 3) * 8)
            if index % 4 == 0:
                stream.append(stream[-1])
        return stream

    @pytest.mark.parametrize("core", ["boom", "boom-large", "xiangshan"])
    @pytest.mark.parametrize("clear", ["flush", "reset"])
    def test_cleared_caches_match_fresh_ones(self, core, clear):
        from repro.core.engine import resolve_core

        config = resolve_core(core)
        hierarchy = MemoryHierarchy.from_config(config)
        fresh = MemoryHierarchy.from_config(config)
        caches = [hierarchy.icache, hierarchy.dcache, hierarchy.l2]
        fresh_caches = [fresh.icache, fresh.dcache, fresh.l2]
        assert hierarchy.l2 is not None
        for cache, clean in zip(caches, fresh_caches):
            for _ in range(2):  # the second round starts from a cleared cache
                for address in self._mixed_stream(cache.config):
                    cache.access(address, tainted=address % 3 == 0)
                assert any(cache.sets)
                getattr(cache, clear)()
                assert cache.state_fingerprint() == clean.state_fingerprint()
                assert cache.tainted_entry_count() == 0
            if clear == "reset":
                assert (cache.accesses, cache.misses) == (0, 0)

    def test_fetch_access_matches_access(self):
        config = CacheConfig(sets=4, ways=2, line_bytes=64, hit_latency=1, miss_latency=22)
        by_access = SetAssociativeCache("i", config)
        by_fetch = SetAssociativeCache("i", config)
        stream = self._mixed_stream(config, count=200)
        for address in stream:
            result = by_access.access(address)
            stall = by_fetch.fetch_access(address)
            assert stall == (0 if result.hit else result.latency)
            assert by_fetch.state_fingerprint() == by_access.state_fingerprint()
        assert 0 < by_fetch.misses < by_fetch.accesses == len(stream)
        assert (by_fetch.accesses, by_fetch.misses) == (by_access.accesses, by_access.misses)
        by_access.flush()
        by_fetch.flush()
        assert by_fetch.state_fingerprint() == by_access.state_fingerprint()

    def test_zero_miss_latency_is_rejected(self):
        with pytest.raises(ValueError):
            CacheConfig(miss_latency=0)


class TestLineFillBuffer:
    def test_allocation_and_completion(self):
        lfb = LineFillBuffer(entries=2)
        slot = lfb.allocate(0x10, cycle=1, tainted=True)
        assert slot is not None
        assert lfb.live_tainted_slots() == [slot]
        lfb.complete(slot)
        # After completion the data is stale: reachable but not live.
        assert lfb.tainted_slots() == [slot]
        assert lfb.live_tainted_slots() == []

    def test_full_allocation_reuses_invalid_slots(self):
        lfb = LineFillBuffer(entries=1)
        first = lfb.allocate(0x10, cycle=1)
        assert lfb.allocate(0x20, cycle=2) is None  # still valid: no room
        lfb.complete(first)
        assert lfb.allocate(0x20, cycle=3) == first  # invalid slot reused


class TestTlb:
    def test_hit_miss_and_eviction(self):
        tlb = Tlb(entries=2)
        assert tlb.access(0x1000).hit is False
        assert tlb.access(0x1000).hit is True
        tlb.access(0x2000)
        tlb.access(0x3000)  # evicts page 1 (LRU)
        assert tlb.pages == [3, 2]

    def test_tainted_pages(self):
        tlb = Tlb(entries=4)
        tlb.access(0x5000, tainted=True)
        assert tlb.tainted_entry_count() == 1
        tlb.flush()
        assert tlb.tainted_entry_count() == 0


class TestLoadStoreUnit:
    def test_store_forwarding(self):
        lsu = LoadStoreUnit(8, 8)
        lsu.allocate_store(sequence=1)
        lsu.resolve_store(1, address=0x100, nbytes=8, value=0xAB, tainted=True)
        [forwarded] = lsu.forwarding_sources(sequence=5, address=0x100, nbytes=8)
        assert forwarded.value == 0xAB and forwarded.tainted

    def test_forwarding_only_from_older_stores(self):
        lsu = LoadStoreUnit(8, 8)
        lsu.allocate_store(sequence=10)
        lsu.resolve_store(10, address=0x100, nbytes=8, value=1, tainted=False)
        assert lsu.forwarding_sources(sequence=5, address=0x100, nbytes=8) == []

    def test_ordering_violation_detection(self):
        lsu = LoadStoreUnit(8, 8)
        lsu.allocate_store(sequence=1)
        lsu.record_load(sequence=2, address=0x200, nbytes=8, cycle=5)
        violation = lsu.check_ordering_violation(store_sequence=1, address=0x200, nbytes=8)
        assert violation is not None and violation.sequence == 2

    def test_no_violation_when_load_forwarded_from_store(self):
        lsu = LoadStoreUnit(8, 8)
        lsu.allocate_store(sequence=1)
        lsu.record_load(sequence=2, address=0x200, nbytes=8, cycle=5, forwarded_from_store=1)
        assert lsu.check_ordering_violation(1, 0x200, 8) is None

    def test_squash_younger(self):
        lsu = LoadStoreUnit(8, 8)
        lsu.record_load(1, 0x0, 8, cycle=0)
        lsu.record_load(5, 0x8, 8, cycle=1)
        lsu.squash_younger_than(2)
        assert [entry.sequence for entry in lsu.load_queue] == [1]

    def test_shared_writeback_port_serializes(self):
        lsu = LoadStoreUnit(8, 8, writeback_port_shared=True)
        first = lsu.schedule_writeback(10)
        second = lsu.schedule_writeback(10)
        assert first == 10 and second == 11
        assert lsu.port_contention_cycles == 1

    def test_unshared_port_never_delays(self):
        lsu = LoadStoreUnit(8, 8, writeback_port_shared=False)
        assert lsu.schedule_writeback(10) == 10
        assert lsu.schedule_writeback(10) == 10


class TestReorderBuffer:
    def _entry(self, rob, pc=0x100):
        return RobEntry(
            sequence=rob.allocate_sequence(),
            pc=pc,
            instruction=Instruction("addi", rd=1, rs1=0, imm=1),
            fetch_cycle=0,
            predicted_next_pc=pc + 4,
        )

    def test_enqueue_and_capacity(self):
        rob = ReorderBuffer(capacity=2)
        rob.enqueue(self._entry(rob))
        rob.enqueue(self._entry(rob))
        assert rob.is_full
        with pytest.raises(RuntimeError):
            rob.enqueue(self._entry(rob))

    def test_squash_younger(self):
        rob = ReorderBuffer(capacity=8)
        entries = [rob.enqueue(self._entry(rob)) for _ in range(4)]
        squashed = rob.remove_younger_than(entries[1].sequence)
        assert [entry.sequence for entry in squashed] == [entries[2].sequence, entries[3].sequence]
        assert all(entry.squashed for entry in squashed)
        assert len(rob) == 2

    def test_taint_tracking_follows_squash(self):
        rob = ReorderBuffer(capacity=8)
        entries = [rob.enqueue(self._entry(rob)) for _ in range(3)]
        rob.mark_tainted(entries[2].sequence)
        assert rob.tainted_entry_count() == 1
        rob.remove_younger_than(entries[0].sequence)
        assert rob.tainted_entry_count() == 0

    def test_exception_commit_clock_starts_at_head(self):
        # The ecall completes long before the dependent divides ahead of it
        # retire, and reaches the head in the cycle the last one commits: its
        # trap still waits the full exception_commit_delay from that cycle.
        config = small_boom_config()
        memory = SimMemory()
        memory.map_range(0x1000, 0x1000)
        processor = Processor(config, memory=memory)
        source = "div a0, a1, a2\ndiv a0, a0, a2\ndiv a0, a0, a2\necall\n"
        processor.load_program(Assembler(base=0x1000).assemble(source))
        outcome = processor.run(max_cycles=500)
        assert outcome.halted_on == "trap:ecall"
        last_commit = processor.trace.commits[-1].cycle
        ecall_enqueue = outcome.trace.enqueues[-1]
        assert ecall_enqueue.pc == 0x100C and ecall_enqueue.cycle < last_commit
        (trap,) = outcome.trace.traps
        assert trap.cycle == last_commit + config.exception_commit_delay


class TestExecutionPortsAndLatency:
    def test_port_contention(self):
        config = small_boom_config()
        ports = ExecutionPorts(config)
        load = Instruction("ld", rd=1, rs1=2)
        assert ports.try_claim(load, cycle=1)
        # Only one memory issue port on SmallBOOM.
        assert not ports.try_claim(load, cycle=1)
        assert ports.try_claim(load, cycle=2)
        assert ports.contention_cycles["mem"] == 1

    def test_divider_is_not_pipelined(self):
        ports = ExecutionPorts(small_boom_config())
        start_one = ports.claim_divider(cycle=0, latency=12, floating_point=False)
        start_two = ports.claim_divider(cycle=1, latency=12, floating_point=False)
        assert start_one == 0 and start_two == 12

    def test_base_latencies_ordered(self):
        config = small_boom_config()
        assert base_latency(Instruction("add", rd=1, rs1=2, rs2=3), config) < base_latency(
            Instruction("div", rd=1, rs1=2, rs2=3), config
        )
        assert base_latency(Instruction("fdiv.d", rd=1, rs1=2, rs2=3), config) >= base_latency(
            Instruction("fadd.d", rd=1, rs1=2, rs2=3), config
        )

    def test_is_divider_op(self):
        assert Instruction("div", rd=1, rs1=2, rs2=3).is_divider
        assert Instruction("remu", rd=1, rs1=2, rs2=3).is_divider
        assert Instruction("fdiv.d", rd=1, rs1=2, rs2=3).is_divider
        assert not Instruction("add", rd=1, rs1=2, rs2=3).is_divider
        assert not Instruction("mul", rd=1, rs1=2, rs2=3).is_divider


class TestConfigsAndBugs:
    def test_core_configs_match_paper_table2(self):
        boom = small_boom_config()
        xiangshan = xiangshan_minimal_config()
        assert boom.isa == "RV64GC" and xiangshan.isa == "RV64GC"
        assert xiangshan.rob_entries > boom.rob_entries
        assert boom.annotation_loc == 212
        assert xiangshan.annotation_loc == 592
        assert xiangshan.verilog_loc > boom.verilog_loc

    def test_bug_assignment_per_core(self):
        assert "phantom-rsb" in default_bug_set("boom")
        assert "meltdown-sampling" in default_bug_set("xiangshan")
        assert "meltdown-sampling" not in default_bug_set("boom")
        assert {bug.identifier for bug in bugs_for_core("small-boom")} == default_bug_set("boom")

    def test_bug_registry_cves(self):
        total_cves = sum(len(bug.cves) for bug in BUG_REGISTRY.values())
        assert len(BUG_REGISTRY) == 5
        assert total_cves == 6  # five bugs, six CVEs (B4 has two)

    def test_disable_bugs(self):
        clean = small_boom_config(enable_bugs=False)
        assert not clean.bugs
        assert not clean.has_bug("phantom-rsb")

    def test_illegal_window_policy_differs(self):
        assert small_boom_config().illegal_instruction_opens_window is False
        assert xiangshan_minimal_config().illegal_instruction_opens_window is True

    def test_predictor_unit_uses_bug_configuration(self):
        buggy = BranchPredictorUnit.from_config(small_boom_config())
        fixed = BranchPredictorUnit.from_config(small_boom_config(enable_bugs=False))
        assert buggy.ras.restore_below_tos is False
        assert fixed.ras.restore_below_tos is True

    def test_describe(self):
        text = small_boom_config().describe()
        assert "small-boom" in text and "rob=32" in text
