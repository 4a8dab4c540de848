"""Tests for taint propagation policies, shadow simulation, CellIFT and diffIFT."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.ift import (
    CellIFTPass,
    DiffIFTPass,
    LivenessChecker,
    TaintMode,
    collect_annotations,
    flatten_memories,
)
from repro.ift import policies
from repro.ift.shadow import TaintSimulator
from repro.rtl import (
    NetlistSimulator,
    build_branch_unit,
    build_counter,
    build_forwarding_pipeline,
    build_lfb_with_mshr,
    build_rob_slice,
)
from repro.utils.bitops import mask

U8 = st.integers(min_value=0, max_value=255)


class TestPolicies:
    @given(a=U8, b=U8, a_t=U8, b_t=U8)
    def test_no_taint_in_no_taint_out(self, a, b, a_t, b_t):
        """Every policy must produce zero taint when no input is tainted."""
        assert policies.and_taint(a, b, 0, 0) == 0
        assert policies.or_taint(a, b, 0, 0, 8) == 0
        assert policies.xor_taint(0, 0) == 0
        assert policies.add_taint(0, 0, 8) == 0
        assert policies.mux_taint(1, a, b, 0, 0, 0, 8) == 0
        assert policies.comparison_taint(0, 0) == 0
        assert policies.register_enable_taint(1, a, b, 0, 0, 0, 8) == 0

    @given(a=U8, b_t=U8)
    def test_and_taint_policy1(self, a, b_t):
        """Policy 1: a tainted B bit only matters where A is 1 (or B tainted too)."""
        result = policies.and_taint(a, 0, 0, b_t)
        assert result == (a & b_t)

    def test_and_taint_both_tainted(self):
        assert policies.and_taint(0, 0, 0xF0, 0x0F) == 0
        assert policies.and_taint(0, 0, 0xFF, 0xFF) == 0xFF

    def test_or_taint_masks_dominated_bits(self):
        # When the untainted input already forces the output to 1 the taint is hidden.
        assert policies.or_taint(0xFF, 0x00, 0x00, 0x0F, 8) == 0

    def test_add_taint_carries_upward(self):
        assert policies.add_taint(0b0000_0100, 0, 8) == 0b1111_1100
        assert policies.add_taint(0b1000_0000, 0, 8) == 0b1000_0000

    def test_shift_taint(self):
        assert policies.shift_taint(0xF, 0b0011, 2, 0, 8, left=True) == 0b1100
        assert policies.shift_taint(0xF, 0b1100, 2, 0, 8, left=False) == 0b0011
        # Tainted shift amount taints the whole word when the value is non-zero.
        assert policies.shift_taint(0xF, 0, 1, 1, 8, left=True) == 0xFF

    def test_mux_data_taint_selection(self):
        a_t, b_t = 0x0F, 0xF0
        assert policies.mux_taint(0, 0, 0, 0, a_t, b_t, 8) == a_t
        assert policies.mux_taint(1, 0, 0, 0, a_t, b_t, 8) == b_t

    def test_mux_control_taint_cellift_vs_diffift(self):
        # Tainted select, different data: CellIFT always propagates the
        # control term; diffIFT requires the cross-instance difference.
        kwargs = dict(sel=0, a=0xAA, b=0x55, sel_t=1, a_t=0, b_t=0, width=8)
        assert policies.mux_taint(**kwargs, mode=TaintMode.CELLIFT) == 0xFF
        assert policies.mux_taint(**kwargs, sel_diff=0, mode=TaintMode.DIFFIFT) == 0
        assert policies.mux_taint(**kwargs, sel_diff=1, mode=TaintMode.DIFFIFT) == 0xFF

    def test_comparison_taint_diff_gated(self):
        assert policies.comparison_taint(1, 0, out_diff=1, mode=TaintMode.CELLIFT) == 1
        assert policies.comparison_taint(1, 0, out_diff=0, mode=TaintMode.DIFFIFT) == 0
        assert policies.comparison_taint(1, 0, out_diff=1, mode=TaintMode.DIFFIFT) == 1

    def test_register_enable_control_taint(self):
        kwargs = dict(en=0, d=0xAA, q=0x55, en_t=1, d_t=0, q_t=0, width=8)
        assert policies.register_enable_taint(**kwargs, mode=TaintMode.CELLIFT) == 0xFF
        assert policies.register_enable_taint(**kwargs, en_diff=0, mode=TaintMode.DIFFIFT) == 0

    def test_memory_policies(self):
        assert policies.memory_read_taint(0x0F, 0, 8) == 0x0F
        assert policies.memory_read_taint(0, 1, 8, mode=TaintMode.CELLIFT) == 0xFF
        assert policies.memory_read_taint(0, 1, 8, addr_diff=0, mode=TaintMode.DIFFIFT) == 0
        assert policies.memory_write_taint(1, 0x0F, 0xF0, 0, 0, 8) == 0x0F
        assert policies.memory_write_taint(0, 0x0F, 0xF0, 0, 0, 8) == 0xF0
        assert policies.memory_write_taint(1, 0, 0, 0, 1, 8, mode=TaintMode.CELLIFT) == 0xFF

    def test_reduce_or_taint_pinned_by_untainted_one(self):
        assert policies.reduce_or_taint(0b10, 0b01, 2) == 0
        assert policies.reduce_or_taint(0b00, 0b01, 2) == 1

    @given(width=st.integers(min_value=1, max_value=32), a_t=st.integers(min_value=0), b_t=st.integers(min_value=0))
    def test_policies_stay_within_width(self, width, a_t, b_t):
        a_t &= mask(width)
        b_t &= mask(width)
        assert policies.add_taint(a_t, b_t, width) <= mask(width)
        assert policies.or_taint(0, 0, a_t, b_t, width) <= mask(width)
        assert policies.mux_taint(1, 0, 0, 1, a_t, b_t, width) <= mask(width)


class TestTaintSimulator:
    def test_data_taint_flows_through_pipeline(self):
        simulator = TaintSimulator(build_forwarding_pipeline(stages=2), mode=TaintMode.CELLIFT)
        simulator.taint_signal("data_in")
        sums = simulator.run(5, inputs={"data_in": 0x1, "bypass": 0})
        assert sums[-1] > 0
        assert any(simulator.shadow.taint_of(f"stage_{i}") for i in range(2))

    def test_untainted_run_stays_clean(self):
        simulator = TaintSimulator(build_rob_slice(num_entries=4), mode=TaintMode.CELLIFT)
        simulator.run(10, inputs={"enq_valid": 1, "enq_uopc": 3, "rollback": 0, "rollback_idx": 0})
        assert simulator.state_taint_sum() == 0

    def test_mode_instance_validation(self):
        with pytest.raises(ValueError):
            TaintSimulator(build_counter(), mode=TaintMode.DIFFIFT, num_instances=1)
        with pytest.raises(ValueError):
            TaintSimulator(build_counter(), mode=TaintMode.CELLIFT, num_instances=2)

    def test_rollback_taint_explosion_cellift_vs_diffift(self):
        """The Figure 2 scenario: CellIFT explodes on rollback, diffIFT does not."""
        stimulus_enqueue = {"enq_valid": 1, "enq_uopc": 0x3F, "rollback": 0, "rollback_idx": 0}
        stimulus_rollback = {"enq_valid": 0, "enq_uopc": 0, "rollback": 1, "rollback_idx": 0}

        cellift = TaintSimulator(
            CellIFTPass().run(build_rob_slice(num_entries=8)).module, mode=TaintMode.CELLIFT
        )
        cellift.taint_signal("enq_uopc")
        for _ in range(8):
            cellift.step(stimulus_enqueue)
        before = cellift.state_taint_sum()
        # Rolling back with a *tainted* tail index: taint the rollback index to
        # model the tainted squash target.
        cellift.taint_signal("rollback_idx")
        cellift.step(stimulus_rollback)
        cellift.step(stimulus_enqueue)
        after = cellift.state_taint_sum()
        assert after >= before  # CellIFT never loses taint across the rollback

        diff = TaintSimulator(build_rob_slice(num_entries=8), mode=TaintMode.DIFFIFT)
        diff.taint_signal("enq_uopc")
        for _ in range(8):
            diff.step(stimulus_enqueue)
        diff.taint_signal("rollback_idx")
        diff.step(stimulus_rollback)  # identical rollback index in both instances
        diff.step(stimulus_enqueue)
        assert diff.state_taint_sum() <= after

    def test_taints_by_module(self):
        testbench = TaintSimulator(build_lfb_with_mshr(num_entries=4), mode=TaintMode.DIFFIFT)
        testbench.taint_signal("refill_data")
        testbench.step(
            {"refill_valid": 1, "refill_idx": 1, "refill_data": 5, "invalidate": 0, "invalidate_idx": 0}
        )
        by_module = testbench.taints_by_module()
        assert by_module.get("lfb", 0) > 0


LIBRARY_CIRCUITS = [
    build_counter,
    build_rob_slice,
    build_lfb_with_mshr,
    build_forwarding_pipeline,
    build_branch_unit,
]


class TestPrecision:
    """diffIFT's precision claims (§3.3) as properties of the library circuits.

    Each example taints one random input (the secret) and drives the same
    random stimuli through CellIFT, through diffIFT with the flipped secret in
    its second instance, and through diffIFT_FN with the same secret in both.
    """

    CYCLES = 12

    def _lockstep(self, circuit, seed):
        """Yield ``(cycle, cellift, diffift, false_negative)`` after each cycle."""
        module = circuit()
        rng = random.Random(seed)
        secret_input = rng.choice(module.inputs)
        cellift = TaintSimulator(CellIFTPass().run(module).module, mode=TaintMode.CELLIFT)
        diffift = TaintSimulator(module, mode=TaintMode.DIFFIFT)
        false_negative = TaintSimulator(module, mode=TaintMode.DIFFIFT)
        # The library circuits hold no memories, so flattening keeps every signal.
        assert cellift.module.signals == module.signals
        for simulator in (cellift, diffift, false_negative):
            simulator.taint_signal(secret_input)
        flip = mask(module.width_of(secret_input))
        for cycle in range(self.CYCLES):
            stimulus = {name: rng.getrandbits(module.width_of(name)) for name in module.inputs}
            variant = dict(stimulus, **{secret_input: stimulus[secret_input] ^ flip})
            cellift.step(inputs=stimulus)
            diffift.step(per_instance_inputs=[stimulus, variant])
            false_negative.step(per_instance_inputs=[stimulus, stimulus])
            yield cycle, cellift, diffift, false_negative

    @staticmethod
    def _assert_subset(smaller, larger, cycle):
        for name in smaller.module.signals:
            extra = smaller.shadow.taint_of(name) & ~larger.shadow.taint_of(name)
            assert not extra, (cycle, name, hex(extra))

    @pytest.mark.parametrize("circuit", LIBRARY_CIRCUITS, ids=lambda circuit: circuit.__name__)
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_diffift_taints_a_subset_of_cellift(self, circuit, seed):
        for cycle, cellift, diffift, _ in self._lockstep(circuit, seed):
            self._assert_subset(diffift, cellift, cycle)

    @pytest.mark.parametrize("circuit", LIBRARY_CIRCUITS, ids=lambda circuit: circuit.__name__)
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_identical_secrets_only_lose_taint(self, circuit, seed):
        """With the same secret in both instances no control taint fires, so
        diffIFT_FN taints a subset of what diffIFT taints (its false negatives)."""
        for cycle, _, diffift, false_negative in self._lockstep(circuit, seed):
            self._assert_subset(false_negative, diffift, cycle)


class TestCellIFTPass:
    def test_flatten_removes_memories(self):
        builder_module = build_lfb_with_mshr()
        flattened = flatten_memories(builder_module)
        assert flattened.memories == {}

    def test_flatten_preserves_behaviour(self):
        """Property: the flattened memory circuit computes the same values."""
        from repro.rtl.builder import CircuitBuilder

        builder = CircuitBuilder("memtest")
        addr = builder.input("addr", 3)
        data = builder.input("data", 8)
        wen = builder.input("wen", 1)
        builder.memory("m", width=8, depth=8)
        rdata = builder.mem_read("m", addr, name="rdata")
        builder.mem_write("m", addr, data, wen)
        builder.output(rdata)
        original_module = builder.build()

        original = NetlistSimulator(original_module)
        flattened = NetlistSimulator(flatten_memories(original_module))
        stimulus = [
            {"addr": 1, "data": 0x11, "wen": 1},
            {"addr": 2, "data": 0x22, "wen": 1},
            {"addr": 1, "data": 0, "wen": 0},
            {"addr": 2, "data": 0, "wen": 0},
            {"addr": 5, "data": 0, "wen": 0},
        ]
        for inputs in stimulus:
            assert original.step(dict(inputs))["rdata"] == flattened.step(dict(inputs))["rdata"]

    def test_cellift_pass_increases_cell_count(self):
        module = build_lfb_with_mshr(num_entries=8)
        result = CellIFTPass().run(module)
        assert result.stats.instrumented_cells >= result.stats.original_cells
        assert result.stats.memories_flattened == 0  # library circuit uses registers
        assert result.stats.compile_seconds >= 0.0

    def test_diffift_pass_is_structure_preserving(self):
        module = build_rob_slice()
        result = DiffIFTPass().run(module)
        assert result.module is module
        assert result.stats.extra["control_cells"] > 0

    def test_cellift_compile_slower_than_diffift_on_memory_heavy_design(self):
        from repro.rtl.builder import CircuitBuilder

        builder = CircuitBuilder("memheavy")
        addr = builder.input("addr", 6)
        data = builder.input("data", 32)
        wen = builder.input("wen", 1)
        for index in range(4):
            builder.memory(f"m{index}", width=32, depth=64)
            builder.mem_read(f"m{index}", addr, name=f"r{index}")
            builder.mem_write(f"m{index}", addr, data, wen)
        module = builder.build()
        cellift = CellIFTPass().run(module)
        diffift = DiffIFTPass().run(module)
        assert cellift.stats.instrumented_cells > diffift.stats.instrumented_cells
        assert cellift.stats.compile_seconds > diffift.stats.compile_seconds


class TestLiveness:
    def test_annotations_collected(self):
        annotations = collect_annotations(build_lfb_with_mshr(num_entries=4))
        sinks = {annotation.sink for annotation in annotations}
        assert {"lb_0", "lb_1", "lb_2", "lb_3"} <= sinks
        lanes = {annotation.sink: annotation.lane for annotation in annotations}
        assert lanes["lb_2"] == 2

    def test_live_and_dead_classification(self):
        module = build_lfb_with_mshr(num_entries=4)
        checker = LivenessChecker(module)
        # Valid bit for lane 2 set: taint in lb_2 is exploitable.
        assert checker.is_live("lb_2", {"mshr_valid_vec": 0b0100})
        # Valid bit cleared: the stale taint is a false positive.
        assert not checker.is_live("lb_2", {"mshr_valid_vec": 0b0000})

    def test_unannotated_sink_defaults_to_live(self):
        checker = LivenessChecker(build_counter())
        assert checker.is_live("count", {})

    def test_filter_live_sinks(self):
        module = build_lfb_with_mshr(num_entries=4)
        checker = LivenessChecker(module)
        tainted = {"lb_0": 0xFF, "lb_1": 0xFF}
        live = checker.filter_live_sinks(tainted, {"mshr_valid_vec": 0b0001})
        dead = checker.dead_sinks(tainted, {"mshr_valid_vec": 0b0001})
        assert set(live) == {"lb_0"}
        assert set(dead) == {"lb_1"}

    def test_annotation_description(self):
        annotations = collect_annotations(build_lfb_with_mshr(num_entries=2))
        assert "guarded by" in annotations[0].describe()


class TestEndToEndLfbScenario:
    def test_stale_lfb_taint_is_reachable_but_dead(self):
        """The C2-2 false-positive scenario: tainted data behind an invalid MSHR."""
        module = build_lfb_with_mshr(num_entries=4)
        testbench = TaintSimulator(CellIFTPass().run(module).module, mode=TaintMode.CELLIFT)
        testbench.taint_signal("refill_data")
        testbench.step(
            {"refill_valid": 1, "refill_idx": 0, "refill_data": 0x5A, "invalidate": 0, "invalidate_idx": 0}
        )
        testbench.step(
            {"refill_valid": 0, "refill_idx": 0, "refill_data": 0, "invalidate": 1, "invalidate_idx": 0}
        )
        # One idle cycle so combinational observers (the packed valid vector)
        # reflect the post-invalidation register state.
        testbench.step(
            {"refill_valid": 0, "refill_idx": 0, "refill_data": 0, "invalidate": 0, "invalidate_idx": 0}
        )
        taints = {name: testbench.shadow.taint_of(name) for name in testbench.module.registers}
        assert any(taint for name, taint in taints.items() if name.startswith("lb_0"))  # reachability
        checker = LivenessChecker(module)
        values = testbench.instances[0].register_values()
        values["mshr_valid_vec"] = testbench.instances[0].value("mshr_valid_vec")
        live = checker.filter_live_sinks({"lb_0": taints.get("lb_0", 0)}, values)
        assert live == {}  # ...but not exploitable
