"""Tests for the hot-path caches: Phase-1 simulation memo, assembly cache,
golden-model verify memo, census dirty-flagging and the profile plumbing.

The shared contract under test: every cache is *transparent* — the same
campaign run through the reference paths of ``reference_paths`` (no memo,
cold caches, full census every cycle) produces byte-identical deterministic
wire forms.
"""

import pytest

from repro.core.backends import ShardTask, run_shard_task
from repro.core.distributed import shard_task_from_wire, shard_task_to_wire
from repro.core.engine import EngineConfiguration, ParallelCampaignEngine
from repro.core.fuzzer import FuzzerConfiguration, run_quick_campaign
from repro.core.phase1 import (
    SimulationCache,
    TransientWindowTriggering,
    schedule_fingerprint,
)
from repro.analysis import profile_hotspot_table
from dataclasses import replace

from repro.generation.seeds import Seed
from repro.generation.window_types import TransientWindowType
from repro.generation.trigger import TriggerGenerator
from repro.isa.assembler import Assembler, AssemblyCache
from repro.isa.instructions import make_instruction, nop
from repro.swapmem.packets import SwapSchedule
from repro.uarch.boom import small_boom_config
from repro.uarch.taint import TaintState

from reference_paths import (
    census_recompute,
    cold_verification,
    fresh_duts,
    reference_paths,
    uncached_simulation,
)

BOOM = small_boom_config()


def deterministic_dict(iterations=6, entropy=11, **overrides):
    result = run_quick_campaign(BOOM, iterations, entropy=entropy, **overrides)
    return result.to_dict(include_timing=False)


def make_seed(seed_id=7, entropy=13):
    return Seed(
        seed_id=seed_id,
        entropy=entropy,
        window_type=TransientWindowType.BRANCH_MISPREDICTION,
    )


class TestSimulationCacheTransparency:
    def test_cache_on_off_campaigns_are_byte_identical(self, monkeypatch):
        cached = deterministic_dict()
        uncached_simulation(monkeypatch)
        uncached = deterministic_dict()
        assert cached == uncached

    def test_all_reference_paths_are_byte_identical(self, monkeypatch):
        fast = deterministic_dict(iterations=4, entropy=5)
        reference_paths(monkeypatch)
        reference = deterministic_dict(iterations=4, entropy=5)
        assert fast == reference

    def test_identical_schedules_hit_the_cache(self):
        phase1 = TransientWindowTriggering(BOOM)
        seed = make_seed()
        first = phase1.run(seed)
        hits_before = phase1.simulation_cache.hits
        second = phase1.run(seed)
        assert phase1.simulation_cache.hits > hits_before
        assert first.triggered == second.triggered
        assert first.simulations_used == second.simulations_used

    def test_fingerprint_ignores_packet_names(self):
        phase1 = TransientWindowTriggering(BOOM)
        _, schedule = phase1.generate_schedule(make_seed())
        renamed = SwapSchedule(
            packets=[
                replace(packet, name=f"x_{index}")
                for index, packet in enumerate(schedule.packets)
            ],
            protect_secret_before_transient=schedule.protect_secret_before_transient,
            name="other-name",
        )
        assert schedule_fingerprint(schedule) == schedule_fingerprint(renamed)


class TestReferencePaths:
    """Each fake really takes its accelerator out of the path."""

    def test_uncached_simulation_never_replays(self, monkeypatch):
        uncached_simulation(monkeypatch)
        phase1 = TransientWindowTriggering(BOOM)
        phase1.run(make_seed())
        phase1.run(make_seed())
        assert phase1.simulation_cache.hits == 0
        assert len(phase1.simulation_cache) == 0

    def test_fresh_duts_build_one_pair_per_simulation(self, monkeypatch):
        fresh_duts(monkeypatch)
        phase1 = TransientWindowTriggering(BOOM)
        result = phase1.run(make_seed())
        assert phase1.dut_pool.reuses == 0
        assert phase1.dut_pool.constructions == result.simulations_used

    def test_cold_verification_never_hits_the_memo(self, monkeypatch):
        cold_verification(monkeypatch)
        generator = TriggerGenerator()
        spec = generator.generate(make_seed())
        generator.verify_with_golden_model(spec)
        generator.verify_with_golden_model(spec)
        assert generator.verify_hits == generator.verify_misses == 0
        assert len(generator.assembly_cache) == 0

    def test_census_recompute_never_repeats(self, monkeypatch):
        repeats = []
        real_repeat = TaintState.record_census_repeat

        def record_census_repeat(self, cycle):
            repeats.append(cycle)
            return real_repeat(self, cycle)

        monkeypatch.setattr(TaintState, "record_census_repeat", record_census_repeat)
        deterministic_dict(iterations=2, entropy=5)
        assert repeats  # the dirty flag does skip unchanged cycles
        repeats.clear()
        census_recompute(monkeypatch)
        deterministic_dict(iterations=2, entropy=5)
        assert not repeats


class TestSimulationCacheBounds:
    def test_eviction_at_capacity_boundary(self):
        cache = SimulationCache(capacity=2)
        cache.put(("a",), "ra")
        cache.put(("b",), "rb")
        assert cache.get(("a",)) == "ra"  # refresh a: b is now LRU
        cache.put(("c",), "rc")
        assert len(cache) == 2
        assert cache.evictions == 1
        assert cache.get(("b",)) is None  # the LRU entry was evicted
        assert cache.get(("a",)) == "ra"
        assert cache.get(("c",)) == "rc"
        stats = cache.stats()
        assert stats["entries"] == 2
        assert stats["capacity"] == 2
        assert stats["misses"] == 1  # only the lookup of the evicted key

    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ValueError):
            SimulationCache(capacity=0)


class TestAssemblyCache:
    def test_cached_assembly_matches_uncached(self):
        instructions = (
            nop(),
            make_instruction("addi", rd=5, rs1=0, imm=1),
            make_instruction("addi", rd=6, rs1=5, imm=2),
        )
        cache = AssemblyCache()
        cached = Assembler(base=0x8000_0000, cache=cache).assemble_instructions(
            list(instructions)
        )
        plain = Assembler(base=0x8000_0000).assemble_instructions(list(instructions))
        assert cached.entry == plain.entry
        assert [list(s.instructions) for s in cached.sections] == [
            list(s.instructions) for s in plain.sections
        ]
        again = Assembler(base=0x8000_0000, cache=cache).assemble_instructions(
            list(instructions)
        )
        assert again is cached  # shared by reference on a hit
        assert cache.hits == 1

    def test_eviction_at_capacity_boundary(self):
        cache = AssemblyCache(capacity=2)
        assembler = Assembler(base=0x8000_0000, cache=cache)
        programs = [
            assembler.assemble_instructions([make_instruction("addi", rd=5, rs1=0, imm=imm)])
            for imm in (1, 2, 3)
        ]
        assert len(cache) == 2
        assert cache.evictions == 1
        # The first program's key was evicted: assembling it again misses.
        misses_before = cache.misses
        rebuilt = assembler.assemble_instructions(
            [make_instruction("addi", rd=5, rs1=0, imm=1)]
        )
        assert cache.misses == misses_before + 1
        assert rebuilt is not programs[0]
        assert [list(s.instructions) for s in rebuilt.sections] == [
            list(s.instructions) for s in programs[0].sections
        ]


class TestTrainingReduction:
    def test_reduction_matches_without_packet_reference(self, monkeypatch):
        """The in-place surviving-list reduction equals the naive chained
        ``without_packet`` reference, run by run."""
        uncached_simulation(monkeypatch)
        phase1 = TransientWindowTriggering(BOOM)
        for seed_id in (3, 7, 21):
            seed = make_seed(seed_id=seed_id)
            spec, schedule = phase1.generate_schedule(seed)
            baseline = phase1._simulate(schedule, seed.secret_value)
            if not baseline.window_triggered():
                continue
            reduced, simulations, _ = phase1._reduce_training(
                schedule, seed.secret_value, baseline
            )
            # Reference implementation: rebuild via chained without_packet.
            reference = schedule
            reference_simulations = 0
            for packet in schedule.training_packets():
                candidate = reference.without_packet(packet.name)
                run = phase1._simulate(candidate, seed.secret_value)
                reference_simulations += 1
                if run.window_triggered():
                    reference = candidate
            assert [p.name for p in reduced.packets] == [
                p.name for p in reference.packets
            ]
            assert simulations == reference_simulations

    def test_verify_memo_matches_uncached_verdicts(self, monkeypatch):
        generator = TriggerGenerator()
        specs = [generator.generate(make_seed(seed_id=i)) for i in range(4)]
        cached = [generator.verify_with_golden_model(spec) for spec in specs]
        assert generator.verify_misses >= len(specs)
        hits_before = generator.verify_hits
        repeat = [generator.verify_with_golden_model(spec) for spec in specs]
        assert generator.verify_hits >= hits_before + len(specs)
        cold_verification(monkeypatch)
        uncached = [generator.verify_with_golden_model(spec) for spec in specs]
        assert cached == repeat == uncached


class TestCensusDirtyFlag:
    def test_force_recompute_is_byte_identical(self, monkeypatch):
        baseline = deterministic_dict(iterations=4, entropy=5)
        census_recompute(monkeypatch)
        recomputed = deterministic_dict(iterations=4, entropy=5)
        assert baseline == recomputed


class TestProfilePlumbing:
    def test_profiled_task_payload_carries_hotspots(self):
        task = ShardTask(
            slice_index=0,
            epoch=0,
            iterations=2,
            configuration=FuzzerConfiguration(core=BOOM, entropy=17),
            profile=5,
        )
        payload = run_shard_task(task)
        profile = payload["diagnostics"]["profile"]
        assert 0 < len(profile) <= 5
        for row in profile:
            assert set(row) == {"function", "calls", "tottime", "cumtime"}

    def test_profile_never_changes_results(self):
        def run(profile):
            task = ShardTask(
                slice_index=0,
                epoch=0,
                iterations=2,
                configuration=FuzzerConfiguration(core=BOOM, entropy=17),
                profile=profile,
            )
            payload = run_shard_task(task)
            payload["diagnostics"].pop("profile", None)
            payload.pop("wall_seconds", None)
            # latency histograms in the metrics snapshot are wall clock
            payload.pop("metrics", None)
            payload["result"] = dict(
                payload["result"], elapsed_seconds=0.0, first_bug_seconds=None
            )
            for report in payload["result"]["reports"]:
                report["wall_clock_seconds"] = 0.0
            return payload

        assert run(0) == run(3)

    def test_engine_collects_profiles_in_the_task_log(self):
        configuration = EngineConfiguration(
            fuzzer=FuzzerConfiguration(core=BOOM),
            shards=2,
            iterations=6,
            sync_epochs=1,
            executor="inline",
            profile=4,
        )
        result = ParallelCampaignEngine(configuration).run()
        assert result.task_log
        assert all(row["profile"] for row in result.task_log)
        rows = profile_hotspot_table(result.task_log, top=4)
        assert rows
        assert rows == sorted(rows, key=lambda row: -row["cumtime"])

    def test_wire_roundtrip_carries_profile(self):
        task = ShardTask(
            slice_index=1,
            epoch=2,
            iterations=3,
            configuration=FuzzerConfiguration(core=BOOM, entropy=3),
            profile=7,
        )
        wire = shard_task_to_wire(task)
        back = shard_task_from_wire(wire)
        assert back.profile == 7
        assert back.configuration == task.configuration
