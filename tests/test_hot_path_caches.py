"""Tests for the hot-path accelerators: the warm-DUT pool, census
dirty-flagging, the training reduction and the profile plumbing.

The shared contract under test: every accelerator is *transparent* — the
same campaign run through the reference paths of ``reference_paths`` (fresh
DUTs, full census every cycle) produces byte-identical deterministic wire
forms.  Phase 1 has no simulation memo: every leave-one-out candidate is a
different schedule, so each counted simulation really runs.
"""

import dataclasses

import pytest

from repro.core.backends import ShardTask, run_shard_task
from repro.core.wire import shard_task_from_wire, shard_task_to_wire
from repro.core.engine import EngineConfiguration, ParallelCampaignEngine
from repro.core.fuzzer import FuzzerConfiguration, run_quick_campaign
from repro.core.phase1 import TransientWindowTriggering
from repro.analysis import profile_hotspot_table
from repro.generation.seeds import Seed
from repro.generation.window_types import TransientWindowType
from repro.swapmem.scheduler import SwapRunner
from repro.uarch.boom import small_boom_config
from repro.uarch.taint import TaintState

from reference_paths import census_recompute, fresh_duts, reference_paths, without_packet

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


class TestPhase1Simulations:
    def test_every_simulation_runs(self, monkeypatch):
        """Re-running a seed re-simulates: each counted simulation is one
        ``SwapRunner.run`` call, the second run included."""
        calls = []
        real_run = SwapRunner.run

        def counting_run(self):
            calls.append(self)
            return real_run(self)

        monkeypatch.setattr(SwapRunner, "run", counting_run)
        phase1 = TransientWindowTriggering(BOOM)
        seed = make_seed()
        first = phase1.run(seed)
        assert len(calls) == first.simulations_used
        calls.clear()
        second = phase1.run(seed)
        assert len(calls) == second.simulations_used
        assert first.triggered == second.triggered
        assert first.simulations_used == second.simulations_used


class TestDutPool:
    @pytest.mark.parametrize(
        "window_type", list(TransientWindowType), ids=lambda kind: kind.value
    )
    def test_pooled_duts_match_fresh_duts(self, window_type, monkeypatch):
        """For every window type the warm DUT serves all but the first
        simulation, and Phase 1 decides exactly as on fresh DUTs."""
        seed = Seed(seed_id=5, entropy=13, window_type=window_type)

        def phase1_run():
            phase1 = TransientWindowTriggering(BOOM)
            result = phase1.run(seed)
            run = result.last_run
            outcome = (
                dataclasses.replace(result, last_run=None),
                [packet.name for packet in result.schedule.packets],
                None if run is None else (run.total_cycles, sorted(run.window_pcs)),
                None if run is None else run.packet_records,
            )
            return phase1.dut_pool, result.simulations_used, outcome

        pooled, simulations, pooled_outcome = phase1_run()
        assert simulations > 0
        assert pooled.constructions == 1
        assert pooled.reuses == simulations - 1
        with monkeypatch.context() as patch:
            fresh_duts(patch)
            fresh, fresh_simulations, fresh_outcome = phase1_run()
        assert fresh.reuses == 0
        assert fresh.constructions == fresh_simulations == simulations
        assert pooled_outcome == fresh_outcome


class TestReferencePaths:
    """Each fake really takes its accelerator out of the path."""

    def test_all_reference_paths_are_byte_identical(self, monkeypatch):
        fast = deterministic_dict(iterations=4, entropy=5)
        reference_paths(monkeypatch)
        reference = deterministic_dict(iterations=4, entropy=5)
        assert fast == reference

    def test_fresh_duts_build_one_pair_per_simulation(self, monkeypatch):
        fresh_duts(monkeypatch)
        phase1 = TransientWindowTriggering(BOOM)
        result = phase1.run(make_seed())
        assert phase1.dut_pool.reuses == 0
        assert phase1.dut_pool.constructions == result.simulations_used

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


class TestTrainingReduction:
    def test_reduction_matches_without_packet_reference(self):
        """The in-place surviving-list reduction equals the naive chained
        ``without_packet`` reference, run by run."""
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
                candidate = without_packet(reference, packet.name)
                run = phase1._simulate(candidate, seed.secret_value)
                reference_simulations += 1
                if run.window_triggered():
                    reference = candidate
            assert [p.name for p in reduced.packets] == [
                p.name for p in reference.packets
            ]
            assert simulations == reference_simulations


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
