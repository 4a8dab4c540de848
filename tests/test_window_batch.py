"""Tests for batched window evaluation: DUT reuse via Processor.reset() /
SwapMemory.rearm(), and the batch accounting.

The shared contract under test: DUT reuse is *byte-transparent* — the same
campaign run on warm or fresh DUTs (the ``reference_paths.fresh_duts`` fake)
produces byte-identical deterministic wire forms.  The same holds on every
execution path, which ``test_campaign_matrix.py`` checks.
"""

import json

import pytest

from repro.core.backends import ShardTask, run_shard_task
from repro.core.engine import (
    EngineConfiguration,
    ParallelCampaignEngine,
    resolve_core,
)
from repro.core.fuzzer import DejaVuzzFuzzer, FuzzerConfiguration, run_quick_campaign
from repro.core.phase1 import DutPool, TransientWindowTriggering
from repro.core.report import CampaignResult
from repro.generation.seeds import Seed
from repro.generation.window_types import TransientWindowType
from repro.swapmem.memory import SwapMemory
from repro.swapmem.scheduler import SwapRunner
from repro.uarch import Processor, small_boom_config
from repro.utils.rng import DeterministicRng

from reference_paths import fresh_duts
from test_processor_golden import CORES, _run_digests, _seed

BOOM = small_boom_config()


def deterministic_dict(iterations=8, entropy=11, **overrides):
    result = run_quick_campaign(BOOM, iterations, entropy=entropy, **overrides)
    return result.to_dict(include_timing=False)


def make_seed(seed_id=7, entropy=13, window_type=TransientWindowType.BRANCH_MISPREDICTION):
    return Seed(seed_id=seed_id, entropy=entropy, window_type=window_type)


WINDOW_TYPES = list(TransientWindowType)
POOL_ENTROPY_BASE = 7_500_000


class TestDutPool:
    @pytest.mark.parametrize("window_type", WINDOW_TYPES, ids=lambda w: w.value)
    @pytest.mark.parametrize("core", CORES)
    def test_pooled_dut_equals_a_fresh_one(self, core, window_type):
        """A warm DUT, reset after a different schedule, matches a fresh build
        on every trace event, register, side-channel bit and cycle count."""
        config = resolve_core(core)
        phase1 = TransientWindowTriggering(config)
        index = WINDOW_TYPES.index(window_type)
        seed = _seed(core, window_type, POOL_ENTROPY_BASE + index)
        _, schedule = phase1.generate_schedule(seed)
        previous_type = WINDOW_TYPES[index - 1]
        previous = _seed(core, previous_type, POOL_ENTROPY_BASE + index - 1)
        _, dirtying_schedule = phase1.generate_schedule(previous)

        pool = DutPool(config)
        for run_seed, run_schedule in ((previous, dirtying_schedule), (seed, schedule)):
            swap_memory, processor = pool.checkout(run_seed.secret_value)
            try:
                pooled = _run_digests(
                    SwapRunner(processor, swap_memory, run_schedule).run(), census=False
                )
            finally:
                pool.checkin(processor)
        assert pool.reuses == 1

        swap_memory = SwapMemory(secret=seed.secret_value)
        processor = Processor(config, memory=swap_memory.data)
        fresh = _run_digests(SwapRunner(processor, swap_memory, schedule).run(), census=False)
        assert pooled == fresh

    def test_pooled_and_fresh_runs_are_identical_interleaved(self, monkeypatch):
        pooled = TransientWindowTriggering(BOOM)
        fresh = TransientWindowTriggering(BOOM)
        rng = DeterministicRng(99, "dut-pool-test")
        for index in range(10):
            seed = make_seed(
                seed_id=index,
                entropy=rng.randint(0, 2**31 - 1),
                window_type=rng.choice(list(TransientWindowType)),
            )
            a = pooled.run(seed)
            with monkeypatch.context() as patch:
                fresh_duts(patch)
                b = fresh.run(seed)
            assert a == b
        assert pooled.dut_pool.reuses > 0
        assert fresh.dut_pool.reuses == 0

    def test_pool_knob_is_byte_identical(self, monkeypatch):
        pooled = deterministic_dict()
        fresh_duts(monkeypatch)
        assert deterministic_dict() == pooled

    def test_pool_reuses_one_dut_across_a_campaign(self):
        fuzzer = DejaVuzzFuzzer(FuzzerConfiguration(core=BOOM, entropy=11))
        fuzzer.run_campaign(iterations=8)
        stats = fuzzer.batch_stats()
        assert stats["dut_constructions"] == 1
        assert stats["dut_reuses"] > 0

    def test_concurrent_checkout_falls_back_to_fresh(self):
        pool = DutPool(BOOM)
        memory_a, processor_a = pool.checkout(secret=0x1234)
        memory_b, processor_b = pool.checkout(secret=0x1234)
        assert processor_a is not processor_b
        assert memory_a is not memory_b
        assert pool.constructions == 2
        pool.checkin(processor_a)
        # The pooled DUT is back; the next checkout reuses it.
        _, processor_c = pool.checkout(secret=0x5678)
        assert processor_c is processor_a
        assert pool.reuses == 1


class TestBatchingAcrossExecutionPaths:
    def test_subprocess_simulator_matches_inproc(self):
        def task(simulator):
            return ShardTask(
                slice_index=0,
                epoch=0,
                iterations=6,
                configuration=FuzzerConfiguration(core=BOOM, entropy=6, seed_id_base=10),
                simulator=simulator,
            )

        def deterministic_payload(payload):
            result = CampaignResult.from_dict(payload["result"]).to_dict(
                include_timing=False
            )
            return {
                "slice_index": payload["slice_index"],
                "core": payload["core"],
                "result": result,
                "points": payload["points"],
                "top_seeds": payload["top_seeds"],
            }

        reference = deterministic_payload(run_shard_task(task("inproc")))
        subprocess_payload = run_shard_task(task("subprocess"))
        assert deterministic_payload(subprocess_payload) == reference
        # The client merged its process counters into the runner's batch
        # counters: one diagnostics dict.
        stats = subprocess_payload["diagnostics"]
        assert stats["spawns"] >= 1
        assert stats["window_batches"] > 0


class TestCheckpointResume:
    def test_dut_reuse_is_not_part_of_the_campaign_identity(self, tmp_path, monkeypatch):
        # DUT reuse is transparent, so a checkpoint written on warm DUTs
        # resumes on fresh DUTs with identical results.
        def configuration(checkpoint):
            return EngineConfiguration(
                fuzzer=FuzzerConfiguration(core=BOOM, entropy=6),
                shards=2,
                slices=2,
                iterations=12,
                sync_epochs=3,
                executor="inline",
                checkpoint_path=checkpoint,
            )

        def wire(result):
            return json.dumps(
                result.campaign.to_dict(include_timing=False), sort_keys=True
            )

        uninterrupted = ParallelCampaignEngine(configuration(None)).run()
        checkpoint = str(tmp_path / "identity.json")
        halted = ParallelCampaignEngine(configuration(checkpoint)).run(max_epochs=1)
        assert not halted.complete
        fresh_duts(monkeypatch)
        resumed = ParallelCampaignEngine.resume_from(
            checkpoint, configuration(checkpoint)
        ).run()
        assert wire(resumed) == wire(uninterrupted)


class TestBatchAccounting:
    def test_one_window_batch_per_phase1_boundary(self):
        fuzzer = DejaVuzzFuzzer(FuzzerConfiguration(core=BOOM, entropy=6))
        steps = fuzzer.campaign_steps(12)
        windows = []
        while True:
            try:
                step = next(steps)
            except StopIteration:
                break
            if step.phase == "window":
                windows.append(step.simulations)
        stats = fuzzer.batch_stats()
        assert stats["window_batches"] == len(windows) > 0
        assert stats["batch_simulations"] == sum(windows)
        assert stats["max_batch"] == max(windows)
