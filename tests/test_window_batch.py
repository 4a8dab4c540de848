"""Tests for batched window evaluation: DUT reuse via Processor.reset() /
SwapMemory.rearm(), speculative trigger lookahead, and the batch accounting.

The shared contract under test: batching is *byte-transparent* — the same
campaign run with any ``window_lookahead``, on warm or fresh DUTs (the
``reference_paths.fresh_duts`` fake) produces byte-identical deterministic
wire forms.  The same holds on every execution path, which
``test_campaign_matrix.py`` checks.
"""

import json

import pytest

from repro.core.backends import ShardTask, run_shard_task
from repro.core.distributed import (
    fuzzer_configuration_from_wire,
    fuzzer_configuration_to_wire,
)
from repro.core.engine import (
    EngineConfiguration,
    ParallelCampaignEngine,
    resolve_core,
)
from repro.core.fuzzer import DejaVuzzFuzzer, FuzzerConfiguration, run_quick_campaign
from repro.core.phase1 import DEFAULT_LAYOUT, DutPool, TransientWindowTriggering
from repro.core.report import CampaignResult
from repro.generation.mutation import Mutator
from repro.generation.seeds import Seed
from repro.generation.window_types import TransientWindowType
from repro.swapmem.memory import SwapMemory
from repro.swapmem.scheduler import SwapRunner
from repro.uarch import Processor, small_boom_config
from repro.utils.rng import DeterministicRng

from reference_paths import fresh_duts, uncached_simulation
from test_processor_golden import CORES, _run_digests, _seed

BOOM = small_boom_config()

# Entropy values where the quick campaign hits window misses, so the
# speculative lookahead actually engages (asserted below, so a generator
# change that stops producing misses here fails loudly instead of silently
# weakening the suite).
MISS_HEAVY_ENTROPIES = (6, 7, 16)


def deterministic_dict(iterations=8, entropy=11, **overrides):
    result = run_quick_campaign(BOOM, iterations, entropy=entropy, **overrides)
    return result.to_dict(include_timing=False)


def engine_wire(result):
    return json.dumps(result.campaign.to_dict(include_timing=False), sort_keys=True)


def make_seed(seed_id=7, entropy=13, window_type=TransientWindowType.BRANCH_MISPREDICTION):
    return Seed(seed_id=seed_id, entropy=entropy, window_type=window_type)


class TestSpeculativeLookahead:
    def test_k1_is_the_legacy_path(self):
        configuration = FuzzerConfiguration(core=BOOM, entropy=6, window_lookahead=1)
        fuzzer = DejaVuzzFuzzer(configuration)
        fuzzer.run_campaign(iterations=12)
        stats = fuzzer.batch_stats()
        assert stats["speculated"] == 0
        assert stats["lookahead_hits"] == 0

    def test_lookahead_campaigns_are_byte_identical(self):
        for entropy in MISS_HEAVY_ENTROPIES:
            legacy = deterministic_dict(iterations=12, entropy=entropy)
            for lookahead in (3, 8):
                batched = deterministic_dict(
                    iterations=12, entropy=entropy, window_lookahead=lookahead
                )
                assert batched == legacy

    def test_lookahead_actually_engages_on_misses(self):
        engaged = 0
        for entropy in MISS_HEAVY_ENTROPIES:
            configuration = FuzzerConfiguration(
                core=BOOM, entropy=entropy, window_lookahead=4
            )
            fuzzer = DejaVuzzFuzzer(configuration)
            fuzzer.run_campaign(iterations=12)
            stats = fuzzer.batch_stats()
            engaged += stats["lookahead_hits"]
            assert stats["speculated"] >= stats["lookahead_hits"]
        assert engaged > 0

    def test_lookahead_without_sim_cache_is_byte_identical(self, monkeypatch):
        # With the memo bypassed, the committed loop simulates speculated
        # candidates again instead of replaying them; the campaign must not
        # notice.
        legacy = deterministic_dict(iterations=12, entropy=6)
        uncached_simulation(monkeypatch)
        uncached = deterministic_dict(iterations=12, entropy=6, window_lookahead=4)
        assert uncached == legacy

    def test_simulation_totals_are_conserved_with_fewer_boundaries(self):
        def steps(lookahead):
            fuzzer = DejaVuzzFuzzer(
                FuzzerConfiguration(core=BOOM, entropy=6, window_lookahead=lookahead)
            )
            generator = fuzzer.campaign_steps(12)
            collected = []
            while True:
                try:
                    collected.append(next(generator))
                except StopIteration:
                    break
            return collected, fuzzer.batch_stats()

        legacy, _ = steps(1)
        batched, stats = steps(4)
        assert stats["lookahead_hits"] > 0
        # The logical simulation budget is conserved: absorbed rounds are
        # pre-charged by their batch's consolidated step.
        assert sum(s.simulations for s in batched) == sum(
            s.simulations for s in legacy
        )
        # Absorbed rounds yield no step of their own: fewer boundaries.
        assert len(batched) == len(legacy) - stats["lookahead_hits"]

    def test_rejects_bad_lookahead(self):
        with pytest.raises(ValueError, match="window_lookahead"):
            FuzzerConfiguration(core=BOOM, entropy=3, window_lookahead=0)
        wire = fuzzer_configuration_to_wire(FuzzerConfiguration(core=BOOM, entropy=3))
        wire["window_lookahead"] = 0
        with pytest.raises(ValueError, match="window_lookahead"):
            fuzzer_configuration_from_wire(wire)


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

        pool = DutPool(config, DEFAULT_LAYOUT)
        for run_seed, run_schedule in ((previous, dirtying_schedule), (seed, schedule)):
            swap_memory, processor = pool.checkout(run_seed.secret_value)
            try:
                pooled = _run_digests(
                    SwapRunner(processor, swap_memory, run_schedule).run(), census=False
                )
            finally:
                pool.checkin(processor)
        assert pool.reuses == 1

        swap_memory = SwapMemory(DEFAULT_LAYOUT, secret=seed.secret_value)
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
            assert a.to_dict() == b.to_dict()
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
        pool = DutPool(BOOM, DEFAULT_LAYOUT)
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
    def test_subprocess_simulator_lookahead_matches_inproc(self):
        def task(simulator, lookahead):
            return ShardTask(
                slice_index=0,
                epoch=0,
                iterations=6,
                configuration=FuzzerConfiguration(
                    core=BOOM, entropy=6, seed_id_base=10,
                    window_lookahead=lookahead,
                ),
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

        reference = deterministic_payload(run_shard_task(task("inproc", 1)))
        subprocess_payload = run_shard_task(task("subprocess", 3))
        assert deterministic_payload(subprocess_payload) == reference
        # The client merged its process counters into the runner's batch
        # counters: one diagnostics dict.
        stats = subprocess_payload["diagnostics"]
        assert stats["spawns"] >= 1
        assert stats["window_batches"] > 0


class TestCheckpointResume:
    def test_resume_mid_campaign_with_lookahead_is_byte_identical(self, tmp_path):
        def configuration(checkpoint=None):
            return EngineConfiguration(
                fuzzer=FuzzerConfiguration(
                    core=BOOM, entropy=6, window_lookahead=4
                ),
                shards=2,
                slices=2,
                iterations=12,
                sync_epochs=3,
                executor="inline",
                checkpoint_path=checkpoint,
            )

        uninterrupted = ParallelCampaignEngine(configuration()).run()
        checkpoint = str(tmp_path / "batched.json")
        halted = ParallelCampaignEngine(configuration(checkpoint)).run(max_epochs=1)
        assert not halted.complete
        resumed = ParallelCampaignEngine.resume_from(
            checkpoint, configuration(checkpoint)
        ).run()
        assert engine_wire(resumed) == engine_wire(uninterrupted)

    def test_lookahead_is_not_part_of_the_campaign_identity(self, tmp_path, monkeypatch):
        # Batching is transparent, so a checkpoint written with K=1 on a warm
        # DUT resumes under K>1 on fresh DUTs with identical results.
        def configuration(lookahead, checkpoint):
            return EngineConfiguration(
                fuzzer=FuzzerConfiguration(
                    core=BOOM, entropy=6, window_lookahead=lookahead
                ),
                shards=2,
                slices=2,
                iterations=12,
                sync_epochs=3,
                executor="inline",
                checkpoint_path=checkpoint,
            )

        uninterrupted = ParallelCampaignEngine(configuration(1, None)).run()
        checkpoint = str(tmp_path / "identity.json")
        ParallelCampaignEngine(configuration(1, checkpoint)).run(max_epochs=1)
        fresh_duts(monkeypatch)
        resumed = ParallelCampaignEngine.resume_from(
            checkpoint, configuration(4, checkpoint)
        ).run()
        assert engine_wire(resumed) == engine_wire(uninterrupted)


class TestWireDefaults:
    def test_missing_batch_keys_default_to_off(self):
        wire = fuzzer_configuration_to_wire(
            FuzzerConfiguration(core=BOOM, entropy=5)
        )
        assert wire["window_lookahead"] == 1
        del wire["window_lookahead"]
        decoded = fuzzer_configuration_from_wire(wire)
        assert decoded.window_lookahead == 1

    def test_batch_knobs_round_trip(self):
        configuration = FuzzerConfiguration(core=BOOM, entropy=5, window_lookahead=6)
        decoded = fuzzer_configuration_from_wire(
            fuzzer_configuration_to_wire(configuration)
        )
        assert decoded == configuration


class TestForkPrimitives:
    def test_rng_clone_replays_the_future(self):
        rng = DeterministicRng(42, "clone-test")
        rng.randint(0, 100)  # consume some state first
        clone = rng.clone()
        speculative = [clone.randint(0, 10**9) for _ in range(5)]
        committed = [rng.randint(0, 10**9) for _ in range(5)]
        assert speculative == committed

    def test_mutator_fork_replays_seeds_and_ids(self):
        mutator = Mutator(DeterministicRng(7, "fork-test"), seed_id_base=500)
        seed = make_seed(seed_id=mutator.allocate_seed_id())
        fork = mutator.fork()
        speculative = fork.mutate_trigger(seed)
        speculative = [speculative, fork.mutate_trigger(speculative)]
        committed = mutator.mutate_trigger(seed)
        committed = [committed, mutator.mutate_trigger(committed)]
        for a, b in zip(speculative, committed):
            assert a.to_dict() == b.to_dict()
        assert [s.seed_id for s in committed] == [501, 502]
