"""Tests for the pluggable execution backends and the stepwise campaign
generator they drive."""

import pytest

from repro.core import (
    AsyncBackend,
    CampaignStep,
    DejaVuzzFuzzer,
    FuzzerConfiguration,
    InlineBackend,
    ProcessPoolBackend,
    ShardTask,
    create_backend,
    iterate_shard_task,
    run_shard_task,
)
from repro.uarch import small_boom_config

BOOM = small_boom_config()


def make_task(**overrides):
    defaults = dict(
        slice_index=0,
        epoch=0,
        iterations=4,
        configuration=FuzzerConfiguration(core=BOOM, entropy=31, seed_id_base=10),
    )
    defaults.update(overrides)
    return ShardTask(**defaults)


class TestCampaignSteps:
    def test_stepwise_generator_matches_run_campaign(self):
        stepped = DejaVuzzFuzzer(FuzzerConfiguration(core=BOOM, entropy=3))
        generator = stepped.campaign_steps(8)
        while True:
            try:
                next(generator)
            except StopIteration as stop:
                stepped_result = stop.value
                break
        closed_fuzzer = DejaVuzzFuzzer(FuzzerConfiguration(core=BOOM, entropy=3))
        closed = closed_fuzzer.run_campaign(8)
        assert stepped_result.to_dict(include_timing=False) == closed.to_dict(
            include_timing=False
        )
        assert stepped.coverage.points == closed_fuzzer.coverage.points

    def test_steps_mark_simulator_boundaries(self):
        fuzzer = DejaVuzzFuzzer(FuzzerConfiguration(core=BOOM, entropy=3))
        generator = fuzzer.campaign_steps(6)
        steps = []
        while True:
            try:
                steps.append(next(generator))
            except StopIteration:
                break
        assert all(isinstance(step, CampaignStep) for step in steps)
        assert all(step.phase in ("window", "explore") for step in steps)
        assert all(step.simulations >= 0 for step in steps)
        # Exactly one end-of-iteration step per iteration, in order.
        iteration_ends = [step.iteration for step in steps if step.end_of_iteration]
        assert iteration_ends == list(range(6))
        # Every explore step was preceded by a window acquisition at some point
        # and at least one simulator invocation happened overall.
        assert sum(step.simulations for step in steps) > 0

    def test_progress_callback_fires_once_per_explored_iteration(self):
        seen = []
        fuzzer = DejaVuzzFuzzer(FuzzerConfiguration(core=BOOM, entropy=3))
        fuzzer.run_campaign(6, progress_callback=lambda i, result: seen.append(i))
        assert seen == sorted(set(seen))  # strictly increasing, no duplicates


class TestShardTaskDrivers:
    def test_iterate_shard_task_returns_the_wire_payload(self):
        task = make_task()
        runner = iterate_shard_task(task)
        steps = 0
        while True:
            try:
                next(runner)
                steps += 1
            except StopIteration as stop:
                payload = stop.value
                break
        assert steps >= task.iterations
        direct = run_shard_task(make_task())
        for key in ("slice_index", "epoch", "core", "points", "top_seeds"):
            assert payload[key] == direct[key]
        assert payload["result"]["coverage_history"] == direct["result"]["coverage_history"]

    def test_step_latency_does_not_change_results(self):
        fast = run_shard_task(make_task())
        slow = run_shard_task(make_task(iterations=2, step_latency=0.001))
        fast2 = run_shard_task(make_task(iterations=2))
        assert slow["points"] == fast2["points"]
        assert slow["result"]["coverage_history"] == fast2["result"]["coverage_history"]
        assert fast["slice_index"] == 0  # smoke: zero-latency default path still runs


class TestBackends:
    def run_tasks(self, backend):
        tasks = [
            make_task(slice_index=index, configuration=FuzzerConfiguration(
                core=BOOM, entropy=31 + index, seed_id_base=10 + 100 * index))
            for index in range(3)
        ]
        try:
            return backend.run_epoch(tasks)
        finally:
            backend.close()

    def test_all_backends_produce_identical_payloads(self):
        inline = self.run_tasks(InlineBackend())
        pooled = self.run_tasks(ProcessPoolBackend(max_workers=2))
        interleaved = self.run_tasks(AsyncBackend(concurrency=2))
        def strip(payloads):
            stripped_payloads = []
            for payload in payloads:
                entry = {
                    key: value
                    for key, value in payload.items()
                    if key != "wall_seconds"
                }
                # Metric counters are deterministic event counts and must
                # match; latency histograms are wall clock, so drop them.
                metrics = entry.get("metrics")
                if metrics is not None:
                    entry["metrics"] = dict(metrics, histograms=None)
                stripped_payloads.append(entry)
            return stripped_payloads
        stripped = strip(inline)
        for entry in stripped:
            entry["result"] = dict(entry["result"], elapsed_seconds=0.0, first_bug_seconds=None)
        for other in (strip(pooled), strip(interleaved)):
            for entry in other:
                entry["result"] = dict(entry["result"], elapsed_seconds=0.0, first_bug_seconds=None)
            # reports embed wall clocks; zero them before comparing
            for a, b in zip(stripped, other):
                for report in a["result"]["reports"] + b["result"]["reports"]:
                    report["wall_clock_seconds"] = 0.0
                assert a == b

    def test_single_task_epochs_skip_the_pool(self):
        backend = ProcessPoolBackend(max_workers=2)
        payloads = backend.run_epoch([make_task()])
        assert backend._pool is None  # no worker spawned for one task
        backend.close()
        assert payloads[0]["slice_index"] == 0

    def test_process_pool_is_reused_across_epochs(self):
        backend = ProcessPoolBackend(max_workers=2)
        try:
            backend.run_epoch([make_task(slice_index=0), make_task(slice_index=1)])
            pool = backend._pool
            assert pool is not None
            backend.run_epoch([make_task(slice_index=0), make_task(slice_index=1)])
            assert backend._pool is pool
        finally:
            backend.close()
        assert backend._pool is None

    def test_create_backend_registry(self):
        assert isinstance(create_backend("inline"), InlineBackend)
        assert isinstance(create_backend("process"), ProcessPoolBackend)
        backend = create_backend("async", concurrency=7)
        assert isinstance(backend, AsyncBackend) and backend.concurrency == 7
        with pytest.raises(ValueError, match="unknown execution backend"):
            create_backend("threads")

    def test_backend_rejects_bad_sizing(self):
        with pytest.raises(ValueError, match="concurrency"):
            AsyncBackend(concurrency=0)
        with pytest.raises(ValueError, match="max_workers"):
            ProcessPoolBackend(max_workers=0)
        # The factory must not silently rewrite an invalid explicit zero.
        with pytest.raises(ValueError, match="concurrency"):
            create_backend("async", concurrency=0)


class TestShardCampaignRunner:
    """The inspectable stepwise executor the simulator server hosts."""

    def test_runner_matches_the_generator_driver(self):
        from repro.core.backends import ShardCampaignRunner

        generator = iterate_shard_task(make_task())
        steps = []
        while True:
            try:
                steps.append(next(generator))
            except StopIteration as stop:
                generator_payload = stop.value
                break

        runner = ShardCampaignRunner(make_task())
        runner_steps = []
        while True:
            step = runner.advance()
            if step is None:
                break
            runner_steps.append(step)
        assert runner.finished
        assert len(runner_steps) == len(steps)
        for ours, theirs in zip(runner_steps, steps):
            assert (ours.iteration, ours.phase, ours.simulations) == (
                theirs.iteration, theirs.phase, theirs.simulations
            )
        for key in ("slice_index", "epoch", "core", "points", "top_seeds"):
            assert runner.payload[key] == generator_payload[key]
        assert runner.payload["result"]["coverage_history"] == (
            generator_payload["result"]["coverage_history"]
        )

    def test_runner_exposes_live_campaign_state(self):
        from repro.core.backends import ShardCampaignRunner

        runner = ShardCampaignRunner(make_task())
        assert runner.campaign_result is None
        first = runner.advance()
        assert first is not None
        # The captured reference is the live accumulating CampaignResult.
        assert runner.campaign_result is first.result
        assert runner.steps_taken == 1
        assert not runner.finished
        while runner.advance() is not None:
            pass
        assert runner.campaign_result is runner.result
        assert runner.payload is not None
        # advance() after completion stays a no-op.
        assert runner.advance() is None

    def test_simulator_field_survives_the_distributed_wire(self):
        from repro.core.distributed import shard_task_from_wire, shard_task_to_wire

        task = make_task(simulator="subprocess")
        assert shard_task_from_wire(shard_task_to_wire(task)) == task
