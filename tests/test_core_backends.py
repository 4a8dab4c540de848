"""Tests for the pluggable execution backends and the stepwise campaign
generator they drive."""

from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

import pytest

from repro.core import (
    CampaignStep,
    DejaVuzzFuzzer,
    FuzzerConfiguration,
    InlineBackend,
    ProcessPoolBackend,
    ShardCampaignRunner,
    ShardTask,
    create_backend,
    run_shard_task,
)
from repro.core.backends import BACKEND_NAMES
from repro.sim.client import close_default_pool, default_pool
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


def slice_tasks(count, **overrides):
    return [
        make_task(slice_index=index, configuration=FuzzerConfiguration(
            core=BOOM, entropy=31 + index, seed_id_base=10 + 100 * index),
            **overrides)
        for index in range(count)
    ]


def campaign_facts(payload):
    """The deterministic part of a payload that every driver must agree on."""
    facts = {key: payload[key] for key in ("slice_index", "epoch", "core", "points", "top_seeds")}
    facts["coverage_history"] = payload["result"]["coverage_history"]
    return facts


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
    def test_runner_payload_is_the_run_shard_task_payload(self):
        task = make_task()
        runner = ShardCampaignRunner(task)
        steps = 0
        while runner.advance() is not None:
            steps += 1
        assert steps >= task.iterations
        assert campaign_facts(runner.payload) == campaign_facts(run_shard_task(make_task()))

    def test_step_latency_does_not_change_results(self):
        fast = run_shard_task(make_task())
        slow = run_shard_task(make_task(iterations=2, step_latency=0.001))
        fast2 = run_shard_task(make_task(iterations=2))
        assert slow["points"] == fast2["points"]
        assert slow["result"]["coverage_history"] == fast2["result"]["coverage_history"]
        assert fast["slice_index"] == 0  # smoke: zero-latency default path still runs


class TestBackends:
    def run_tasks(self, backend):
        try:
            return backend.run_epoch(slice_tasks(3))
        finally:
            backend.close()

    def test_all_backends_produce_identical_payloads(self):
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
                entry["result"] = dict(entry["result"], elapsed_seconds=0.0, first_bug_seconds=None)
                # reports embed wall clocks; zero them before comparing
                for report in entry["result"]["reports"]:
                    report["wall_clock_seconds"] = 0.0
                stripped_payloads.append(entry)
            return stripped_payloads

        inline = strip(self.run_tasks(InlineBackend()))
        pooled = strip(self.run_tasks(ProcessPoolBackend(max_workers=2)))
        assert inline == pooled

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

    def test_subprocess_epoch_runs_on_threads_against_the_callers_servers(self):
        close_default_pool()
        backend = ProcessPoolBackend(max_workers=2)
        try:
            payloads = backend.run_epoch(slice_tasks(2, iterations=2, simulator="subprocess"))
            assert isinstance(backend._threads, ThreadPoolExecutor)
            assert backend._pool is None  # no worker process was spawned
            # Both slots live in this process's pool: one warm server per slice.
            rows = default_pool().processes()
            assert [(row["slot"], row["alive"], row["spawns"]) for row in rows] == [
                (0, True, 1), (1, True, 1),
            ]
            assert [payload["diagnostics"]["spawns"] for payload in payloads] == [1, 1]
        finally:
            backend.close()
            close_default_pool()

    def test_one_backend_serves_both_simulator_modes_in_turn(self):
        close_default_pool()
        backend = ProcessPoolBackend(max_workers=2)
        try:
            served = backend.run_epoch(slice_tasks(2, iterations=2, simulator="subprocess"))
            threads = backend._threads
            local = backend.run_epoch(slice_tasks(2, iterations=2))
            # The in-process epoch needs processes (the GIL); the thread pool
            # is kept for the next subprocess epoch.
            assert isinstance(backend._pool, ProcessPoolExecutor)
            assert backend._threads is threads
        finally:
            backend.close()
            close_default_pool()
        assert backend._pool is None and backend._threads is None
        assert [campaign_facts(payload) for payload in served] == [
            campaign_facts(payload) for payload in local
        ]

    def test_create_backend_registry(self):
        assert BACKEND_NAMES == ("inline", "process", "distributed")
        assert isinstance(create_backend("inline"), InlineBackend)
        assert isinstance(create_backend("process"), ProcessPoolBackend)
        for name in ("threads", "async"):
            with pytest.raises(ValueError, match="unknown execution backend"):
                create_backend(name)

    def test_backend_rejects_bad_sizing(self):
        with pytest.raises(ValueError, match="max_workers"):
            ProcessPoolBackend(max_workers=0)
        # The factory must not silently rewrite an invalid explicit zero.
        with pytest.raises(ValueError, match="max_workers"):
            create_backend("process", max_workers=0)


class TestShardCampaignRunner:
    """The inspectable stepwise executor the simulator server hosts."""

    def test_runner_steps_the_campaign_that_run_shard_task_finishes(self):
        task = make_task()
        steps = list(DejaVuzzFuzzer(task.configuration).campaign_steps(task.iterations))
        runner = ShardCampaignRunner(task)
        runner_steps = []
        while True:
            step = runner.advance()
            if step is None:
                break
            runner_steps.append(step)
        assert runner.finished
        assert [(step.iteration, step.phase, step.simulations) for step in runner_steps] == [
            (step.iteration, step.phase, step.simulations) for step in steps
        ]
        # Injected latency is paid between the runner's steps and changes nothing.
        slow = run_shard_task(make_task(step_latency=0.0005))
        assert campaign_facts(runner.payload) == campaign_facts(slow)

    def test_runner_exposes_live_campaign_state(self):
        runner = ShardCampaignRunner(make_task())
        assert runner.result is None
        first = runner.advance()
        assert first is not None
        # The captured reference is the live accumulating CampaignResult.
        assert runner.result is first.result
        assert runner.steps_taken == 1
        assert not runner.finished
        while runner.advance() is not None:
            pass
        assert runner.result is first.result
        assert runner.payload is not None
        # advance() after completion stays a no-op.
        assert runner.advance() is None

    def test_simulator_field_survives_the_distributed_wire(self):
        from repro.core.wire import shard_task_from_wire, shard_task_to_wire

        task = make_task(simulator="subprocess")
        assert shard_task_from_wire(shard_task_to_wire(task)) == task
