"""Tests for the out-of-process simulator fabric: the fault-tolerant
SubprocessSimulator client (SIGKILL / crash / hang recovery via
restart-and-replay), the per-shard process pool, and campaign byte-identity
between the in-process and subprocess simulators on every backend."""

import json
import os
import signal
import threading
import time
from dataclasses import replace

import pytest

from repro.core import FuzzerConfiguration, ShardTask, run_parallel_campaign
from repro.core.backends import run_shard_task
from repro.core.distributed import DistributedBackend
from repro.core.engine import EngineConfiguration
from repro.core.report import CampaignResult
from repro.core.worker import run_worker
from repro.sim.client import (
    SimProcessPool,
    SimServerCrash,
    SubprocessSimulator,
    close_default_pool,
    default_pool,
    default_server_command,
)
from repro.uarch import small_boom_config

BOOM = small_boom_config()


def make_task(**overrides):
    defaults = dict(
        slice_index=0,
        epoch=0,
        iterations=4,
        configuration=FuzzerConfiguration(core=BOOM, entropy=31, seed_id_base=10),
        simulator="subprocess",
    )
    defaults.update(overrides)
    return ShardTask(**defaults)


def deterministic_payload(payload):
    """The deterministic projection of a shard payload (timing and simulator
    accounting dropped)."""
    result = CampaignResult.from_dict(payload["result"]).to_dict(include_timing=False)
    return {
        "slice_index": payload["slice_index"],
        "epoch": payload["epoch"],
        "core": payload["core"],
        "result": result,
        "points": payload["points"],
        "top_seeds": payload["top_seeds"],
    }


def deterministic_wire(result):
    return json.dumps(result.campaign.to_dict(include_timing=False), sort_keys=True)


@pytest.fixture(scope="module")
def inproc_reference():
    return deterministic_payload(run_shard_task(make_task(simulator="inproc")))


class TestSubprocessSimulator:
    def test_run_task_matches_inproc(self, inproc_reference):
        simulator = SubprocessSimulator()
        try:
            payload = simulator.run_task(make_task())
        finally:
            simulator.close()
        assert deterministic_payload(payload) == inproc_reference
        stats = payload["diagnostics"]
        assert stats["spawns"] == 1
        assert stats["restarts"] == 0
        assert stats["steps"] > 0
        assert stats["step_seconds_total"] > 0

    def test_server_process_is_reused_across_tasks(self, inproc_reference):
        simulator = SubprocessSimulator()
        try:
            first = simulator.run_task(make_task())
            pid = simulator.pid
            second = simulator.run_task(make_task())
            assert simulator.pid == pid
        finally:
            simulator.close()
        assert first["diagnostics"]["spawns"] == 1
        assert second["diagnostics"]["spawns"] == 0  # reused, not respawned
        assert deterministic_payload(first) == deterministic_payload(second)

    def test_sigkill_mid_task_restarts_and_replays(self, inproc_reference):
        simulator = SubprocessSimulator(snapshot_interval=2)
        try:
            simulator.begin_task(make_task())
            for _ in range(3):
                assert simulator.advance() is not None
            os.kill(simulator.pid, signal.SIGKILL)
            while simulator.advance() is not None:
                pass
            payload = simulator.finish_task()
        finally:
            simulator.close()
        assert deterministic_payload(payload) == inproc_reference
        assert payload["diagnostics"]["restarts"] >= 1
        assert payload["diagnostics"]["spawns"] >= 2

    def test_crashing_server_restarts_and_replays(self, inproc_reference):
        def factory(spawn_index):
            command = default_server_command()
            if spawn_index == 0:
                return command + ["--crash-after", "2"]
            return command

        simulator = SubprocessSimulator(command_factory=factory, snapshot_interval=2)
        try:
            payload = simulator.run_task(make_task())
        finally:
            simulator.close()
        assert deterministic_payload(payload) == inproc_reference
        assert payload["diagnostics"]["restarts"] == 1

    def test_hung_server_is_killed_and_replayed(self, inproc_reference):
        def factory(spawn_index):
            command = default_server_command()
            if spawn_index == 0:
                return command + ["--hang-after", "1"]
            return command

        simulator = SubprocessSimulator(
            command_factory=factory, snapshot_interval=2, request_timeout=3.0
        )
        try:
            payload = simulator.run_task(make_task())
        finally:
            simulator.close()
        assert deterministic_payload(payload) == inproc_reference
        assert payload["diagnostics"]["restarts"] == 1

    def test_restart_budget_exhaustion_raises(self):
        def factory(spawn_index):
            return default_server_command() + ["--crash-after", "0"]

        simulator = SubprocessSimulator(command_factory=factory, max_restarts=2)
        try:
            with pytest.raises(SimServerCrash, match="giving up"):
                simulator.run_task(make_task())
        finally:
            simulator.close()

    def test_validation(self):
        with pytest.raises(ValueError, match="snapshot_interval"):
            SubprocessSimulator(snapshot_interval=0)
        with pytest.raises(ValueError, match="max_restarts"):
            SubprocessSimulator(max_restarts=-1)
        with pytest.raises(ValueError, match="request_timeout"):
            SubprocessSimulator(request_timeout=0).run_task(make_task())


class TestSimProcessPool:
    def test_pool_spawns_one_server_per_slot_and_reuses_it(self):
        pool = SimProcessPool()
        try:
            first = pool.run_task(make_task(slice_index=0))
            second = pool.run_task(make_task(slice_index=1, epoch=0))
            again = pool.run_task(make_task(slice_index=0, epoch=1))
            rows = pool.processes()
        finally:
            pool.close()
        assert [row["slot"] for row in rows] == [0, 1]
        assert all(row["spawns"] == 1 for row in rows)
        assert first["diagnostics"]["spawns"] == 1
        assert second["diagnostics"]["spawns"] == 1
        assert again["diagnostics"]["spawns"] == 0
        assert len({row["pid"] for row in rows}) == 2

    def test_pool_caps_live_servers_with_lru_eviction(self):
        pool = SimProcessPool(max_live_servers=2)
        try:
            pool.run_task(make_task(slice_index=0))
            pool.run_task(make_task(slice_index=1))
            pool.run_task(make_task(slice_index=2))
            rows = {row["slot"]: row for row in pool.processes()}
            # Slot 0 was the least recently used idle server: evicted.
            assert not rows[0]["alive"]
            assert rows[1]["alive"] and rows[2]["alive"]
            # An evicted slot keeps its entry and respawns on next use.
            payload = pool.run_task(make_task(slice_index=0, epoch=1))
            rows = {row["slot"]: row for row in pool.processes()}
            assert rows[0]["alive"] and rows[0]["spawns"] == 2
            assert sum(1 for row in rows.values() if row["alive"]) <= 2
            assert payload["diagnostics"]["spawns"] == 1
        finally:
            pool.close()

    def test_pool_validation(self):
        with pytest.raises(ValueError, match="max_live_servers"):
            SimProcessPool(max_live_servers=0)

    def test_close_quits_the_servers(self):
        pool = SimProcessPool()
        pool.run_task(make_task())
        pids = [row["pid"] for row in pool.processes()]
        pool.close()
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            if all(not _pid_alive(pid) for pid in pids):
                break
            time.sleep(0.05)
        assert all(not _pid_alive(pid) for pid in pids)
        assert pool.processes() == []

    def test_run_shard_task_dispatches_to_the_default_pool(self, inproc_reference):
        close_default_pool()
        payload = run_shard_task(make_task())
        assert deterministic_payload(payload) == inproc_reference
        assert [row["slot"] for row in default_pool().processes()] == [0]
        close_default_pool()


def _pid_alive(pid):
    try:
        os.kill(pid, 0)
    except OSError:
        return False
    return True


class TestEngineIntegration:
    SHARDS = 2
    ITERATIONS = 8
    EPOCHS = 2
    ENTROPY = 77

    def run_campaign(self, executor, simulator, **overrides):
        return run_parallel_campaign(
            BOOM,
            shards=self.SHARDS,
            iterations=self.ITERATIONS,
            sync_epochs=self.EPOCHS,
            entropy=self.ENTROPY,
            executor=executor,
            simulator=simulator,
            **overrides,
        )

    def test_every_backend_matches_inproc(self):
        reference = self.run_campaign("inline", "inproc")
        wire = deterministic_wire(reference)
        for executor, overrides in (
            ("inline", {}),
            ("async", {"async_concurrency": 2}),
            ("process", {}),
        ):
            campaign = self.run_campaign(executor, "subprocess", **overrides)
            assert deterministic_wire(campaign) == wire, executor
            # One accounting row per executed slice-epoch task, all crash-free.
            assert len(campaign.task_log) == len(campaign.slice_summaries)
            assert all(row["restarts"] == 0 for row in campaign.task_log)
            assert campaign.summary()["simulator_processes"]["restarts"] == 0
        close_default_pool()

    def test_sigkilled_server_mid_campaign_is_byte_identical(self):
        reference = self.run_campaign("inline", "inproc")
        close_default_pool()  # fresh servers so the kill drill sees our pids

        killed = threading.Event()

        def assassin():
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline and not killed.is_set():
                rows = default_pool().processes()
                for row in rows:
                    if row["alive"]:
                        os.kill(row["pid"], signal.SIGKILL)
                        killed.set()
                        return
                time.sleep(0.01)

        thread = threading.Thread(target=assassin, daemon=True)
        thread.start()
        campaign = self.run_campaign("inline", "subprocess")
        thread.join(timeout=60)
        assert killed.is_set(), "the kill drill never saw a live server"
        assert deterministic_wire(campaign) == deterministic_wire(reference)
        # The kill almost always lands mid-task (restart-and-replay, counted
        # as a restart); in the unlikely window between tasks the recovery is
        # a plain respawn — either way an extra server process was started.
        assert (
            sum(row["restarts"] for row in campaign.task_log) >= 1
            or sum(row["spawns"] for row in campaign.task_log) > self.SHARDS
        )
        close_default_pool()

    def test_distributed_worker_runs_subprocess_simulator(self):
        reference = self.run_campaign("inline", "inproc")
        backend = DistributedBackend(listen="127.0.0.1:0", min_workers=1)
        try:
            thread = threading.Thread(
                target=run_worker,
                kwargs=dict(
                    connect=f"{backend.address[0]}:{backend.address[1]}",
                    capacity=2,
                    quiet=True,
                ),
                daemon=True,
            )
            thread.start()
            campaign = self.run_campaign("inline", "subprocess", backend=backend)
        finally:
            backend.close()
        assert deterministic_wire(campaign) == deterministic_wire(reference)
        # The worker ran the tasks, so sim accounting still reached the merge.
        assert len(campaign.task_log) == len(campaign.slice_summaries)
        close_default_pool()

    def test_configuration_rejects_unknown_simulator(self):
        with pytest.raises(ValueError, match="unknown simulator"):
            EngineConfiguration(
                fuzzer=FuzzerConfiguration(core=BOOM), simulator="verilator"
            )
