"""Tests for the out-of-process simulator fabric: the fault-tolerant
SubprocessSimulator client (SIGKILL / crash / hang recovery via
restart-and-replay) and the per-shard process pool, at the level of one
shard task.  Campaign byte-identity between the in-process and subprocess
simulators on every backend is checked by ``test_campaign_matrix.py``."""

import os
import signal
import sys
import time

import pytest

from repro.core import FuzzerConfiguration, ShardTask
from repro.core.backends import ShardCampaignRunner, run_shard_task
from repro.core.engine import EngineConfiguration
from repro.core.report import CampaignResult
from repro.sim.client import (
    SimProcessPool,
    SimProtocolError,
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

    def test_sigkill_between_tasks_respawns_and_replays(self, inproc_reference):
        simulator = SubprocessSimulator()
        try:
            first = simulator.run_task(make_task())
            os.kill(simulator.pid, signal.SIGKILL)
            second = simulator.run_task(make_task())
        finally:
            simulator.close()
        assert deterministic_payload(first) == inproc_reference
        assert deterministic_payload(second) == inproc_reference
        assert second["diagnostics"]["spawns"] == 1
        assert simulator.lifetime_spawns == 2

    @pytest.mark.parametrize("edge", ["first-step", "finishing-step", "mid-task"])
    def test_crashing_server_restarts_and_replays(self, inproc_reference, edge):
        # A task of N steps takes N + 1 STEP requests: the last one finishes
        # the workload.  The first server dies when one of them arrives.
        steps = step_count(make_task(simulator="inproc"))
        crash_after = {"first-step": 0, "finishing-step": steps, "mid-task": 2}[edge]

        def factory(spawn_index):
            command = default_server_command()
            if spawn_index == 0:
                return command + ["--crash-after", str(crash_after)]
            return command

        simulator = SubprocessSimulator(command_factory=factory)
        try:
            payload = simulator.run_task(make_task())
        finally:
            simulator.close()
        assert deterministic_payload(payload) == inproc_reference
        assert payload["diagnostics"]["restarts"] == 1
        assert payload["diagnostics"]["spawns"] == 2

    def test_hung_server_is_killed_and_replayed(self, inproc_reference):
        def factory(spawn_index):
            command = default_server_command()
            if spawn_index == 0:
                return command + ["--hang-after", "1"]
            return command

        simulator = SubprocessSimulator(command_factory=factory, request_timeout=3.0)
        try:
            payload = simulator.run_task(make_task())
        finally:
            simulator.close()
        assert deterministic_payload(payload) == inproc_reference
        assert payload["diagnostics"]["restarts"] == 1

    def test_replay_divergence_is_refused(self):
        # The replacement server digests every state to one constant, so its
        # recovery LOAD cannot match the digest the first server sent.
        diverging = (
            "import sys, repro.sim.server as server; "
            "server.state_digest = lambda runner: 'diverged'; "
            "sys.exit(server.main([]))"
        )

        def factory(spawn_index):
            if spawn_index == 0:
                return default_server_command() + ["--crash-after", "2"]
            return [sys.executable, "-c", diverging]

        simulator = SubprocessSimulator(command_factory=factory)
        try:
            with pytest.raises(SimProtocolError, match="digest mismatch after LOAD at step 2"):
                simulator.run_task(make_task())
            assert simulator.lifetime_spawns == 2
            assert not simulator.alive
            assert not simulator.busy
        finally:
            simulator.close()

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

    def test_an_acquired_server_is_not_evicted_before_its_task_runs(self):
        # Threads share one pool: the slot one thread acquired must survive
        # another thread's acquisition until its task has run.
        pool = SimProcessPool(max_live_servers=1)
        try:
            pool.run_task(make_task(slice_index=0, iterations=1))
            held = pool.simulator(0)
            pool.simulator(1)
            assert held.alive
            payload = held.run_task(make_task(slice_index=0, epoch=1, iterations=1))
            assert payload["diagnostics"]["spawns"] == 0
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


def step_count(task):
    """How many simulator boundaries ``task`` passes before it finishes."""
    runner = ShardCampaignRunner(task)
    while runner.advance() is not None:
        pass
    return runner.steps_taken


def _pid_alive(pid):
    try:
        os.kill(pid, 0)
    except OSError:
        return False
    return True


class TestEngineIntegration:
    def test_configuration_rejects_unknown_simulator(self):
        with pytest.raises(ValueError, match="unknown simulator"):
            EngineConfiguration(
                fuzzer=FuzzerConfiguration(core=BOOM), simulator="verilator"
            )
