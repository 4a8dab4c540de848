"""The one-stream invariant of slice-task diagnostics.

Every execution path reports one diagnostics row per merged slice task in
``EngineResult.task_log``, and streams the same rows as ``tasks`` telemetry
records.  Runs one small fixed campaign per path (inline, process, async,
distributed with a worker killed mid-epoch, subprocess simulator, and
profiling) and checks that the streamed rows read back from the JSONL sink
equal the task log, and that every analysis table built on those rows
reports the counts the campaign's other accounting (slice summaries, the
merged metric registry, the coordinator) agrees with.
"""

import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.analysis import (
    profile_hotspot_table,
    simulator_process_table,
    window_batch_table,
    worker_utilization_table,
)
from repro.analysis.watch import TelemetryFollower
from repro.core import run_parallel_campaign
from repro.core.distributed import DistributedBackend
from repro.core.engine import EngineConfiguration, ParallelCampaignEngine
from repro.core.fuzzer import FuzzerConfiguration
from repro.core.worker import run_worker
from repro.sim.client import close_default_pool
from repro.uarch import small_boom_config

BOOM = small_boom_config()
SLICES = 4
CAMPAIGN = dict(shards=2, slices=SLICES, iterations=8, sync_epochs=2, entropy=9)
REPO_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)
PATHS = ("inline", "process", "async", "distributed", "subprocess", "profile")


def run_killed_distributed(telemetry_dir):
    """A two-worker fleet; one daemon is SIGKILLed while it holds a task."""
    backend = DistributedBackend(listen="127.0.0.1:0", min_workers=2)
    address = f"{backend.address[0]}:{backend.address[1]}"
    threading.Thread(
        target=run_worker, kwargs=dict(connect=address, quiet=True), daemon=True
    ).start()
    victim = subprocess.Popen(
        [sys.executable, "-m", "repro.core.worker", "--connect", address,
         "--retry", "30", "--quiet"],
        env=dict(os.environ, PYTHONPATH=REPO_SRC),
    )

    def kill_mid_epoch():
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            for row in backend.workers():
                if row["pid"] == victim.pid and row["inflight"] and row["alive"]:
                    os.kill(victim.pid, signal.SIGKILL)
                    return
            time.sleep(0.01)

    assassin = threading.Thread(target=kill_mid_epoch, daemon=True)
    assassin.start()
    try:
        result = run_parallel_campaign(
            BOOM, executor="inline", backend=backend, step_latency=0.01,
            telemetry_dir=telemetry_dir, **CAMPAIGN,
        )
        assassin.join(timeout=60)
    finally:
        backend.close()
        if victim.poll() is None:
            victim.kill()
        victim.wait(timeout=30)
    return result, backend.reassigned_tasks


def run_path(path, telemetry_dir):
    if path == "distributed":
        return run_killed_distributed(telemetry_dir)
    if path == "profile":
        configuration = EngineConfiguration(
            fuzzer=FuzzerConfiguration(core=BOOM, entropy=CAMPAIGN["entropy"]),
            shards=CAMPAIGN["shards"],
            slices=SLICES,
            iterations=CAMPAIGN["iterations"],
            sync_epochs=CAMPAIGN["sync_epochs"],
            executor="inline",
            profile=5,
            telemetry_dir=telemetry_dir,
        )
        return ParallelCampaignEngine(configuration).run(), 0
    if path == "subprocess":
        close_default_pool()  # fresh servers: one spawn per slice
        try:
            return run_parallel_campaign(
                BOOM, executor="inline", simulator="subprocess",
                telemetry_dir=telemetry_dir, **CAMPAIGN,
            ), 0
        finally:
            close_default_pool()
    return run_parallel_campaign(
        BOOM, executor=path, telemetry_dir=telemetry_dir, **CAMPAIGN
    ), 0


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """path -> (result, streamed task rows, coordinator reassignments)."""
    outcomes = {}
    for path in PATHS:
        directory = str(tmp_path_factory.mktemp(path))
        result, reassigned = run_path(path, directory)
        follower = TelemetryFollower(directory)
        follower.poll()
        assert not follower.errors
        streamed = [
            row
            for record in follower.records
            if record["type"] == "tasks"
            for row in record["rows"]
        ]
        outcomes[path] = (result, streamed, reassigned)
    return outcomes


def counter(result, name):
    return result.telemetry.records("campaign")[-1]["metrics"]["counters"][name]


@pytest.mark.parametrize("path", PATHS)
class TestOneStream:
    def test_streamed_rows_equal_the_task_log(self, runs, path):
        result, streamed, _ = runs[path]
        assert streamed == result.task_log

    def test_one_row_per_merged_slice_task(self, runs, path):
        result, _, _ = runs[path]
        assert [(row["slice"], row["epoch"]) for row in result.task_log] == [
            (row["slice"], row["epoch"]) for row in result.slice_summaries
        ]
        assert len(result.task_log) == SLICES * CAMPAIGN["sync_epochs"]

    def test_batch_table_matches_the_metric_registry(self, runs, path):
        result, _, _ = runs[path]
        rows = window_batch_table(result.task_log)
        assert [row["slice"] for row in rows] == list(range(SLICES))
        assert all(row["tasks"] == CAMPAIGN["sync_epochs"] for row in rows)

        def total(key):
            return sum(row[key] for row in rows)

        assert total("batches") == counter(result, "phase1/window_batches") > 0
        assert total("batch_simulations") == counter(result, "phase1/batch_simulations")
        assert total("speculated") == counter(result, "phase1/speculated")
        assert total("dut_reuses") == counter(result, "phase1/dut_reuses")
        assert total("lookahead_hits") == counter(result, "fuzzer/lookahead_hits")

    def test_batch_table_is_the_same_on_every_path(self, runs, path):
        reference, _, _ = runs["inline"]
        result, _, _ = runs[path]
        assert window_batch_table(result.task_log) == window_batch_table(
            reference.task_log
        )


class TestPathSpecificTables:
    def test_in_process_paths_have_no_worker_or_process_rows(self, runs):
        for path in ("inline", "process", "async", "profile"):
            result, _, _ = runs[path]
            assert worker_utilization_table(result.task_log) == []
            assert simulator_process_table(result.task_log) == []
            assert "simulator_processes" not in result.summary()

    def test_distributed_rows_count_every_delivery_once(self, runs):
        result, _, reassigned = runs["distributed"]
        rows = worker_utilization_table(result.task_log)
        assert sum(row["tasks"] for row in rows) == len(result.slice_summaries)
        # The killed worker's task was reassigned and delivered once.
        assert reassigned >= 1
        assert sum(row["reassigned_tasks"] for row in rows) == reassigned

    def test_subprocess_rows_carry_the_process_counters(self, runs):
        result, _, _ = runs["subprocess"]
        rows = simulator_process_table(result.task_log)
        assert [row["slice"] for row in rows] == list(range(SLICES))
        assert all(row["tasks"] == CAMPAIGN["sync_epochs"] for row in rows)
        # One server per slice, reused across epochs, never restarted.
        assert [row["spawns"] for row in rows] == [1] * SLICES
        assert all(row["restarts"] == 0 and row["steps"] > 0 for row in rows)
        assert result.summary()["simulator_processes"] == {
            "spawns": SLICES,
            "restarts": 0,
        }

    def test_profiled_rows_feed_the_hotspot_table(self, runs):
        result, _, _ = runs["profile"]
        assert all(0 < len(row["profile"]) <= 5 for row in result.task_log)
        functions = {row["function"] for row in profile_hotspot_table(result.task_log, top=0)}
        assert any("campaign_steps" in name for name in functions)
        for path in ("inline", "subprocess", "distributed"):
            other, _, _ = runs[path]
            assert profile_hotspot_table(other.task_log) == []


def test_task_log_fills_with_telemetry_off_and_a_failing_sink(tmp_path):
    def stripped(result):
        return [
            {key: value for key, value in row.items() if key != "wall_seconds"}
            for row in result.task_log
        ]

    reference = run_parallel_campaign(BOOM, executor="inline", **CAMPAIGN)
    off = run_parallel_campaign(
        BOOM, executor="inline", telemetry=False, **CAMPAIGN
    )
    blocker = tmp_path / "blocked"
    blocker.write_text("occupied")  # telemetry_dir is an existing *file*
    failing = run_parallel_campaign(
        BOOM, executor="inline", telemetry_dir=str(blocker), **CAMPAIGN
    )
    assert len(off.telemetry) == 0
    assert stripped(off) == stripped(reference) == stripped(failing)
    assert len(reference.task_log) == SLICES * CAMPAIGN["sync_epochs"]
