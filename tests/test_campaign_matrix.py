"""The campaign-equivalence matrix: the repo's one determinism oracle.

Every backend, simulator mode, profiling knob, telemetry sink and resume
at another shard count must give a byte-identical ``campaign_deterministic``
and the same per-core coverage points as one reference campaign: the inline
backend, the in-process simulator, with the fakes of ``reference_paths.py``
(fresh DUTs, full census, dark telemetry) applied.  The reference is
computed once per session.

The arms cover every value of every axis at least once; they are not the
full cross product.  Each arm runs its campaign once.  Besides the wire
comparison it keeps the checks specific to its path (reassignment after a
SIGKILLed worker, restart-and-replay after a SIGKILLed simulator server,
fabric metrics, profiles, the shard count a resume lands on) and the
one-stream invariant of slice-task diagnostics: the ``tasks`` rows read back
from the telemetry stream equal ``EngineResult.task_log``, one row per merged
slice task, and the analysis tables built on those rows agree with the
campaign's other accounting (slice summaries, the merged metric registry,
the coordinator).

The reference itself is pinned across commits: SHA-256 digests of its
``campaign_deterministic`` and of its per-core coverage points are committed
in ``tests/data/campaign_reference.json``, next to the same digests of the
one-epoch campaign of the same shape (``single_epoch``), whose slice loops no
sync epoch cuts.  Regenerate them (only for an intended change of campaign
results) with::

    PYTHONPATH=src python tests/test_campaign_matrix.py --regenerate
"""

import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import pytest

from repro.analysis import (
    profile_hotspot_table,
    simulator_process_table,
    window_batch_table,
    worker_utilization_table,
)
from repro.analysis.watch import TelemetryFollower
from repro.core.backends import ExecutionBackend, run_shard_task
from repro.core.distributed import DistributedBackend
from repro.core.engine import (
    EngineConfiguration,
    EngineResult,
    ParallelCampaignEngine,
    main as engine_main,
    resolve_core,
)
from repro.core.fuzzer import FuzzerConfiguration
from repro.core.worker import run_worker
from repro.sim.client import close_default_pool, default_pool

from reference_paths import dark_telemetry, reference_paths

CORES = ["boom", "xiangshan"]
SLICES = 4
EPOCHS = 2
ENTROPY = 9
CAMPAIGN = dict(cores=CORES, shards=2, slices=SLICES, iterations=8, sync_epochs=EPOCHS)
CLI_CAMPAIGN = [
    "--cores", ",".join(CORES), "--slices", str(SLICES), "--iterations", "8",
    "--epochs", str(EPOCHS), "--entropy", str(ENTROPY),
]
AUTH_TOKEN = "sesame"
REFERENCE_DIGESTS_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "data", "campaign_reference.json"
)
REPO_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)
BATCH_KEYS = (
    "window_batches", "batch_simulations", "max_batch",
    "dut_constructions", "dut_reuses",
)


def configuration(**overrides):
    settings = dict(CAMPAIGN, executor="inline")
    settings.update(overrides)
    return EngineConfiguration(
        fuzzer=FuzzerConfiguration(core=resolve_core(CORES[0]), entropy=ENTROPY),
        **settings,
    )


def run(backend=None, max_epochs=None, **overrides) -> EngineResult:
    return ParallelCampaignEngine(configuration(**overrides)).run(
        backend=backend, max_epochs=max_epochs
    )


def resume(checkpoint, backend=None, **overrides) -> EngineResult:
    engine = ParallelCampaignEngine.resume_from(
        checkpoint, configuration(checkpoint_path=checkpoint, **overrides)
    )
    return engine.run(backend=backend)


@dataclass
class Outcome:
    """What one arm's campaign left behind, engine result or CLI JSON alike."""

    campaign: Dict[str, object]  # campaign_deterministic
    points: Dict[str, List[Dict[str, object]]]  # per-core coverage points
    slice_summaries: List[Dict[str, object]]
    records: List[Dict[str, object]]  # telemetry, from the sink or the ring
    result: Optional[EngineResult] = None
    directory: str = ""
    epochs_run: int = EPOCHS  # epochs this run (not its checkpoint) merged
    facts: Dict[str, object] = field(default_factory=dict)

    def task_rows(self):
        return [row for record in self.records_of("tasks") for row in record["rows"]]

    def histograms(self):
        return self.records_of("campaign")[-1]["metrics"]["histograms"]

    def records_of(self, kind):
        return [record for record in self.records if record["type"] == kind]


def sink(directory):
    """Where an arm's telemetry sink writes: a subdirectory of its own."""
    return os.path.join(directory, "stream")


def streamed_records(directory):
    """Records of the telemetry sink under ``directory``, or None without one."""
    if not os.path.isdir(sink(directory)):
        return None
    follower = TelemetryFollower(sink(directory))
    follower.poll()
    assert not follower.errors
    return follower.records


def from_result(result, directory, **extra):
    records = streamed_records(directory)
    return Outcome(
        campaign=result.campaign.to_dict(include_timing=False),
        points={
            core: matrix.to_dicts()
            for core, matrix in sorted(result.core_coverage.items())
        },
        slice_summaries=result.slice_summaries,
        records=records if records is not None else result.telemetry.records(),
        result=result,
        directory=directory,
        **extra,
    )


def from_cli(argv, directory, **extra):
    """Run the engine CLI with a sink and a JSON dump; read both back."""
    path = os.path.join(directory, "result.json")
    assert engine_main(
        [*CLI_CAMPAIGN, *argv, "--telemetry-dir", sink(directory), "--json", path]
    ) == 0
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    return Outcome(
        campaign=payload["campaign_deterministic"],
        points=payload["coverage_points"],
        slice_summaries=payload["slice_summaries"],
        records=streamed_records(directory),
        directory=directory,
        **extra,
    )


def deterministic_wire(outcome):
    """The campaign wire form and per-core coverage points, canonically."""
    return json.dumps(
        {"campaign": outcome.campaign, "coverage_points": outcome.points},
        sort_keys=True,
    )


def address(backend):
    return f"{backend.address[0]}:{backend.address[1]}"


def start_worker(backend, **options):
    """One in-process worker daemon serving the coordinator ``backend``."""
    threading.Thread(
        target=run_worker,
        kwargs=dict(connect=address(backend), quiet=True, **options),
        daemon=True,
    ).start()


# -- the arms --------------------------------------------------------------------------------

ARMS = {}


def arm(name):
    def register(function):
        ARMS[name] = function
        return function

    return register


@arm("inline")
def inline_fast_path(matrix, directory):
    return from_result(run(), directory)


@arm("inline-sink")
def inline_with_a_sink(matrix, directory):
    return from_result(run(telemetry_dir=sink(directory)), directory)


@arm("inline-failing-sink")
def inline_with_a_failing_sink(matrix, directory):
    blocker = os.path.join(directory, "blocked")
    with open(blocker, "w", encoding="utf-8") as handle:
        handle.write("occupied")  # telemetry_dir is an existing *file*
    return from_result(run(telemetry_dir=blocker), directory)


@arm("process")
def process_pool(matrix, directory):
    return from_result(
        run(executor="process", telemetry_dir=sink(directory)),
        directory,
    )


@arm("distributed")
def distributed_with_a_killed_worker(matrix, directory):
    """Two authenticated workers; one daemon is SIGKILLed holding a task."""
    backend = DistributedBackend(listen="127.0.0.1:0", min_workers=2, auth_token=AUTH_TOKEN)
    start_worker(backend, auth_token=AUTH_TOKEN)
    victim = subprocess.Popen(
        [sys.executable, "-m", "repro.core.worker", "--connect", address(backend),
         "--retry", "30", "--quiet", "--auth-token", AUTH_TOKEN],
        env=dict(os.environ, PYTHONPATH=REPO_SRC),
    )
    killed = threading.Event()

    def kill_mid_epoch():
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            for row in backend.workers():
                if row["pid"] == victim.pid and row["inflight"] and row["alive"]:
                    os.kill(victim.pid, signal.SIGKILL)
                    killed.set()
                    return
            time.sleep(0.01)

    assassin = threading.Thread(target=kill_mid_epoch, daemon=True)
    assassin.start()
    try:
        # step_latency keeps each task slow enough that the kill reliably
        # lands while the victim's batch is still running.
        result = run(
            backend=backend, step_latency=0.01,
            telemetry_dir=sink(directory),
        )
        assassin.join(timeout=60)
    finally:
        backend.close()
        if victim.poll() is None:
            victim.kill()
        victim.wait(timeout=30)
    return from_result(
        result, directory,
        facts=dict(killed=killed.is_set(), reassigned=backend.reassigned_tasks),
    )


@arm("distributed-flaky-worker")
def distributed_worker_whose_backend_fails_once(matrix, directory):
    """The worker's local backend raises mid-batch: the daemon drops the
    connection (so the coordinator reassigns the batch), rebuilds its backend
    and reconnects within its retry budget."""
    fault = {"armed": True}

    class FlakyOnceBackend(ExecutionBackend):
        name = "flaky-once"

        def run_epoch(self, tasks):
            if fault["armed"]:
                fault["armed"] = False
                raise RuntimeError("injected mid-batch backend failure")
            return [run_shard_task(task) for task in tasks]

    backend = DistributedBackend(listen="127.0.0.1:0")
    try:
        start_worker(backend, retry_seconds=60.0, backend_factory=FlakyOnceBackend)
        result = run(backend=backend, telemetry_dir=sink(directory))
        workers = len(backend.workers())
    finally:
        backend.close()
    return from_result(
        result, directory,
        facts=dict(
            fired=not fault["armed"],
            reassigned=backend.reassigned_tasks,
            workers=workers,
        ),
    )


def subprocess_simulator(directory, backend=None, max_live_servers=None, **overrides):
    close_default_pool()  # fresh servers: one spawn per slice
    if max_live_servers is not None:
        default_pool().max_live_servers = max_live_servers
    try:
        result = run(
            backend=backend, simulator="subprocess",
            telemetry_dir=sink(directory), **overrides,
        )
    finally:
        close_default_pool()
    return from_result(result, directory)


@arm("subprocess-inline")
def subprocess_on_inline(matrix, directory):
    return subprocess_simulator(directory)


@arm("subprocess-process")
def subprocess_on_process(matrix, directory):
    return subprocess_simulator(directory, executor="process")


@arm("subprocess-process-capped")
def subprocess_on_two_threads_with_two_live_servers(matrix, directory):
    """Fewer threads and live servers than slices: evicted servers respawn."""
    return subprocess_simulator(
        directory, executor="process", max_workers=2, max_live_servers=2
    )


@arm("subprocess-distributed")
def subprocess_on_a_distributed_worker(matrix, directory):
    backend = DistributedBackend(listen="127.0.0.1:0")
    try:
        start_worker(backend, capacity=2)
        return subprocess_simulator(directory, backend=backend)
    finally:
        backend.close()


@arm("subprocess-killed-server")
def subprocess_with_a_killed_server(matrix, directory):
    killed = threading.Event()

    def assassin():
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            for row in default_pool().processes():
                if row["alive"]:
                    os.kill(row["pid"], signal.SIGKILL)
                    killed.set()
                    return
            time.sleep(0.01)

    close_default_pool()  # fresh servers so the kill drill sees our pids
    thread = threading.Thread(target=assassin, daemon=True)
    thread.start()
    outcome = subprocess_simulator(directory)
    thread.join(timeout=60)
    outcome.facts["killed"] = killed.is_set()
    return outcome


@arm("profile")
def inline_with_profiling(matrix, directory):
    return from_result(run(profile=5, telemetry_dir=sink(directory)), directory)


def resumed(matrix, directory, shards, **overrides):
    """Resume a copy of the inline checkpoint halted after epoch 1."""
    checkpoint = os.path.join(directory, "checkpoint.json")
    shutil.copy(matrix.halted_checkpoint(), checkpoint)
    result = resume(
        checkpoint, shards=shards,
        telemetry_dir=sink(directory), **overrides,
    )
    return from_result(result, directory, epochs_run=EPOCHS - 1)


@arm("resume-process-2x")
def resume_on_process_at_double_the_shards(matrix, directory):
    # The injected latency is paid on the pool's workers and changes nothing.
    return resumed(matrix, directory, 4, executor="process", step_latency=0.001)


@arm("subprocess-resume-process-2x")
def subprocess_resume_on_process_at_double_the_shards(matrix, directory):
    close_default_pool()
    try:
        return resumed(matrix, directory, 4, executor="process", simulator="subprocess")
    finally:
        close_default_pool()


@arm("resume-inline-half")
def resume_inline_at_half_the_shards(matrix, directory):
    return resumed(matrix, directory, 1)


@arm("distributed-resume")
def distributed_resume_on_a_larger_fleet(matrix, directory):
    """Halt on a one-worker fleet; resume at 2x shards on a two-worker fleet."""
    checkpoint = os.path.join(directory, "checkpoint.json")

    def fleet(workers):
        backend = DistributedBackend(listen="127.0.0.1:0", min_workers=workers)
        for _ in range(workers):
            start_worker(backend)
        return backend

    first = fleet(1)
    try:
        partial = run(backend=first, max_epochs=1, checkpoint_path=checkpoint)
    finally:
        first.close()
    assert not partial.complete
    second = fleet(2)
    try:
        result = resume(
            checkpoint, backend=second, shards=4,
            telemetry_dir=sink(directory),
        )
    finally:
        second.close()
    return from_result(result, directory, epochs_run=EPOCHS - 1)


@arm("cli")
def engine_cli(matrix, directory):
    return from_cli(["--shards", "2", "--backend", "inline"], directory)


@arm("cli-resume")
def engine_cli_halt_then_resume(matrix, directory):
    checkpoint = os.path.join(directory, "checkpoint.json")
    assert engine_main(
        [*CLI_CAMPAIGN, "--shards", "2", "--backend", "inline",
         "--checkpoint", checkpoint, "--halt-after", "1"]
    ) == 0
    return from_cli(
        ["--resume", checkpoint, "--checkpoint", checkpoint, "--shards", "8",
         "--backend", "process", "--profile", "5"],
        directory,
        epochs_run=EPOCHS - 1,
    )


CLI_ARMS = ["cli", "cli-resume"]
ENGINE_ARMS = [name for name in ARMS if name not in CLI_ARMS]
RESUMED_SHARDS = {
    "resume-process-2x": 4, "resume-inline-half": 1, "distributed-resume": 4,
    "subprocess-resume-process-2x": 4,
}


class Matrix:
    """Runs each arm on first use and keeps its outcome for the session."""

    def __init__(self, tmp_path_factory):
        self.tmp_path_factory = tmp_path_factory
        self.outcomes: Dict[str, Outcome] = {}
        self._checkpoint: Optional[str] = None

    def __getitem__(self, name) -> Outcome:
        if name not in self.outcomes:
            directory = str(self.tmp_path_factory.mktemp(name))
            self.outcomes[name] = ARMS[name](self, directory)
        return self.outcomes[name]

    def halted_checkpoint(self) -> str:
        """An inline campaign at 2 shards, checkpointed and halted after epoch 1."""
        if self._checkpoint is None:
            path = str(self.tmp_path_factory.mktemp("halted") / "checkpoint.json")
            partial = run(max_epochs=1, checkpoint_path=path)
            assert not partial.complete
            self._checkpoint = path
        return self._checkpoint


def reference_outcome(directory, **overrides):
    """The reference campaign: inline, with every reference-path fake applied."""
    with pytest.MonkeyPatch.context() as patch:
        reference_paths(patch)
        result = run(**overrides)
    return from_result(result, directory)


def reference_digests(outcome):
    """SHA-256 of the campaign wire form and of the per-core coverage points."""
    return {
        key: hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()
        for key, value in (
            ("campaign_deterministic", outcome.campaign),
            ("coverage_points", outcome.points),
        )
    }


def committed_digests():
    with open(REFERENCE_DIGESTS_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def regenerated_digests(directory):
    digests = reference_digests(reference_outcome(directory))
    digests["single_epoch"] = reference_digests(
        reference_outcome(directory, sync_epochs=1)
    )
    return digests


@pytest.fixture(scope="session")
def reference(tmp_path_factory):
    return reference_outcome(str(tmp_path_factory.mktemp("reference")))


@pytest.fixture(scope="session")
def matrix(tmp_path_factory):
    return Matrix(tmp_path_factory)


# -- the oracle ------------------------------------------------------------------------------


def test_reference_matches_the_committed_digests(reference):
    """The reference campaign is the one earlier commits produced."""
    committed = committed_digests()
    del committed["single_epoch"]
    assert reference_digests(reference) == committed


def test_single_epoch_reference_matches_the_committed_digests(tmp_path):
    """No sync epoch cuts a one-epoch campaign's slice loops, so carrying
    loop state across task boundaries must leave its results alone."""
    outcome = reference_outcome(str(tmp_path), sync_epochs=1)
    assert reference_digests(outcome) == committed_digests()["single_epoch"]


@pytest.mark.parametrize("name", ARMS)
def test_arm_is_byte_identical_to_the_reference(matrix, reference, name):
    assert deterministic_wire(matrix[name]) == deterministic_wire(reference)


@pytest.mark.parametrize("name", ENGINE_ARMS)
def test_merged_slice_state_matches_the_reference(matrix, reference, name):
    result, expected = matrix[name].result, reference.result
    assert set(result.core_coverage) == {"small-boom", "xiangshan-minimal"}
    assert result.slices == expected.slices == SLICES
    assert result.slice_points == expected.slice_points
    assert result.slice_cores == expected.slice_cores
    assert result.transfers == expected.transfers
    assert result.redistributed_seeds == expected.redistributed_seeds
    assert result.transferred_seeds == expected.transferred_seeds


# -- one stream of slice-task diagnostics ----------------------------------------------------


@pytest.mark.parametrize("name", ENGINE_ARMS)
def test_streamed_rows_equal_the_task_log(matrix, name):
    outcome = matrix[name]
    assert outcome.task_rows() == outcome.result.task_log


@pytest.mark.parametrize("name", ARMS)
def test_one_row_per_merged_slice_task(matrix, name):
    outcome = matrix[name]
    merged = outcome.slice_summaries[-SLICES * outcome.epochs_run:]
    assert [(row["slice"], row["epoch"]) for row in outcome.task_rows()] == [
        (row["slice"], row["epoch"]) for row in merged
    ]
    assert len(outcome.slice_summaries) == SLICES * EPOCHS


@pytest.mark.parametrize("name", ARMS)
def test_batch_table_matches_the_metric_registry(matrix, name):
    outcome = matrix[name]
    rows = window_batch_table(outcome.task_rows())
    assert [row["slice"] for row in rows] == list(range(SLICES))
    assert all(row["tasks"] == outcome.epochs_run for row in rows)
    # The merged histograms time each Phase-1 simulation and window batch
    # once, wherever the slice task ran.
    histograms = outcome.histograms()
    assert sum(row["batches"] for row in rows) == (
        histograms["runner/window_batch_seconds"]["count"]
    )
    assert sum(row["batch_simulations"] for row in rows) == (
        histograms["phase1/sim_seconds"]["count"]
    ) > 0


@pytest.mark.parametrize("name", [name for name in ARMS if name != "inline"])
def test_batch_counters_are_the_same_on_every_path(matrix, name):
    # Every arm runs each slice task's windows exactly as the inline arm does.
    outcome = matrix[name]

    def counters(rows):
        return {
            (row["slice"], row["epoch"]): [row[key] for key in BATCH_KEYS]
            for row in rows
        }

    expected = counters(matrix["inline"].task_rows())
    rows = counters(outcome.task_rows())
    assert rows == {key: expected[key] for key in rows}


# -- what each path adds ---------------------------------------------------------------------


def test_telemetry_reaches_the_ring_and_the_sink_and_survives_a_dead_sink(matrix):
    inline = matrix["inline"]
    assert inline.records_of("round") and inline.records_of("campaign")
    stream = sink(matrix["inline-sink"].directory)
    assert any(name.startswith("telemetry-") for name in os.listdir(stream))
    # The ring keeps working even when the sink is dead.
    assert matrix["inline-failing-sink"].result.telemetry.records("round")


def test_task_log_fills_with_telemetry_dark_and_a_failing_sink(matrix):
    def stripped(result):
        return [
            {key: value for key, value in row.items() if key != "wall_seconds"}
            for row in result.task_log
        ]

    # The reference is dark too, but its other fakes change the DUT and
    # simulation counters; this run differs from the inline arm only in
    # telemetry.
    with pytest.MonkeyPatch.context() as patch:
        dark_telemetry(patch)
        dark = run()
    assert len(dark.telemetry) == 0
    assert stripped(dark) == stripped(matrix["inline"].result)
    assert stripped(matrix["inline-failing-sink"].result) == stripped(matrix["inline"].result)
    assert len(dark.task_log) == SLICES * EPOCHS


@pytest.mark.parametrize(
    "name",
    [name for name in ENGINE_ARMS if not name.startswith(("distributed", "subprocess"))],
)
def test_in_process_arms_have_no_worker_or_process_rows(matrix, name):
    result = matrix[name].result
    assert worker_utilization_table(result.task_log) == []
    assert simulator_process_table(result.task_log) == []
    assert "simulator_processes" not in result.summary()


@pytest.mark.parametrize("name", ["distributed", "distributed-flaky-worker"])
def test_lost_work_is_reassigned_and_delivered_once(matrix, name):
    outcome = matrix[name]
    rows = worker_utilization_table(outcome.result.task_log)
    assert outcome.facts["reassigned"] >= 1
    assert sum(row["tasks"] for row in rows) == len(outcome.result.slice_summaries)
    assert sum(row["reassigned_tasks"] for row in rows) == outcome.facts["reassigned"]
    assert any(row["reassigned"] for row in outcome.result.task_log)


def test_killed_worker_run_reports_fabric_metrics(matrix):
    outcome = matrix["distributed"]
    assert outcome.facts["killed"], "the kill drill never saw the victim hold a task"
    # The run's share of the fabric metrics landed in the campaign record.
    metrics = outcome.records_of("campaign")[-1]["metrics"]
    assert metrics["counters"]["distributed/results_received"] >= len(outcome.result.task_log)
    assert "distributed/task_roundtrip_seconds" in metrics["histograms"]


def test_failed_worker_backend_reconnects(matrix):
    outcome = matrix["distributed-flaky-worker"]
    assert outcome.facts["fired"]
    # The dead incarnation and the reconnected one.
    assert outcome.facts["workers"] == 2


@pytest.mark.parametrize(
    "name",
    ["subprocess-inline", "subprocess-process", "subprocess-process-capped",
     "subprocess-distributed"],
)
def test_subprocess_simulator_runs_crash_free(matrix, name):
    result = matrix[name].result
    rows = simulator_process_table(result.task_log)
    assert [row["slice"] for row in rows] == list(range(SLICES))
    assert all(row["tasks"] == EPOCHS for row in rows)
    assert all(row["restarts"] == 0 and row["steps"] > 0 for row in rows)
    assert result.summary()["simulator_processes"]["restarts"] == 0


@pytest.mark.parametrize("name", ["subprocess-inline", "subprocess-process"])
def test_local_subprocess_simulator_spawns_one_server_per_slice(matrix, name):
    result = matrix[name].result
    rows = simulator_process_table(result.task_log)
    # One server per slice, reused across epochs by whichever thread runs
    # the slice, never restarted.
    assert [row["spawns"] for row in rows] == [1] * SLICES
    assert result.summary()["simulator_processes"] == {"spawns": SLICES, "restarts": 0}


def test_capped_pool_respawns_evicted_servers(matrix):
    result = matrix["subprocess-process-capped"].result
    rows = simulator_process_table(result.task_log)
    # Two live servers for four slices: every slice spawns at least once, and
    # the slices evicted in the first epoch respawn in the second.
    assert all(row["spawns"] >= 1 for row in rows)
    assert sum(row["spawns"] for row in rows) > SLICES
    assert result.summary()["simulator_processes"]["restarts"] == 0


def test_killed_simulator_server_is_restarted_and_replayed(matrix):
    outcome = matrix["subprocess-killed-server"]
    assert outcome.facts["killed"], "the kill drill never saw a live server"
    rows = simulator_process_table(outcome.result.task_log)
    # The kill almost always lands mid-task (restart-and-replay, counted as a
    # restart); in the unlikely window between tasks the recovery is a plain
    # respawn.  Either way an extra server process was started.
    assert (
        sum(row["restarts"] for row in rows) >= 1
        or sum(row["spawns"] for row in rows) > SLICES
    )


def test_profiled_rows_feed_the_hotspot_table(matrix):
    result = matrix["profile"].result
    assert all(0 < len(row["profile"]) <= 5 for row in result.task_log)
    rows = profile_hotspot_table(result.task_log, top=0)
    assert any("campaign_steps" in row["function"] for row in rows)
    for name in ("inline", "subprocess-inline", "distributed"):
        assert profile_hotspot_table(matrix[name].result.task_log) == []


@pytest.mark.parametrize("name", RESUMED_SHARDS)
def test_resume_finishes_at_its_new_shard_count(matrix, name):
    result = matrix[name].result
    assert result.complete
    assert result.shards == RESUMED_SHARDS[name]


def test_distributed_resume_ran_on_the_new_fleet(matrix):
    result = matrix["distributed-resume"].result
    assert result.task_log
    assert all("worker" in row for row in result.task_log)


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit(f"usage: {sys.argv[0]} --regenerate")
    with tempfile.TemporaryDirectory() as directory:
        digests = regenerated_digests(directory)
    with open(REFERENCE_DIGESTS_PATH, "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=1, sort_keys=True)
        handle.write("\n")
