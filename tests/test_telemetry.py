"""Tests for the live campaign telemetry pipeline.

The shared contract under test: telemetry is *pure observation* — the same
campaign run with telemetry on, off, or with a failing sink produces
byte-identical deterministic wire forms on every execution path (checked by
``test_campaign_matrix.py``) — and the metric primitives merge
deterministically in any join order, because worker payloads arrive in
whatever order the fleet finishes them.
"""

import json
import subprocess
import sys

import pytest

from repro.analysis import latency_percentiles, telemetry_table
from repro.analysis.watch import TelemetryFollower, validate_record
from repro.analysis.watch import main as watch_main
from repro.core.backends import ShardTask, run_shard_task
from repro.core.wire import shard_task_from_wire, shard_task_to_wire
from repro.core.engine import (
    EngineConfiguration,
    EngineResult,
    ParallelCampaignEngine,
    run_parallel_campaign,
)
from repro.core.fuzzer import FuzzerConfiguration
from repro.core.report import CampaignResult
from repro.sim.client import close_default_pool
from repro.telemetry import (
    HISTOGRAM_BOUNDS,
    CampaignTelemetry,
    LatencyHistogram,
    MetricsRegistry,
    NULL_REGISTRY,
    TelemetryRing,
    TelemetrySink,
    diff_snapshots,
)
from repro.uarch import small_boom_config

BOOM = small_boom_config()


def engine_wire(result):
    return json.dumps(result.campaign.to_dict(include_timing=False), sort_keys=True)


# -- metric primitives -----------------------------------------------------------------------


class TestLatencyHistogram:
    def test_records_land_in_log_scale_buckets(self):
        histogram = LatencyHistogram()
        histogram.record(0.001)
        histogram.record(0.5)
        histogram.record(10_000.0)  # beyond the last bound -> overflow bucket
        assert histogram.count == 3
        assert sum(histogram.counts) == 3
        assert histogram.counts[-1] == 1  # the overflow

    def test_merge_is_order_independent(self):
        # Three shards' histograms joined in every order produce identical
        # wire forms — the property the epoch merge relies on when worker
        # payloads arrive in completion order.
        samples = [
            [0.0001, 0.004, 0.03],
            [0.5, 0.0002],
            [2.5, 0.00001, 7.0, 0.9],
        ]
        shards = []
        for values in samples:
            histogram = LatencyHistogram()
            for value in values:
                histogram.record(value)
            shards.append(histogram)
        import itertools

        wires = set()
        for order in itertools.permutations(range(3)):
            merged = LatencyHistogram()
            for index in order:
                merged.merge(shards[index])
            wires.add(json.dumps(merged.to_dict(), sort_keys=True))
        assert len(wires) == 1
        merged = LatencyHistogram.from_dict(json.loads(wires.pop()))
        assert merged.count == sum(len(values) for values in samples)

    def test_wire_round_trip_is_sparse(self):
        histogram = LatencyHistogram()
        histogram.record(0.001)
        payload = histogram.to_dict()
        # Sparse form: only the one non-empty bucket is carried.
        assert len(payload["buckets"]) == 1
        decoded = LatencyHistogram.from_dict(payload)
        assert decoded.counts == histogram.counts
        assert decoded.total_us == histogram.total_us

    def test_merge_dict_tolerates_missing_buckets(self):
        histogram = LatencyHistogram()
        histogram.merge_dict({"count": 2, "total_us": 100, "buckets": [[0, 2]]})
        assert histogram.count == 2
        assert histogram.counts[0] == 2

    def test_percentile_returns_bucket_upper_bound(self):
        histogram = LatencyHistogram()
        for _ in range(100):
            histogram.record(0.001)
        p50 = histogram.percentile(50)
        assert p50 in HISTOGRAM_BOUNDS
        assert p50 >= 0.001
        assert histogram.percentile(99) == p50  # all mass in one bucket

    def test_mean_uses_integer_microseconds(self):
        histogram = LatencyHistogram()
        histogram.record(0.002)
        histogram.record(0.004)
        assert histogram.mean_seconds() == pytest.approx(0.003, abs=1e-6)


class TestMetricsRegistry:
    def test_scopes_prefix_names(self):
        registry = MetricsRegistry()
        registry.scope("phase1").counter("hits").add(3)
        registry.scope("cache").counter("misses").add()
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {
            "cache/misses": 1,
            "phase1/hits": 3,
        }

    def test_instruments_are_memoized(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.histogram("h") is registry.histogram("h")

    def test_disabled_registry_hands_out_null_instruments(self):
        registry = MetricsRegistry(enabled=False)
        counter = registry.counter("x")
        counter.add(5)
        histogram = registry.histogram("h")
        histogram.record(1.0)
        assert registry.snapshot() == {
            "counters": {},
            "histograms": {},
        }
        # The null instruments are shared singletons, and NULL_REGISTRY is
        # the canonical off switch.
        assert NULL_REGISTRY.counter("anything") is NULL_REGISTRY.counter("else")

    def test_snapshot_merge_in_any_order(self):
        def shard(values):
            registry = MetricsRegistry()
            registry.counter("sims").add(values[0])
            for value in values[1:]:
                registry.histogram("latency").record(value)
            return registry.snapshot()

        snapshots = [shard([3, 0.001]), shard([5, 0.5, 0.004]), shard([2])]
        import itertools

        wires = set()
        for order in itertools.permutations(range(3)):
            merged = MetricsRegistry()
            for index in order:
                merged.merge_snapshot(snapshots[index])
            wires.add(json.dumps(merged.snapshot(), sort_keys=True))
        assert len(wires) == 1
        final = json.loads(wires.pop())
        assert final["counters"]["sims"] == 10

    def test_diff_snapshots_attributes_a_run(self):
        registry = MetricsRegistry()
        registry.counter("tasks").add(4)
        registry.histogram("rt").record(0.1)
        before = registry.snapshot()
        registry.counter("tasks").add(3)
        registry.histogram("rt").record(0.2)
        delta = diff_snapshots(registry.snapshot(), before)
        assert delta["counters"] == {"tasks": 3}
        assert sum(count for _, count in delta["histograms"]["rt"]["buckets"]) == 1


# -- sinks -----------------------------------------------------------------------------------


class TestTelemetrySink:
    def test_rotation_creates_numbered_files(self, tmp_path):
        sink = TelemetrySink(str(tmp_path), max_bytes=120)
        for index in range(12):
            assert sink.emit({"type": "round", "epoch": index, "pad": "x" * 40})
        files = sink.files()
        assert len(files) > 1
        # Every line in every file parses; records are in emit order.
        epochs = []
        for file in files:
            with open(file, encoding="utf-8") as handle:
                for line in handle:
                    epochs.append(json.loads(line)["epoch"])
        assert epochs == list(range(12))

    def test_resumes_past_existing_files(self, tmp_path):
        first = TelemetrySink(str(tmp_path))
        first.emit({"type": "round", "epoch": 0})
        second = TelemetrySink(str(tmp_path))
        second.emit({"type": "round", "epoch": 1})
        assert len(second.files()) == 2  # appended a fresh file, kept history

    def test_sink_failure_is_contained(self, tmp_path, capsys):
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("occupied")
        sink = TelemetrySink(str(blocker))
        assert sink.failed
        assert not sink.emit({"type": "round"})
        assert sink.records_written == 0
        assert "campaign unaffected" in capsys.readouterr().err


class TestCampaignTelemetry:
    def test_ring_and_sink_receive_records(self, tmp_path):
        pipeline = CampaignTelemetry(directory=str(tmp_path))
        assert pipeline.emit({"type": "worker", "epoch": 0, "deliveries": []})
        assert len(pipeline.ring) == 1
        assert pipeline.sink.records_written == 1
        assert "ts" in pipeline.ring.records()[0]

    def test_disabled_pipeline_is_inert(self, tmp_path):
        pipeline = CampaignTelemetry(directory=str(tmp_path), enabled=False)
        assert not pipeline.emit({"type": "round"})
        assert len(pipeline.ring) == 0
        assert pipeline.sink is None  # no directory is even created for it

    def test_ring_is_bounded(self):
        ring = TelemetryRing(capacity=4)
        for index in range(10):
            ring.append({"type": "round", "epoch": index})
        assert len(ring) == 4
        assert ring.records()[0]["epoch"] == 6


# -- configuration and wire forms ------------------------------------------------------------


class TestConfiguration:
    def test_telemetry_knobs_stay_out_of_the_fingerprint(self, tmp_path):
        def configuration(**telemetry):
            return EngineConfiguration(
                fuzzer=FuzzerConfiguration(core=BOOM, entropy=3),
                iterations=4,
                **telemetry,
            )

        with_telemetry = ParallelCampaignEngine(
            configuration(telemetry_dir=str(tmp_path))
        )
        without = ParallelCampaignEngine(configuration(telemetry=False))
        assert (
            with_telemetry.scheduler.configuration_fingerprint()
            == without.scheduler.configuration_fingerprint()
        )

    def test_shard_task_wire_round_trip(self):
        task = ShardTask(
            slice_index=1,
            epoch=0,
            iterations=4,
            configuration=FuzzerConfiguration(core=BOOM, entropy=5),
            telemetry=False,
        )
        decoded = shard_task_from_wire(shard_task_to_wire(task))
        assert decoded.telemetry is False

    def test_missing_telemetry_wire_key_is_an_error(self):
        wire = shard_task_to_wire(
            ShardTask(
                slice_index=0,
                epoch=0,
                iterations=4,
                configuration=FuzzerConfiguration(core=BOOM, entropy=5),
            )
        )
        del wire["telemetry"]
        with pytest.raises(ValueError, match="lacks telemetry"):
            shard_task_from_wire(wire)


BATCH_COUNTERS = dict(
    window_batches=2,
    batch_simulations=8,
    max_batch=4,
    dut_constructions=2,
    dut_reuses=6,
)


class TestSummaryProcesses:
    def test_summary_counts_simulator_processes(self):
        result = EngineResult(
            campaign=CampaignResult(fuzzer_name="DejaVuzz", core="boom"),
            core_coverage={},
            shards=1,
            epochs=1,
        )
        process = dict(steps=5, step_seconds_total=0.5, mean_step_seconds=0.1)
        result.task_log = [
            # Subprocess-simulator rows carry the process counters.
            {"slice": 0, "epoch": 0, **BATCH_COUNTERS, "spawns": 2, "restarts": 1, **process},
            {"slice": 1, "epoch": 0, **BATCH_COUNTERS, "spawns": 1, "restarts": 0, **process},
            # A row simulated in-process is not a process row.
            {"slice": 2, "epoch": 0, **BATCH_COUNTERS},
        ]
        processes = result.summary()["simulator_processes"]
        assert processes == {"spawns": 3, "restarts": 1}

    def test_batch_only_runs_report_no_process_summary(self):
        result = EngineResult(
            campaign=CampaignResult(fuzzer_name="DejaVuzz", core="boom"),
            core_coverage={},
            shards=1,
            epochs=1,
        )
        result.task_log = [{"slice": 0, "epoch": 0, **BATCH_COUNTERS}]
        assert "simulator_processes" not in result.summary()


# -- one shard task through the subprocess simulator -----------------------------------------


class TestTelemetryIsPureObservation:
    def test_subprocess_simulator_matches_inproc(self):
        def task(simulator, telemetry):
            return ShardTask(
                slice_index=0,
                epoch=0,
                iterations=6,
                configuration=FuzzerConfiguration(
                    core=BOOM, entropy=6, seed_id_base=10
                ),
                simulator=simulator,
                telemetry=telemetry,
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

        reference = run_shard_task(task("inproc", False))
        assert "metrics" not in reference  # telemetry off: no snapshot rides
        try:
            subprocess_payload = run_shard_task(task("subprocess", True))
        finally:
            # Don't leak a warm server into other tests' spawn accounting.
            close_default_pool()
        assert deterministic_payload(subprocess_payload) == deterministic_payload(
            reference
        )
        metrics = subprocess_payload["metrics"]
        assert metrics["counters"]["phase1/batch_simulations"] > 0
        assert "runner/window_batch_seconds" in metrics["histograms"]
        # The client merged its process counters into the diagnostics.
        diagnostics = subprocess_payload["diagnostics"]
        assert diagnostics["window_batches"] > 0
        assert diagnostics["request_latency"]["count"] > 0


# -- engine integration ----------------------------------------------------------------------


class TestEngineTelemetry:
    def test_round_records_track_the_merged_state(self):
        result = run_parallel_campaign(
            BOOM,
            executor="inline",
            shards=2,
            slices=2,
            iterations=12,
            sync_epochs=3,
            entropy=9,
        )
        rounds = result.telemetry.records("round")
        assert len(rounds) == 3
        assert [record["epoch"] for record in rounds] == [0, 1, 2]
        final = rounds[-1]
        assert final["coverage_total"] == result.total_coverage()
        assert final["iterations_done"] == result.campaign.iterations_run == 12
        assert final["reports"] == len(result.campaign.reports)
        assert final["rounds_total"] == 3
        assert len(final["slices"]) == 2  # one row per merged slice task
        campaign = result.telemetry.records("campaign")[-1]
        assert campaign["complete"] is True
        assert campaign["coverage_total"] == result.total_coverage()
        # The merged per-task metrics accumulated across all epochs.
        metrics = result.telemetry.records("metrics")[-1]
        assert metrics["counters"]["phase1/batch_simulations"] > 0
        assert metrics["histograms"]["phase1/sim_seconds"]["count"] > 0

    def test_resume_appends_to_a_fresh_sink_file(self, tmp_path):
        def configuration(checkpoint):
            return EngineConfiguration(
                fuzzer=FuzzerConfiguration(core=BOOM, entropy=6),
                shards=2,
                slices=2,
                iterations=12,
                sync_epochs=3,
                executor="inline",
                checkpoint_path=checkpoint,
                telemetry_dir=str(tmp_path / "stream"),
            )

        checkpoint = str(tmp_path / "state.json")
        uninterrupted = ParallelCampaignEngine(
            EngineConfiguration(
                fuzzer=FuzzerConfiguration(core=BOOM, entropy=6),
                shards=2,
                slices=2,
                iterations=12,
                sync_epochs=3,
                executor="inline",
            )
        ).run()
        halted = ParallelCampaignEngine(configuration(checkpoint)).run(max_epochs=1)
        assert not halted.complete
        resumed = ParallelCampaignEngine.resume_from(
            checkpoint, configuration(checkpoint)
        ).run()
        assert engine_wire(resumed) == engine_wire(uninterrupted)
        files = sorted((tmp_path / "stream").glob("telemetry-*.jsonl"))
        assert len(files) == 2  # the resume opened its own numbered file
        # The stream's final coverage matches the resumed result.
        follower = TelemetryFollower(str(tmp_path / "stream"))
        follower.poll()
        assert not follower.errors
        summary = telemetry_table(follower.records)
        assert summary["coverage_total"] == resumed.total_coverage()


# -- analysis helpers and the watch CLI ------------------------------------------------------


class TestAnalysisHelpers:
    def test_telemetry_table_summarizes_a_stream(self):
        records = [
            {
                "type": "round",
                "ts": 100.0,
                "epoch": 0,
                "rounds_total": 2,
                "iterations_done": 6,
                "coverage": {"boom": 4},
                "coverage_gain": {"boom": 4},
                "coverage_total": 4,
                "corpus_size": 3,
                "corpus_evictions": 0,
                "redistributed": 0,
                "transferred": 0,
                "reports": 1,
                "slices": [],
            },
            {
                "type": "round",
                "ts": 102.0,
                "epoch": 1,
                "rounds_total": 2,
                "iterations_done": 12,
                "coverage": {"boom": 7},
                "coverage_gain": {"boom": 3},
                "coverage_total": 7,
                "corpus_size": 5,
                "corpus_evictions": 0,
                "redistributed": 1,
                "transferred": 0,
                "reports": 2,
                "slices": [],
            },
            {
                "type": "tasks",
                "ts": 102.0,
                "epoch": 1,
                "rows": [
                    {"slice": 0, "epoch": 1, "wall_seconds": 0.5, "worker": "w1"},
                    {"slice": 1, "epoch": 1, "wall_seconds": 0.4, "worker": "w1"},
                    {"slice": 2, "epoch": 1, "wall_seconds": 0.3},
                ],
            },
        ]
        summary = telemetry_table(records)
        assert summary["rounds"] == 2
        assert summary["coverage_total"] == 7
        assert summary["iterations_per_second"] == 3.0  # 6 iters over 2s
        assert summary["workers"][0]["tasks"] == 2
        assert summary["campaign"] is None

    def test_latency_percentiles_accepts_wire_form(self):
        histogram = LatencyHistogram()
        for _ in range(10):
            histogram.record(0.01)
        stats = latency_percentiles(histogram.to_dict())
        assert stats["count"] == 10
        assert stats["p50_seconds"] >= 0.01
        assert stats == latency_percentiles(histogram)

    def test_validate_record_flags_missing_fields(self):
        assert validate_record({"type": "nonsense"}) is not None
        assert validate_record({"type": "round", "ts": 1.0}) is not None
        assert (
            validate_record(
                {
                    "type": "tasks",
                    "ts": 1.0,
                    "epoch": 0,
                    "rows": [],
                }
            )
            is None
        )
        assert validate_record({"type": "tasks", "ts": 1.0, "epoch": 0}) is not None


class TestWatchCli:
    def _stream(self, tmp_path):
        directory = tmp_path / "stream"
        run_parallel_campaign(
            BOOM,
            executor="inline",
            shards=1,
            slices=2,
            iterations=8,
            sync_epochs=2,
            entropy=9,
            telemetry_dir=str(directory),
        )
        return directory

    def test_once_succeeds_on_a_real_stream(self, tmp_path, capsys):
        directory = self._stream(tmp_path)
        out = tmp_path / "summary.json"
        assert watch_main([str(directory), "--once", "--json", str(out)]) == 0
        assert "coverage" in capsys.readouterr().out
        summary = json.loads(out.read_text())
        assert summary["campaign"]["complete"] is True

    def test_once_fails_on_malformed_records(self, tmp_path, capsys):
        directory = self._stream(tmp_path)
        bad = directory / "telemetry-99999.jsonl"
        bad.write_text('{"type": "round", "epoch": 0}\nnot json at all\n')
        assert watch_main([str(directory), "--once"]) == 1
        err = capsys.readouterr().err
        assert "missing field" in err
        assert "unparseable" in err

    def test_once_fails_on_an_empty_directory(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert watch_main([str(empty), "--once"]) == 1
        assert "no telemetry records" in capsys.readouterr().err

    def test_missing_path_is_a_usage_error(self, capsys):
        assert watch_main(["/definitely/not/there", "--once"]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_follower_leaves_partial_lines_for_the_next_poll(self, tmp_path):
        file = tmp_path / "telemetry-00001.jsonl"
        complete = json.dumps(
            {
                "type": "tasks",
                "ts": 1.0,
                "epoch": 0,
                "rows": [],
            }
        )
        file.write_bytes((complete + "\n").encode() + b'{"type": "tas')
        follower = TelemetryFollower(str(tmp_path))
        assert len(follower.poll()) == 1  # the torn tail is not consumed
        with open(file, "ab") as handle:
            handle.write(b'ks", "ts": 2.0, "epoch": 1, "rows": []}\n')
        assert len(follower.poll()) == 1  # ... and completes next poll
        assert not follower.errors

    @pytest.mark.parametrize(
        "line",
        [b"\xff\xfe{}", b"not json at all", b"[1, 2]", b""],
        ids=["non-utf8", "non-json", "not-an-object", "blank"],
    )
    def test_follower_counts_a_malformed_line(self, tmp_path, line):
        record = {"type": "tasks", "ts": 1.0, "epoch": 0, "rows": []}
        file = tmp_path / "telemetry-00001.jsonl"
        file.write_bytes(line + b"\n" + (json.dumps(record) + "\n").encode())
        follower = TelemetryFollower(str(tmp_path))
        assert follower.poll() == [record]
        assert len(follower.errors) == 1 and "malformed record" in follower.errors[0]

    def test_follower_skips_a_line_longer_than_a_frame(self, tmp_path, monkeypatch):
        cap = 64
        monkeypatch.setattr("repro.analysis.watch.MAX_FRAME_BYTES", cap)
        record = {"type": "tasks", "ts": 1.0, "epoch": 0, "rows": []}
        oversized = b'{"type": "tasks", "pad": "' + b"x" * (3 * cap) + b'"}\n'
        file = tmp_path / "telemetry-00001.jsonl"
        file.write_bytes(oversized + (json.dumps(record) + "\n").encode())
        follower = TelemetryFollower(str(tmp_path))
        # One bounded read sees only the start of the long line.
        assert follower.poll() == []
        assert len(follower.errors) == 1 and "longer than 64 bytes" in follower.errors[0]
        follower.poll_to_end()
        assert follower.records == [record]
        assert len(follower.errors) == 1

    def test_cli_module_entry_point(self, tmp_path):
        directory = self._stream(tmp_path)
        process = subprocess.run(
            [sys.executable, "-m", "repro.analysis.watch", str(directory), "--once"],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": "src"},
        )
        assert process.returncode == 0, process.stderr
        assert "campaign telemetry" in process.stdout
