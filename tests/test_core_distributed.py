"""Tests for the distributed campaign fabric: wire forms, the JSON-lines
frame protocol, the coordinator/worker loop, duplicate-result handling,
authentication and protocol errors.  Campaign byte-identity across a fleet
(a worker SIGKILLed mid-epoch, resume on a larger fleet) is checked by
``test_campaign_matrix.py``."""

import dataclasses
import io
import json
import re
import socket
import threading
import time

import pytest

from repro.core import FuzzerConfiguration, ShardTask, run_parallel_campaign
from repro.core.backends import run_shard_task
from repro.core.distributed import DistributedBackend, parse_address, send_frame
from repro.core.fuzzer import LoopState
from repro.core.wire import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    core_config_from_wire,
    core_config_to_wire,
    fuzzer_configuration_from_wire,
    fuzzer_configuration_to_wire,
    read_frame,
    shard_task_from_wire,
    shard_task_to_wire,
)
from repro.core.worker import LOCAL_BACKEND_NAMES, main as worker_main, run_worker
from repro.sim.server import serve
from repro.generation.seeds import Seed
from repro.generation.training import TrainingMode
from repro.generation.window_types import TransientWindowType
from repro.uarch import small_boom_config, xiangshan_minimal_config

BOOM = small_boom_config()
XIANGSHAN = xiangshan_minimal_config()


def make_task(**overrides):
    defaults = dict(
        slice_index=0,
        epoch=0,
        iterations=3,
        configuration=FuzzerConfiguration(core=BOOM, entropy=31, seed_id_base=10),
    )
    defaults.update(overrides)
    return ShardTask(**defaults)


def held_window_state():
    """A loop state that holds a window on BOOM."""
    seed = Seed.fresh(
        seed_id=5, entropy=1, window_type=TransientWindowType.LOAD_PAGE_FAULT,
        core=BOOM.name,
    )
    return LoopState(
        seed, window_seed=seed, kept_training=(0, 2), window_mutations=1,
        consecutive_low_gain=1,
    )


def held_window(**overrides):
    """The wire form of :func:`held_window_state`, with ``overrides``."""
    state = held_window_state().to_dict()
    state.update(overrides)
    return state


class TestWireForms:
    def test_core_config_round_trip(self):
        for core in (BOOM, XIANGSHAN):
            wire = core_config_to_wire(core)
            json.dumps(wire)  # must be JSON-safe
            assert core_config_from_wire(wire) == core

    def test_fuzzer_configuration_round_trip(self):
        configuration = FuzzerConfiguration(
            core=XIANGSHAN,
            entropy=77,
            training_mode=TrainingMode.RANDOM,
            coverage_feedback=False,
            low_gain_limit=9,
            seed_id_base=123,
        )
        wire = fuzzer_configuration_to_wire(configuration)
        json.dumps(wire)
        assert fuzzer_configuration_from_wire(wire) == configuration

    def test_every_fuzzer_configuration_field_crosses_the_wire(self):
        # One non-default value per field: a field added without a wire key
        # (or a wire key left behind by a removed field) fails here.
        overrides = dict(
            core=XIANGSHAN,
            entropy=77,
            training_mode=TrainingMode.RANDOM,
            coverage_feedback=False,
            low_gain_limit=9,
            seed_id_base=123,
        )
        names = [spec.name for spec in dataclasses.fields(FuzzerConfiguration)]
        assert sorted(overrides) == sorted(names)
        configuration = FuzzerConfiguration(**overrides)
        defaults = FuzzerConfiguration(core=BOOM)
        for name in names:
            assert getattr(configuration, name) != getattr(defaults, name), name
        wire = json.loads(json.dumps(fuzzer_configuration_to_wire(configuration)))
        assert sorted(wire) == sorted(names)
        assert fuzzer_configuration_from_wire(wire) == configuration

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda wire: wire.update(bogus=1), "unknown bogus"),
            (lambda wire: wire.pop("core"), "lacks core"),
            (lambda wire: wire["core"].pop("rob_entries"), "lacks rob_entries"),
            (lambda wire: wire["core"]["dcache"].update(ways2=1), "unknown ways2"),
            (lambda wire: wire.update(core=[]), "not an object"),
            # A protocol-2 peer still sends the removed lookahead knob.
            (lambda wire: wire.update(window_lookahead=4), "unknown window_lookahead"),
            # A protocol-4 peer still sends the memory layout and the cycle cap.
            (lambda wire: wire.update(layout={}), "unknown layout"),
            (
                lambda wire: wire.update(max_cycles_per_packet=600),
                "unknown max_cycles_per_packet",
            ),
        ],
    )
    def test_malformed_configuration_wire_is_a_value_error(self, corrupt, message):
        wire = fuzzer_configuration_to_wire(FuzzerConfiguration(core=BOOM))
        corrupt(wire)
        with pytest.raises(ValueError, match=message):
            fuzzer_configuration_from_wire(wire)

    def test_shard_task_round_trip(self):
        task = make_task(
            loop_state=held_window_state(),
            baseline_points=[{"module": "dcache", "tainted_count": 2}],
            step_latency=0.25,
        )
        wire = shard_task_to_wire(task)
        rebuilt = shard_task_from_wire(json.loads(json.dumps(wire)))
        assert rebuilt == task

    def test_every_shard_task_key_is_required(self):
        wire = shard_task_to_wire(make_task())
        for key in list(wire):
            partial = dict(wire)
            del partial[key]
            with pytest.raises(ValueError, match=f"lacks {key}"):
                shard_task_from_wire(partial)

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda wire: wire.update(simulator=None), "simulator must be str, got NoneType"),
            (lambda wire: wire.update(iterations=2.9), "iterations must be int, got float"),
            (
                lambda wire: wire["configuration"].update(entropy="7"),
                "entropy must be int, got str",
            ),
            (
                lambda wire: wire.update(loop_state=held_window(seed={"seed_id": 1})),
                "loop_state lacks seed.core",
            ),
            # An empty seed is no seed at all, not "start from a fresh one".
            (
                lambda wire: wire.update(loop_state=held_window(seed={})),
                "loop_state lacks seed.core",
            ),
            # Well-typed values no engine sends: an infinite latency raised
            # OverflowError from time.sleep, a huge one wedged the worker.
            (lambda wire: wire.update(simulator="bogus"), "unknown simulator 'bogus'"),
            (
                lambda wire: wire.update(step_latency=float("nan")),
                "step_latency must be finite and non-negative, got nan",
            ),
            (
                lambda wire: wire.update(step_latency=-1),
                "step_latency must be finite and non-negative, got -1",
            ),
            (
                lambda wire: wire.update(step_latency=float("inf")),
                "step_latency must be finite and non-negative, got inf",
            ),
            (lambda wire: wire.update(profile=-3), "profile must be non-negative, got -3"),
            (lambda wire: wire.update(iterations=-5), "iterations must be positive, got -5"),
            (lambda wire: wire.update(iterations=0), "iterations must be positive, got 0"),
            (
                lambda wire: wire.update(slice_index=-1),
                "slice_index must be non-negative, got -1",
            ),
            (lambda wire: wire.update(epoch=-1), "epoch must be non-negative, got -1"),
            # A protocol-5 peer still sends the removed telemetry switch.
            (lambda wire: wire.update(telemetry=True), "unknown telemetry"),
            # A protocol-6 peer still sends a seed instead of a loop state.
            (lambda wire: wire.update(initial_seed=None), "unknown initial_seed"),
            # Loop states no fuzzer loop leaves behind.
            (
                lambda wire: wire.update(loop_state=held_window(kept_training=[-1])),
                "kept_training [-1] is no ascending list of distinct indices below 3",
            ),
            (
                lambda wire: wire.update(loop_state=held_window(kept_training=[0, 0])),
                "kept_training [0, 0] is no ascending list",
            ),
            (
                lambda wire: wire.update(loop_state=held_window(kept_training=[3])),
                "kept_training [3] is no ascending list",
            ),
            (
                lambda wire: wire.update(loop_state=held_window(window_mutations=1.0)),
                "window_mutations must be int, got float",
            ),
            (
                lambda wire: wire.update(loop_state=held_window(consecutive_low_gain=-1)),
                "consecutive_low_gain must be non-negative, got -1",
            ),
            (
                lambda wire: wire.update(
                    loop_state=held_window(
                        window_seed=None, window_mutations=0, consecutive_low_gain=0
                    )
                ),
                "kept_training and the counters need a window_seed",
            ),
            (
                lambda wire: wire.update(
                    loop_state=held_window(
                        window_seed=dict(held_window()["seed"], core=XIANGSHAN.name)
                    )
                ),
                "window_seed 5 is realized for core 'xiangshan-minimal', not 'small-boom'",
            ),
            (lambda wire: wire.update(loop_state=[]), "a loop state must be dict, got list"),
        ],
        ids=[
            "simulator-null",
            "iterations-float",
            "entropy-str",
            "seed-partial",
            "seed-empty",
            "simulator-bogus",
            "latency-nan",
            "latency-negative",
            "latency-infinite",
            "profile-negative",
            "iterations-negative",
            "iterations-zero",
            "slice-negative",
            "epoch-negative",
            "telemetry-key",
            "initial-seed-key",
            "training-index-negative",
            "training-index-duplicate",
            "training-index-out-of-range",
            "counter-float",
            "counter-negative",
            "kept-without-window",
            "window-seed-foreign-core",
            "loop-state-list",
        ],
    )
    def test_a_shard_task_value_of_the_wrong_type_is_refused(self, corrupt, message):
        # Converting instead of checking would run another task than the one
        # sent (None becomes 'None', 2.9 becomes 2); a value out of bounds
        # would run a task no engine builds.
        wire = shard_task_to_wire(make_task())
        corrupt(wire)
        with pytest.raises(ValueError, match=re.escape(message)):
            shard_task_from_wire(wire)
        # The simulator server answers such a LOAD with an ERROR frame.
        replies = io.BytesIO()
        request = json.dumps({"type": "LOAD", "task": wire, "steps": 0}) + "\n"
        assert serve(io.BytesIO(request.encode("utf-8")), replies) == 0
        reply = json.loads(replies.getvalue())
        assert reply["type"] == "ERROR"
        assert reply["error"].startswith("malformed task: ")
        assert message in reply["error"]

    def test_round_tripped_task_runs_identically(self):
        task = make_task()
        direct = run_shard_task(make_task())
        rebuilt = run_shard_task(shard_task_from_wire(shard_task_to_wire(task)))
        for key in ("slice_index", "epoch", "core", "points", "top_seeds"):
            assert rebuilt[key] == direct[key]
        assert rebuilt["result"]["coverage_history"] == direct["result"]["coverage_history"]

    def test_parse_address(self):
        assert parse_address("127.0.0.1:7801") == ("127.0.0.1", 7801)
        # IPv6 brackets are stripped so the host feeds the socket layer as-is.
        assert parse_address("[::1]:0") == ("::1", 0)
        for bad in ("localhost", "host:", "host:notaport", "host:70000", "[]:1", "::1:7801"):
            with pytest.raises(ValueError):
                parse_address(bad)


class TestFraming:
    def test_frames_round_trip_over_a_socketpair(self):
        left, right = socket.socketpair()
        try:
            reader = right.makefile("rb")
            send_frame(left, {"type": "HELLO", "capacity": 3})
            send_frame(left, {"type": "HEARTBEAT"})
            assert read_frame(reader) == {"type": "HELLO", "capacity": 3}
            assert read_frame(reader) == {"type": "HEARTBEAT"}
            left.close()
            assert read_frame(reader) is None  # EOF
        finally:
            right.close()

    @pytest.mark.parametrize(
        "data",
        [
            b'{"no_type": 1}\n',
            b"this is not json\n",
            b'{"type":"HELLO","pad":"' + b"x" * MAX_FRAME_BYTES + b'"}\n',
            b'{"type": "HEARTBEAT"}',  # EOF before the newline
            b"\xff\xfe{}\n",
            b"[1, 2]\n",
            b"\n",
        ],
        ids=["no-type", "non-json", "oversized", "truncated", "non-utf8", "not-an-object", "blank"],
    )
    def test_malformed_frame_is_rejected(self, data):
        left, right = socket.socketpair()
        reader = right.makefile("rb")

        def send_then_close():
            # On a thread: an oversized frame outgrows the socket buffer.
            try:
                left.sendall(data)
            finally:
                left.close()

        sender = threading.Thread(target=send_then_close, daemon=True)
        sender.start()
        try:
            with pytest.raises(ValueError, match="malformed frame"):
                read_frame(reader)
        finally:
            right.close()
            sender.join(timeout=30)

    def test_backend_rejects_bad_sizing(self):
        with pytest.raises(ValueError, match="min_workers"):
            DistributedBackend(min_workers=0)
        with pytest.raises(ValueError, match="heartbeat_timeout"):
            DistributedBackend(heartbeat_timeout=0)


def start_worker_thread(address, **kwargs):
    kwargs.setdefault("quiet", True)
    thread = threading.Thread(
        target=run_worker,
        kwargs=dict(connect=f"{address[0]}:{address[1]}", **kwargs),
        daemon=True,
    )
    thread.start()
    return thread


class TestDistributedBackend:
    def test_single_worker_matches_inline_payloads(self):
        backend = DistributedBackend(listen="127.0.0.1:0")
        try:
            start_worker_thread(backend.address)
            tasks = [
                make_task(slice_index=index, configuration=FuzzerConfiguration(
                    core=BOOM, entropy=31 + index, seed_id_base=10 + 100 * index))
                for index in range(3)
            ]
            payloads = backend.run_epoch(tasks)
        finally:
            backend.close()
        direct = [run_shard_task(task) for task in tasks]
        for received, expected in zip(payloads, direct):
            for key in ("slice_index", "epoch", "core", "points", "top_seeds"):
                assert received[key] == expected[key]

    def test_workers_may_join_mid_epoch(self):
        # min_workers=1: the epoch starts on one worker; a second joins while
        # tasks are still pending and picks up part of the queue.
        backend = DistributedBackend(listen="127.0.0.1:0", min_workers=1)
        try:
            start_worker_thread(backend.address)
            late_starter = threading.Timer(
                0.3, lambda: start_worker_thread(backend.address)
            )
            late_starter.start()
            tasks = [make_task(slice_index=index, configuration=FuzzerConfiguration(
                core=BOOM, entropy=40 + index, seed_id_base=10 + 100 * index))
                for index in range(4)]
            payloads = backend.run_epoch(tasks)
            assert [payload["slice_index"] for payload in payloads] == [0, 1, 2, 3]
        finally:
            backend.close()

    def test_shared_backend_scopes_task_log_per_campaign(self):
        # One connected fleet may serve several campaigns in a row; each
        # result must only carry its own deliveries, not the fleet's.
        backend = DistributedBackend(listen="127.0.0.1:0")
        try:
            start_worker_thread(backend.address)
            first = run_parallel_campaign(
                BOOM, shards=2, iterations=4, sync_epochs=1, entropy=9,
                executor="inline", backend=backend,
            )
            second = run_parallel_campaign(
                BOOM, shards=2, iterations=4, sync_epochs=1, entropy=10,
                executor="inline", backend=backend,
            )
        finally:
            backend.close()
        from repro.analysis import worker_utilization_table

        for campaign in (first, second):
            assert len(campaign.task_log) == 4  # one row per executed slice task
            assert [
                (row["epoch"], row["slice"]) for row in campaign.task_log
            ] == [(0, index) for index in range(4)]
            rows = worker_utilization_table(campaign.task_log)
            assert sum(row["tasks"] for row in rows) == 4


def received(backend):
    return backend.metrics.snapshot()["counters"].get("distributed/results_received", 0)


class TestFaultTolerance:
    def test_late_result_from_a_presumed_dead_worker_is_dropped(self):
        backend = DistributedBackend(listen="127.0.0.1:0")
        try:
            client = socket.create_connection(backend.address, timeout=5)
            reader = client.makefile("rb")
            send_frame(
                client,
                {
                    "type": "HELLO",
                    "version": PROTOCOL_VERSION,
                    "worker": "fake:1",
                    "capacity": 1,
                },
            )
            # Run an epoch on a thread; serve its TASK frame by hand.
            tasks = [make_task()]
            collected = {}

            def run():
                collected["payloads"] = backend.run_epoch(tasks)

            runner = threading.Thread(target=run, daemon=True)
            runner.start()
            frame = read_frame(reader)
            assert frame["type"] == "TASK" and len(frame["tasks"]) == 1
            task_id = frame["tasks"][0]["task_id"]
            payload = run_shard_task(tasks[0])
            # Deliver the same task twice: the duplicate must be dropped.
            send_frame(client, {"type": "RESULT", "task_id": task_id, "payload": payload})
            send_frame(client, {"type": "RESULT", "task_id": task_id, "payload": payload})
            runner.join(timeout=30)
            assert not runner.is_alive()
            assert [p["slice_index"] for p in collected["payloads"]] == [0]
            # Both deliveries arrived; only the first reached the epoch.
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline and received(backend) < 2:
                time.sleep(0.02)
            assert received(backend) == 2
            diagnostics = collected["payloads"][0]["diagnostics"]
            assert diagnostics["worker"] == "w000"
            assert diagnostics["reassigned"] is False
            client.close()
        finally:
            backend.close()

    def test_result_the_epoch_did_not_dispatch_is_dropped(self):
        backend = DistributedBackend(listen="127.0.0.1:0")
        try:
            client = socket.create_connection(backend.address, timeout=30)
            send_frame(
                client,
                {
                    "type": "HELLO",
                    "version": PROTOCOL_VERSION,
                    "worker": "fake:1",
                    "capacity": 1,
                },
            )
            tasks = [make_task()]
            collected = {}
            runner = threading.Thread(
                target=lambda: collected.update(payloads=backend.run_epoch(tasks)),
                daemon=True,
            )
            runner.start()
            task_id = read_frame(client.makefile("rb"))["tasks"][0]["task_id"]
            payload = run_shard_task(tasks[0])
            # A RESULT for a task id this epoch never handed out comes first;
            # it must neither finish the epoch nor be counted.
            send_frame(client, {"type": "RESULT", "task_id": "e9-s9", "payload": payload})
            send_frame(client, {"type": "RESULT", "task_id": task_id, "payload": payload})
            runner.join(timeout=30)
            assert not runner.is_alive()
            assert [p["slice_index"] for p in collected["payloads"]] == [0]
            assert received(backend) == 1
            client.close()
        finally:
            backend.close()

    def test_late_result_of_a_swept_worker_does_not_end_the_next_epoch(self):
        # A silent worker is declared dead while it holds e0-s0; a live worker
        # finishes epoch 0; the silent one then delivers e0-s0 during epoch 1.
        backend = DistributedBackend(listen="127.0.0.1:0", heartbeat_timeout=0.5)
        try:
            silent = socket.create_connection(backend.address, timeout=30)
            send_frame(
                silent,
                {
                    "type": "HELLO",
                    "version": PROTOCOL_VERSION,
                    "worker": "silent:1",
                    "capacity": 1,
                },
            )
            first = [make_task()]
            second = [
                make_task(
                    epoch=1,
                    slice_index=index,
                    configuration=FuzzerConfiguration(
                        core=BOOM, entropy=50 + index, seed_id_base=10 + 100 * index
                    ),
                )
                for index in range(2)
            ]
            collected = {}

            def run(key, tasks):
                collected[key] = backend.run_epoch(tasks)

            epoch0 = threading.Thread(target=run, args=("e0", first), daemon=True)
            epoch0.start()
            frame = read_frame(silent.makefile("rb"))
            assert [entry["task_id"] for entry in frame["tasks"]] == ["e0-s0"]
            late_payload = run_shard_task(first[0])
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline and backend.workers()[0]["alive"]:
                time.sleep(0.02)
            assert not backend.workers()[0]["alive"]  # swept: no heartbeats
            silent.settimeout(10)
            assert silent.recv(1) == b""  # ... and its connection shut down
            start_worker_thread(backend.address, heartbeat_interval=0.1)
            epoch0.join(timeout=60)
            assert [p["epoch"] for p in collected["e0"]] == [0]

            epoch1 = threading.Thread(target=run, args=("e1", second), daemon=True)
            epoch1.start()
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline and not backend.workers()[1]["inflight"]:
                time.sleep(0.02)
            try:
                send_frame(
                    silent,
                    {"type": "RESULT", "task_id": "e0-s0", "payload": late_payload},
                )
            except OSError:
                pass  # the coordinator already shut the dropped socket down
            epoch1.join(timeout=60)
            assert not epoch1.is_alive()
            assert [(p["epoch"], p["slice_index"]) for p in collected["e1"]] == [
                (1, 0),
                (1, 1),
            ]
            silent.close()
        finally:
            backend.close()

    def test_worker_cli_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="capacity"):
            run_worker("127.0.0.1:1", capacity=0)
        with pytest.raises(ValueError, match="worker backend"):
            run_worker("127.0.0.1:1", backend="distributed")
        # An unreachable coordinator is an orderly exit code, not a hang.
        assert run_worker("127.0.0.1:9", retry_seconds=0.0, quiet=True) == 1


class TestAuthToken:
    """The shared-secret gate on the worker protocol (HELLO ``auth`` field)."""

    def run_worker_for_code(self, backend, **kwargs):
        holder = {}

        def run():
            holder["code"] = run_worker(
                connect=f"{backend.address[0]}:{backend.address[1]}",
                quiet=True,
                retry_seconds=0.0,
                **kwargs,
            )

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        thread.join(timeout=30)
        assert not thread.is_alive()
        return holder["code"]

    def test_mismatched_token_is_rejected_with_a_log_line(self, caplog):
        import logging

        backend = DistributedBackend(listen="127.0.0.1:0", auth_token="sesame")
        try:
            with caplog.at_level(logging.WARNING, logger="repro.core.distributed"):
                code = self.run_worker_for_code(backend, auth_token="wrong")
            assert code == 1  # an auth rejection is terminal, not retried
            assert backend.rejected_workers == 1
            assert backend.workers() == []  # never admitted to the fleet
            assert any(
                "auth token mismatch" in record.getMessage()
                for record in caplog.records
            )
        finally:
            backend.close()

    def test_missing_token_is_rejected(self):
        backend = DistributedBackend(listen="127.0.0.1:0", auth_token="sesame")
        try:
            assert self.run_worker_for_code(backend) == 1
            assert backend.rejected_workers == 1
            assert backend.workers() == []
        finally:
            backend.close()

    def test_open_coordinator_ignores_presented_tokens(self):
        # Only a coordinator that *has* a token enforces one.
        backend = DistributedBackend(listen="127.0.0.1:0")
        try:
            start_worker_thread(backend.address, auth_token="anything")
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline and not backend.workers():
                time.sleep(0.02)
            assert len(backend.workers()) == 1
        finally:
            backend.close()

class TestWorkerProtocolErrors:
    """A malformed frame from the coordinator is a protocol error: the daemon
    drops the connection and reconnects within its retry budget, exactly as
    after a lost connection, instead of dying."""

    def serve_fake_coordinator(self, first_reply, close_after_reply=False):
        """Answer the first HELLO with ``first_reply`` (raw bytes), then say
        BYE to the reconnect; returns the worker's exit code and the number
        of HELLOs the fake saw."""
        server = socket.create_server(("127.0.0.1", 0))
        hellos = []

        def serve():
            for reply in (first_reply, None):
                conn, _ = server.accept()
                with conn:
                    hello = read_frame(conn.makefile("rb"))
                    hellos.append(hello["type"])
                    if reply is None:
                        send_frame(conn, {"type": "BYE", "reason": "done"})
                        continue
                    conn.sendall(reply)
                    if not close_after_reply:
                        # Hold the socket open until the worker hangs up.
                        conn.settimeout(30)
                        try:
                            while conn.recv(65536):
                                pass
                        except OSError:
                            pass

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        try:
            host, port = server.getsockname()[:2]
            code = run_worker(f"{host}:{port}", retry_seconds=10.0, quiet=True)
            thread.join(timeout=30)
        finally:
            server.close()
        return code, hellos

    @pytest.mark.parametrize(
        "reply, close_after_reply",
        [
            (b"this is not json\n", False),
            (b'{"type": "TASK"}\n', False),
            (b'{"type":"TASK","pad":"' + b"x" * MAX_FRAME_BYTES + b'"}\n', False),
            (b'{"type": "TASK", "tas', True),
        ],
        ids=["non-json", "task-without-tasks", "oversized", "truncated"],
    )
    def test_malformed_frame_reconnects(self, reply, close_after_reply):
        code, hellos = self.serve_fake_coordinator(reply, close_after_reply)
        assert code == 0
        assert hellos == ["HELLO", "HELLO"]

    def test_task_missing_a_wire_key_reconnects(self):
        wire = shard_task_to_wire(make_task())
        del wire["profile"]
        frame = {"type": "TASK", "tasks": [{"task_id": "e0-s0", "task": wire}]}
        code, hellos = self.serve_fake_coordinator(
            (json.dumps(frame) + "\n").encode("utf-8")
        )
        assert code == 0
        assert hellos == ["HELLO", "HELLO"]


class TestWorkerBackends:
    def test_local_backends_are_inline_and_process(self):
        assert LOCAL_BACKEND_NAMES == ("inline", "process")
        with pytest.raises(ValueError, match=r"\(known: inline, process\)"):
            run_worker("127.0.0.1:1", backend="async")

    def test_removed_async_backend_flag_is_refused(self, capsys):
        with pytest.raises(SystemExit) as raised:
            worker_main(["--connect", "127.0.0.1:1", "--backend", "async"])
        assert raised.value.code == 2
        assert "'async'" in capsys.readouterr().err


class TestProtocolVersion:
    """Coordinator and workers must run the same revision: a HELLO with
    another protocol version is refused, and the refusal is terminal."""

    def test_coordinator_rejects_another_version_with_a_log_line(self, caplog):
        import logging

        backend = DistributedBackend(listen="127.0.0.1:0")
        try:
            client = socket.create_connection(backend.address, timeout=30)
            with caplog.at_level(logging.WARNING, logger="repro.core.distributed"):
                send_frame(
                    client,
                    {"type": "HELLO", "version": PROTOCOL_VERSION - 1, "worker": "old:1"},
                )
                frame = read_frame(client.makefile("rb"))
            client.close()
            assert frame["type"] == "BYE"
            assert frame["code"] == "version"
            assert backend.rejected_workers == 1
            assert backend.workers() == []
            assert any(
                "protocol version" in record.getMessage() for record in caplog.records
            )
        finally:
            backend.close()

    def test_worker_gives_up_on_a_version_rejection(self):
        server = socket.create_server(("127.0.0.1", 0))
        hellos = []

        def serve():
            conn, _ = server.accept()
            with conn:
                hellos.append(read_frame(conn.makefile("rb")))
                send_frame(conn, {"type": "BYE", "code": "version", "reason": "old"})

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        try:
            host, port = server.getsockname()[:2]
            code = run_worker(f"{host}:{port}", retry_seconds=10.0, quiet=True)
            thread.join(timeout=30)
        finally:
            server.close()
        assert code == 1
        assert [hello["version"] for hello in hellos] == [PROTOCOL_VERSION]


class TestCoordinatorProtocolErrors:
    """Malformed frames from a worker drop that worker; its in-flight task is
    reassigned and the epoch still completes."""

    @pytest.mark.parametrize(
        "bad_frame",
        [
            b"this is not json\n",
            b'{"type":"RESULT","pad":"' + b"x" * MAX_FRAME_BYTES + b'"}\n',
            b'{"type": "RESULT", "task_id": "e0-s0"}\n',
            b'{"type": "RESULT", "task_id": "e0-s0", "pay',
        ],
        ids=["non-json", "oversized", "no-payload", "truncated"],
    )
    def test_bad_worker_is_dropped_and_its_task_reassigned(self, bad_frame, caplog):
        import logging

        caplog.set_level(logging.WARNING, logger="repro.core.distributed")
        backend = DistributedBackend(listen="127.0.0.1:0")
        try:
            client = socket.create_connection(backend.address, timeout=30)
            reader = client.makefile("rb")
            send_frame(
                client,
                {
                    "type": "HELLO",
                    "version": PROTOCOL_VERSION,
                    "worker": "fake:1",
                    "capacity": 1,
                },
            )
            tasks = [make_task()]
            collected = {}

            def run():
                collected["payloads"] = backend.run_epoch(tasks)

            runner = threading.Thread(target=run, daemon=True)
            runner.start()
            frame = read_frame(reader)
            assert frame["type"] == "TASK"
            client.sendall(bad_frame)
            client.shutdown(socket.SHUT_WR)
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline and backend.workers()[0]["alive"]:
                time.sleep(0.02)
            assert not backend.workers()[0]["alive"]
            assert any(
                "dropped worker w000 (fake:1): malformed" in record.getMessage()
                for record in caplog.records
            )
            # A healthy worker picks the task back up.
            start_worker_thread(backend.address)
            runner.join(timeout=60)
            assert not runner.is_alive()
            assert backend.reassigned_tasks == 1
            diagnostics = collected["payloads"][0]["diagnostics"]
            assert diagnostics["worker"] == "w001"
            assert diagnostics["reassigned"] is True
            client.close()
        finally:
            backend.close()
