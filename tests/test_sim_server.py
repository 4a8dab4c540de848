"""Tests for the simulator-server protocol: the three verbs over a real
``python -m repro.sim.server`` subprocess, the documented edge cases
(malformed frame, STEP before LOAD, double QUIT), and the byte-identity of a
session LOADed at a later step."""

import io
import json
import subprocess
import sys
import time

import pytest

from repro.core import FuzzerConfiguration, ShardTask
from repro.core.backends import run_shard_task
from repro.core.wire import MAX_FRAME_BYTES, read_frame, shard_task_to_wire
from repro.sim.client import (
    SimProtocolError,
    SimServerCrash,
    SimServerProcess,
    default_server_command,
    server_environment,
)
from repro.uarch import small_boom_config

BOOM = small_boom_config()


def make_task(**overrides):
    defaults = dict(
        slice_index=0,
        epoch=0,
        iterations=3,
        configuration=FuzzerConfiguration(core=BOOM, entropy=31, seed_id_base=10),
    )
    defaults.update(overrides)
    return ShardTask(**defaults)


@pytest.fixture(scope="module")
def server():
    """One long-lived server process shared by the happy-path tests (each
    test LOADs its own workload, which resets the session)."""
    process = SimServerProcess(request_timeout=60.0)
    yield process
    process.quit()


def load(task, steps=0):
    return {"type": "LOAD", "task": shard_task_to_wire(task), "steps": steps}


class TestVerbs:
    def test_load_step_to_completion_matches_inproc(self, server):
        response = server.request(load(make_task()))
        assert response["type"] == "LOADED"
        assert response["steps"] == 0
        assert isinstance(response["digest"], str)

        steps = 0
        digests = [response["digest"]]
        while True:
            response = server.request({"type": "STEP"})
            assert response["type"] == "STEP"
            digests.append(response["digest"])
            if response["done"]:
                payload = response["payload"]
                assert response["steps"] == steps
                break
            steps += 1
            assert response["steps"] == steps
            assert response["step"]["phase"] in ("window", "explore")
            assert response["step"]["simulations"] >= 0
        # Every boundary, the finished state included, has its own digest.
        assert len(set(digests)) == len(digests)

        reference = run_shard_task(make_task())
        assert payload["points"] == reference["points"]
        assert payload["top_seeds"] == reference["top_seeds"]
        assert (
            payload["result"]["coverage_history"]
            == reference["result"]["coverage_history"]
        )
        assert steps > 0

    def test_load_replaces_the_previous_workload(self, server):
        first = server.request(load(make_task(epoch=1)))
        server.request(load(make_task()))
        server.request({"type": "STEP"})
        response = server.request(load(make_task(epoch=1)))
        assert response["steps"] == 0
        assert response["digest"] == first["digest"]

    def test_digest_is_deterministic_across_processes(self):
        task_wire = shard_task_to_wire(make_task())

        def digest_after(steps):
            process = SimServerProcess(request_timeout=60.0)
            try:
                digest = process.request(
                    {"type": "LOAD", "task": task_wire, "steps": 0}
                )["digest"]
                for _ in range(steps):
                    digest = process.request({"type": "STEP"})["digest"]
                return digest
            finally:
                process.quit()

        assert digest_after(2) == digest_after(2)
        assert digest_after(2) != digest_after(1)


class TestEdgeCases:
    @pytest.mark.parametrize(
        "line",
        [
            b"this is not json\n",
            b"\xff\xfe{}\n",
            b"[1, 2]\n",
            b"\n",
            b'{"no_type": 1}\n',
        ],
        ids=["non-json", "non-utf8", "not-an-object", "blank", "no-type"],
    )
    def test_malformed_frame_survives(self, server, line):
        # A malformed line must produce an ERROR frame, not kill the
        # session: the next request is answered normally.
        server._process.stdin.write(line)
        server._process.stdin.flush()
        line = server._read_line(time.monotonic() + 30)
        response = json.loads(line)
        assert response["type"] == "ERROR"
        assert "malformed" in response["error"]

        with pytest.raises(SimProtocolError, match="malformed"):
            server.request({"no_type": True})

        follow_up = server.request(load(make_task()))
        assert follow_up["type"] == "LOADED"

    def test_oversized_frame_survives(self, server):
        # An over-long request is answered with exactly one ERROR frame and
        # consumed to its end, so the next request is answered in sync.
        server._process.stdin.write(
            b'{"type":"LOAD","pad":"' + b"x" * MAX_FRAME_BYTES + b'"}\n'
        )
        server._process.stdin.flush()
        response = json.loads(server._read_line(time.monotonic() + 60))
        assert response["type"] == "ERROR"
        assert "longer than" in response["error"]
        follow_up = server.request(load(make_task()))
        assert follow_up["type"] == "LOADED"

    @pytest.mark.parametrize(
        "data",
        ['{"type": "LO', '{"type": "QUIT"}'],
        ids=["cut-json", "complete-json"],
    )
    def test_truncated_frame_is_an_error(self, data):
        # A request cut off by EOF is malformed, even when the JSON is
        # complete: one ERROR, then a clean exit.
        process = subprocess.Popen(
            default_server_command(),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=server_environment(),
            text=True,
        )
        out, _ = process.communicate(input=data, timeout=60)
        assert process.returncode == 0
        frames = [json.loads(line) for line in out.splitlines() if line.strip()]
        assert [frame["type"] for frame in frames] == ["ERROR"]
        assert "malformed" in frames[0]["error"]

    def test_step_before_load(self):
        process = SimServerProcess(request_timeout=60.0)
        try:
            with pytest.raises(SimProtocolError, match="before LOAD"):
                process.request({"type": "STEP"})
            # The session survives the error.
            assert process.request(load(make_task()))["type"] == "LOADED"
        finally:
            process.quit()

    # READ, SNAPSHOT and RESTORE were verbs of an earlier protocol.
    @pytest.mark.parametrize("verb", ["FLY", "READ", "SNAPSHOT", "RESTORE"])
    def test_unknown_verb(self, server, verb):
        # An ERROR, and the loaded session is untouched.
        server.request(load(make_task()))
        with pytest.raises(SimProtocolError, match="unknown request type"):
            server.request({**load(make_task(), steps=2), "type": verb})
        assert server.request({"type": "STEP"})["steps"] == 1

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda configuration: configuration.update(bogus=1), "unknown bogus"),
            (lambda configuration: configuration.pop("core"), "lacks core"),
            (lambda configuration: configuration["core"].update(bugs=5), "malformed task"),
            (
                lambda configuration: configuration.update(window_lookahead=4),
                "unknown window_lookahead",
            ),
        ],
    )
    def test_malformed_task_configuration_survives(self, server, corrupt, message):
        # A configuration the decoder cannot rebuild is a protocol error: one
        # ERROR frame, and a valid LOAD on the same session still works.
        wire = shard_task_to_wire(make_task())
        corrupt(wire["configuration"])
        with pytest.raises(SimProtocolError, match=message):
            server.request({"type": "LOAD", "task": wire, "steps": 0})
        follow_up = server.request(load(make_task()))
        assert follow_up["type"] == "LOADED"

    def test_out_of_bounds_task_is_refused(self, server):
        # Well-typed but out of bounds: the server answers ERROR instead of
        # sleeping forever (or raising) at the first step.
        frame = load(make_task())
        frame["task"]["step_latency"] = float("inf")
        with pytest.raises(SimProtocolError, match="malformed task: step_latency"):
            server.request(frame)
        assert server.request(load(make_task()))["type"] == "LOADED"

    def test_step_after_finish(self, server):
        server.request(load(make_task()))
        while not server.request({"type": "STEP"})["done"]:
            pass
        with pytest.raises(SimProtocolError, match="already finished"):
            server.request({"type": "STEP"})

    def test_double_quit_exits_cleanly(self):
        # Two QUITs on one session: the server answers the first with BYE and
        # exits; the second frame is never read.  Exit code must be 0 and the
        # stream must contain exactly one BYE.
        process = subprocess.Popen(
            default_server_command(),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=server_environment(),
            text=True,
        )
        out, _ = process.communicate(
            input='{"type":"QUIT"}\n{"type":"QUIT"}\n', timeout=60
        )
        assert process.returncode == 0
        frames = [json.loads(line) for line in out.splitlines() if line.strip()]
        assert frames == [{"type": "BYE"}]

    def test_eof_exits_cleanly(self):
        process = subprocess.Popen(
            default_server_command(),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=server_environment(),
            text=True,
        )
        out, _ = process.communicate(input="", timeout=60)
        assert process.returncode == 0
        assert out == ""

    @pytest.mark.parametrize("steps", [-1, "3", 1.0, True, "missing"])
    def test_load_bad_steps(self, server, steps):
        frame = load(make_task(), steps)
        if steps == "missing":
            del frame["steps"]
        with pytest.raises(SimProtocolError, match="non-negative integer 'steps'"):
            server.request(frame)

    def test_load_past_the_end(self, server):
        # Fast-forwarding past the end of the workload is refused loudly, and
        # the session keeps the workload it had.
        server.request(load(make_task()))
        with pytest.raises(SimProtocolError, match="cannot fast-forward"):
            server.request(load(make_task(), steps=10_000))
        assert server.request({"type": "STEP"})["steps"] == 1


def test_server_frame_bound_counts_bytes():
    # Two-byte characters: fewer than MAX_FRAME_BYTES characters, more bytes.
    pad = "\u00e9" * (MAX_FRAME_BYTES // 2)
    stream = io.BytesIO(
        ('{"type":"LOAD","pad":"' + pad + '"}\n{"type":"STEP"}\n').encode("utf-8")
    )
    with pytest.raises(ValueError, match="longer than"):
        read_frame(stream)
    assert read_frame(stream) == {"type": "STEP"}


def fake_server(reply: str):
    """A stand-in server that answers its first request with the bytes the
    Python expression ``reply`` evaluates to."""
    script = (
        "import sys; sys.stdin.buffer.readline(); "
        f"sys.stdout.buffer.write({reply}); sys.stdout.flush(); "
        "sys.stdin.buffer.read()"
    )
    return SimServerProcess([sys.executable, "-c", script], request_timeout=60.0)


class TestClientFraming:
    """Malformed server responses against the client's bounded reader."""

    @pytest.mark.parametrize(
        "reply, message",
        [
            (b"this is not json\n", "unparseable"),
            (b"\xff\xfe{}\n", "unparseable"),
            (b"[1, 2]\n", "not an object"),
            (b"\n", "unparseable"),
            (b'{"no_type": 1}\n', "no 'type' field"),
        ],
        ids=["non-json", "non-utf8", "not-an-object", "blank", "no-type"],
    )
    def test_non_json_response_is_a_protocol_error(self, reply, message):
        process = fake_server(repr(reply))
        try:
            with pytest.raises(SimProtocolError, match=message):
                process.request({"type": "STEP"})
        finally:
            process.kill()

    def test_oversized_response_is_a_protocol_error(self):
        # One line of MAX_FRAME_BYTES + 1 bytes, newline included.
        process = fake_server(f'b"x" * {MAX_FRAME_BYTES} + b"\\n"')
        try:
            with pytest.raises(SimProtocolError, match="longer than"):
                process.request({"type": "STEP"})
            assert not process.alive  # the unframeable stream is shut down
        finally:
            process.kill()

    def test_truncated_response_is_a_crash(self):
        # EOF mid-line means the server died mid-request: recoverable by
        # restart-and-replay, unlike a malformed answer.
        script = (
            "import sys; sys.stdin.buffer.readline(); "
            "sys.stdout.buffer.write(b'{\"type\": \"STA'); sys.stdout.flush()"
        )
        process = SimServerProcess([sys.executable, "-c", script], request_timeout=60.0)
        try:
            with pytest.raises(SimServerCrash, match="died mid-request"):
                process.request({"type": "STEP"})
        finally:
            process.kill()


class TestLoadAtStep:
    def test_round_trip_byte_identity(self):
        """A session LOADed at step 3 is byte-identical to the original at
        its step 3: the same digest there, the same reply for every later
        step, and the same final payload."""
        task_wire = shard_task_to_wire(make_task(iterations=4))
        original = SimServerProcess(request_timeout=60.0)
        replayed = SimServerProcess(request_timeout=60.0)
        try:
            original.request({"type": "LOAD", "task": task_wire, "steps": 0})
            for _ in range(3):
                at_three = original.request({"type": "STEP"})
            assert at_three["steps"] == 3

            response = replayed.request({"type": "LOAD", "task": task_wire, "steps": 3})
            assert response["type"] == "LOADED"
            assert response["steps"] == 3
            assert response["digest"] == at_three["digest"]

            # Both sessions now walk the remainder in lockstep.
            while True:
                step_a = original.request({"type": "STEP"})
                step_b = replayed.request({"type": "STEP"})
                assert step_a["digest"] == step_b["digest"]
                if not step_a["done"]:
                    assert step_a == step_b
                    continue
                assert step_b["done"]
                payload_a = dict(step_a["payload"])
                payload_b = dict(step_b["payload"])
                payload_a.pop("wall_seconds")
                payload_b.pop("wall_seconds")
                # metric latency histograms are timing too
                payload_a.pop("metrics", None)
                payload_b.pop("metrics", None)
                # Timing lives inside the result dict too; compare the
                # deterministic projection.
                result_a = payload_a.pop("result")
                result_b = payload_b.pop("result")
                for entry in (result_a, result_b):
                    entry["elapsed_seconds"] = 0.0
                    entry["first_bug_seconds"] = None
                    for report in entry["reports"]:
                        report["wall_clock_seconds"] = 0.0
                assert payload_a == payload_b
                assert result_a == result_b
                break
        finally:
            original.quit()
            replayed.quit()
