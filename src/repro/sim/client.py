"""Clients for out-of-process simulator servers.

Three layers:

* :class:`SimServerProcess` — one spawned ``python -m repro.sim.server``
  subprocess with :mod:`repro.core.wire` frames over its stdio pipes.
  Reads are ``select``-based with a deadline, so a *hung* server (alive but
  silent) is detected exactly like a dead one: the process is killed and the
  request raises :class:`SimServerCrash`.
* :class:`SubprocessSimulator` — the fault-tolerant driver of one slice's
  workload.  It LOADs a task and STEPs it to completion; when the server
  crashes or hangs it spawns a replacement, LOADs the task at the step the
  campaign reached (verifying the state digest), and continues — the
  campaign never notices.
* :class:`SimProcessPool` — spawns and reuses one simulator per slice slot;
  :func:`run_task_on_default_pool` is the module-level entry point the
  execution backends dispatch ``ShardTask.simulator == "subprocess"`` work
  through (each OS process — the engine, a worker daemon — owns its own
  default pool, which the process backend's threads share).

Determinism: protocol round trips carry only the same JSON wire forms the
distributed fabric uses, and recovery is replay of a pure function — so a
subprocess-simulated campaign is byte-identical to an in-process one no
matter how many server processes died, which the engine tests assert.
"""

from __future__ import annotations

import atexit
import os
import select
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.core.backends import ShardTask
from repro.core.wire import MAX_FRAME_BYTES, decode_object, encode_frame, shard_task_to_wire
from repro.telemetry.metrics import LatencyHistogram

__all__ = [
    "SimProcessPool",
    "SimProtocolError",
    "SimServerCrash",
    "SimServerError",
    "SimServerProcess",
    "SubprocessSimulator",
    "close_default_pool",
    "default_pool",
    "default_server_command",
    "run_task_on_default_pool",
    "server_environment",
]

# A STEP on the reference server runs a handful of few-hundred-cycle model
# simulations; two minutes of silence means wedged, not slow, with a wide
# margin even on loaded CI hosts.  Real RTL wrappers may need more.
DEFAULT_REQUEST_TIMEOUT = 120.0
DEFAULT_MAX_RESTARTS = 3


class SimServerError(RuntimeError):
    """Base class of simulator-server client errors."""


class SimServerCrash(SimServerError):
    """The server process died, hung past the request timeout, or closed its
    pipes mid-request.  Recoverable: restart-and-replay."""


class SimProtocolError(SimServerError):
    """The server answered, but wrongly: an ERROR frame, an unexpected
    response type, or a digest mismatch after a recovery LOAD.
    Deterministic — retrying cannot help, so it is never swallowed by
    recovery."""


def default_server_command() -> List[str]:
    """The argv of a reference simulator server."""
    return [sys.executable, "-m", "repro.sim.server"]


def server_environment() -> Dict[str, str]:
    """Environment for server subprocesses: this repro tree on PYTHONPATH.

    The test/benchmark suites run from a source checkout without an installed
    package; the server must import the same tree the client runs from, or
    LOAD would deserialize against different code.
    """
    import repro

    root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    environment = dict(os.environ)
    existing = environment.get("PYTHONPATH")
    environment["PYTHONPATH"] = (
        root + os.pathsep + existing if existing else root
    )
    return environment


class SimServerProcess:
    """One simulator server subprocess and its framed stdio channel."""

    def __init__(
        self,
        command: Optional[List[str]] = None,
        request_timeout: float = DEFAULT_REQUEST_TIMEOUT,
    ) -> None:
        if request_timeout <= 0:
            raise ValueError(
                f"request_timeout must be positive, got {request_timeout}"
            )
        self.command = list(command) if command else default_server_command()
        self.request_timeout = request_timeout
        # bufsize=0: raw pipes, so select() on the stdout fd sees exactly the
        # bytes the kernel holds (a buffered wrapper could hide a complete
        # response from select and fake a timeout).
        self._process = subprocess.Popen(
            self.command,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=None,  # server logging stays on the parent's stderr
            env=server_environment(),
            bufsize=0,
        )
        self._buffer = bytearray()

    @property
    def pid(self) -> int:
        return self._process.pid

    @property
    def alive(self) -> bool:
        return self._process.poll() is None

    def request(
        self, frame: Dict[str, object], timeout: Optional[float] = None
    ) -> Dict[str, object]:
        """One round trip; raises :class:`SimServerCrash` on death or hang,
        :class:`SimProtocolError` on an ERROR answer."""
        deadline = time.monotonic() + (
            timeout if timeout is not None else self.request_timeout
        )
        try:
            self._process.stdin.write(encode_frame(frame))
            self._process.stdin.flush()
        except (OSError, ValueError) as error:
            raise SimServerCrash(
                f"simulator server pid {self.pid} is gone (write failed: {error})"
            ) from None
        try:
            response = decode_object(self._read_line(deadline), "server response")
        except ValueError as error:
            raise SimProtocolError(str(error)) from None
        if "type" not in response:
            raise SimProtocolError("malformed server response: no 'type' field")
        if response["type"] == "ERROR":
            raise SimProtocolError(str(response.get("error")))
        return response

    def _read_line(self, deadline: float) -> bytes:
        stdout = self._process.stdout
        while True:
            newline = self._buffer.find(b"\n")
            if 0 <= newline < MAX_FRAME_BYTES:
                line = bytes(self._buffer[: newline + 1])
                del self._buffer[: newline + 1]
                return line
            if newline >= 0 or len(self._buffer) >= MAX_FRAME_BYTES:
                # The stream can no longer be framed: a deterministic
                # protocol failure, not a crash to restart and replay.
                self.kill()
                raise SimProtocolError(
                    f"malformed server response: longer than "
                    f"{MAX_FRAME_BYTES} bytes"
                )
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self.kill()
                raise SimServerCrash(
                    f"simulator server pid {self.pid} hung "
                    f"(no response within {self.request_timeout:.0f}s); killed"
                )
            ready, _, _ = select.select([stdout], [], [], min(remaining, 0.25))
            if not ready:
                continue
            chunk = stdout.read(65536)
            if not chunk:
                try:
                    code = self._process.wait(timeout=1.0)
                except subprocess.TimeoutExpired:
                    code = self._process.poll()
                raise SimServerCrash(
                    f"simulator server pid {self.pid} died mid-request "
                    f"(exit code {code})"
                )
            self._buffer.extend(chunk)

    def quit(self) -> None:
        """Orderly shutdown: QUIT, short grace, then kill."""
        try:
            self.request({"type": "QUIT"}, timeout=5.0)
        except SimServerError:
            pass
        try:
            self._process.wait(timeout=5.0)
        except subprocess.TimeoutExpired:
            pass
        self.kill()

    def kill(self) -> None:
        if self._process.poll() is None:
            self._process.kill()
        try:
            self._process.wait(timeout=10.0)
        except subprocess.TimeoutExpired:
            pass
        for stream in (self._process.stdin, self._process.stdout):
            try:
                stream.close()
            except OSError:
                pass


@dataclass
class SimTaskStats:
    """Per-task simulator-process accounting, merged into the task's
    diagnostics.

    ``steps`` counts the timed STEP round trips (the workload-finishing one
    included) and ``step_seconds_total`` sums only their successful server
    turnarounds — recovery time (respawn, LOAD replay) and timed-out
    attempts are excluded, so ``mean_step_seconds`` reads as the server's
    per-step speed even on a task that needed restarts.
    """

    spawns: int = 0     # server processes started while serving this task
    restarts: int = 0   # crash/hang recoveries (a subset of spawns)
    steps: int = 0
    step_seconds_total: float = 0.0
    # Per-request round-trip latency distribution (successful round trips
    # only, same population as step_seconds_total) — fixed-bucket, so rows
    # from different processes merge deterministically.
    latency: LatencyHistogram = field(default_factory=LatencyHistogram)

    def to_row(self) -> Dict[str, object]:
        return {
            "spawns": self.spawns,
            "restarts": self.restarts,
            "steps": self.steps,
            "step_seconds_total": round(self.step_seconds_total, 6),
            "mean_step_seconds": round(
                self.step_seconds_total / self.steps if self.steps else 0.0, 6
            ),
            "request_latency": self.latency.to_dict(),
        }


class SubprocessSimulator:
    """Fault-tolerant driver of slice workloads on one server process.

    The server process persists across tasks (LOAD resets the session), so an
    engine campaign pays the interpreter spawn once per slice, not once per
    epoch.  ``command_factory(spawn_index)`` overrides the argv per spawn —
    the fault drills use it to give only the *first* process a crash/hang
    flag.
    """

    def __init__(
        self,
        command: Optional[List[str]] = None,
        command_factory: Optional[Callable[[int], List[str]]] = None,
        request_timeout: float = DEFAULT_REQUEST_TIMEOUT,
        max_restarts: int = DEFAULT_MAX_RESTARTS,
    ) -> None:
        if max_restarts < 0:
            raise ValueError(f"max_restarts must be non-negative, got {max_restarts}")
        self.command = command
        self.command_factory = command_factory
        self.request_timeout = request_timeout
        self.max_restarts = max_restarts
        self.lifetime_spawns = 0
        self.lifetime_restarts = 0
        self.last_used = time.monotonic()
        # From acquisition to the end of run_task: the pool never evicts a
        # busy simulator.
        self.busy = False
        self._process: Optional[SimServerProcess] = None

    @property
    def pid(self) -> Optional[int]:
        return self._process.pid if self._process is not None else None

    @property
    def alive(self) -> bool:
        return self._process is not None and self._process.alive

    def run_task(self, task: ShardTask) -> Dict[str, object]:
        """LOAD + STEP a slice task to completion; returns its result payload
        (with the process counters in its diagnostics).

        Whenever the server is missing or dead, a new one is spawned and sent
        ``LOAD`` at the step the task reached.  Its digest must equal the last
        one this task was sent — a mismatch is a :class:`SimProtocolError` —
        and the pending request is then sent again.
        """
        self.busy = True
        self.last_used = time.monotonic()
        stats = SimTaskStats()
        wire = shard_task_to_wire(task)
        steps_done, digest, loaded, crashes = 0, None, False, 0
        try:
            while True:
                try:
                    if not self.alive:
                        self._process = self._spawn()
                        stats.spawns += 1
                        loaded = False
                    if not loaded:
                        response = self._call(
                            {"type": "LOAD", "task": wire, "steps": steps_done}, "LOADED"
                        )
                        if digest is not None and response["digest"] != digest:
                            self._process.kill()
                            raise SimProtocolError(
                                f"state digest mismatch after LOAD at step "
                                f"{steps_done}: the replayed session diverged "
                                f"(non-deterministic simulator?)"
                            )
                        digest, loaded = response["digest"], True
                    started = time.perf_counter()
                    response = self._call({"type": "STEP"}, "STEP")
                except SimServerCrash as error:
                    self._process.kill()
                    crashes += 1
                    stats.restarts += 1
                    self.lifetime_restarts += 1
                    if crashes > self.max_restarts:
                        raise SimServerCrash(
                            f"simulator server died {crashes} times on one task "
                            f"(max_restarts={self.max_restarts}); giving up"
                        ) from None
                    print(
                        f"[sim.client] {error}; restarting and replaying to "
                        f"step {steps_done}",
                        file=sys.stderr,
                        flush=True,
                    )
                    continue
                # Only successful STEP round trips are timed: recovery
                # (respawn, LOAD replay) and timed-out attempts would inflate
                # the mean step wall clock the diagnostics report.
                elapsed = time.perf_counter() - started
                stats.steps += 1
                stats.step_seconds_total += elapsed
                stats.latency.record(elapsed)
                steps_done, digest = response["steps"], response["digest"]
                if response["done"]:
                    payload = response["payload"]
                    payload["diagnostics"].update(stats.to_row())
                    return payload
        finally:
            self.busy = False

    def close(self) -> None:
        """Shut the server process down; the simulator stays reusable."""
        if self._process is not None:
            self._process.quit()
            self._process = None

    def _spawn(self) -> SimServerProcess:
        if self.command_factory is not None:
            command = self.command_factory(self.lifetime_spawns)
        else:
            command = self.command
        self.lifetime_spawns += 1
        return SimServerProcess(command, request_timeout=self.request_timeout)

    def _call(self, frame: Dict[str, object], expected: str) -> Dict[str, object]:
        response = self._process.request(frame)
        if response["type"] != expected:
            raise SimProtocolError(
                f"expected {expected}, got {response['type']!r}: {response!r}"
            )
        return response


class SimProcessPool:
    """Per-slice simulator servers, spawned lazily and reused across epochs.

    The pool keeps at most ``max_live_servers`` server processes alive
    (default: ``max(4, cpu_count)``): acquiring a new slot past the cap quits
    the least-recently-used *idle* server first, so slot affinity is kept
    while the process count stays bounded — a process-pool worker that is
    handed a different slice every epoch accumulates closed slots, not idle
    interpreters.  An evicted slot keeps its entry (and lifetime counters)
    and simply respawns on next use.
    """

    def __init__(
        self,
        command: Optional[List[str]] = None,
        request_timeout: float = DEFAULT_REQUEST_TIMEOUT,
        max_restarts: int = DEFAULT_MAX_RESTARTS,
        max_live_servers: Optional[int] = None,
    ) -> None:
        if max_live_servers is not None and max_live_servers < 1:
            raise ValueError(
                f"max_live_servers must be at least 1, got {max_live_servers}"
            )
        self.command = command
        self.request_timeout = request_timeout
        self.max_restarts = max_restarts
        self.max_live_servers = max_live_servers or max(4, os.cpu_count() or 1)
        self._simulators: Dict[int, SubprocessSimulator] = {}
        self._lock = threading.Lock()

    def simulator(self, slot: int) -> SubprocessSimulator:
        """The simulator serving one slice slot (created on first use).

        It is returned busy: another thread acquiring a slot at the same
        time cannot evict it before the caller's task begins.
        """
        with self._lock:
            simulator = self._simulators.get(slot)
            if simulator is None:
                simulator = SubprocessSimulator(
                    command=self.command,
                    request_timeout=self.request_timeout,
                    max_restarts=self.max_restarts,
                )
                self._simulators[slot] = simulator
            if not simulator.alive:
                self._evict_idle_servers(keep=slot)
            simulator.busy = True
            return simulator

    def _evict_idle_servers(self, keep: int) -> None:
        """Quit LRU idle servers until a newcomer fits under the cap."""
        while True:
            live = [
                (existing.last_used, existing_slot)
                for existing_slot, existing in self._simulators.items()
                if existing.alive and existing_slot != keep
            ]
            if len(live) < self.max_live_servers:
                return
            idle = sorted(
                entry
                for entry in live
                if not self._simulators[entry[1]].busy
            )
            if not idle:
                return  # everything is mid-task; let the OS arbitrate
            self._simulators[idle[0][1]].close()

    def run_task(self, task: ShardTask) -> Dict[str, object]:
        return self.simulator(task.slice_index).run_task(task)

    def processes(self) -> List[Dict[str, object]]:
        """A snapshot of the pool's server processes (slot, pid, liveness).

        The supported observation surface for fault drills — "wait until a
        server is up, then SIGKILL it" — mirroring
        :meth:`repro.core.distributed.DistributedBackend.workers`.
        """
        with self._lock:
            return [
                {
                    "slot": slot,
                    "pid": simulator.pid,
                    "alive": simulator.alive,
                    "spawns": simulator.lifetime_spawns,
                    "restarts": simulator.lifetime_restarts,
                }
                for slot, simulator in sorted(self._simulators.items())
            ]

    def close(self) -> None:
        """Quit every server process; idempotent."""
        with self._lock:
            simulators = list(self._simulators.values())
            self._simulators.clear()
        for simulator in simulators:
            simulator.close()


_default_pool: Optional[SimProcessPool] = None
_default_pool_lock = threading.Lock()


def _forget_default_pool_in_child() -> None:
    """Fork hygiene: a forked child (e.g. a ProcessPoolExecutor worker)
    inherits the parent's pool dict and server pipe fds; quitting them at the
    child's exit would shut down servers the parent still owns.  The child
    forgets the inherited pool and lazily builds its own."""
    global _default_pool, _default_pool_lock
    _default_pool = None
    _default_pool_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_default_pool_in_child)


def default_pool() -> SimProcessPool:
    """The process-wide pool the execution backends dispatch through."""
    global _default_pool
    with _default_pool_lock:
        if _default_pool is None:
            _default_pool = SimProcessPool()
            atexit.register(close_default_pool)
        return _default_pool


def close_default_pool() -> None:
    """Quit the default pool's servers and forget it (next use starts fresh).

    Benchmarks call this before measuring so spawn counts and reuse behaviour
    do not depend on what ran earlier in the same process."""
    global _default_pool
    with _default_pool_lock:
        pool, _default_pool = _default_pool, None
    if pool is not None:
        pool.close()


def run_task_on_default_pool(task: ShardTask) -> Dict[str, object]:
    """Entry point for ``ShardTask.simulator == "subprocess"`` dispatch."""
    return default_pool().run_task(task)
