"""Multi-host distributed execution for the sharded campaign engine.

This module turns the :class:`~repro.core.backends.ExecutionBackend` seam
into a fleet: a :class:`DistributedBackend` coordinator farms one sync
epoch's :class:`~repro.core.backends.ShardTask` payloads out to remote
worker daemons (``python -m repro.core.worker``, :mod:`repro.core.worker`)
over a line-oriented TCP protocol, and folds the result payloads back for
the :class:`~repro.core.engine.CampaignScheduler`.

Wire protocol — frames of :mod:`repro.core.wire` (one JSON object per
line, at most :data:`~repro.core.wire.MAX_FRAME_BYTES`), five frame types:

==========  ======================  ==========================================
frame       direction               fields
==========  ======================  ==========================================
HELLO       worker -> coordinator   ``version``, ``worker`` (host:pid),
                                    ``capacity`` (max tasks per batch),
                                    ``backend`` (the worker's local backend),
                                    ``auth`` (shared secret, only when the
                                    fleet runs with ``--auth-token``)
TASK        coordinator -> worker   ``tasks``: list of ``{task_id, task}``
                                    entries (at most ``capacity`` per frame)
RESULT      worker -> coordinator   ``task_id``, ``payload`` (the shard's
                                    :func:`~repro.core.backends.run_shard_task`
                                    result dict)
HEARTBEAT   worker -> coordinator   none — liveness only, sent from a side
                                    thread even while a batch is running
BYE         either direction        optional ``reason`` (human-readable) and
                                    ``code`` (machine-readable: ``auth`` or
                                    ``version`` on a rejected HELLO); an
                                    orderly goodbye
==========  ======================  ==========================================

Authentication: when the coordinator is constructed with an ``auth_token``,
every HELLO must carry the same token in its ``auth`` field; a mismatched
(or missing) token is rejected with a ``BYE reason="auth token mismatch"``
and a coordinator-side warning log line, and the worker is never admitted to
the fleet.  This is a shared-secret gate for semi-trusted networks — the
stream itself is not encrypted (TLS remains a follow-up).  A HELLO whose
``version`` is not :data:`~repro.core.wire.PROTOCOL_VERSION` is rejected the
same way (``code="version"``): the wire forms carry no defaults, so
coordinator and workers must run the same revision.

Fault tolerance: a worker that closes its socket, says BYE, or misses
heartbeats for longer than ``heartbeat_timeout`` is declared dead, its
connection is shut down, and its unfinished tasks are *reassigned* to
surviving workers (or to the next worker that joins — workers may connect at
any time, including mid-epoch).  A late RESULT from a worker that was wrongly
declared dead is dropped: a duplicate within the epoch loses to the first
delivery, and a RESULT for a task the running epoch did not dispatch is
ignored.  Because a :class:`~repro.core.backends.ShardTask` is a pure
function of its payload and the scheduler consumes only merged per-epoch
data, a re-run task returns an identical payload — so worker count, join
order, and mid-epoch worker loss can never change campaign results, which
stay **byte-identical** to an inline run.  Losing the *entire* fleet mid-
campaign is handled one layer up: the engine's checkpoint/resume restarts
from the last merged epoch.

The coordinator never pickles anything: :class:`ShardTask` crosses the wire
in the task wire form of :mod:`repro.core.wire`, so coordinator and workers
only need the same code, not the same process image.
"""

from __future__ import annotations

import logging
import socket
import threading
import time
from collections import deque
from contextlib import nullcontext
from typing import Dict, List, Optional, Tuple

from repro.core.backends import ExecutionBackend, ShardTask
from repro.core.wire import PROTOCOL_VERSION, encode_frame, read_frame, shard_task_to_wire
from repro.telemetry.metrics import MetricsRegistry

__all__ = ["DistributedBackend", "parse_address", "send_frame"]

logger = logging.getLogger(__name__)

# Liveness defaults: workers beat every HEARTBEAT_INTERVAL seconds; the
# coordinator declares a silent worker dead after DEFAULT_HEARTBEAT_TIMEOUT.
HEARTBEAT_INTERVAL = 2.0
DEFAULT_HEARTBEAT_TIMEOUT = 15.0
# How long run_epoch tolerates having *zero* live workers (waiting for the
# first one to join, or for a replacement after losing the whole fleet)
# before giving up.
DEFAULT_WORKER_WAIT_TIMEOUT = 120.0


def parse_address(address: str) -> Tuple[str, int]:
    """Split ``"host:port"`` (port may be 0 for bind-any-free-port).

    IPv6 literals use the standard bracket syntax (``[::1]:7801``); the
    brackets are stripped so the returned host feeds straight into the
    socket layer.
    """
    host, separator, port_text = address.rpartition(":")
    if not separator or not host:
        raise ValueError(
            f"expected HOST:PORT (e.g. 127.0.0.1:7801), got {address!r}"
        )
    if host.startswith("[") and host.endswith("]"):
        host = host[1:-1]
    elif ":" in host:
        raise ValueError(
            f"IPv6 literals need brackets, e.g. [::1]:7801, got {address!r}"
        )
    if not host:
        raise ValueError(f"empty host in {address!r}")
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(f"invalid port in {address!r}") from None
    if not 0 <= port <= 65535:
        raise ValueError(f"port out of range in {address!r}")
    return host, port


# -- framing ---------------------------------------------------------------------------------


def send_frame(
    sock: socket.socket,
    frame: Dict[str, object],
    lock: Optional[threading.Lock] = None,
) -> None:
    """Write one frame; ``lock`` serialises concurrent writers.

    A worker writes RESULT frames from its main loop and HEARTBEAT frames
    from a side thread over the same socket — interleaving two partial lines
    would corrupt the stream, so both go through one lock.
    """
    with lock or nullcontext():
        sock.sendall(encode_frame(frame))


# -- the coordinator -------------------------------------------------------------------------


class _WorkerConnection:
    """Coordinator-side state of one connected worker daemon."""

    def __init__(
        self,
        worker_id: str,
        sock: socket.socket,
        name: str,
        capacity: int,
        backend: str,
        pid: Optional[int],
    ) -> None:
        self.worker_id = worker_id
        self.sock = sock
        self.name = name
        self.capacity = max(1, capacity)
        self.backend = backend
        self.pid = pid
        self.write_lock = threading.Lock()
        self.alive = True
        self.last_heartbeat = time.monotonic()
        # task_id -> assigned task wire entry, for reassignment on loss.
        self.inflight: Dict[str, Dict[str, object]] = {}
        self.tasks_completed = 0

    def close(self) -> None:
        # shutdown() first: the reader thread's makefile() holds the
        # descriptor open, so close() alone would not unblock its read.
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass


class DistributedBackend(ExecutionBackend):
    """TCP coordinator: leases slice tasks to remote worker daemons.

    The coordinator listens on ``listen`` (``host:port``; port 0 binds any
    free port — read the actual one from :attr:`address`) and accepts worker
    daemons at any time, before or during a campaign.  Each
    :meth:`run_epoch` call dispatches TASK batches of at most ``capacity``
    tasks to idle workers, reassigns the batches of workers that die
    mid-epoch, and returns once every task has a RESULT.

    The backend is intentionally dumb about campaign semantics: it neither
    inspects nor reorders payload contents.  All scheduling decisions stay in
    the transport-agnostic :class:`~repro.core.engine.CampaignScheduler`,
    which is what makes distributed results byte-identical to inline ones.
    The one exception is diagnostics: each delivered payload's
    ``diagnostics`` dict gains the delivering ``worker``, its ``name`` and
    whether the task was ``reassigned``, which
    :func:`repro.analysis.worker_utilization_table` reads back from
    ``EngineResult.task_log``.
    """

    name = "distributed"

    def __init__(
        self,
        listen: str = "127.0.0.1:0",
        min_workers: int = 1,
        heartbeat_timeout: float = DEFAULT_HEARTBEAT_TIMEOUT,
        worker_wait_timeout: float = DEFAULT_WORKER_WAIT_TIMEOUT,
        auth_token: Optional[str] = None,
    ) -> None:
        if min_workers <= 0:
            raise ValueError(f"min_workers must be positive, got {min_workers}")
        if heartbeat_timeout <= 0:
            raise ValueError(
                f"heartbeat_timeout must be positive, got {heartbeat_timeout}"
            )
        host, port = parse_address(listen)
        self.min_workers = min_workers
        self.heartbeat_timeout = heartbeat_timeout
        self.worker_wait_timeout = worker_wait_timeout
        self.auth_token = auth_token
        self.rejected_workers = 0
        self._condition = threading.Condition()
        self._workers: Dict[str, _WorkerConnection] = {}
        self._results: Dict[str, Dict[str, object]] = {}
        self._task_attempts: Dict[str, int] = {}
        self._next_worker_number = 0
        self._started = False  # min_workers gates only the first epoch
        self._closing = False
        self.reassigned_tasks = 0
        # Fabric telemetry (diagnostics only; the engine snapshots this
        # registry and attributes its growth to the finished run): dispatch
        # round-trip and heartbeat-gap distributions, loss/reassignment
        # counters.  Instruments are resolved once; reader threads record
        # without the condition lock — integer adds under the GIL.
        self.metrics = MetricsRegistry()
        fabric = self.metrics.scope("distributed")
        self._roundtrip_seconds = fabric.histogram("task_roundtrip_seconds")
        self._heartbeat_gap_seconds = fabric.histogram("heartbeat_gap_seconds")
        self._workers_lost_count = fabric.counter("workers_lost")
        self._tasks_reassigned_count = fabric.counter("tasks_reassigned")
        self._results_received_count = fabric.counter("results_received")
        self._workers_joined_count = fabric.counter("workers_joined")
        self._dispatch_times: Dict[str, float] = {}
        family = socket.AF_INET6 if ":" in host else socket.AF_INET
        self._server = socket.create_server((host, port), family=family)
        self.address: Tuple[str, int] = self._server.getsockname()[:2]
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="distributed-accept", daemon=True
        )
        self._accept_thread.start()

    # -- worker lifecycle -------------------------------------------------------------------

    def workers(self) -> List[Dict[str, object]]:
        """A snapshot of the connected fleet (id, name, pid, liveness, load).

        This is the supported observation surface for harnesses and fault
        drills — e.g. "wait until the daemon with pid P holds an in-flight
        task, then kill it" — so they need not reach into coordinator
        internals.
        """
        with self._condition:
            return [
                {
                    "worker": worker.worker_id,
                    "name": worker.name,
                    "pid": worker.pid,
                    "capacity": worker.capacity,
                    "backend": worker.backend,
                    "alive": worker.alive,
                    "inflight": len(worker.inflight),
                    "tasks_completed": worker.tasks_completed,
                }
                for worker in self._ordered_workers()
            ]

    def _ordered_workers(self) -> List[_WorkerConnection]:
        # Join order == numeric id order; a deterministic dispatch order keeps
        # the fleet's behaviour easy to reason about (results are order-proof
        # either way — the scheduler re-sorts payloads by shard).
        return [self._workers[key] for key in sorted(self._workers)]

    def _accept_loop(self) -> None:
        while not self._closing:
            try:
                conn, _ = self._server.accept()
            except OSError:
                return  # server socket closed
            threading.Thread(
                target=self._serve_worker,
                args=(conn,),
                name="distributed-worker-io",
                daemon=True,
            ).start()

    def _reject(self, conn: socket.socket, code: str, reason: str) -> None:
        """Refuse a HELLO: BYE with a machine-readable ``code`` (the worker
        keys its give-up-or-retry decision on it) and a human ``reason``."""
        self.rejected_workers += 1
        try:
            send_frame(conn, {"type": "BYE", "code": code, "reason": reason})
        except OSError:
            pass
        conn.close()

    def _serve_worker(self, conn: socket.socket) -> None:
        reader = conn.makefile("rb")
        try:
            hello = read_frame(reader)
        except ValueError:
            hello = None
        if not hello or hello.get("type") != "HELLO":
            conn.close()
            return
        if hello.get("version") != PROTOCOL_VERSION:
            logger.warning(
                "rejected worker %s: protocol version %r, coordinator speaks "
                "%d (run coordinator and workers from the same revision)",
                hello.get("worker", "?"),
                hello.get("version"),
                PROTOCOL_VERSION,
            )
            self._reject(conn, "version", "protocol version mismatch")
            return
        if self.auth_token is not None and hello.get("auth") != self.auth_token:
            logger.warning(
                "rejected worker %s: auth token mismatch (fleet runs with "
                "--auth-token; start workers with the same token)",
                hello.get("worker", "?"),
            )
            self._reject(conn, "auth", "auth token mismatch")
            return
        with self._condition:
            worker = _WorkerConnection(
                worker_id=f"w{self._next_worker_number:03d}",
                sock=conn,
                name=str(hello.get("worker", "?")),
                capacity=int(hello.get("capacity", 1)),
                backend=str(hello.get("backend", "inline")),
                pid=hello.get("pid"),
            )
            self._next_worker_number += 1
            self._workers[worker.worker_id] = worker
            self._workers_joined_count.add(1)
            self._condition.notify_all()
        try:
            while True:
                frame = read_frame(reader)
                if frame is None or frame.get("type") == "BYE":
                    return
                kind = frame.get("type")
                if kind == "HEARTBEAT":
                    # The observed inter-heartbeat gap (vs the nominal 2s
                    # interval) is the early-warning signal for workers
                    # drifting towards the liveness timeout.
                    now = time.monotonic()
                    self._heartbeat_gap_seconds.record(now - worker.last_heartbeat)
                    worker.last_heartbeat = now
                elif kind == "RESULT":
                    self._record_result(worker, frame)
        except ValueError as error:
            # Malformed stream: drop the worker like a disconnect; its
            # in-flight tasks are reassigned.
            logger.warning(
                "dropped worker %s (%s): %s", worker.worker_id, worker.name, error
            )
            return
        finally:
            with self._condition:
                worker.alive = False
                self._condition.notify_all()
            worker.close()

    def _record_result(
        self, worker: _WorkerConnection, frame: Dict[str, object]
    ) -> None:
        payload = frame.get("payload")
        if not isinstance(payload, dict) or "diagnostics" not in payload:
            # Before any bookkeeping: the task stays in flight and is
            # reassigned once the reader drops this worker.
            raise ValueError("malformed RESULT frame: no task payload")
        task_id = str(frame.get("task_id"))
        with self._condition:
            if not self._task_attempts.get(task_id):
                # Not dispatched by the running epoch: a late delivery from
                # an earlier one, dropped before any bookkeeping.
                return
            worker.last_heartbeat = time.monotonic()
            worker.inflight.pop(task_id, None)
            worker.tasks_completed += 1
            dispatched = self._dispatch_times.pop(task_id, None)
            if dispatched is not None:
                self._roundtrip_seconds.record(time.monotonic() - dispatched)
            self._results_received_count.add(1)
            if task_id in self._results:
                # A reassigned task finished twice (the original worker was
                # declared dead but still delivered).  Payloads are identical
                # by construction; the first delivery won.
                self._condition.notify_all()
                return
            payload["diagnostics"].update(
                worker=worker.worker_id,
                name=worker.name,
                reassigned=self._task_attempts.get(task_id, 1) > 1,
            )
            self._results[task_id] = payload
            self._condition.notify_all()

    # -- epoch execution --------------------------------------------------------------------

    def run_epoch(self, tasks: List[ShardTask]) -> List[Dict[str, object]]:
        if not tasks:
            return []
        order: List[str] = []
        wires: Dict[str, Dict[str, object]] = {}
        for task in tasks:
            task_id = f"e{task.epoch}-s{task.slice_index}"
            order.append(task_id)
            wires[task_id] = {
                "task_id": task_id,
                "task": shard_task_to_wire(task),
            }
        with self._condition:
            self._results = {}
            self._task_attempts = {task_id: 0 for task_id in order}
            pending = deque(order)
            if not self._started:
                # Fleet warm-up: lets an operator insist the first epoch is
                # spread over N daemons.  Later epochs run on whatever
                # survives — a shrunken fleet is slower, never stuck.
                self._await_workers(self.min_workers)
                self._started = True
        no_worker_since: Optional[float] = None
        while True:
            dispatches: List[Tuple[_WorkerConnection, List[Dict[str, object]]]] = []
            with self._condition:
                self._sweep_stale_workers()
                self._requeue_lost_tasks(pending)
                if len(self._results) == len(order):
                    break
                live = [worker for worker in self._ordered_workers() if worker.alive]
                if not live:
                    now = time.monotonic()
                    if no_worker_since is None:
                        no_worker_since = now
                    elif now - no_worker_since > self.worker_wait_timeout:
                        raise RuntimeError(
                            f"lost every worker and none joined within "
                            f"{self.worker_wait_timeout:.0f}s; "
                            f"{len(order) - len(self._results)} task(s) unfinished "
                            f"(resume the campaign from its checkpoint)"
                        )
                else:
                    no_worker_since = None
                    for worker in live:
                        if worker.inflight or not pending:
                            continue
                        batch = [
                            pending.popleft()
                            for _ in range(min(worker.capacity, len(pending)))
                        ]
                        for task_id in batch:
                            worker.inflight[task_id] = wires[task_id]
                            self._task_attempts[task_id] += 1
                            self._dispatch_times[task_id] = time.monotonic()
                        dispatches.append(
                            (worker, [wires[task_id] for task_id in batch])
                        )
                if not dispatches:
                    self._condition.wait(timeout=0.25)
            for worker, batch in dispatches:
                try:
                    send_frame(
                        worker.sock,
                        {"type": "TASK", "tasks": batch},
                        worker.write_lock,
                    )
                except OSError:
                    with self._condition:
                        worker.alive = False
                        self._condition.notify_all()
        with self._condition:
            return [self._results[task_id] for task_id in order]

    def _await_workers(self, count: int) -> None:
        """Block (under the condition) until ``count`` workers are alive."""
        deadline = time.monotonic() + self.worker_wait_timeout
        while True:
            live = sum(1 for worker in self._workers.values() if worker.alive)
            if live >= count:
                return
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise RuntimeError(
                    f"only {live}/{count} worker(s) joined within "
                    f"{self.worker_wait_timeout:.0f}s; start workers with "
                    f"python -m repro.core.worker --connect "
                    f"{self.address[0]}:{self.address[1]}"
                )
            self._condition.wait(timeout=min(0.25, remaining))

    def _sweep_stale_workers(self) -> None:
        """Declare workers dead when their heartbeats go silent."""
        now = time.monotonic()
        for worker in self._workers.values():
            if worker.alive and now - worker.last_heartbeat > self.heartbeat_timeout:
                worker.alive = False
                self._workers_lost_count.add(1)
                worker.close()  # unblocks its reader thread too

    def _requeue_lost_tasks(self, pending: deque) -> None:
        """Move dead workers' unfinished tasks back onto the queue (front)."""
        for worker in self._ordered_workers():
            if worker.alive or not worker.inflight:
                continue
            lost = [
                task_id
                for task_id in worker.inflight
                if task_id not in self._results
            ]
            worker.inflight.clear()
            for task_id in reversed(lost):
                pending.appendleft(task_id)
            self.reassigned_tasks += len(lost)
            self._tasks_reassigned_count.add(len(lost))

    def close(self) -> None:
        if self._closing:
            return
        self._closing = True
        with self._condition:
            workers = list(self._workers.values())
        for worker in workers:
            if worker.alive:
                try:
                    send_frame(
                        worker.sock,
                        {"type": "BYE", "reason": "campaign complete"},
                        worker.write_lock,
                    )
                except OSError:
                    pass
            worker.close()
        try:
            self._server.close()
        except OSError:
            pass
