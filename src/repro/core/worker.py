"""The distributed campaign worker daemon.

One worker daemon connects to a :class:`~repro.core.distributed.DistributedBackend`
coordinator, announces itself (HELLO: capacity + local backend + auth token
when the fleet uses one), and then runs whatever TASK batches arrive through
any *local* execution backend — serial ``inline`` (the default) or a
``process`` pool sized to ``--capacity`` (threads for subprocess-simulated
batches, so one daemon serves campaigns of both simulator modes).  RESULT
frames carry each finished task's payload back; a HEARTBEAT side thread
keeps beating even while a batch is running, so the coordinator can tell
"busy" from "gone".

The daemon is stateless between batches: every task payload is
self-contained (full fuzzer configuration, baseline coverage, initial
seed), so a worker can join mid-campaign, die without notice (the
coordinator reassigns its tasks), or serve several campaigns in a row.

Run it::

    python -m repro.core.worker --connect HOST:PORT [--capacity N]
                                [--backend inline|process]
                                [--auth-token SECRET]

``--retry`` is the daemon's outage budget (default 10s): it bounds how long
the *initial* connection is retried, and how long the daemon keeps
reconnecting after a lost connection, a malformed frame or a local backend
failure.  A backend exception mid-batch does not kill the daemon — the
connection is dropped (so the coordinator immediately reassigns the batch), a
fresh backend is built, and the daemon re-joins the fleet; because tasks are
pure functions of their payloads the campaign's results are unaffected.  An
authentication or protocol-version rejection is terminal: retrying cannot
fix a wrong ``--auth-token`` or a coordinator from another revision.
"""

from __future__ import annotations

import argparse
import os
import socket
import threading
import time
from typing import Callable, List, Optional

from repro.core.backends import BACKEND_NAMES, ExecutionBackend, create_backend
from repro.core.distributed import HEARTBEAT_INTERVAL, parse_address, send_frame
from repro.core.wire import PROTOCOL_VERSION, read_frame, shard_task_from_wire
from repro.telemetry.metrics import LatencyHistogram

__all__ = ["run_worker", "main"]

# The worker's local backends exclude "distributed" — a worker farming its
# tasks to further workers would be a fleet topology, not a local executor.
LOCAL_BACKEND_NAMES = tuple(
    name for name in BACKEND_NAMES if name != "distributed"
)


def _connect_with_retry(
    host: str, port: int, retry_seconds: float, log
) -> Optional[socket.socket]:
    deadline = time.monotonic() + max(0.0, retry_seconds)
    while True:
        try:
            return socket.create_connection((host, port), timeout=5.0)
        except OSError as error:
            if time.monotonic() >= deadline:
                log(f"giving up on {host}:{port} ({error})")
                return None
            time.sleep(0.2)


def _serve_connection(
    sock: socket.socket,
    local: ExecutionBackend,
    capacity: int,
    backend_name: str,
    heartbeat_interval: float,
    auth_token: Optional[str],
    log,
) -> str:
    """Serve one coordinator connection; returns why it ended.

    ``"bye"`` — orderly goodbye; ``"rejected"`` — the coordinator refused our
    auth token or protocol version; ``"hangup"`` — EOF without a BYE (coordinator gone);
    ``"io-error"`` — the socket broke mid-batch; ``"protocol-error"`` — the
    coordinator sent a malformed frame (oversized, truncated, not JSON, or a
    TASK whose wire form lacks a key); ``"backend-error"`` — the local
    backend raised while running a batch.  The last three drop the
    connection so the coordinator reassigns the batch immediately.
    """
    write_lock = threading.Lock()
    stop_beating = threading.Event()
    # Daemon-side telemetry: batch turnaround distribution and task count,
    # summarized in one log line when the connection ends (the coordinator
    # keeps its own fabric-side roundtrip histograms).
    batch_seconds = LatencyHistogram()
    tasks_served = 0

    def beat() -> None:
        while not stop_beating.wait(heartbeat_interval):
            try:
                send_frame(sock, {"type": "HEARTBEAT"}, write_lock)
            except OSError:
                return

    reader = sock.makefile("rb")
    try:
        hello = {
            "type": "HELLO",
            "version": PROTOCOL_VERSION,
            "worker": f"{socket.gethostname()}:{os.getpid()}",
            "pid": os.getpid(),
            "capacity": capacity,
            "backend": backend_name,
        }
        if auth_token is not None:
            hello["auth"] = auth_token
        send_frame(sock, hello, write_lock)
        threading.Thread(target=beat, name="worker-heartbeat", daemon=True).start()
        log(f"connected (capacity {capacity}, {backend_name} backend)")
        while True:
            frame = read_frame(reader)
            if frame is None:
                log("coordinator hung up")
                return "hangup"
            kind = frame.get("type")
            if kind == "BYE":
                reason = frame.get("reason", "no reason")
                log(f"coordinator said goodbye ({reason})")
                if frame.get("code") in ("auth", "version"):
                    return "rejected"
                return "bye"
            if kind != "TASK":
                continue
            try:
                entries: List[dict] = frame["tasks"]
                task_ids = [entry["task_id"] for entry in entries]
                tasks = [shard_task_from_wire(entry["task"]) for entry in entries]
            except (KeyError, TypeError, ValueError) as error:
                raise ValueError(f"malformed TASK frame: {error!r}") from None
            log(
                f"running batch of {len(tasks)}: "
                + ", ".join(
                    f"epoch {task.epoch} slice {task.slice_index}" for task in tasks
                )
            )
            batch_started = time.perf_counter()
            try:
                payloads = local.run_epoch(tasks)
            except Exception as error:  # noqa: BLE001 — any backend failure
                log(f"local backend failed mid-batch: {error!r}")
                return "backend-error"
            batch_seconds.record(time.perf_counter() - batch_started)
            tasks_served += len(tasks)
            for task_id, payload in zip(task_ids, payloads):
                send_frame(
                    sock,
                    {"type": "RESULT", "task_id": task_id, "payload": payload},
                    write_lock,
                )
    except OSError as error:
        log(f"connection lost: {error}")
        return "io-error"
    except ValueError as error:
        log(f"protocol error: {error}")
        return "protocol-error"
    finally:
        stop_beating.set()
        if batch_seconds.count:
            log(
                f"served {batch_seconds.count} batch(es), {tasks_served} "
                f"task(s); batch p50 {batch_seconds.percentile(50):.3f}s "
                f"p90 {batch_seconds.percentile(90):.3f}s"
            )
        try:
            sock.close()
        except OSError:
            pass


def run_worker(
    connect: str,
    capacity: int = 1,
    backend: str = "inline",
    heartbeat_interval: float = HEARTBEAT_INTERVAL,
    retry_seconds: float = 10.0,
    quiet: bool = False,
    auth_token: Optional[str] = None,
    backend_factory: Optional[Callable[[], ExecutionBackend]] = None,
) -> int:
    """Serve a coordinator until an orderly end; returns an exit code.

    ``capacity`` is the largest TASK batch the coordinator may send at once;
    batches run on the local ``backend`` (a pool sized to the same
    capacity).  ``backend_factory`` substitutes a caller-built backend per
    connection — the crash-injection tests use it to hand the worker a
    backend that fails mid-batch.  The function blocks for the daemon's
    whole life — callers that want a worker *and* a coordinator in one
    process run it on a thread, exactly like the tests do.

    The daemon survives outages: after a lost connection, a malformed frame
    or a local backend failure it rebuilds its backend and reconnects,
    retrying each outage for up to ``retry_seconds`` before giving up.
    """
    if capacity <= 0:
        raise ValueError(f"capacity must be positive, got {capacity}")
    if backend_factory is None and backend not in LOCAL_BACKEND_NAMES:
        raise ValueError(
            f"unknown worker backend {backend!r} "
            f"(known: {', '.join(LOCAL_BACKEND_NAMES)})"
        )
    log = (lambda message: None) if quiet else (
        lambda message: print(f"[worker {os.getpid()}] {message}", flush=True)
    )
    host, port = parse_address(connect)
    while True:
        sock = _connect_with_retry(host, port, retry_seconds, log)
        if sock is None:
            return 1
        if backend_factory is not None:
            local = backend_factory()
        else:
            local = create_backend(backend, max_workers=capacity)
        try:
            outcome = _serve_connection(
                sock,
                local,
                capacity=capacity,
                backend_name=backend,
                heartbeat_interval=heartbeat_interval,
                auth_token=auth_token,
                log=log,
            )
        finally:
            local.close()
        if outcome in ("bye", "hangup"):
            return 0
        if outcome == "rejected":
            return 1
        # io-error / protocol-error / backend-error: drop back into the
        # reconnect loop so the coordinator reassigns the batch and this
        # daemon re-joins the fleet.
        log(f"reconnecting after {outcome} (retry budget {retry_seconds:.0f}s)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.core.worker",
        description="Run a distributed-campaign worker daemon.",
    )
    parser.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help="coordinator address (the engine's --listen)",
    )
    parser.add_argument(
        "--capacity",
        type=int,
        default=1,
        help="max tasks per batch; also sizes the local backend (default: 1)",
    )
    parser.add_argument(
        "--backend",
        choices=sorted(LOCAL_BACKEND_NAMES),
        default="inline",
        help="local execution backend the batches run on (default: inline)",
    )
    parser.add_argument(
        "--auth-token",
        default=None,
        metavar="SECRET",
        help="shared secret carried in HELLO; must match the coordinator's "
        "--auth-token (workers with a wrong or missing token are rejected)",
    )
    parser.add_argument(
        "--heartbeat",
        type=float,
        default=HEARTBEAT_INTERVAL,
        metavar="SECONDS",
        help=f"heartbeat interval (default: {HEARTBEAT_INTERVAL})",
    )
    parser.add_argument(
        "--retry",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="per-outage budget for (re)connecting to the coordinator: "
        "initial connection, lost connections, malformed frames and local "
        "backend failures all retry this long (default: 10)",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-batch logging"
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return run_worker(
            connect=args.connect,
            capacity=args.capacity,
            backend=args.backend,
            heartbeat_interval=args.heartbeat,
            retry_seconds=args.retry,
            quiet=args.quiet,
            auth_token=args.auth_token,
        )
    except ValueError as error:
        print(f"error: {error}")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
