#!/usr/bin/env python3
"""Run one campaign across a fleet of worker daemons — and survive losing one.

A self-contained demo of the distributed campaign fabric: it starts a
coordinator (:class:`repro.core.distributed.DistributedBackend`) on a free
localhost port, launches two ``python -m repro.core.worker`` daemons as real
subprocesses, runs a latency-injected campaign across them, and — unless
``--keep-fleet`` — SIGKILLs one daemon the moment it holds an in-flight task,
so the coordinator's heartbeat/reassignment machinery visibly kicks in.  The
merged result is then diffed against a plain single-process inline run: the
wire forms must be byte-identical, worker loss included.

Usage::

    python examples/distributed_campaign.py [shards] [iterations] [latency] [--keep-fleet]

The same topology without driver code, spread over real hosts::

    # on the coordinator host
    python -m repro.core.engine --backend distributed --listen 0.0.0.0:7801 \
        --cores boom,xiangshan --iterations 200
    # on each worker host
    python -m repro.core.worker --connect coordinator:7801 --capacity 2
"""

import os
import signal
import subprocess
import sys
import threading
import time

from repro.analysis import worker_utilization_table
from repro.core import run_parallel_campaign
from repro.core.distributed import DistributedBackend
from repro.uarch import small_boom_config


def start_worker(address):
    environment = dict(os.environ)
    source_root = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
    )
    environment["PYTHONPATH"] = (
        source_root + os.pathsep + environment.get("PYTHONPATH", "")
    )
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro.core.worker",
            "--connect", f"{address[0]}:{address[1]}",
            "--retry", "30",
        ],
        env=environment,
    )


def kill_when_busy(backend, victim):
    """SIGKILL the victim daemon once it holds an in-flight task."""
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        busy = any(
            row["pid"] == victim.pid and row["inflight"] and row["alive"]
            for row in backend.workers()
        )
        if busy:
            print(f"\n>>> killing worker pid {victim.pid} mid-epoch (SIGKILL)")
            os.kill(victim.pid, signal.SIGKILL)
            return
        time.sleep(0.02)


def main() -> int:
    arguments = [argument for argument in sys.argv[1:] if argument != "--keep-fleet"]
    keep_fleet = "--keep-fleet" in sys.argv[1:]
    shards = int(arguments[0]) if len(arguments) > 0 else 4
    iterations = int(arguments[1]) if len(arguments) > 1 else 12
    latency = float(arguments[2]) if len(arguments) > 2 else 0.02
    core = small_boom_config()
    entropy = 4242

    def run(backend=None):
        return run_parallel_campaign(
            core,
            shards=shards,
            iterations=iterations,
            sync_epochs=2,
            entropy=entropy,
            executor="inline",
            step_latency=latency if backend is not None else 0.0,
            backend=backend,
        )

    print("single-process inline reference run...")
    reference = run()

    backend = DistributedBackend(listen="127.0.0.1:0", min_workers=2)
    host, port = backend.address
    print(f"coordinator listening on {host}:{port}; launching 2 worker daemons")
    workers = [start_worker(backend.address) for _ in range(2)]
    try:
        if not keep_fleet:
            threading.Thread(
                target=kill_when_busy, args=(backend, workers[0]), daemon=True
            ).start()
        started = time.perf_counter()
        distributed = run(backend=backend)
        elapsed = time.perf_counter() - started
    finally:
        backend.close()
        for worker in workers:
            if worker.poll() is None:
                worker.kill()
            worker.wait(timeout=30)

    print(f"\ndistributed campaign finished in {elapsed:.2f}s "
          f"({backend.reassigned_tasks} task(s) reassigned after worker loss)")
    print("\nper-worker utilization:")
    for row in worker_utilization_table(distributed.task_log):
        print(
            f"  {row['worker']} ({row['name']}): {row['tasks']} tasks over "
            f"{row['epochs']} epoch(s), {row['task_seconds']:.2f} task-seconds, "
            f"{row['reassigned_tasks']} inherited from lost workers"
        )

    identical = distributed.campaign.to_dict(
        include_timing=False
    ) == reference.campaign.to_dict(include_timing=False)
    print(f"\ncoverage={distributed.total_coverage()} "
          f"reports={len(distributed.campaign.reports)}")
    print(f"results byte-identical to the inline reference "
          f"(worker loss included): {identical}")
    if not keep_fleet and backend.reassigned_tasks == 0:
        print("note: the victim worker finished before the kill landed; "
              "re-run with a higher latency to see reassignment")
    return 0 if identical else 1


if __name__ == "__main__":
    raise SystemExit(main())
