"""Distributed scaling — two worker daemons versus one.

The paper's campaigns are bounded by slow RTL simulators, so the distributed
backend's job is to spread that *waiting* over a fleet: this benchmark
injects a per-simulation latency (``step_latency``, the same slow-simulator
stand-in the elastic-resume benchmark uses) and runs one 4-slice campaign
through a coordinator with one worker daemon (the reference arm) and with
two (the fast arm), in alternating pairs (:func:`bench_utils.paired_ratio`)
on two fleets that stay connected across the pairs.  A third fleet of two
workers loses one to SIGKILL (no goodbye) while it holds a task.

Asserts

* **fleet scaling** — the median one-worker/two-worker ratio is at least
  1.4 (the waits of concurrently assigned slices overlap across daemons),
* **fault tolerance** — the killed worker's in-flight tasks are observed
  being reassigned to the survivor (``reassigned_tasks >= 1``) and the
  campaign still completes.

That every fleet, the degraded one included, yields the inline backend's
campaign byte for byte is ``tests/test_campaign_matrix.py``'s job
(``distributed``, ``distributed-flaky-worker`` and ``distributed-resume``).
The committed artifact (``benchmarks/results/distributed_scaling.txt``)
contains only deterministic facts — configuration, coverage/report counts,
the bar — so it is byte-reproducible standalone or in the full suite; the
per-pair wall clocks go to the untracked
``benchmarks/results/timing/distributed_scaling.txt``.
"""

import os
import signal
import subprocess
import sys
import threading
import time

from bench_utils import format_table, paired_ratio, save_results, save_timing_results

from repro.core import run_parallel_campaign
from repro.core.distributed import DistributedBackend
from repro.core.worker import run_worker
from repro.uarch import small_boom_config

TOTAL_ITERATIONS = 8
SHARDS = 4
SYNC_EPOCHS = 2
ENTROPY = 77


def run_campaign(step_latency, backend=None):
    return run_parallel_campaign(
        small_boom_config(),
        shards=SHARDS,
        slices=SHARDS,
        iterations=TOTAL_ITERATIONS,
        sync_epochs=SYNC_EPOCHS,
        entropy=ENTROPY,
        executor="inline",
        step_latency=step_latency,
        backend=backend,
    )


def fleet(workers, threads=None):
    """A coordinator awaiting ``workers`` daemons, ``threads`` (default: all)
    of which run in this process."""
    backend = DistributedBackend(listen="127.0.0.1:0", min_workers=workers)
    for _ in range(workers if threads is None else threads):
        threading.Thread(
            target=run_worker,
            kwargs=dict(connect="%s:%d" % backend.address, quiet=True),
            daemon=True,
        ).start()
    return backend


def run_degraded(step_latency):
    """Two workers; the subprocess one is SIGKILLed holding an in-flight task."""
    backend = fleet(2, threads=1)
    source_root = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
    )
    victim = subprocess.Popen(
        [sys.executable, "-m", "repro.core.worker", "--connect",
         "%s:%d" % backend.address, "--retry", "30", "--quiet"],
        env=dict(os.environ, PYTHONPATH=source_root),
    )

    def kill_when_busy():
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            busy = any(
                row["pid"] == victim.pid and row["inflight"] and row["alive"]
                for row in backend.workers()
            )
            if busy:
                os.kill(victim.pid, signal.SIGKILL)
                return
            time.sleep(0.02)

    try:
        assassin = threading.Thread(target=kill_when_busy, daemon=True)
        assassin.start()
        result = run_campaign(step_latency, backend=backend)
        assassin.join(timeout=60)
        return result, backend.reassigned_tasks
    finally:
        backend.close()
        if victim.poll() is None:
            victim.kill()
        victim.wait(timeout=30)


def test_distributed_scaling():
    # Calibrate the injected wait against this host's compute speed, keeping
    # the campaign waiting-dominated on fast and slow hosts alike.
    started = time.perf_counter()
    run_campaign(0.0)
    latency = max(0.01, round((time.perf_counter() - started) / 16, 3))

    single, double = fleet(1), fleet(2)
    try:
        paired = paired_ratio(
            lambda: run_campaign(latency, backend=single),
            lambda: run_campaign(latency, backend=double),
        )
    finally:
        single.close()
        double.close()
    degraded, reassigned = run_degraded(latency)

    save_timing_results(
        "distributed_scaling",
        f"injected latency {latency}s/simulation\n\n"
        + paired.table("one worker", "two workers"),
    )

    # Fleet scaling: two daemons overlap the waits one daemon pays serially.
    assert paired.median >= 1.4, (
        f"two workers should beat one on a latency-bound campaign: "
        f"one/two workers {paired.describe()}"
    )
    # Fault tolerance: the kill landed while work was in flight, and the
    # survivor inherited it.
    assert reassigned >= 1
    assert degraded.complete

    table = format_table(
        ["Workers", "Coverage", "Reports"],
        [
            [workers, result.total_coverage(), len(result.campaign.reports)]
            for workers, result in (
                (1, paired.reference[0]), (2, paired.fast[0]),
                ("2, one killed mid-epoch", degraded),
            )
        ],
    )
    table += (
        f"\n\n{SHARDS} shards = {SHARDS} slices x {TOTAL_ITERATIONS} iterations, "
        f"{SYNC_EPOCHS} sync epochs; root entropy: {ENTROPY}"
    )
    table += (
        "\ninjected per-simulation latency calibrated to keep the campaign"
        " waiting-dominated"
        "\nbar: median one-worker/two-worker ratio of alternating pairs >= 1.4: met"
        "\nkilled worker's tasks reassigned to the survivor: True"
    )
    save_results("distributed_scaling", table)
