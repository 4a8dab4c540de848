"""Out-of-process simulator throughput — real subprocess waits, no sleeps.

Every other scaling benchmark models the slow external RTL simulator with an
injected ``step_latency`` sleep; this one retires the stand-in.  One 4-slice
campaign runs against per-slice ``python -m repro.sim.server`` processes two
ways, in alternating pairs (:func:`bench_utils.paired_ratio`):

* ``inline`` (the reference arm) — strictly serial steps: every protocol
  round trip blocks the one worker,
* ``process`` (the fast arm) — the process backend drives the slice tasks
  on a pool of 4 threads, each blocking on its own round trip, so four
  server processes compute concurrently.

The campaign has as many slices as shards, so each arm runs 4 slice tasks
against 4 servers.  A throwaway campaign of the same shape on the process
backend pre-warms the server pool, spawning the servers concurrently (one
server per slice, at most ``max_live_servers`` alive), and
the measured runs spawn no server at all: the comparison is steady-state step
throughput, not interpreter start-up.

Asserts

* **steady state** — the warm-up leaves ``min(warm-up slice tasks,
  max_live_servers)`` servers alive, and every measured run spawns and
  restarts none,
* **overlap speedup** — on hosts with at least 4 CPUs (and outside CI),
  the median serial/threaded ratio is at least 2: genuine subprocess compute
  overlaps across server processes.  On smaller hosts the four servers
  time-slice fewer cores, so the assertion falls back to an overhead bound
  (the threaded run may not be more than 1.7x slower than serial).

That subprocess runs on every backend are byte-identical to the in-process
simulator is ``tests/test_campaign_matrix.py``'s job.  The committed artifact
(``benchmarks/results/subprocess_sim.txt``) contains only deterministic
facts — configuration, simulator process accounting, the bar and whether
this host gates on it; the per-pair wall clocks go to the untracked
``benchmarks/results/timing/subprocess_sim.txt``.
"""

import os

from bench_utils import format_table, paired_ratio, save_results, save_timing_results

from repro.core import run_parallel_campaign
from repro.sim.client import close_default_pool, default_pool
from repro.uarch import small_boom_config

# Large enough that server round trips take nearly all of the serial wall
# clock (see the step share in the timing table).
TOTAL_ITERATIONS = 24
SHARDS = 4
SYNC_EPOCHS = 1
ENTROPY = 99


def run_campaign(executor, entropy=ENTROPY):
    return run_parallel_campaign(
        small_boom_config(),
        shards=SHARDS,
        slices=SHARDS,
        iterations=TOTAL_ITERATIONS,
        sync_epochs=SYNC_EPOCHS,
        entropy=entropy,
        executor=executor,
        simulator="subprocess",
    )


def test_subprocess_sim():
    cpus = os.cpu_count() or 1
    close_default_pool()
    try:
        warm = run_campaign("process", entropy=1)
        warm_servers = [row for row in default_pool().processes() if row["alive"]]
        expected_warm = min(len(warm.task_log), default_pool().max_live_servers)
        paired = paired_ratio(
            lambda: run_campaign("inline"), lambda: run_campaign("process")
        )
    finally:
        close_default_pool()
    serial, threaded = paired.reference[0], paired.fast[0]
    measured = paired.reference + paired.fast
    accounting = [result.summary()["simulator_processes"] for result in measured]

    step_share = [
        sum(row["step_seconds_total"] for row in result.task_log) / seconds
        for result, seconds in zip(paired.reference, paired.reference_seconds)
    ]
    save_timing_results(
        "subprocess_sim",
        paired.table("serial", "threaded")
        + "\nshare of the serial wall clock spent in server round trips: "
        + ", ".join(f"{share:.0%}" for share in step_share),
    )

    # Steady state: one warm server per warm-up slice task, up to the pool's
    # live-server cap, and the measured runs reuse them without a spawn.
    assert len(warm_servers) == expected_warm
    assert accounting == [{"spawns": 0, "restarts": 0}] * len(measured), accounting

    gate = cpus >= SHARDS and not os.environ.get("CI")
    if gate:
        # Overlap speedup: four server processes compute concurrently while
        # the serial driver pays every round trip back to back.
        assert paired.median >= 2.0, (
            f"the threaded process backend should be >= 2x over serial inline "
            f"against real subprocess servers on {cpus} CPUs: serial/threaded "
            f"{paired.describe()}"
        )
    else:
        # Few cores (or CI): the servers time-slice the CPUs, so only the
        # protocol/thread overhead is observable.
        assert paired.median >= 1 / 1.7, (
            f"threaded subprocess driver overhead too high on {cpus} CPU(s): "
            f"serial/threaded {paired.describe()}"
        )

    table = format_table(
        ["Backend", "Simulator", "Threads", "Slice tasks", "Coverage", "Reports"],
        [
            [backend, "subprocess", threads, len(result.task_log),
             result.total_coverage(), len(result.campaign.reports)]
            for backend, threads, result in (
                ("inline", "-", serial), ("process", SHARDS, threaded)
            )
        ],
    )
    table += (
        f"\n\n{SHARDS} shards = {SHARDS} slices x {TOTAL_ITERATIONS} iterations, "
        f"{SYNC_EPOCHS} sync epoch; root entropy: {ENTROPY}"
        f"\nrepro.sim servers, one per slice: {expected_warm} pre-warmed, then"
        f" {sum(row['spawns'] for row in accounting)} spawns and"
        f" {sum(row['restarts'] for row in accounting)} restarts in {len(measured)} measured runs"
        "\nno injected sleeps: steps block on real server round trips"
        "\nbar: median serial/threaded ratio of alternating pairs >= 2.0 on"
        "\n>= 4 CPUs outside CI, else >= 1/1.7 (an overhead bound)"
        "\ngate on this host: " + (">= 2.0, met" if gate else "overhead bound, met")
    )
    save_results("subprocess_sim", table)
