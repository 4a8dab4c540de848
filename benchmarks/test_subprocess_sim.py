"""Out-of-process simulator throughput — real subprocess waits, no sleeps.

Every other scaling benchmark models the slow external RTL simulator with an
injected ``step_latency`` sleep; this one retires the stand-in.  The same
4-shard campaign runs three ways:

* ``inline`` + ``inproc`` — the in-process reference the identity checks
  compare against,
* ``inline`` + ``subprocess`` — strictly serial steps against per-slice
  ``python -m repro.sim.server`` processes: every protocol round trip blocks
  the one worker,
* ``process`` + ``subprocess`` — the process backend drives subprocess
  tasks on a pool of 4 threads, each blocking on its own round trip, so four
  server processes compute concurrently.

The server pool is pre-warmed by a throwaway campaign of the same shape (one
server per slice slot, at most ``max_live_servers`` alive, reused by both
measured runs) so the comparison is mostly steady-state step throughput, not
interpreter spawn cost.  On hosts with fewer CPUs than slice tasks the cap
evicts idle servers, and the measured runs respawn some of them.

Asserts

* **simulator identity** — both subprocess runs produce byte-identical
  ``CampaignResult.to_dict(include_timing=False)`` wire forms versus the
  in-process reference: where the simulator executes is a transport detail
  and must never leak into results,
* **crash-free accounting** — the campaign's ``task_log`` reports one row per
  executed slice-epoch task with zero restarts,
* **overlap speedup** — on hosts with at least 4 CPUs (and outside CI),
  the process backend finishes the subprocess-simulated campaign at least 2x
  faster than serial inline: genuine subprocess compute overlaps across
  server processes.  On smaller hosts the four servers time-slice fewer
  cores, so the assertion falls back to an overhead bound (the threaded run
  may not be more than 1.7x slower than serial).

The committed artifact (``benchmarks/results/subprocess_sim.txt``) contains
only deterministic facts — configuration, identity verdicts, simulator
process accounting and the gate verdicts; measured seconds go to stdout
only, so the artifact is byte-reproducible standalone or in the full suite.
"""

import json
import os
import time

from bench_utils import format_table, save_results

from repro.core import run_parallel_campaign
from repro.sim.client import close_default_pool, default_pool
from repro.uarch import small_boom_config

TOTAL_ITERATIONS = 12
SHARDS = 4
SYNC_EPOCHS = 1
ENTROPY = 99


def run_campaign(executor, simulator, entropy=ENTROPY, **overrides):
    started = time.perf_counter()
    result = run_parallel_campaign(
        small_boom_config(),
        shards=SHARDS,
        iterations=TOTAL_ITERATIONS,
        sync_epochs=SYNC_EPOCHS,
        entropy=entropy,
        executor=executor,
        simulator=simulator,
        **overrides,
    )
    return result, time.perf_counter() - started


def deterministic_wire(result):
    return json.dumps(result.campaign.to_dict(include_timing=False), sort_keys=True)


def test_subprocess_sim(benchmark):
    cpus = os.cpu_count() or 1
    reference, _ = run_campaign("inline", "inproc")

    # Pre-warm: spawn one server per slice slot with a throwaway campaign of
    # the same shape, so the measured runs compare step throughput rather
    # than interpreter boot.  The pool keeps at most max_live_servers alive.
    close_default_pool()
    warm, _ = run_campaign("inline", "subprocess", entropy=1)
    warm_servers = [row for row in default_pool().processes() if row["alive"]]
    expected_warm = min(len(warm.task_log), default_pool().max_live_servers)

    serial, serial_seconds = run_campaign("inline", "subprocess")
    (threaded, threaded_seconds) = benchmark.pedantic(
        run_campaign,
        args=("process", "subprocess"),
        rounds=1,
        iterations=1,
    )
    speedup = serial_seconds / max(threaded_seconds, 1e-9)
    close_default_pool()

    identical = {
        "inline+subprocess": deterministic_wire(serial) == deterministic_wire(reference),
        "process+subprocess": deterministic_wire(threaded) == deterministic_wire(reference),
    }
    serial_restarts = sum(row["restarts"] for row in serial.task_log)
    threaded_restarts = sum(row["restarts"] for row in threaded.task_log)

    print(
        f"\nmeasured: serial {serial_seconds:.2f}s, process {threaded_seconds:.2f}s "
        f"({speedup:.2f}x) on {cpus} CPU(s); "
        f"mean step: "
        f"{1000 * sum(r['step_seconds_total'] for r in serial.task_log) / max(1, sum(r['steps'] for r in serial.task_log)):.1f}ms"
    )

    # Simulator identity: out-of-process execution never leaks into results.
    assert all(identical.values()), f"subprocess runs diverged: {identical}"
    assert serial.coverage.points == reference.coverage.points
    # Crash-free accounting: one row per executed slice-epoch task, no
    # recoveries needed.
    assert len(serial.task_log) == len(serial.slice_summaries)
    assert len(threaded.task_log) == len(threaded.slice_summaries)
    assert serial_restarts == 0 and threaded_restarts == 0
    # One server per warm-up slice task, up to the pool's live-server cap.
    assert len(warm_servers) == expected_warm

    gate = cpus >= SHARDS and not os.environ.get("CI")
    if gate:
        # Overlap speedup: four server processes compute concurrently while
        # the serial driver pays every round trip back to back.
        assert speedup >= 2.0, (
            f"the threaded process backend should be >= 2x over serial inline "
            f"against real subprocess servers (serial {serial_seconds:.2f}s vs "
            f"process {threaded_seconds:.2f}s = {speedup:.2f}x on {cpus} CPUs)"
        )
    else:
        # Few cores (or CI): the servers time-slice the CPUs, so only the
        # protocol/thread overhead is observable.
        assert threaded_seconds <= serial_seconds * 1.7, (
            f"threaded subprocess driver overhead too high on {cpus} CPU(s): "
            f"serial {serial_seconds:.2f}s vs process {threaded_seconds:.2f}s"
        )

    rows = [
        ["inline", "inproc", "-", len(reference.task_log),
         reference.total_coverage(), len(reference.campaign.reports), "reference"],
        ["inline", "subprocess", "-", len(serial.task_log),
         serial.total_coverage(), len(serial.campaign.reports), "byte-identical"],
        ["process", "subprocess", SHARDS, len(threaded.task_log),
         threaded.total_coverage(), len(threaded.campaign.reports),
         "byte-identical"],
    ]
    table = format_table(
        ["Backend", "Simulator", "Threads", "Slice tasks", "Coverage", "Reports",
         "vs inproc"],
        rows,
    )
    table += (
        f"\n\n{SHARDS} shards x {TOTAL_ITERATIONS} iterations, "
        f"{SYNC_EPOCHS} sync epoch; root entropy: {ENTROPY}"
    )
    table += (
        "\nrepro.sim server processes: one per slice slot, at most "
        "max_live_servers alive, pre-warmed and reused"
    )
    table += (
        f"\nsimulator restarts during measured runs: "
        f"{serial_restarts + threaded_restarts}"
    )
    table += (
        "\nno injected sleeps: steps block on real server round trips;"
        "\nmeasured wall seconds go to stdout only so this artifact stays"
        "\nbyte-reproducible standalone and in the full suite"
    )
    table += "\nboth subprocess wire forms byte-identical to inproc: True"
    table += (
        "\nprocess >= 2x over serial inline (gated on >= 4 CPUs, non-CI): "
        + ("measured, True" if gate else "gated off on this host")
    )
    save_results("subprocess_sim", table)
