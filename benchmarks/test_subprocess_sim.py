"""Out-of-process simulator throughput — real subprocess waits, no sleeps.

Every other scaling benchmark models the slow external RTL simulator with an
injected ``step_latency`` sleep; this one retires the stand-in.  The same
4-shard campaign runs three ways:

* ``inline`` + ``inproc`` — the in-process reference the identity checks
  compare against,
* ``inline`` + ``subprocess`` — strictly serial steps against per-shard
  ``python -m repro.sim.server`` processes: every protocol round trip blocks
  the one worker,
* ``async`` (concurrency 4) + ``subprocess`` — the asyncio backend awaits
  each round trip on an executor thread, so the four server processes
  compute concurrently while one client loop interleaves their shards.

The server pool is pre-warmed (one server per shard, reused by both measured
runs) so the comparison is steady-state step throughput, not interpreter
spawn cost.

Asserts

* **simulator identity** — both subprocess runs produce byte-identical
  ``CampaignResult.to_dict(include_timing=False)`` wire forms versus the
  in-process reference: where the simulator executes is a transport detail
  and must never leak into results,
* **crash-free accounting** — the campaign's ``task_log`` reports one row per
  executed slice-epoch task with zero restarts,
* **interleaving speedup** — on hosts with at least 4 CPUs (and outside CI),
  the async backend finishes the subprocess-simulated campaign at least 2x
  faster than serial inline: genuine subprocess compute overlaps across
  server processes.  On smaller hosts the four servers time-slice one core,
  so the assertion falls back to an overhead bound (async may not be more
  than 1.7x slower than serial).

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
CONCURRENCY = 4


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

    # Pre-warm: spawn the four per-shard server processes once with a tiny
    # throwaway campaign, so the measured runs compare steady-state step
    # throughput rather than interpreter boot.
    close_default_pool()
    run_campaign("inline", "subprocess", entropy=1)
    warm_servers = [row for row in default_pool().processes() if row["alive"]]

    serial, serial_seconds = run_campaign("inline", "subprocess")
    (interleaved, async_seconds) = benchmark.pedantic(
        run_campaign,
        args=("async", "subprocess"),
        kwargs={"async_concurrency": CONCURRENCY},
        rounds=1,
        iterations=1,
    )
    speedup = serial_seconds / max(async_seconds, 1e-9)
    close_default_pool()

    identical = {
        "inline+subprocess": deterministic_wire(serial) == deterministic_wire(reference),
        "async+subprocess": deterministic_wire(interleaved) == deterministic_wire(reference),
    }
    serial_restarts = sum(row["restarts"] for row in serial.task_log)
    async_restarts = sum(row["restarts"] for row in interleaved.task_log)

    print(
        f"\nmeasured: serial {serial_seconds:.2f}s, async {async_seconds:.2f}s "
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
    assert len(interleaved.task_log) == len(interleaved.slice_summaries)
    assert serial_restarts == 0 and async_restarts == 0
    assert len(warm_servers) == SHARDS

    gate = cpus >= CONCURRENCY and not os.environ.get("CI")
    if gate:
        # Interleaving speedup: four server processes compute concurrently
        # while the serial driver pays every round trip back to back.
        assert speedup >= 2.0, (
            f"async interleaving should be >= 2x over serial inline against "
            f"real subprocess servers (serial {serial_seconds:.2f}s vs async "
            f"{async_seconds:.2f}s = {speedup:.2f}x on {cpus} CPUs)"
        )
    else:
        # One core (or CI): the servers time-slice a single CPU, so only the
        # protocol/executor overhead is observable.
        assert async_seconds <= serial_seconds * 1.7, (
            f"async subprocess driver overhead too high on {cpus} CPU(s): "
            f"serial {serial_seconds:.2f}s vs async {async_seconds:.2f}s"
        )

    rows = [
        ["inline", "inproc", "-", reference.total_coverage(),
         len(reference.campaign.reports), "reference"],
        ["inline", "subprocess", SHARDS, serial.total_coverage(),
         len(serial.campaign.reports), "byte-identical"],
        [f"async (c={CONCURRENCY})", "subprocess", SHARDS,
         interleaved.total_coverage(), len(interleaved.campaign.reports),
         "byte-identical"],
    ]
    table = format_table(
        ["Backend", "Simulator", "Servers", "Coverage", "Reports", "vs inproc"],
        rows,
    )
    table += (
        f"\n\n{SHARDS} shards x {TOTAL_ITERATIONS} iterations, "
        f"{SYNC_EPOCHS} sync epoch; root entropy: {ENTROPY}"
    )
    table += (
        f"\nper-shard repro.sim server processes, pre-warmed and reused: "
        f"{len(warm_servers)}"
    )
    table += (
        f"\nsimulator restarts during measured runs: "
        f"{serial_restarts + async_restarts}"
    )
    table += (
        "\nno injected sleeps: steps block on real server round trips;"
        "\nmeasured wall seconds go to stdout only so this artifact stays"
        "\nbyte-reproducible standalone and in the full suite"
    )
    table += "\nboth subprocess wire forms byte-identical to inproc: True"
    table += (
        "\nasync >= 2x over serial inline (gated on >= 4 CPUs, non-CI): "
        + ("measured, True" if gate else "gated off on this host")
    )
    save_results("subprocess_sim", table)
