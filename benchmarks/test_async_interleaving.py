"""Async shard interleaving — one worker overlapping latency-bound shards.

The paper's campaigns run against slow RTL simulators, where a shard spends
most of its wall time *waiting* rather than computing.  This benchmark models
that regime by injecting a fixed per-simulation latency into the shard step
driver (``EngineConfiguration.step_latency`` — the wait an external RTL
simulator would impose at every simulator boundary) and runs the same
4-shard campaign through three execution backends:

* ``inline`` — one worker, shards strictly serial: it pays every injected
  wait back to back,
* ``async`` — the same single worker, but an asyncio event loop interleaves
  the four shard generators at their simulator boundaries, so waits overlap
  with other shards' compute and with each other,
* ``process`` — the classic pool, one OS process per shard.

Asserts

* **interleaving speedup** — the async backend at concurrency 4 finishes the
  latency-injected campaign at least 2x faster than the inline backend on
  the same single worker,
* **backend identity** — all three backends produce byte-identical
  ``CampaignResult.to_dict(include_timing=False)`` wire forms and identical
  merged coverage for the same :class:`EngineConfiguration`: the execution
  strategy is an implementation detail, never a behaviour knob.

The injected latency is calibrated against the host's compute speed (waits
about four times the pure-compute time) so the waiting-dominated regime — and
the asserted speedup — is reproduced on fast and slow hosts alike.
"""

import time

from bench_utils import format_table, save_timing_results

from repro.core import run_parallel_campaign
from repro.uarch import small_boom_config

TOTAL_ITERATIONS = 16
SHARDS = 4
SYNC_EPOCHS = 1
ENTROPY = 99
CONCURRENCY = 4


def run_campaign(executor, step_latency, **overrides):
    started = time.perf_counter()
    result = run_parallel_campaign(
        small_boom_config(),
        shards=SHARDS,
        iterations=TOTAL_ITERATIONS,
        sync_epochs=SYNC_EPOCHS,
        entropy=ENTROPY,
        executor=executor,
        step_latency=step_latency,
        **overrides,
    )
    return result, time.perf_counter() - started


def test_async_interleaving(benchmark):
    # Calibrate the injected wait against this host's compute speed: total
    # injected latency ~4x the pure-compute time keeps the campaign firmly in
    # the waiting-dominated (slow-RTL) regime on fast and slow hosts alike.
    _, compute_seconds = run_campaign("inline", 0.0)
    latency = max(0.02, round(compute_seconds / 12, 3))

    inline, inline_seconds = run_campaign("inline", latency)
    (interleaved, async_seconds) = benchmark.pedantic(
        run_campaign,
        args=("async", latency),
        kwargs={"async_concurrency": CONCURRENCY},
        rounds=1,
        iterations=1,
    )
    pooled, pooled_seconds = run_campaign("process", latency)
    speedup = inline_seconds / max(async_seconds, 1e-9)

    rows = [
        ["inline", 1, "-", round(inline_seconds, 2), "1.00x"],
        ["async", 1, CONCURRENCY, round(async_seconds, 2), f"{speedup:.2f}x"],
        [
            "process",
            SHARDS,
            "-",
            round(pooled_seconds, 2),
            f"{inline_seconds / max(pooled_seconds, 1e-9):.2f}x",
        ],
    ]
    table = format_table(
        ["Backend", "Workers", "Concurrency", "Seconds", "Speedup"], rows
    )
    table += (
        f"\n\n{SHARDS} shards x {TOTAL_ITERATIONS} iterations, "
        f"{SYNC_EPOCHS} sync epoch; root entropy: {ENTROPY}"
    )
    table += (
        f"\ninjected simulator latency: {latency}s/simulation "
        f"(calibrated; pure compute: {compute_seconds:.2f}s)"
    )
    identical = all(
        other.campaign.to_dict(include_timing=False)
        == inline.campaign.to_dict(include_timing=False)
        for other in (interleaved, pooled)
    )
    table += f"\nall backends byte-identical (timing aside): {identical}"
    save_timing_results("async_interleaving", table)

    # Backend identity: execution strategy must never leak into results.
    assert identical
    for other in (interleaved, pooled):
        assert other.coverage.points == inline.coverage.points
        assert other.campaign.coverage_history == inline.campaign.coverage_history

    # Interleaving speedup: one worker, four latency-bound shards — the
    # asyncio backend overlaps the waits the inline backend pays serially.
    assert speedup >= 2.0, (
        f"async interleaving should be >= 2x faster than inline under "
        f"injected latency (inline {inline_seconds:.2f}s vs async "
        f"{async_seconds:.2f}s = {speedup:.2f}x)"
    )
