"""Parallel scaling — the sharded campaign engine versus the serial loop.

Runs the same total iteration budget twice on the same core and root entropy:
once through the classic serial ``DejaVuzzFuzzer.run_campaign`` loop and once
through the 4-shard :class:`~repro.core.engine.ParallelCampaignEngine` with a
process pool.  The benchmark demonstrates

* **budget parity** — the sharded campaign executes exactly the same number of
  Phase-2 iterations,
* **coverage parity** — the merged matrix is a superset of every single
  shard's points and lands in the same ballpark as the serial run,
* **determinism** — two sharded runs from the same root entropy are identical,
* **wall-clock speedup** — on a host with at least as many cores as shards
  the 4-shard run beats the serial loop (with fewer cores a full parallel
  speedup is physically impossible, so there the assertion degrades to an
  orchestration-overhead bound and the measured ratio is only recorded).
"""

import os
import time

from bench_utils import format_table, save_timing_results

from repro.core import DejaVuzzFuzzer, FuzzerConfiguration, run_parallel_campaign
from repro.uarch import small_boom_config

# Sized so the campaign work dominates the fixed pool-boot cost: the
# orchestration-overhead bound below compares wall clocks, and a budget that
# a single shard finishes in ~a second would measure interpreter spawn time
# instead of scaling (the hot path got ~2.5x faster; the budget grew with it).
TOTAL_ITERATIONS = 96
SHARDS = 4
SYNC_EPOCHS = 2
ENTROPY = 1234


def run_serial(core):
    started = time.perf_counter()
    campaign = DejaVuzzFuzzer(
        FuzzerConfiguration(core=core, entropy=ENTROPY)
    ).run_campaign(TOTAL_ITERATIONS)
    return campaign, time.perf_counter() - started


def run_sharded(core, executor="process"):
    started = time.perf_counter()
    result = run_parallel_campaign(
        core,
        shards=SHARDS,
        iterations=TOTAL_ITERATIONS,
        sync_epochs=SYNC_EPOCHS,
        entropy=ENTROPY,
        executor=executor,
    )
    return result, time.perf_counter() - started


def test_parallel_scaling(benchmark):
    core = small_boom_config()
    cpus = os.cpu_count() or 1

    serial, serial_seconds = run_serial(core)
    (sharded, sharded_seconds) = benchmark.pedantic(
        run_sharded, args=(core,), rounds=1, iterations=1
    )
    speedup = serial_seconds / max(sharded_seconds, 1e-9)

    rows = [
        ["serial", 1, serial.iterations_run, serial.final_coverage(), round(serial_seconds, 2), "1.00x"],
        [
            "sharded",
            SHARDS,
            sharded.campaign.iterations_run,
            len(sharded.coverage),
            round(sharded_seconds, 2),
            f"{speedup:.2f}x",
        ],
    ]
    table = format_table(
        ["Engine", "Shards", "Iterations", "Coverage", "Seconds", "Speedup"], rows
    )
    table += f"\n\nhost CPUs: {cpus}; sync epochs: {SYNC_EPOCHS}; root entropy: {ENTROPY}"
    table += f"\nredistributed seeds: {sharded.redistributed_seeds}"
    save_timing_results("parallel_scaling", table)

    # Budget parity: the sharded engine runs the exact same iteration count.
    assert sharded.campaign.iterations_run == TOTAL_ITERATIONS == serial.iterations_run

    # Coverage parity: the merged matrix contains every shard's points and is
    # in the same ballpark as the serial loop (different rng streams explore
    # different corners, so exact equality is not expected).
    for slice_index, points in sharded.slice_points.items():
        assert points <= sharded.coverage.points, f"slice {slice_index} lost points in merge"
    assert len(sharded.coverage) >= 0.5 * serial.final_coverage()

    if cpus >= SHARDS and not os.environ.get("CI"):
        # Enough cores to host every shard: demand a wall-clock win.  Skipped
        # on CI runners, whose shared vCPUs make wall-clock racing too noisy
        # to gate a build on.
        assert speedup > 1.1, (
            f"4-shard run should beat serial on {cpus} CPUs "
            f"(serial {serial_seconds:.2f}s vs sharded {sharded_seconds:.2f}s)"
        )
    else:
        # Fewer cores than shards (or noisy CI host): pool startup + merge
        # overhead can eat the partial parallel win, so no reliable speedup;
        # bound the orchestration overhead instead (pool + merge must stay a
        # small constant factor).
        assert sharded_seconds < 2.5 * serial_seconds, (
            f"orchestration overhead too high "
            f"(serial {serial_seconds:.2f}s vs sharded {sharded_seconds:.2f}s on {cpus} CPUs)"
        )


def test_sharded_campaign_is_deterministic(benchmark):
    core = small_boom_config()
    first = benchmark.pedantic(
        run_sharded, args=(core, "inline"), rounds=1, iterations=1
    )[0]
    second = run_sharded(core, executor="inline")[0]
    assert first.coverage.points == second.coverage.points
    assert first.campaign.coverage_history == second.campaign.coverage_history
    assert first.campaign.triggered_windows == second.campaign.triggered_windows
