"""Parallel scaling — the sharded campaign engine versus the serial loop.

Runs the same total iteration budget on the same core and root entropy
through the classic serial ``DejaVuzzFuzzer.run_campaign`` loop (the
reference arm) and through the 4-shard
:class:`~repro.core.engine.ParallelCampaignEngine` on a process pool (the
fast arm), in alternating pairs (:func:`bench_utils.paired_ratio`).  The
benchmark demonstrates

* **budget parity** — the sharded campaign executes exactly the same number of
  Phase-2 iterations,
* **coverage parity** — the merged matrix is a superset of every single
  shard's points and lands in the same ballpark as the serial run,
* **wall-clock speedup** — on a host with at least as many cores as shards
  the median serial/sharded ratio exceeds 1.1 (with fewer cores a full
  parallel speedup is physically impossible, so there the assertion degrades
  to an orchestration-overhead bound: the sharded run takes less than 2.5x
  the serial one).

That two sharded runs from one root entropy agree, on every backend, is
``tests/test_campaign_matrix.py``'s job.  The per-pair wall clocks go to the
untracked ``benchmarks/results/timing/parallel_scaling.txt``.
"""

import os

from bench_utils import format_table, paired_ratio, save_timing_results

from repro.core import DejaVuzzFuzzer, FuzzerConfiguration, run_parallel_campaign
from repro.uarch import small_boom_config

# Sized so the campaign work dominates the fixed pool-boot cost: the bars
# below compare wall clocks, and a budget that a single shard finishes in a
# fraction of a second would measure process start-up instead of scaling.
TOTAL_ITERATIONS = 96
SHARDS = 4
SYNC_EPOCHS = 2
ENTROPY = 1234


def run_serial(core):
    return DejaVuzzFuzzer(
        FuzzerConfiguration(core=core, entropy=ENTROPY)
    ).run_campaign(TOTAL_ITERATIONS)


def run_sharded(core):
    return run_parallel_campaign(
        core,
        shards=SHARDS,
        iterations=TOTAL_ITERATIONS,
        sync_epochs=SYNC_EPOCHS,
        entropy=ENTROPY,
        executor="process",
    )


def test_parallel_scaling():
    core = small_boom_config()
    cpus = os.cpu_count() or 1

    paired = paired_ratio(lambda: run_serial(core), lambda: run_sharded(core))
    serial, sharded = paired.reference[0], paired.fast[0]

    table = format_table(
        ["Engine", "Shards", "Iterations", "Coverage"],
        [
            ["serial", 1, serial.iterations_run, serial.final_coverage()],
            ["sharded", SHARDS, sharded.campaign.iterations_run, len(sharded.coverage)],
        ],
    )
    table += f"\n\nhost CPUs: {cpus}; sync epochs: {SYNC_EPOCHS}; root entropy: {ENTROPY}"
    table += f"\nredistributed seeds: {sharded.redistributed_seeds}\n\n"
    table += paired.table("serial", "sharded")
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
        assert paired.median > 1.1, (
            f"4-shard run should beat serial on {cpus} CPUs: serial/sharded "
            f"{paired.describe()}"
        )
    else:
        # Fewer cores than shards (or noisy CI host): pool startup + merge
        # overhead can eat the partial parallel win, so no reliable speedup;
        # bound the orchestration overhead instead (pool + merge must stay a
        # small constant factor).
        assert paired.median > 1 / 2.5, (
            f"orchestration overhead too high on {cpus} CPUs: serial/sharded "
            f"{paired.describe()}"
        )
