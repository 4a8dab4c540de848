"""Elastic resume — resuming a checkpoint at more shards uses them.

A campaign checkpointed at 4 physical shards can resume at any other shard
count, because every deterministic derivation is keyed by the logical slice
and the checkpoint fingerprint pins ``slices``, not ``shards``.  This
benchmark measures why resharding is worth having: with an injected
per-simulation latency (the slow-RTL regime of the paper's real targets) the
same halted checkpoint is resumed on the process backend at the original
shard count (the reference arm) and at double (the fast arm), in alternating
pairs (:func:`bench_utils.paired_ratio`), each resume from a fresh copy of
the checkpoint.  The overlap bound means 2x in-flight tasks can approach
half the wall clock when waits dominate.

Asserts

* **elastic speedup** — the median 4-shard/8-shard ratio is at least 1.25
  (the extra shards demonstrably run tasks, not just exist).

That a resume at another shard count reproduces the uninterrupted campaign
byte for byte is ``tests/test_campaign_matrix.py``'s job
(``resume-process-2x``, ``resume-inline-half``, ``distributed-resume``,
``cli-resume``).  The per-pair wall clocks go to the untracked
``benchmarks/results/timing/elastic_resume.txt``.
"""

import shutil
import time

from bench_utils import paired_ratio, save_timing_results

from repro.core import (
    EngineConfiguration,
    FuzzerConfiguration,
    ParallelCampaignEngine,
)
from repro.uarch import small_boom_config

# Four iterations per slice-epoch.  A resumed slice task that holds a window
# runs no Phase 1, so at one iteration per task the resumed tasks run 2 or 6
# simulations each and one re-acquiring task sets the wall clock at both
# shard counts; over four iterations the tasks even out.
TOTAL_ITERATIONS = 64
CHECKPOINT_SHARDS = 4
# One slice task per doubled shard: the doubled resume runs each epoch in
# one wave of tasks, the original in two.
SLICES = 2 * CHECKPOINT_SHARDS
SYNC_EPOCHS = 2
HALT_AFTER = 1
ENTROPY = 4242


def build_cfg(shards, checkpoint_path, executor="inline", step_latency=0.0):
    return EngineConfiguration(
        fuzzer=FuzzerConfiguration(core=small_boom_config(), entropy=ENTROPY),
        shards=shards,
        slices=SLICES,
        iterations=TOTAL_ITERATIONS,
        sync_epochs=SYNC_EPOCHS,
        executor=executor,
        checkpoint_path=checkpoint_path,
        step_latency=step_latency,
    )


def test_elastic_resume(tmp_path):
    halted = tmp_path / "halted.json"
    started = time.perf_counter()
    partial = ParallelCampaignEngine(
        build_cfg(CHECKPOINT_SHARDS, str(halted))
    ).run(max_epochs=HALT_AFTER)
    assert not partial.complete
    # Calibrate the injected wait against this host so waits dominate compute
    # on fast and slow machines alike: twice the compute of one slice
    # iteration of the halted run, whatever the campaign's size.
    halted_iterations = TOTAL_ITERATIONS * HALT_AFTER // SYNC_EPOCHS
    latency = max(0.02, round(2 * (time.perf_counter() - started) / halted_iterations, 3))

    def resume(shards):
        checkpoint = tmp_path / "resumed.json"  # a fresh copy for every resume
        shutil.copy(halted, checkpoint)
        return ParallelCampaignEngine.resume_from(
            str(checkpoint),
            build_cfg(shards, str(checkpoint), "process", latency),
        ).run()

    paired = paired_ratio(
        lambda: resume(CHECKPOINT_SHARDS), lambda: resume(2 * CHECKPOINT_SHARDS)
    )
    save_timing_results(
        "elastic_resume",
        f"{CHECKPOINT_SHARDS}-shard campaign of {SLICES} slices halted after "
        f"{HALT_AFTER}/{SYNC_EPOCHS} epochs\n"
        f"({TOTAL_ITERATIONS} iterations total; root entropy: {ENTROPY}), resumed on the\n"
        f"process backend under injected simulator latency ({latency}s/simulation)\n\n"
        + paired.table(f"{CHECKPOINT_SHARDS} shards", f"{2 * CHECKPOINT_SHARDS} shards"),
    )

    assert all(result.complete for result in paired.reference + paired.fast)
    # The doubled fleet must demonstrably use its extra shards: in the
    # waiting-dominated regime 2x the shards overlap 2x the waits.
    assert paired.median >= 1.25, (
        f"resume at 2x the shards: {CHECKPOINT_SHARDS}/{2 * CHECKPOINT_SHARDS} "
        f"shards {paired.describe()}"
    )
