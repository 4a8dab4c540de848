"""Elastic resume — reshard a checkpointed campaign when it resumes.

A campaign checkpointed at 4 physical shards is resumed at 8, 2, and 1:
because every deterministic derivation (entropy streams, seed-id bases, core
binding, corpus attribution) is keyed by the *logical slice* and the format-2
fingerprint pins ``slices`` instead of ``shards``, each resume must be
byte-identical to the uninterrupted reference run.

The second half measures why resharding is worth having: with an injected
per-simulation latency (the slow-RTL regime of the paper's real targets) the
same halted checkpoint is resumed on the process backend at the original
shard count and at double, and the doubled resume must actually use its
extra capacity — the overlap bound means 2x in-flight tasks can approach
half the wall-clock when waits dominate.

Asserts

* **reshard identity** — resume at 8, 2, and 1 shards each reproduce the
  uninterrupted run's deterministic wire form exactly,
* **elastic speedup** — under waiting-dominated injected latency, resuming
  at 2x the shards beats the original-shard-count resume by at least 1.25x
  (the extra shards demonstrably run tasks, not just exist).
"""

import json
import shutil
import time

from bench_utils import format_table, save_timing_results

from repro.core import (
    EngineConfiguration,
    FuzzerConfiguration,
    ParallelCampaignEngine,
)
from repro.uarch import small_boom_config

TOTAL_ITERATIONS = 48
CHECKPOINT_SHARDS = 4
SYNC_EPOCHS = 4
HALT_AFTER = 2
ENTROPY = 4242


def build_cfg(shards, checkpoint_path=None, executor="inline", step_latency=0.0):
    return EngineConfiguration(
        fuzzer=FuzzerConfiguration(core=small_boom_config(), entropy=ENTROPY),
        shards=shards,
        iterations=TOTAL_ITERATIONS,
        sync_epochs=SYNC_EPOCHS,
        executor=executor,
        checkpoint_path=checkpoint_path,
        step_latency=step_latency,
    )


def deterministic_wire(result):
    return json.dumps(result.campaign.to_dict(include_timing=False), sort_keys=True)


def resume(checkpoint, shards, **overrides):
    started = time.perf_counter()
    result = ParallelCampaignEngine.resume_from(
        str(checkpoint), build_cfg(shards, str(checkpoint), **overrides)
    ).run()
    return result, time.perf_counter() - started


def test_elastic_resume(benchmark, tmp_path):
    started = time.perf_counter()
    uninterrupted = ParallelCampaignEngine(build_cfg(CHECKPOINT_SHARDS)).run()
    full_seconds = time.perf_counter() - started
    reference = deterministic_wire(uninterrupted)

    halted = tmp_path / "halted.json"
    partial = ParallelCampaignEngine(
        build_cfg(CHECKPOINT_SHARDS, str(halted))
    ).run(max_epochs=HALT_AFTER)
    assert not partial.complete

    # --- Reshard identity: one fresh copy of the halted checkpoint per
    # resume, so each factor replays the identical halt point.
    rows = []
    for resume_shards in (8, 2, 1):
        checkpoint = tmp_path / f"resume_at_{resume_shards}.json"
        shutil.copy(halted, checkpoint)
        resumed, seconds = resume(checkpoint, resume_shards)
        assert resumed.complete
        identical = deterministic_wire(resumed) == reference
        rows.append([
            CHECKPOINT_SHARDS,
            resume_shards,
            f"{resume_shards / CHECKPOINT_SHARDS:g}x",
            resumed.slices,
            "yes" if identical else "NO",
            round(seconds, 2),
        ])
        assert identical, f"resume at {resume_shards} shards diverged"
    identity_table = format_table(
        ["Ckpt shards", "Resume shards", "Factor", "Slices", "Identical", "Seconds"],
        rows,
    )

    # --- Elastic speedup: waiting-dominated resumes at 1x vs 2x the shards.
    # Calibrate the injected wait against this host so waits dominate compute
    # on fast and slow machines alike.
    latency = max(0.02, round(full_seconds / 24, 3))
    baseline_ck = tmp_path / "latency_at_4.json"
    shutil.copy(halted, baseline_ck)
    _, baseline_seconds = resume(
        baseline_ck, CHECKPOINT_SHARDS, executor="process", step_latency=latency,
    )
    doubled_ck = tmp_path / "latency_at_8.json"
    shutil.copy(halted, doubled_ck)
    (doubled, doubled_seconds) = benchmark.pedantic(
        resume,
        args=(doubled_ck, 2 * CHECKPOINT_SHARDS),
        kwargs=dict(executor="process", step_latency=latency),
        rounds=1,
        iterations=1,
    )
    speedup = baseline_seconds / max(doubled_seconds, 1e-9)
    latency_table = format_table(
        ["Resume shards", "Seconds", "Speedup"],
        [
            [CHECKPOINT_SHARDS, round(baseline_seconds, 2), "1.00x"],
            [2 * CHECKPOINT_SHARDS, round(doubled_seconds, 2), f"{speedup:.2f}x"],
        ],
    )

    text = (
        f"{CHECKPOINT_SHARDS}-shard campaign halted after "
        f"{HALT_AFTER}/{SYNC_EPOCHS} epochs, resumed elsewhere\n"
        f"({TOTAL_ITERATIONS} iterations total; root entropy: {ENTROPY})\n\n"
        + identity_table
        + "\n\nresume under injected simulator latency "
        f"({latency}s/simulation, process backend):\n\n"
        + latency_table
    )
    save_timing_results("elastic_resume", text)

    # The injected-latency resumes are still the same campaign.
    assert deterministic_wire(doubled) == reference
    # The doubled fleet must demonstrably use its extra shards: in the
    # waiting-dominated regime 2x the shards overlap 2x the waits.
    assert speedup >= 1.25, (
        f"resume at 2x the shards only {speedup:.2f}x faster"
    )
