"""Hot-path scoreboard: single-shard throughput and per-stage microbenchmarks.

The ROADMAP's "make the simulator hot path actually fast" item demands that
every optimization lands with a committed before/after artifact measured by
one fixed harness.  This file is that harness.  It measures:

* **iterations/sec** — a single-shard quick campaign (the unit every backend
  multiplies), exactly ``run_quick_campaign(small_boom_config(), N)``;
* **assemble** — one golden-model verification of a trigger spec (assemble the
  packet to a binary image, then ISA-simulate it), the path the assembled
  verification cache accelerates for mutations sharing a genotype prefix;
* **phase1-sim** — one full Phase-1 window acquisition (trigger generation,
  baseline simulation, leave-one-out training reduction);
* **phase2-IFT** — one differential (diffIFT) dual-DUT harness run on a
  triggered, completed schedule — the taint-instrumented inner loop;
* **census** — processor cycles/sec with CellIFT taint tracking enabled, the
  per-cycle taint-census bookkeeping cost.

``BASELINE`` holds the numbers measured on the pre-optimization tree by this
same file (same machine, same parameters).  The test recomputes the "after"
column live and archives both to the untracked
``benchmarks/results/timing/hot_path.txt``.  The wall-clock assertions are
deliberately loose (CI machines vary); the hard regression oracle for the
optimizations is byte-identical
``campaign_deterministic`` output, asserted by the engine/cache tests.
"""

from __future__ import annotations

import time

from bench_utils import format_table, save_timing_results

from repro.core.fuzzer import run_quick_campaign
from repro.core.phase1 import TransientWindowTriggering
from repro.generation.trigger import TriggerGenerator
from repro.generation.seeds import Seed
from repro.generation.window_types import TransientWindowType
from repro.isa.assembler import Assembler
from repro.swapmem.harness import DualCoreHarness
from repro.swapmem.layout import DEFAULT_LAYOUT
from repro.uarch.boom import small_boom_config
from repro.uarch.config import TaintTrackingMode
from repro.uarch.processor import Processor

# Measured by this harness on the pre-optimization tree (PR 7 seed state);
# refreshed only when the harness itself changes shape.
BASELINE = {
    "iterations_per_sec": 18.87,
    "assemble_per_sec": 1582.9,
    "phase1_per_sec": 18.58,
    "phase1_batched_per_sec": 18.58,  # no evaluator persisted then: re-acquisition == cold acquisition
    "phase2_ift_per_sec": 43.29,
    "census_cycles_per_sec": 7512.0,
    "dut_pool_resets_per_sec": 16669.0,  # fresh (SwapMemory, Processor) construction — the no-pool path
}

CAMPAIGN_ITERATIONS = 24


def _rate(count: int, elapsed: float) -> float:
    return count / elapsed if elapsed > 0 else float("inf")


def measure_iterations_per_sec(iterations: int = CAMPAIGN_ITERATIONS) -> float:
    """Single-shard campaign iterations per second (the scoreboard headline)."""
    core = small_boom_config()
    run_quick_campaign(core, iterations=4)  # warm import/jit-less caches
    start = time.perf_counter()
    run_quick_campaign(core, iterations=iterations)
    return _rate(iterations, time.perf_counter() - start)


def _trigger_seed(core) -> Seed:
    """A seed whose Phase-1 window reliably triggers on the core."""
    phase1 = TransientWindowTriggering(core, layout=DEFAULT_LAYOUT)
    for entropy in range(50):
        seed = Seed.fresh(
            entropy=1000 + entropy,
            window_type=TransientWindowType.LOAD_PAGE_FAULT,
            seed_id=9000 + entropy,
        )
        if phase1.run(seed).triggered:
            return seed
    raise RuntimeError("no triggering seed found for the phase2 microbenchmark")


def measure_assemble_per_sec(repetitions: int = 200) -> float:
    """Golden-model verifications (assemble + ISA-simulate) of a trigger spec."""
    generator = TriggerGenerator(DEFAULT_LAYOUT)
    seed = Seed.fresh(
        entropy=77, window_type=TransientWindowType.LOAD_PAGE_FAULT, seed_id=9100
    )
    spec = generator.generate(seed)
    generator.verify_with_golden_model(spec)  # warm
    start = time.perf_counter()
    for _ in range(repetitions):
        generator.verify_with_golden_model(spec)
    return _rate(repetitions, time.perf_counter() - start)


def measure_phase1_per_sec(repetitions: int = 12) -> float:
    """Full Phase-1 window acquisitions (trigger + reduce) per second."""
    core = small_boom_config()
    seed = _trigger_seed(core)
    phase1 = TransientWindowTriggering(core, layout=DEFAULT_LAYOUT)
    phase1.run(seed)  # warm
    start = time.perf_counter()
    for _ in range(repetitions):
        TransientWindowTriggering(core, layout=DEFAULT_LAYOUT).run(seed)
    return _rate(repetitions, time.perf_counter() - start)


def measure_phase1_batched_per_sec(repetitions: int = 200) -> float:
    """Steady-state window re-acquisitions through one warm batch evaluator.

    One persistent ``TransientWindowTriggering`` (warm DUT pool, simulation
    cache, assembly/verify memos) re-acquires the same window repeatedly —
    the campaign pattern where mutated seeds regenerate already-seen
    schedules.  The ``phase1_per_sec`` row above is the cold counterpart:
    a fresh evaluator per acquisition.
    """
    core = small_boom_config()
    seed = _trigger_seed(core)
    phase1 = TransientWindowTriggering(core, layout=DEFAULT_LAYOUT)
    phase1.run(seed)  # warm the pool and caches
    start = time.perf_counter()
    for _ in range(repetitions):
        phase1.run(seed)
    return _rate(repetitions, time.perf_counter() - start)


def measure_dut_pool_resets_per_sec(repetitions: int = 5000) -> float:
    """Warm DUT checkouts (``Processor.reset`` + ``SwapMemory.rearm``) per
    second; the baseline column holds the fresh-construction rate this
    replaces."""
    from repro.core.phase1 import DutPool

    core = small_boom_config()
    pool = DutPool(core, DEFAULT_LAYOUT)
    _, processor = pool.checkout(secret=0)
    pool.checkin(processor)
    start = time.perf_counter()
    for secret in range(repetitions):
        _, processor = pool.checkout(secret=secret)
        pool.checkin(processor)
    elapsed = time.perf_counter() - start
    assert pool.reuses >= repetitions  # every checkout after the first is a reset
    return _rate(repetitions, elapsed)


def measure_phase2_ift_per_sec(repetitions: int = 10) -> float:
    """Differential dual-DUT (diffIFT) harness runs per second."""
    core = small_boom_config()
    seed = _trigger_seed(core)
    phase1 = TransientWindowTriggering(core, layout=DEFAULT_LAYOUT)
    result = phase1.run(seed)
    assert result.triggered and result.schedule is not None

    from repro.core.phase2 import TransientExecutionExploration

    explorer = TransientExecutionExploration(
        core, layout=DEFAULT_LAYOUT, taint_mode=TaintTrackingMode.DIFFIFT
    )
    schedule = explorer.complete_window(result, seed)
    start = time.perf_counter()
    for _ in range(repetitions):
        DualCoreHarness(
            core,
            schedule,
            secret=seed.secret_value,
            layout=DEFAULT_LAYOUT,
            taint_mode=TaintTrackingMode.DIFFIFT,
        ).run()
    return _rate(repetitions, time.perf_counter() - start)


def measure_census_cycles_per_sec(cycles: int = 4000) -> float:
    """Taint-enabled processor cycles per second (per-cycle census cost)."""
    core = small_boom_config()
    source = """
    start:
        li x5, 0x2000
        li x6, 0
    loop:
        ld x7, 0(x5)
        add x6, x6, x7
        addi x5, x5, 8
        andi x5, x5, 0x7f
        addi x5, x5, 0x2000
        beq x0, x0, loop
    """
    assembler = Assembler(base=0x1000)
    program = assembler.assemble(source)
    processor = Processor(core, taint_mode=TaintTrackingMode.CELLIFT)
    processor.memory.map_range(0x2000, 0x100)
    processor.load_program(program)
    processor.mark_secret(0x2000, 16)
    start = time.perf_counter()
    processor.run(max_cycles=cycles)
    elapsed = time.perf_counter() - start
    return _rate(processor.cycle, elapsed)


def collect_measurements() -> dict:
    return {
        "iterations_per_sec": measure_iterations_per_sec(),
        "assemble_per_sec": measure_assemble_per_sec(),
        "phase1_per_sec": measure_phase1_per_sec(),
        "phase1_batched_per_sec": measure_phase1_batched_per_sec(),
        "phase2_ift_per_sec": measure_phase2_ift_per_sec(),
        "census_cycles_per_sec": measure_census_cycles_per_sec(),
        "dut_pool_resets_per_sec": measure_dut_pool_resets_per_sec(),
    }


STAGE_LABELS = {
    "iterations_per_sec": "campaign iterations/sec (single shard)",
    "assemble_per_sec": "assemble+verify: golden-model runs/sec",
    "phase1_per_sec": "phase1-sim: window acquisitions/sec (cold)",
    "phase1_batched_per_sec": "phase1-batched: re-acquisitions/sec (warm)",
    "phase2_ift_per_sec": "phase2-IFT: dual-DUT diffIFT runs/sec",
    "census_cycles_per_sec": "census: taint-enabled cycles/sec",
    "dut_pool_resets_per_sec": "dut-pool: warm resets/sec (vs fresh builds)",
}


def test_hot_path_scoreboard():
    after = collect_measurements()
    rows = []
    for key, label in STAGE_LABELS.items():
        before = BASELINE[key]
        now = after[key]
        speedup = now / before if before else float("nan")
        rows.append((label, f"{before:.1f}", f"{now:.1f}", f"{speedup:.1f}x"))
    table = format_table(["stage", "before", "after", "speedup"], rows)
    text = (
        "Hot-path scoreboard: single-shard throughput, before vs after the\n"
        "packed-taint / cache / census optimizations and the batched window\n"
        "evaluation work (DUT pool, lean per-packet outcomes, digest cache\n"
        "keys).  Same harness, same parameters; 'before' measured on the\n"
        "pre-optimization tree.\n\n"
        + table
    )
    save_timing_results("hot_path", text)

    # Sanity floors only — wall-clock speedup claims live in the committed
    # artifact; determinism (byte-identical campaign_deterministic) is the
    # regression oracle asserted by the cache/engine tests.
    assert after["iterations_per_sec"] > 0
    for key, before in BASELINE.items():
        assert before and before > 0


if __name__ == "__main__":
    test_hot_path_scoreboard()
