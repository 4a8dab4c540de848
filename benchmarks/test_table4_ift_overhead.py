"""Table 4 — overhead of differential information flow tracking.

Two measurements, mirroring the paper's Compile and Simulation rows:

* **Compile**: wall-clock time of the CellIFT and diffIFT instrumentation
  passes over synthetic netlists whose state sizes are scaled like the two
  cores.  CellIFT must flatten every memory into registers and mux trees,
  which is what blows its compilation time up (and times out on the larger
  design in the paper).
* **Simulation**: wall-clock time of running each of the five classic attacks
  on the DUT under no instrumentation (Base), CellIFT-style tracking (one
  instance, always-on control taints) and diffIFT (two instances with the
  differential shadow).

Absolute numbers are Python-simulator seconds, not VCS seconds; the claim
checked here is the ordering Base < diffIFT << CellIFT for compile time and
Base <= diffIFT for simulation with bounded overhead.
"""

import time

from bench_utils import format_table, save_timing_results

from repro.ift import CellIFTPass, DiffIFTPass
from repro.rtl.builder import CircuitBuilder
from repro.scenarios import ATTACK_SCENARIOS, run_attack
from repro.uarch import TaintTrackingMode, small_boom_config, xiangshan_minimal_config

ATTACKS = ["spectre-v1", "spectre-v2", "meltdown", "spectre-v4", "spectre-rsb"]


def build_core_like_netlist(name: str, memories: int, depth: int, width: int = 64):
    """A synthetic design whose memory footprint scales with the target core."""
    builder = CircuitBuilder(name)
    address = builder.input("addr", max(depth - 1, 1).bit_length())
    data = builder.input("data", width)
    write_enable = builder.input("wen", 1)
    accumulator = None
    for index in range(memories):
        builder.memory(f"mem{index}", width=width, depth=depth)
        read_value = builder.mem_read(f"mem{index}", address, name=f"rdata{index}")
        builder.mem_write(f"mem{index}", address, data, write_enable)
        accumulator = read_value if accumulator is None else builder.xor(accumulator, read_value)
    checksum = builder.register("checksum", width)
    builder.connect_register(checksum, accumulator)
    builder.output(checksum)
    return builder.build()


def _best_of(pass_factory, module, rounds=3):
    """Run the pass a few times and keep the fastest — single compile times
    are a handful of milliseconds, so one scheduler preemption on a loaded
    host can otherwise invert the ordering the test asserts."""
    best = None
    for _ in range(rounds):
        candidate = pass_factory().run(module)
        if best is None or candidate.stats.compile_seconds < best.stats.compile_seconds:
            best = candidate
    return best


def measure_compile_times():
    designs = {
        "BOOM": build_core_like_netlist("boom_like", memories=4, depth=64),
        "XiangShan": build_core_like_netlist("xiangshan_like", memories=8, depth=128),
    }
    rows = []
    results = {}
    for core_label, module in designs.items():
        cellift = _best_of(CellIFTPass, module)
        diffift = _best_of(DiffIFTPass, module)
        results[core_label] = (cellift.stats, diffift.stats)
        rows.append(
            [
                core_label,
                f"{cellift.stats.compile_seconds:.3f}s",
                f"{diffift.stats.compile_seconds:.3f}s",
                cellift.stats.instrumented_cells,
                diffift.stats.instrumented_cells,
            ]
        )
    table = format_table(
        ["Core", "CellIFT compile", "diffIFT compile", "CellIFT cells", "diffIFT cells"], rows
    )
    return table, results


def measure_simulation_times(core, attacks=ATTACKS):
    rows = []
    timings = {}
    for attack in attacks:
        per_mode = {}
        for mode_label, mode in (
            ("Base", TaintTrackingMode.NONE),
            ("CellIFT", TaintTrackingMode.CELLIFT),
            ("diffIFT", TaintTrackingMode.DIFFIFT),
        ):
            start = time.perf_counter()
            run_attack(attack, core, taint_mode=mode)
            per_mode[mode_label] = time.perf_counter() - start
        timings[attack] = per_mode
        rows.append(
            [
                attack,
                f"{per_mode['Base']:.2f}s",
                f"{per_mode['CellIFT']:.2f}s",
                f"{per_mode['diffIFT']:.2f}s",
            ]
        )
    table = format_table(["Attack", "Base", "CellIFT", "diffIFT"], rows)
    return table, timings


def test_table4_compile_overhead(benchmark):
    table, results = benchmark.pedantic(measure_compile_times, rounds=1, iterations=1)
    save_timing_results("table4_compile", table)
    for core_label, (cellift_stats, diffift_stats) in results.items():
        # CellIFT flattens memories: far more cells and a slower pass.
        assert cellift_stats.instrumented_cells > 5 * diffift_stats.instrumented_cells
        assert cellift_stats.compile_seconds > diffift_stats.compile_seconds
        assert cellift_stats.memories_flattened > 0
    # The larger (XiangShan-like) design costs more to instrument than the smaller one.
    assert results["XiangShan"][0].compile_seconds > results["BOOM"][0].compile_seconds


def test_table4_simulation_overhead(benchmark):
    core = small_boom_config()
    table, timings = benchmark.pedantic(
        measure_simulation_times, args=(core,), rounds=1, iterations=1
    )
    save_timing_results("table4_simulation_boom", table)
    for attack, per_mode in timings.items():
        # The differential testbench instantiates two DUTs: bounded overhead
        # relative to the un-instrumented baseline (the paper reports ~2.4x).
        assert per_mode["diffIFT"] < 12 * max(per_mode["Base"], 1e-3)
        assert per_mode["diffIFT"] > 0
    table_xiangshan, _ = measure_simulation_times(
        xiangshan_minimal_config(), attacks=["spectre-v1", "meltdown"]
    )
    save_timing_results("table4_simulation_xiangshan", table_xiangshan)
