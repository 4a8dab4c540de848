"""The DejaVuzz fuzzing manager.

Wires the three phases into a campaign loop with a seed corpus and
coverage-guided feedback.  The two ablation variants of §6 are configuration
flags:

* **DejaVuzz\\*** — ``training_mode=TrainingMode.RANDOM``: swapMem is still
  used, but trigger training packets are random instruction sequences instead
  of being derived from the transient packet.
* **DejaVuzz−** — ``coverage_feedback=False``: taint coverage is still
  recorded (so the curves are comparable), but mutation ignores it and simply
  re-rolls the encoding block or regenerates the transient window each round.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, Generator, List, Optional

from repro.core.coverage import TaintCoverageMatrix
from repro.core.phase1 import Phase1Result, TransientWindowTriggering
from repro.core.phase2 import TransientExecutionExploration
from repro.core.phase3 import TransientLeakageAnalysis
from repro.core.report import CampaignResult, classify_report
from repro.generation.mutation import Mutator
from repro.generation.seeds import Seed
from repro.generation.training import TrainingMode
from repro.generation.window_types import TransientWindowType, group_of
from repro.telemetry.metrics import MetricsRegistry
from repro.uarch.config import CoreConfig
from repro.utils.rng import DeterministicRng

# Encoding re-rolls of one productive transient window before the campaign
# moves on to a new trigger.
WINDOW_MUTATIONS_PER_TRIGGER = 6


@dataclass
class FuzzerConfiguration:
    """Knobs of a DejaVuzz campaign.

    ``training_mode`` and ``coverage_feedback`` select the paper's three
    variants (see :meth:`variant_name`); everything else a campaign runs with
    — the default swapMem layout, diffIFT, taint liveness, three training
    candidates, :data:`~repro.swapmem.scheduler.MAX_CYCLES_PER_PACKET` and
    :data:`WINDOW_MUTATIONS_PER_TRIGGER` — is fixed.
    """

    core: CoreConfig
    entropy: int = 2025
    training_mode: TrainingMode = TrainingMode.DERIVED
    coverage_feedback: bool = True
    low_gain_limit: int = 3
    # Namespace for seed ids: parallel shards use disjoint bases so their seeds
    # never collide in a shared corpus (seed ids also feed per-seed rng streams).
    seed_id_base: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.core, CoreConfig):
            raise ValueError(
                f"core must be a CoreConfig, got {self.core!r}; resolve a "
                f"registry name with repro.core.engine.resolve_core"
            )

    def variant_name(self) -> str:
        if self.training_mode is TrainingMode.RANDOM:
            return "dejavuzz*"
        if not self.coverage_feedback:
            return "dejavuzz-"
        return "dejavuzz"


@dataclass
class CampaignStep:
    """One simulator boundary of a stepwise campaign.

    :meth:`DejaVuzzFuzzer.campaign_steps` yields one of these every time a
    batch of simulator invocations completes — after a Phase-1 window
    acquisition and after a Phase-2/3 exploration round.  ``simulations``
    counts the simulator invocations of the batch, which is what an execution
    backend charges latency against when it models a slow external (RTL)
    simulator behind the same interface.  ``result`` is a live reference to
    the campaign's accumulating :class:`~repro.core.report.CampaignResult`.
    """

    iteration: int
    phase: str                  # "window" (Phase 1) | "explore" (Phase 2/3)
    simulations: int
    end_of_iteration: bool
    result: CampaignResult


class DejaVuzzFuzzer:
    """The three-phase fuzzing campaign driver."""

    def __init__(
        self,
        configuration: FuzzerConfiguration,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.configuration = configuration
        # Telemetry is always on (the instruments are one int add per
        # event).  Metrics never feed back into fuzzing decisions, so
        # results never depend on them.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.rng = DeterministicRng(configuration.entropy, "fuzzer")
        self.mutator = Mutator(
            self.rng.split("mutation"), seed_id_base=configuration.seed_id_base
        )
        self.coverage = TaintCoverageMatrix()
        self.phase1 = TransientWindowTriggering(
            configuration.core,
            training_mode=configuration.training_mode,
            metrics=self.metrics.scope("phase1"),
        )
        self.phase2 = TransientExecutionExploration(
            configuration.core, low_gain_limit=configuration.low_gain_limit
        )
        self.phase3 = TransientLeakageAnalysis(configuration.core)
        self._gain_history: List[int] = []
        self._seed_gains: Dict[int, int] = {}
        self._seeds_by_id: Dict[int, Seed] = {}
        # Phase-1 acquisitions (one simulator boundary each), the simulations
        # they ran and the widest one: the window-batch diagnostics.
        self.window_batches = 0
        self.batch_simulations = 0
        self.max_batch = 0
        explore = self.metrics.scope("explore")
        self._phase2_seconds = explore.histogram("phase2_seconds")
        self._phase3_seconds = explore.histogram("phase3_seconds")

    # -- campaign loop ----------------------------------------------------------------------

    def run_campaign(
        self,
        iterations: int,
        progress_callback: Optional[Callable[[int, CampaignResult], None]] = None,
        initial_seed: Optional[Seed] = None,
    ) -> CampaignResult:
        """Run the fuzzing loop for a fixed number of iterations.

        One iteration corresponds to one Phase-2 exploration attempt (the unit
        the paper's Figure 7 uses on its x axis); Phase 1 attempts required to
        obtain a triggered window are folded into the same iteration.

        ``initial_seed`` lets a caller start the campaign from an existing seed
        instead of a freshly generated one — the parallel engine uses this to
        redistribute high-gain seeds from the shared corpus to lagging shards.
        A seed realized for a *different* core is rejected: encodings are
        core-specific, so the caller must :meth:`~repro.generation.seeds.Seed.transfer`
        it first.

        This is a thin driver over :meth:`campaign_steps`, which exposes the
        same loop as a stepwise generator; the slice-task runner and the
        simulator server drive the generator directly.
        """
        steps = self.campaign_steps(iterations, initial_seed=initial_seed)
        while True:
            try:
                step = next(steps)
            except StopIteration as stop:
                return stop.value
            if progress_callback is not None and step.phase == "explore":
                progress_callback(step.iteration, step.result)

    def campaign_steps(
        self,
        iterations: int,
        initial_seed: Optional[Seed] = None,
    ) -> Generator[CampaignStep, None, CampaignResult]:
        """The campaign loop as a resumable stepwise generator.

        Yields a :class:`CampaignStep` at every simulator boundary — after
        each Phase-1 window-acquisition batch and after each Phase-2/3
        exploration round — and returns the finished
        :class:`~repro.core.report.CampaignResult` as the generator's value.
        Between yields no simulator work is in flight, so a driver is free to
        pause here indefinitely: :class:`~repro.core.backends.ShardCampaignRunner`
        advances a slice task one boundary at a time (``run_shard_task``
        sleeps any injected ``step_latency`` between yields), and the
        simulator server answers each ``STEP`` with one yield.  The yields consume no entropy, so
        stepping a campaign produces results identical to :meth:`run_campaign`.
        """
        configuration = self.configuration
        if initial_seed is not None and not initial_seed.compatible_with(
            configuration.core.name
        ):
            raise ValueError(
                f"seed {initial_seed.seed_id} is realized for core "
                f"{initial_seed.core!r}; transfer it before running on "
                f"{configuration.core.name!r}"
            )
        result = CampaignResult(
            fuzzer_name=configuration.variant_name(), core=configuration.core.name
        )
        current_seed = initial_seed if initial_seed is not None else self._new_seed()
        current_phase1: Optional[Phase1Result] = None
        window_mutations = 0
        consecutive_low_gain = 0

        for iteration in range(iterations):
            if current_phase1 is None or not current_phase1.triggered:
                current_phase1 = self._acquire_window(current_seed, result)
                window_mutations = 0
                consecutive_low_gain = 0
                missed = not current_phase1.triggered
                if missed:
                    # Could not trigger a window with this seed: move to a new one.
                    result.coverage_history.append(len(self.coverage))
                    result.iterations_run = iteration + 1
                    current_seed = self.mutator.mutate_trigger(current_seed)
                yield CampaignStep(
                    iteration=iteration,
                    phase="window",
                    simulations=current_phase1.simulations_used,
                    end_of_iteration=missed,
                    result=result,
                )
                if missed:
                    continue

            explore_started = time.perf_counter()
            phase2_result = self.phase2.run(
                current_phase1,
                current_seed,
                self.coverage,
                average_gain=self._average_gain(),
                consecutive_low_gain=consecutive_low_gain,
            )
            self._phase2_seconds.record(time.perf_counter() - explore_started)
            explore_simulations = 1  # one differential (dual-DUT) simulation
            self._gain_history.append(phase2_result.new_coverage_points)
            self._record_gain(current_seed, phase2_result.new_coverage_points)
            result.coverage_history.append(len(self.coverage))
            result.iterations_run = iteration + 1

            if phase2_result.secret_propagated:
                phase3_started = time.perf_counter()
                phase3_result = self.phase3.run(phase2_result)
                self._phase3_seconds.record(time.perf_counter() - phase3_started)
                explore_simulations += 1  # leakage analysis re-simulates
                if phase3_result.verdict.is_leak:
                    report = classify_report(
                        iteration=iteration,
                        seed_id=current_seed.seed_id,
                        core_name=configuration.core.name,
                        window_type=current_seed.window_type,
                        verdict=phase3_result.verdict,
                        contention=phase2_result.run.primary.processor.ports.contention_cycles,
                        wall_clock_seconds=time.perf_counter() - result.start_time,
                    )
                    result.record_report(report)

            current_seed, current_phase1, window_mutations, consecutive_low_gain = (
                self._next_seed_state(
                    phase2_result,
                    current_seed,
                    current_phase1,
                    window_mutations,
                    consecutive_low_gain,
                    result,
                )
            )
            yield CampaignStep(
                iteration=iteration,
                phase="explore",
                simulations=explore_simulations,
                end_of_iteration=True,
                result=result,
            )
        return result.finish()

    # -- scheduling helpers --------------------------------------------------------------------

    def _new_seed(self) -> Seed:
        return Seed.fresh(
            seed_id=self.mutator.allocate_seed_id(),
            entropy=self.rng.randint(0, 2**31 - 1),
            window_type=self.rng.choice(list(TransientWindowType)),
            encode_strategies=self.mutator.pick_strategies(),
            mask_high_bits=self.rng.bernoulli(0.2),
            core=self.configuration.core.name,
        )

    def _record_gain(self, seed: Seed, new_points: int) -> None:
        self._seeds_by_id[seed.seed_id] = seed
        self._seed_gains[seed.seed_id] = self._seed_gains.get(seed.seed_id, 0) + new_points

    def top_seeds(self, count: int = 5) -> List[tuple]:
        """The most productive seeds of this campaign as ``(seed, gain)`` pairs.

        Ordered by descending cumulative coverage gain, ties broken by seed id
        so the ranking is deterministic; the parallel engine feeds these into
        the shared corpus at sync epochs.
        """
        ranked = sorted(
            self._seed_gains.items(), key=lambda item: (-item[1], item[0])
        )
        return [(self._seeds_by_id[seed_id], gain) for seed_id, gain in ranked[:count]]

    def _uncovered_modules(self):
        """Census modules that have not yet produced any coverage point."""
        known = {
            "dcache", "icache", "l2", "lfb", "tlb",
            "bht", "btb", "ras", "loop", "ldq", "stq", "rob", "regfile",
        }
        return known - set(self.coverage.per_module_counts())

    def _unexplored_window_types(self, result: CampaignResult):
        """Window types whose group has not yet been triggered in this campaign."""
        triggered_groups = set(result.triggered_windows)
        unexplored = [
            window_type
            for window_type in TransientWindowType
            if group_of(window_type) not in triggered_groups
        ]
        return unexplored or list(TransientWindowType)

    def _acquire_window(self, seed: Seed, result: CampaignResult) -> Phase1Result:
        """Run Phase 1 for ``seed`` — one simulator boundary: the trigger
        simulation plus every leave-one-out training-reduction candidate —
        and record its training statistics on a trigger."""
        phase1_result = self.phase1.run(seed)
        batch = phase1_result.simulations_used
        self.window_batches += 1
        self.batch_simulations += batch
        self.max_batch = max(self.max_batch, batch)
        if phase1_result.triggered:
            group = group_of(seed.window_type)
            result.triggered_windows[group] = result.triggered_windows.get(group, 0) + 1
            result.training_overhead.setdefault(group, []).append(
                phase1_result.training_overhead
            )
            result.effective_training_overhead.setdefault(group, []).append(
                phase1_result.effective_training_overhead
            )
        return phase1_result

    def batch_stats(self) -> Dict[str, int]:
        """The window-batching and DUT-pool tallies, listed in one place.

        They open each slice task's diagnostics dict (the
        ``analysis.window_batch_table`` input), the one place they are
        reported.  Never part of deterministic wire forms or checkpoints —
        purely observability.
        """
        pool = self.phase1.dut_pool
        return {
            "window_batches": self.window_batches,
            "batch_simulations": self.batch_simulations,
            "max_batch": self.max_batch,
            "dut_constructions": pool.constructions,
            "dut_reuses": pool.reuses,
        }

    def _average_gain(self) -> float:
        if not self._gain_history:
            return 0.0
        return sum(self._gain_history) / len(self._gain_history)

    def _next_seed_state(
        self,
        phase2_result,
        seed: Seed,
        phase1_result: Phase1Result,
        window_mutations: int,
        consecutive_low_gain: int,
        result: CampaignResult,
    ):
        """Decide what to fuzz next, with or without coverage feedback."""
        configuration = self.configuration
        if not configuration.coverage_feedback:
            # DejaVuzz−: ignore coverage; randomly either re-roll the window
            # section or regenerate a new transient window.
            if self.rng.bernoulli(0.5):
                return self.mutator.mutate_window(seed), phase1_result, window_mutations + 1, 0
            return self.mutator.mutate_trigger(seed), None, 0, 0

        # Coverage feedback: bias encode strategies towards modules the secret
        # has not reached yet, and bias new triggers towards window types
        # whose group has not been triggered yet.
        uncovered = self._uncovered_modules()
        unexplored_types = self._unexplored_window_types(result)
        action = phase2_result.feedback.action
        if action == "keep":
            # Productive: keep exploring this window with a re-rolled encoding.
            if window_mutations < WINDOW_MUTATIONS_PER_TRIGGER:
                return (
                    self.mutator.mutate_window(seed, uncovered_modules=uncovered),
                    phase1_result,
                    window_mutations + 1,
                    0,
                )
            return (
                self.mutator.mutate_trigger(
                    seed, preferred_types=unexplored_types, uncovered_modules=uncovered
                ),
                None,
                0,
                0,
            )
        if action == "mutate_window":
            return (
                self.mutator.mutate_window(seed, uncovered_modules=uncovered),
                phase1_result,
                window_mutations + 1,
                consecutive_low_gain + 1,
            )
        # discard_seed: back to Phase 1 with a fresh trigger.
        return (
            self.mutator.mutate_trigger(
                seed, preferred_types=unexplored_types, uncovered_modules=uncovered
            ),
            None,
            0,
            0,
        )


def run_quick_campaign(
    core: CoreConfig, iterations: int = 20, entropy: int = 7, **overrides
) -> CampaignResult:
    """Convenience helper used by examples and tests."""
    configuration = FuzzerConfiguration(core=core, entropy=entropy, **overrides)
    return DejaVuzzFuzzer(configuration).run_campaign(iterations)
