"""Phase 2 — transient execution exploration (§4.2).

Step 2.1 completes the dummy window with a secret access block and a secret
encoding block and derives window-training packets that warm the sensitive
data into the memory hierarchy.  Step 2.2 runs the two diffIFT-instrumented
DUT instances on the completed schedule, measures taint coverage inside the
transient window, and produces the feedback signal that drives mutation.

The two instances always run diffIFT on the default swapMem layout; the
other tracking modes are compared on the harness itself
(:class:`~repro.swapmem.harness.DualCoreHarness`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.core.coverage import CoverageFeedback, TaintCoverageMatrix
from repro.core.phase1 import Phase1Result
from repro.generation.seeds import Seed
from repro.generation.training import TrainingDeriver
from repro.generation.window import WindowCompleter
from repro.swapmem.harness import DifferentialRunResult, DualCoreHarness
from repro.swapmem.packets import SwapSchedule
from repro.uarch.config import CoreConfig


@dataclass
class Phase2Result:
    """The outcome of one Phase-2 attempt for one triggered window."""

    seed: Seed
    schedule: SwapSchedule
    run: DifferentialRunResult
    window_cycle_range: Optional[Tuple[int, int]]
    taint_increased: bool
    new_coverage_points: int
    feedback: CoverageFeedback

    @property
    def secret_propagated(self) -> bool:
        return self.taint_increased


class TransientExecutionExploration:
    """Phase 2 of the DejaVuzz workflow."""

    def __init__(self, config: CoreConfig, low_gain_limit: int = 3) -> None:
        self.config = config
        self.window_completer = WindowCompleter()
        self.training_deriver = TrainingDeriver()
        self.low_gain_limit = low_gain_limit

    # -- Step 2.1: window completion ----------------------------------------------------

    def complete_window(self, phase1: Phase1Result, seed: Seed) -> SwapSchedule:
        """Fill the window with real payloads and add window-training packets."""
        rng = seed.rng("phase2")
        completed_packet = self.window_completer.complete(phase1.spec, seed, rng)
        schedule = phase1.schedule.with_transient_packet(completed_packet)
        for packet in self.training_deriver.derive_window_training(phase1.spec, rng):
            schedule.add(packet)
        return schedule

    # -- Step 2.2: coverage measurement ---------------------------------------------------

    def run(
        self,
        phase1: Phase1Result,
        seed: Seed,
        coverage: TaintCoverageMatrix,
        average_gain: float = 0.0,
        consecutive_low_gain: int = 0,
    ) -> Phase2Result:
        """Complete the window, simulate differentially, and measure coverage."""
        schedule = self.complete_window(phase1, seed)
        run = DualCoreHarness(self.config, schedule, secret=seed.secret_value).run()

        window_range = run.window_cycle_range
        census_log = run.taint_census_log()
        taint_increased = self._taint_increased_in_window(census_log, window_range)
        new_points = coverage.observe_census_log(census_log, cycle_range=window_range)
        feedback = CoverageFeedback.decide(
            new_points=new_points,
            taint_increased=taint_increased,
            average_gain=average_gain,
            consecutive_low_gain=consecutive_low_gain,
            low_gain_limit=self.low_gain_limit,
        )
        return Phase2Result(
            seed=seed,
            schedule=schedule,
            run=run,
            window_cycle_range=window_range,
            taint_increased=taint_increased,
            new_coverage_points=new_points,
            feedback=feedback,
        )

    @staticmethod
    def _taint_increased_in_window(census_log, window_range) -> bool:
        """Did the tainted-state-bit count grow during the transient window?"""
        if window_range is None or not census_log:
            return False
        start, end = window_range
        # Repeated censuses share one element_counts dict (the census fast
        # path), so bit totals are memoized per unique dict rather than
        # recomputed per cycle.
        totals: Dict[int, int] = {}

        def total_bits(census) -> int:
            key = id(census.element_counts)
            bits = totals.get(key)
            if bits is None:
                bits = census.total_bits()
                totals[key] = bits
            return bits

        in_window = [total_bits(census) for census in census_log if start <= census.cycle <= end]
        before = [total_bits(census) for census in census_log if census.cycle < start]
        if not in_window:
            return False
        baseline = before[-1] if before else 0
        return max(in_window) > baseline
