"""Phase 1 — transient window triggering (§4.1).

Step 1.1 (trigger generation + training derivation) produces a transient
packet with a dummy window and a set of candidate trigger-training packets.
Step 1.2 (trigger optimization) simulates the schedule, checks the RoB IO
events to confirm the window triggered, and then applies the *training
reduction strategy*: candidate training packets are removed one at a time and
the schedule is re-simulated; packets whose removal does not affect window
triggering are permanently discarded.

Phase 1 runs on the default swapMem layout with the deriver's three candidate
training packets, and each simulation stops a packet after
:data:`~repro.swapmem.scheduler.MAX_CYCLES_PER_PACKET` cycles.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.generation.seeds import Seed
from repro.generation.training import TrainingDeriver, TrainingMode
from repro.generation.trigger import TriggerGenerator, TriggerSpec
from repro.swapmem.memory import SwapMemory
from repro.swapmem.packets import SwapSchedule
from repro.swapmem.scheduler import SwapRunner, SwapRunResult
from repro.telemetry.metrics import MetricsRegistry
from repro.uarch.config import CoreConfig, TaintTrackingMode
from repro.uarch.processor import Processor


class DutPool:
    """A warm DUT — one ``(SwapMemory, Processor)`` pair per core.

    Checking a pooled pair out resets it in place (``Processor.reset`` +
    ``SwapMemory.rearm``) instead of constructing the processor's hierarchy,
    port map, predictors and packed-taint slot index again.  That saves
    little: a fresh pair costs about 0.1-0.2 ms on a 2-vCPU host, against
    about 4 ms for the Phase-1 simulation that uses it.  The reset is
    byte-equivalent to a fresh pair but touches only the mutated state.
    Phase 1 runs serially within a shard, so a single warm pair suffices; a
    re-entrant checkout falls back to a fresh, unpooled pair.
    """

    def __init__(self, config: CoreConfig) -> None:
        self.config = config
        self.constructions = 0
        self.reuses = 0
        self._swap_memory: Optional[SwapMemory] = None
        self._processor: Optional[Processor] = None
        self._checked_out = False

    def _fresh_pair(self, secret: int) -> Tuple[SwapMemory, Processor]:
        self.constructions += 1
        swap_memory = SwapMemory(secret=secret)
        processor = Processor(
            self.config, memory=swap_memory.data, taint_mode=TaintTrackingMode.NONE
        )
        return swap_memory, processor

    def checkout(self, secret: int) -> Tuple[SwapMemory, Processor]:
        """Borrow a DUT armed with ``secret``; pair with :meth:`checkin`."""
        if self._checked_out:
            return self._fresh_pair(secret)
        if self._processor is None:
            self._swap_memory, self._processor = self._fresh_pair(secret)
        else:
            self._processor.reset()
            self._swap_memory.rearm(secret)
            self.reuses += 1
        self._checked_out = True
        return self._swap_memory, self._processor

    def checkin(self, processor: Processor) -> None:
        if processor is self._processor:
            self._checked_out = False


@dataclass
class Phase1Result:
    """The outcome of one Phase-1 attempt for one seed."""

    seed: Seed
    spec: TriggerSpec
    schedule: SwapSchedule
    triggered: bool
    simulations_used: int
    training_overhead: int = 0
    effective_training_overhead: int = 0
    training_required: bool = True
    # Indices (into the seed's generated trigger-training candidates) of the
    # packets that survived the reduction; with ``seed`` they rebuild the
    # window (TransientWindowTriggering.rebuild).
    kept_training: Tuple[int, ...] = ()


class TransientWindowTriggering:
    """Phase 1 of the DejaVuzz workflow."""

    def __init__(
        self,
        config: CoreConfig,
        training_mode: TrainingMode = TrainingMode.DERIVED,
        metrics=None,
    ) -> None:
        self.config = config
        self.trigger_generator = TriggerGenerator()
        self.training_deriver = TrainingDeriver(mode=training_mode)
        # Instance-local (never module-global): shard campaign runners promise
        # that no module-global state is read or mutated.
        self.dut_pool = DutPool(config)
        # Telemetry instruments, resolved once so the hot path holds direct
        # references; ``metrics`` is a MetricsRegistry/MetricsScope (None
        # records into a private registry nobody reads).
        scope = metrics if metrics is not None else MetricsRegistry()
        self._sim_seconds = scope.histogram("sim_seconds")

    # -- Step 1.1: trigger generation ------------------------------------------------

    def generate_schedule(self, seed: Seed) -> tuple:
        """Generate the transient packet and candidate training packets."""
        spec = self.trigger_generator.generate(seed)
        rng = seed.rng("phase1")
        training_packets = self.training_deriver.derive_trigger_training(spec, rng)
        schedule = SwapSchedule(
            protect_secret_before_transient=spec.protect_secret,
            name=f"schedule_{seed.seed_id}",
        )
        for packet in training_packets:
            schedule.add(packet)
        schedule.add(spec.packet)
        return spec, schedule

    # -- Step 1.2: trigger optimization -----------------------------------------------

    def run(self, seed: Seed, secret: Optional[int] = None) -> Phase1Result:
        """Execute Phase 1 for one seed: trigger, evaluate, reduce training."""
        spec, schedule = self.generate_schedule(seed)
        secret_value = secret if secret is not None else seed.secret_value
        simulations = 0

        run_result = self._simulate(schedule, secret_value)
        simulations += 1
        if not run_result.window_triggered():
            return Phase1Result(
                seed=seed,
                spec=spec,
                schedule=schedule,
                triggered=False,
                simulations_used=simulations,
            )

        reduced_schedule, extra_simulations = self._reduce_training(
            schedule, secret_value
        )
        simulations += extra_simulations
        surviving = {id(packet) for packet in reduced_schedule.packets}
        return self._triggered(
            seed,
            spec,
            reduced_schedule,
            simulations,
            tuple(
                index
                for index, packet in enumerate(schedule.training_packets())
                if id(packet) in surviving
            ),
        )

    def rebuild(self, seed: Seed, kept_training: Sequence[int]) -> Phase1Result:
        """The triggered window that :meth:`run` acquired for ``seed``,
        rebuilt without a simulation.

        Generation is a pure function of the seed, so the spec and the
        candidate schedule come out as they did in :meth:`run`;
        ``kept_training`` (that result's :attr:`Phase1Result.kept_training`)
        then replays the reduction's decisions.  ``simulations_used`` is 0.
        """
        spec, schedule = self.generate_schedule(seed)
        candidates = schedule.training_packets()
        reduced = SwapSchedule(
            packets=[candidates[index] for index in kept_training] + [spec.packet],
            protect_secret_before_transient=schedule.protect_secret_before_transient,
            name=schedule.name,
        )
        return self._triggered(seed, spec, reduced, 0, tuple(kept_training))

    @staticmethod
    def _triggered(
        seed: Seed,
        spec: TriggerSpec,
        schedule: SwapSchedule,
        simulations: int,
        kept_training: Tuple[int, ...],
    ) -> Phase1Result:
        return Phase1Result(
            seed=seed,
            spec=spec,
            schedule=schedule,
            triggered=True,
            simulations_used=simulations,
            training_overhead=schedule.training_overhead(),
            effective_training_overhead=schedule.effective_training_overhead(),
            training_required=bool(kept_training),
            kept_training=kept_training,
        )

    def _reduce_training(
        self, schedule: SwapSchedule, secret: int
    ) -> Tuple[SwapSchedule, int]:
        """The training reduction strategy (§4.1.2).

        Remove one trigger-training packet at a time (in schedule order) and
        re-simulate; if the window still triggers without it, discard it
        permanently, otherwise keep it.

        A surviving-packet list is maintained in place, so each candidate is
        one ``del``/``insert`` and a single list copy — packets already proven
        removable are never filtered over again (rebuilding each candidate by
        filtering one name out of the previous schedule repeats that work).
        """
        current = schedule
        simulations = 0
        surviving = list(schedule.packets)
        for packet in schedule.training_packets():
            index = surviving.index(packet)
            del surviving[index]
            candidate = SwapSchedule(
                packets=list(surviving),
                protect_secret_before_transient=schedule.protect_secret_before_transient,
                name=schedule.name,
            )
            run_result = self._simulate(candidate, secret)
            simulations += 1
            if run_result.window_triggered():
                current = candidate
            else:
                surviving.insert(index, packet)
        return current, simulations

    # -- simulation helper ----------------------------------------------------------------

    def _simulate(self, schedule: SwapSchedule, secret: int) -> SwapRunResult:
        """One un-instrumented RTL simulation of a schedule on the pooled DUT."""
        started = time.perf_counter()
        try:
            pool = self.dut_pool
            swap_memory, processor = pool.checkout(secret)
            try:
                return SwapRunner(processor, swap_memory, schedule).run()
            finally:
                pool.checkin(processor)
        finally:
            self._sim_seconds.record(time.perf_counter() - started)
