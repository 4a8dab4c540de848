"""Phase 3 — transient leakage analysis (§4.3).

Step 3.1 checks transient-window constant-time execution: if the two DUT
instances (which differ only in the secret) spent a different number of cycles
in the transient packet, the secret influenced timing (port contention and
similar side channels) and the test case is reported directly.

Step 3.2 runs when timing is identical: the secret encoding block is replaced
with nops and the simulation re-run (*encode sanitization*), isolating the
taints the encoding block produced; those taints are then filtered through
taint liveness — a tainted sink only counts as exploitable if the state
machine managing it still marks the data valid.  Residual taints in squashed
RoB entries, physical registers or invalidated fill buffers are classified as
unexploitable (the false positives that trap SpecDoctor, §6.3).

The sanitized re-run uses diffIFT on the default swapMem layout, like Phase 2;
``use_liveness_annotations=False`` counts every encoded taint as live, which
the liveness study compares against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.core.phase2 import Phase2Result
from repro.generation.seeds import Seed
from repro.swapmem.harness import DifferentialRunResult, DualCoreHarness
from repro.swapmem.packets import SwapSchedule
from repro.uarch.config import CoreConfig
from repro.uarch.processor import Processor
from repro.utils.jsontypes import json_typed

# Sinks whose contents remain architecturally reachable after the squash: the
# replacement state of caches/TLB and the contents of predictor structures are
# probe-able by a later attacker.  (The paper's liveness annotations bind each
# sink to the state register that guards it; this table plays that role for
# the module-level DUT, and the LFB is handled explicitly through its MSHR
# valid bits.)
LIVE_SINK_MODULES = ("dcache", "icache", "l2", "tlb", "btb", "ras", "loop", "bht")
# Sinks whose taints are dead once the transient window is squashed.
DEAD_SINK_MODULES = ("rob", "regfile", "ldq", "stq")
# A transient packet whose duration differs by at least this many cycles between the
# two instances is a constant-time violation (Step 3.1).
TIMING_THRESHOLD = 1


@dataclass
class LeakageVerdict:
    """The classification of one test case."""

    is_leak: bool
    reason: str  # "timing" | "live_taint" | "none"
    timing_difference: int = 0
    live_sinks: Dict[str, int] = field(default_factory=dict)
    dead_sinks: Dict[str, int] = field(default_factory=dict)
    encoded_sinks: Dict[str, int] = field(default_factory=dict)

    def describe(self) -> str:
        if not self.is_leak:
            return "no exploitable leakage"
        if self.reason == "timing":
            return f"timing leak ({self.timing_difference} cycle difference in the window)"
        sinks = ", ".join(sorted(self.live_sinks))
        return f"exploitable encoded taint in live sinks: {sinks}"

    def to_dict(self) -> Dict[str, object]:
        return {
            "is_leak": self.is_leak,
            "reason": self.reason,
            "timing_difference": self.timing_difference,
            "live_sinks": dict(self.live_sinks),
            "dead_sinks": dict(self.dead_sinks),
            "encoded_sinks": dict(self.encoded_sinks),
        }

    @staticmethod
    def from_dict(payload: Dict[str, object]) -> "LeakageVerdict":
        def sinks(key: str) -> Dict[str, int]:
            return {
                sink: json_typed(count, int, key)
                for sink, count in json_typed(payload[key], dict, key).items()
            }

        return LeakageVerdict(
            is_leak=json_typed(payload["is_leak"], bool, "is_leak"),
            reason=json_typed(payload["reason"], str, "reason"),
            timing_difference=json_typed(
                payload["timing_difference"], int, "timing_difference"
            ),
            live_sinks=sinks("live_sinks"),
            dead_sinks=sinks("dead_sinks"),
            encoded_sinks=sinks("encoded_sinks"),
        )


@dataclass
class Phase3Result:
    seed: Seed
    verdict: LeakageVerdict
    sanitized_run: Optional[DifferentialRunResult] = None


class TransientLeakageAnalysis:
    """Phase 3 of the DejaVuzz workflow."""

    def __init__(
        self,
        config: CoreConfig,
        use_liveness_annotations: bool = True,
    ) -> None:
        self.config = config
        self.use_liveness_annotations = use_liveness_annotations

    # -- Step 3.1: constant time execution analysis -----------------------------------------

    def constant_time_violation(self, run: DifferentialRunResult) -> int:
        """Cycle difference of the transient packet between the two instances."""
        return run.timing_difference()

    # -- Step 3.2: encode sanitization + liveness --------------------------------------------

    def sanitize_and_rerun(self, schedule: SwapSchedule, seed: Seed) -> DifferentialRunResult:
        """Replace the secret encoding block with nops and re-simulate."""
        transient = schedule.transient_packet()
        sanitized_packet = transient.replace_tagged_with_nops("encode")
        sanitized_schedule = schedule.with_transient_packet(sanitized_packet)
        return DualCoreHarness(
            self.config, sanitized_schedule, secret=seed.secret_value
        ).run()

    def encoded_taints(
        self, original: DifferentialRunResult, sanitized: DifferentialRunResult
    ) -> Dict[str, int]:
        """Taints attributable to the secret encoding block (original minus sanitized)."""
        original_modules = original.final_tainted_modules()
        sanitized_modules = sanitized.final_tainted_modules()
        encoded: Dict[str, int] = {}
        for module, count in original_modules.items():
            difference = count - sanitized_modules.get(module, 0)
            if difference > 0:
                encoded[module] = difference
        return encoded

    def liveness_filter(self, processor: Processor, tainted: Dict[str, int]) -> tuple:
        """Split encoded taints into live (exploitable) and dead (false positive) sinks."""
        live: Dict[str, int] = {}
        dead: Dict[str, int] = {}
        for module, count in tainted.items():
            if not self.use_liveness_annotations:
                live[module] = count
                continue
            if module == "lfb":
                # The LFB's liveness signal is the packed MSHR valid vector:
                # only slots whose MSHR entry is still valid are exploitable.
                live_slots = len(processor.hierarchy.lfb.live_tainted_slots())
                if live_slots:
                    live[module] = live_slots
                else:
                    dead[module] = count
            elif module in LIVE_SINK_MODULES:
                live[module] = count
            elif module in DEAD_SINK_MODULES:
                dead[module] = count
            else:
                live[module] = count
        return live, dead

    # -- full phase ------------------------------------------------------------------------------

    def run(self, phase2: Phase2Result) -> Phase3Result:
        """Analyse one Phase-2 test case and classify it."""
        run = phase2.run
        timing = self.constant_time_violation(run)
        if timing >= TIMING_THRESHOLD:
            verdict = LeakageVerdict(
                is_leak=True,
                reason="timing",
                timing_difference=timing,
            )
            return Phase3Result(seed=phase2.seed, verdict=verdict)

        sanitized = self.sanitize_and_rerun(phase2.schedule, phase2.seed)
        encoded = self.encoded_taints(run, sanitized)
        live, dead = self.liveness_filter(run.primary.processor, encoded)
        verdict = LeakageVerdict(
            is_leak=bool(live),
            reason="live_taint" if live else "none",
            timing_difference=timing,
            live_sinks=live,
            dead_sinks=dead,
            encoded_sinks=encoded,
        )
        return Phase3Result(seed=phase2.seed, verdict=verdict, sanitized_run=sanitized)
