"""The dual-DUT differential testbench.

Side-channel detection needs two DUT instances executing the same stimulus
with different secrets (§3.2): the testbench loads the original secret into
instance 0 and the bit-flipped secret into instance 1, runs both through the
same swap schedule, and exposes

* the timing difference of the transient packet (Phase 3's constant-time
  execution analysis),
* whether the final side-channel fingerprints differ (SpecDoctor's oracle),
* instance 0's taint state, computed under diffIFT with the cross-instance
  difference oracle wired to instance 1's recorded control decisions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.swapmem.layout import DEFAULT_LAYOUT
from repro.swapmem.memory import SwapMemory
from repro.swapmem.packets import SwapSchedule
from repro.swapmem.scheduler import SwapRunner, SwapRunResult
from repro.uarch.config import CoreConfig, TaintTrackingMode
from repro.uarch.processor import Processor
from repro.uarch.taint import make_peer_diff_oracle
from repro.utils.bitops import mask


def flip_secret(secret: int, width_bits: int = 64) -> int:
    """The variant secret: every bit of the original flipped (§3.3)."""
    return (~secret) & mask(width_bits)


@dataclass
class DifferentialRunResult:
    """Results of one dual-instance differential run."""

    primary: SwapRunResult
    variant: SwapRunResult
    secret: int
    variant_secret: int

    @property
    def window_triggered(self) -> bool:
        return self.primary.window_triggered()

    @property
    def window_cycle_range(self) -> Optional[Tuple[int, int]]:
        return self.primary.window_cycle_range()

    def timing_difference(self) -> int:
        """Difference in transient-packet duration between the two instances."""
        primary_cycles = self.primary.transient_packet_cycles() or 0
        variant_cycles = self.variant.transient_packet_cycles() or 0
        return abs(primary_cycles - variant_cycles)

    def fingerprints_differ(self) -> bool:
        """SpecDoctor-style oracle: do the timing-component hashes differ?"""
        primary_fingerprint = self.primary.processor.side_channel_fingerprint()
        variant_fingerprint = self.variant.processor.side_channel_fingerprint()
        return hash(primary_fingerprint) != hash(variant_fingerprint)

    def taint_census_log(self):
        return self.primary.processor.taint.census_log

    def final_tainted_modules(self) -> Dict[str, int]:
        census = self.primary.processor.taint.final_census()
        return census.nonzero_modules() if census else {}

    def summary(self) -> Dict[str, object]:
        return {
            "window_triggered": self.window_triggered,
            "timing_difference": self.timing_difference(),
            "fingerprints_differ": self.fingerprints_differ(),
            "tainted_modules": self.final_tainted_modules(),
        }


class DualCoreHarness:
    """Builds and runs the two-instance swapMem testbench."""

    def __init__(
        self,
        config: CoreConfig,
        schedule: SwapSchedule,
        secret: int,
        taint_mode: TaintTrackingMode = TaintTrackingMode.DIFFIFT,
        false_negative_mode: bool = False,
    ) -> None:
        self.config = config
        self.schedule = schedule
        self.secret = secret
        self.taint_mode = taint_mode
        # diffIFT_FN (Figure 6): both instances carry the same secret, so all
        # control signals match and control taints are suppressed.
        self.variant_secret = secret if false_negative_mode else flip_secret(secret)

        self.memory_primary = SwapMemory(secret=secret)
        self.memory_variant = SwapMemory(secret=self.variant_secret)
        self.processor_primary = Processor(
            config, memory=self.memory_primary.data, taint_mode=taint_mode
        )
        self.processor_variant = Processor(
            config, memory=self.memory_variant.data, taint_mode=taint_mode
        )

    def run(self) -> DifferentialRunResult:
        """Run the variant instance, wire the diff oracle, then run the primary."""
        secret_address, secret_size = DEFAULT_LAYOUT.secret_address, DEFAULT_LAYOUT.secret_size
        self.processor_variant.mark_secret(secret_address, secret_size)
        self.processor_primary.mark_secret(secret_address, secret_size)

        variant_result = SwapRunner(
            self.processor_variant, self.memory_variant, self.schedule
        ).run()

        if self.taint_mode is TaintTrackingMode.DIFFIFT:
            self.processor_primary.taint.diff_oracle = make_peer_diff_oracle(
                self.processor_variant.taint
            )
        primary_result = SwapRunner(
            self.processor_primary, self.memory_primary, self.schedule
        ).run()

        return DifferentialRunResult(
            primary=primary_result,
            variant=variant_result,
            secret=self.secret,
            variant_secret=self.variant_secret,
        )
