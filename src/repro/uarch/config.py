"""Core configuration: structure sizes, latencies and enabled defects."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import FrozenSet


class TaintTrackingMode(enum.Enum):
    """Which information-flow-tracking discipline the DUT is instrumented with."""

    NONE = "none"
    CELLIFT = "cellift"
    DIFFIFT = "diffift"


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of one cache level."""

    sets: int = 64
    ways: int = 4
    line_bytes: int = 64
    hit_latency: int = 2
    miss_latency: int = 20

    def __post_init__(self) -> None:
        # The fetch stage reads a zero miss latency as a hit.
        if self.miss_latency < 1:
            raise ValueError(f"miss_latency must be at least 1, got {self.miss_latency}")


@dataclass(frozen=True)
class PredictorConfig:
    """Sizes of the branch prediction structures."""

    bht_entries: int = 128
    btb_entries: int = 32
    ras_entries: int = 8
    loop_entries: int = 16
    bht_counter_bits: int = 2
    # Number of identical outcomes required before the loop predictor locks on.
    loop_confidence_threshold: int = 3


@dataclass(frozen=True)
class CoreConfig:
    """Full configuration of one simulated out-of-order core.

    The two stock configurations (:func:`repro.uarch.boom.small_boom_config`
    and :func:`repro.uarch.xiangshan.xiangshan_minimal_config`) mirror the
    SmallBOOM and XiangShan-MinimalConfig rows of Table 2, including which of
    the paper's bugs (B1–B5) each core exhibits.
    """

    name: str = "generic-ooo"
    isa: str = "RV64GC"

    # Pipeline shape.
    fetch_width: int = 2
    decode_width: int = 2
    commit_width: int = 2
    rob_entries: int = 32
    ldq_entries: int = 8
    stq_entries: int = 8
    int_issue_ports: int = 2
    mem_issue_ports: int = 1
    fp_issue_ports: int = 1

    # Latencies (cycles).
    alu_latency: int = 1
    mul_latency: int = 3
    div_latency: int = 12
    fp_latency: int = 4
    fp_div_latency: int = 16
    branch_resolve_latency: int = 1
    misprediction_penalty: int = 6
    exception_commit_delay: int = 4

    # Memory hierarchy.
    icache: CacheConfig = field(default_factory=CacheConfig)
    dcache: CacheConfig = field(default_factory=CacheConfig)
    l2_present: bool = True
    l2_extra_latency: int = 18
    tlb_entries: int = 16
    tlb_miss_latency: int = 12
    mshr_entries: int = 4

    # Prediction.
    predictors: PredictorConfig = field(default_factory=PredictorConfig)

    # Behavioural quirks.
    # When True, an illegal instruction reaches the RoB and is only resolved at
    # commit, opening a transient window (XiangShan); when False the frontend
    # refuses to issue past it, so no window opens (BOOM, Table 3).
    illegal_instruction_opens_window: bool = True
    # Speculative RAS update discipline.
    speculative_ras_update: bool = True
    # Which of the paper's defects (see repro.uarch.bugs) this core exhibits.
    bugs: FrozenSet[str] = frozenset()

    # Reported-source metadata (Table 2).
    verilog_loc: int = 0
    annotation_loc: int = 0

    def has_bug(self, name: str) -> bool:
        return name in self.bugs

    def supported_window_types(self):
        """The transient window types this core can actually open.

        Thin forwarding to the generation-layer taxonomy (imported lazily so
        the uarch layer keeps no hard dependency on it); heterogeneous
        campaigns use this to decide whether a seed genotype transfers.
        """
        from repro.generation.window_types import supported_window_types

        return supported_window_types(self)

    def describe(self) -> str:
        lines = [
            f"core {self.name} ({self.isa})",
            f"  rob={self.rob_entries} ldq={self.ldq_entries} stq={self.stq_entries}",
            f"  dcache={self.dcache.sets}x{self.dcache.ways}x{self.dcache.line_bytes}B",
            f"  predictors: bht={self.predictors.bht_entries} btb={self.predictors.btb_entries} "
            f"ras={self.predictors.ras_entries} loop={self.predictors.loop_entries}",
            f"  bugs: {', '.join(sorted(self.bugs)) if self.bugs else 'none'}",
        ]
        return "\n".join(lines)
