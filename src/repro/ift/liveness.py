"""Taint liveness annotations (§4.3.2).

Taints produced by IFT only indicate *reachability*: a secret may have been
copied into a buffer whose managing state machine already marked the entry
invalid, in which case the residual taint cannot be observed architecturally
(the LFB/MSHR example of §3.1, challenge C2-2).  Liveness annotations bind a
state-register (liveness) signal to a taint sink: a tainted sink only counts
as exploitable when its liveness bit is set.

Annotations are carried on :class:`~repro.rtl.netlist.RegisterInfo` /
:class:`~repro.rtl.netlist.Memory` via the ``liveness_mask`` attribute — the
Python analogue of the Verilog ``(* liveness_mask = "..." *)`` attribute shown
in the paper — and are collected by :func:`collect_annotations`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.rtl.netlist import Module
from repro.utils.bitops import bit


@dataclass(frozen=True)
class LivenessAnnotation:
    """Binds one sink (register or memory) to its liveness signal."""

    sink: str
    liveness_signal: str
    is_memory: bool = False
    lane: Optional[int] = None  # which bit of the liveness vector guards this sink

    def describe(self) -> str:
        kind = "memory" if self.is_memory else "register"
        lane = f"[{self.lane}]" if self.lane is not None else ""
        return f"{kind} {self.sink} guarded by {self.liveness_signal}{lane}"


def collect_annotations(module: Module) -> List[LivenessAnnotation]:
    """Collect every ``liveness_mask`` annotation present in a module.

    Registers named with a trailing ``_<index>`` are treated as slot ``index``
    of a register array, matching the generic-vector liveness interface the
    paper describes ("each bit representing whether the corresponding slot in
    the taint register array is valid").
    """
    annotations: List[LivenessAnnotation] = []
    for name, info in module.registers.items():
        if info.liveness_mask:
            annotations.append(
                LivenessAnnotation(
                    sink=name,
                    liveness_signal=info.liveness_mask,
                    is_memory=False,
                    lane=_trailing_index(name),
                )
            )
    for name, memory in module.memories.items():
        if memory.liveness_mask:
            annotations.append(
                LivenessAnnotation(sink=name, liveness_signal=memory.liveness_mask, is_memory=True)
            )
    return annotations


class LivenessChecker:
    """Classifies tainted sinks as live (exploitable) or dead (false positive)."""

    def __init__(self, module: Module, annotations: Optional[List[LivenessAnnotation]] = None) -> None:
        self.module = module
        self.annotations = annotations if annotations is not None else collect_annotations(module)
        self._by_sink: Dict[str, LivenessAnnotation] = {a.sink: a for a in self.annotations}

    def is_live(self, sink: str, signal_values: Dict[str, int], lane: Optional[int] = None) -> bool:
        """Return True when the sink's taint is exploitable.

        Sinks without an annotation are conservatively treated as live (the
        paper treats all register arrays as potential sinks by default and
        lets developers narrow them with annotations).
        """
        annotation = self._by_sink.get(sink)
        if annotation is None:
            return True
        liveness_value = signal_values.get(annotation.liveness_signal, 0)
        effective_lane = lane if lane is not None else annotation.lane
        if effective_lane is None:
            return liveness_value != 0
        return bool(bit(liveness_value, effective_lane))

    def filter_live_sinks(
        self, tainted_sinks: Dict[str, int], signal_values: Dict[str, int]
    ) -> Dict[str, int]:
        """Keep only the tainted sinks whose liveness signal is asserted."""
        return {
            sink: taint
            for sink, taint in tainted_sinks.items()
            if taint and self.is_live(sink, signal_values)
        }

    def dead_sinks(
        self, tainted_sinks: Dict[str, int], signal_values: Dict[str, int]
    ) -> Dict[str, int]:
        """The complement of :meth:`filter_live_sinks`: unexploitable residual taints."""
        live = self.filter_live_sinks(tainted_sinks, signal_values)
        return {sink: taint for sink, taint in tainted_sinks.items() if taint and sink not in live}


def _trailing_index(name: str) -> Optional[int]:
    parts = name.rsplit("_", 1)
    if len(parts) == 2 and parts[1].isdigit():
        return int(parts[1])
    return None
