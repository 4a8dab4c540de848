"""Hardware dynamic information flow tracking (IFT) for netlist modules.

This package implements the two instrumentation schemes the paper compares:

* **CellIFT** (:mod:`repro.ift.cellift`) — the state-of-the-art baseline: the
  design is flattened (memories are expanded into per-entry registers and mux
  trees) and instrumented with the Policy-1/Policy-2 propagation rules of
  §2.2, in which control taints always propagate.  This reproduces both the
  compile-time blow-up and the control-flow over-tainting (taint explosion)
  behaviour measured in Table 4 and Figure 6.
* **diffIFT** (:mod:`repro.ift.diffift`) — the paper's differential
  information flow tracking: instrumentation stays at the word level
  (memories are not flattened), and the control-taint terms of Table 1 only
  fire when the corresponding control signal actually differs between two DUT
  instances executing the same stimulus with different secrets.

Both schemes share the policy library in :mod:`repro.ift.policies` and the
shadow-state evaluator in :mod:`repro.ift.shadow`.
"""

from repro.ift.policies import (
    TaintMode,
    and_taint,
    or_taint,
    xor_taint,
    add_taint,
    mux_taint,
    comparison_taint,
    register_enable_taint,
    memory_read_taint,
    memory_write_taint,
)
from repro.ift.shadow import TaintSimulator
from repro.ift.cellift import CellIFTPass, flatten_memories
from repro.ift.diffift import DiffIFTPass
from repro.ift.liveness import LivenessAnnotation, LivenessChecker, collect_annotations
from repro.ift.instrumentation import InstrumentationResult, InstrumentationStats

__all__ = [
    "TaintMode",
    "and_taint",
    "or_taint",
    "xor_taint",
    "add_taint",
    "mux_taint",
    "comparison_taint",
    "register_enable_taint",
    "memory_read_taint",
    "memory_write_taint",
    "TaintSimulator",
    "CellIFTPass",
    "flatten_memories",
    "DiffIFTPass",
    "LivenessAnnotation",
    "LivenessChecker",
    "collect_annotations",
    "InstrumentationResult",
    "InstrumentationStats",
]
