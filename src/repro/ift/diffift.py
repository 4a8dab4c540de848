"""Differential information flow tracking (diffIFT) — the paper's primitive.

The :class:`DiffIFTPass` instruments a module *without* flattening memories
(it works at the RTL-IR / word level, §3.3), which keeps compilation cheap.
The :class:`DifferentialTestbench` instantiates two copies of the DUT that
execute the same stimulus with different secrets; the shadow circuit's control
taint terms only fire when the corresponding control signal actually differs
between the two instances (Table 1).
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from repro.ift.instrumentation import InstrumentationResult, InstrumentationStats
from repro.ift.policies import TaintMode
from repro.ift.shadow import TaintSimulator
from repro.rtl.cells import CellType
from repro.rtl.netlist import Module


class DiffIFTPass:
    """Annotate a design for diffIFT instrumentation (no structural change)."""

    name = "diffift"

    # Cell kinds whose taint policies need cross-instance difference signals.
    CONTROL_CELLS = (
        CellType.MUX,
        CellType.EQ,
        CellType.NEQ,
        CellType.LT,
        CellType.REG_EN,
        CellType.MEM_READ,
        CellType.MEM_WRITE,
    )

    def run(self, module: Module) -> InstrumentationResult:
        start = time.perf_counter()
        module.validate()
        control_cells = [c for c in module.cells if c.cell_type in self.CONTROL_CELLS]
        stats = InstrumentationStats(
            pass_name=self.name,
            original_cells=len(module.cells),
            # diffIFT adds one shadow cell per original cell plus one
            # difference comparator per control cell; no memory flattening.
            instrumented_cells=len(module.cells) * 2 + len(control_cells),
            original_state_bits=module.state_bit_count(),
            shadow_state_bits=module.state_bit_count(),
            memories_flattened=0,
        )
        stats.extra["control_cells"] = float(len(control_cells))
        stats.compile_seconds = time.perf_counter() - start
        return InstrumentationResult(module=module, stats=stats)


class DifferentialTestbench:
    """Two DUT instances with different secrets plus a shared diffIFT shadow.

    ``false_negative_mode`` reproduces the diffIFT_FN variant of Figure 6: the
    two instances are fed identical secrets, so every cross-instance
    difference signal is zero and control taints are suppressed entirely.
    """

    def __init__(self, module: Module, false_negative_mode: bool = False) -> None:
        self.result = DiffIFTPass().run(module)
        self.simulator = TaintSimulator(module, mode=TaintMode.DIFFIFT, num_instances=2)
        self.false_negative_mode = false_negative_mode

    @property
    def stats(self) -> InstrumentationStats:
        return self.result.stats

    def taint_signal(self, name: str, taint: Optional[int] = None) -> None:
        self.simulator.taint_signal(name, taint)

    def taint_memory(self, name: str, index: int, taint: Optional[int] = None) -> None:
        self.simulator.taint_memory(name, index, taint)

    def step(
        self,
        inputs: Optional[Dict[str, int]] = None,
        per_instance_inputs: Optional[List[Dict[str, int]]] = None,
    ) -> int:
        self.simulator.step(inputs=inputs, per_instance_inputs=per_instance_inputs)
        return self.simulator.state_taint_sum()

    def run(self, cycles: int, inputs: Optional[Dict[str, int]] = None) -> List[int]:
        return self.simulator.run(cycles, inputs=inputs)

    def taints_by_module(self) -> Dict[str, int]:
        return self.simulator.taints_by_module()
