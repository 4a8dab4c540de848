"""Differential information flow tracking (diffIFT) — the paper's primitive.

The :class:`DiffIFTPass` instruments a module *without* flattening memories
(it works at the RTL-IR / word level, §3.3), which keeps compilation cheap.
A :class:`~repro.ift.shadow.TaintSimulator` in ``DIFFIFT`` mode then runs two
copies of the DUT on the same stimulus with different secrets; the shadow
circuit's control taint terms only fire when the corresponding control signal
actually differs between the two instances (Table 1).
"""

from __future__ import annotations

import time

from repro.ift.instrumentation import InstrumentationResult, InstrumentationStats
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
