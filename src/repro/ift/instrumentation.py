"""Common result/statistics types shared by the instrumentation passes."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.rtl.netlist import Module


@dataclass
class InstrumentationStats:
    """Bookkeeping produced while instrumenting a design.

    ``compile_seconds`` is the wall-clock duration of the pass, the quantity
    reported in the "Compile" row of Table 4.
    """

    pass_name: str
    original_cells: int = 0
    instrumented_cells: int = 0
    original_state_bits: int = 0
    shadow_state_bits: int = 0
    memories_flattened: int = 0
    compile_seconds: float = 0.0
    extra: Dict[str, float] = field(default_factory=dict)


@dataclass
class InstrumentationResult:
    """An instrumented design plus the statistics of the pass that produced it."""

    module: Module
    stats: InstrumentationStats
