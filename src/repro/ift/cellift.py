"""CellIFT-style instrumentation (the paper's baseline IFT mechanism).

CellIFT instruments at the cell level and therefore "requires flattening all
memory, resulting in a significantly increased compilation time" (§6.3).  The
pass below reproduces that behaviour: every memory array is expanded into one
register per entry plus address-decode logic and mux read trees, and the
design is then simulated with the always-on control-taint policies
(:class:`~repro.ift.policies.TaintMode.CELLIFT`).
"""

from __future__ import annotations

import time

from repro.ift.instrumentation import InstrumentationResult, InstrumentationStats
from repro.rtl.cells import Cell, CellType
from repro.rtl.netlist import Memory, Module, RegisterInfo


def flatten_memories(module: Module) -> Module:
    """Return a copy of ``module`` with every memory expanded into registers.

    Each entry of a memory ``m`` of depth ``D`` becomes a register
    ``m_flat_<i>`` with a write-enable decoded from the write port's address;
    each read port becomes a mux tree over the entry registers.
    """
    flattened = Module(name=f"{module.name}_flat")
    flattened.signals = dict(module.signals)
    flattened.inputs = list(module.inputs)
    flattened.outputs = list(module.outputs)
    flattened.registers = dict(module.registers)
    flattened.attributes = dict(module.attributes)

    read_cells = [c for c in module.cells if c.cell_type is CellType.MEM_READ]
    write_cells = [c for c in module.cells if c.cell_type is CellType.MEM_WRITE]
    other_cells = [
        c
        for c in module.cells
        if c.cell_type not in (CellType.MEM_READ, CellType.MEM_WRITE)
    ]
    for cell in other_cells:
        flattened.cells.append(cell)

    fresh = _FreshNamer(flattened)
    for memory_name, memory in module.memories.items():
        entry_signals = _flatten_one_memory(
            flattened, fresh, memory, read_cells, write_cells
        )
        del entry_signals  # registers are recorded inside the helper
    flattened.validate()
    return flattened


def _flatten_one_memory(flattened, fresh, memory: Memory, read_cells, write_cells):
    entry_names = []
    for index in range(memory.depth):
        entry = f"{memory.name}_flat_{index}"
        flattened.signals[entry] = memory.width
        flattened.registers[entry] = RegisterInfo(
            name=entry,
            width=memory.width,
            init=memory.init,
            module_path=memory.module_path,
            liveness_mask=memory.liveness_mask,
        )
        entry_names.append(entry)

    # Write ports: decode the address, gate the write enable per entry.
    for cell in [c for c in write_cells if c.memory == memory.name]:
        addr = cell.port("addr")
        data = cell.port("data")
        wen = cell.port("wen")
        for index, entry in enumerate(entry_names):
            idx_const = fresh.const(index, flattened.signals[addr], memory.module_path)
            match = fresh.signal(1)
            flattened.cells.append(
                Cell(
                    name=fresh.name("flat_eq"),
                    cell_type=CellType.EQ,
                    output=match,
                    connections={"a": addr, "b": idx_const},
                    module_path=memory.module_path,
                )
            )
            enable = fresh.signal(1)
            flattened.cells.append(
                Cell(
                    name=fresh.name("flat_and"),
                    cell_type=CellType.AND,
                    output=enable,
                    connections={"a": wen, "b": match},
                    module_path=memory.module_path,
                )
            )
            flattened.cells.append(
                Cell(
                    name=fresh.name("flat_reg"),
                    cell_type=CellType.REG_EN,
                    output=entry,
                    connections={"d": data, "en": enable},
                    module_path=memory.module_path,
                )
            )

    # Read ports: mux tree over the entries.
    for cell in [c for c in read_cells if c.memory == memory.name]:
        addr = cell.port("addr")
        current = entry_names[0]
        for index in range(1, memory.depth):
            idx_const = fresh.const(index, flattened.signals[addr], memory.module_path)
            match = fresh.signal(1)
            flattened.cells.append(
                Cell(
                    name=fresh.name("flat_rd_eq"),
                    cell_type=CellType.EQ,
                    output=match,
                    connections={"a": addr, "b": idx_const},
                    module_path=memory.module_path,
                )
            )
            selected = fresh.signal(memory.width)
            flattened.cells.append(
                Cell(
                    name=fresh.name("flat_rd_mux"),
                    cell_type=CellType.MUX,
                    output=selected,
                    connections={"sel": match, "a": current, "b": entry_names[index]},
                    module_path=memory.module_path,
                )
            )
            current = selected
        # Alias the final mux output onto the original read-data signal.
        flattened.cells.append(
            Cell(
                name=fresh.name("flat_rd_alias"),
                cell_type=CellType.SLICE,
                output=cell.output,
                connections={"a": current},
                params={"hi": memory.width - 1, "lo": 0},
                module_path=memory.module_path,
            )
        )
    return entry_names


class _FreshNamer:
    """Generates unique signal and cell names inside a flattened module."""

    def __init__(self, module: Module) -> None:
        self._module = module
        self._counter = 0

    def name(self, prefix: str) -> str:
        self._counter += 1
        return f"{prefix}_{self._counter}"

    def signal(self, width: int) -> str:
        name = self.name("flat_sig")
        self._module.signals[name] = width
        return name

    def const(self, value: int, width: int, module_path: str) -> str:
        signal = self.signal(width)
        self._module.cells.append(
            Cell(
                name=self.name("flat_const"),
                cell_type=CellType.CONST,
                output=signal,
                connections={},
                params={"value": value},
                module_path=module_path,
            )
        )
        return signal


class CellIFTPass:
    """Instrument a module with CellIFT: flatten memories, add shadow state."""

    name = "cellift"

    def run(self, module: Module) -> InstrumentationResult:
        start = time.perf_counter()
        flattened = flatten_memories(module)
        # Shadow state: one taint register per register bit (the TaintSimulator
        # realises this state; here we only account for it).
        stats = InstrumentationStats(
            pass_name=self.name,
            original_cells=len(module.cells),
            instrumented_cells=len(flattened.cells),
            original_state_bits=module.state_bit_count(),
            shadow_state_bits=flattened.state_bit_count(),
            memories_flattened=len(module.memories),
            compile_seconds=0.0,
        )
        stats.compile_seconds = time.perf_counter() - start
        return InstrumentationResult(module=flattened, stats=stats)
