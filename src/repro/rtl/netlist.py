"""Module (netlist) container: signals, cells, registers and memories."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.rtl.cells import Cell, CellType


@dataclass
class RegisterInfo:
    """Metadata for a register signal (the output of a REG/REG_EN cell)."""

    name: str
    width: int
    init: int = 0
    module_path: str = "top"
    liveness_mask: Optional[str] = None  # the paper's ``liveness_mask`` attribute


@dataclass
class Memory:
    """A non-flattened memory array (word-addressed)."""

    name: str
    width: int
    depth: int
    init: int = 0
    module_path: str = "top"
    liveness_mask: Optional[str] = None


@dataclass
class Module:
    """A flat netlist with named word-level signals.

    Hierarchy is recorded through each cell/register's ``module_path`` so the
    taint coverage matrix can group taints per module, but evaluation is flat.
    """

    name: str
    signals: Dict[str, int] = field(default_factory=dict)  # name -> width
    inputs: List[str] = field(default_factory=list)
    outputs: List[str] = field(default_factory=list)
    cells: List[Cell] = field(default_factory=list)
    registers: Dict[str, RegisterInfo] = field(default_factory=dict)
    memories: Dict[str, Memory] = field(default_factory=dict)
    attributes: Dict[str, str] = field(default_factory=dict)

    def add_signal(self, name: str, width: int) -> str:
        if name in self.signals:
            raise ValueError(f"signal {name!r} already defined in module {self.name!r}")
        if width <= 0:
            raise ValueError(f"signal {name!r} must have positive width, got {width}")
        self.signals[name] = width
        return name

    def add_input(self, name: str, width: int) -> str:
        self.add_signal(name, width)
        self.inputs.append(name)
        return name

    def add_output(self, name: str) -> str:
        if name not in self.signals:
            raise ValueError(f"cannot mark unknown signal {name!r} as output")
        self.outputs.append(name)
        return name

    def add_cell(self, cell: Cell) -> Cell:
        if cell.output not in self.signals:
            raise ValueError(f"cell {cell.name!r} drives unknown signal {cell.output!r}")
        for signal in cell.input_signals():
            if signal not in self.signals:
                raise ValueError(f"cell {cell.name!r} reads unknown signal {signal!r}")
        for existing in self.cells:
            if existing.output == cell.output and not (
                existing.cell_type is CellType.MEM_WRITE
                or cell.cell_type is CellType.MEM_WRITE
            ):
                raise ValueError(
                    f"signal {cell.output!r} already driven by cell {existing.name!r}"
                )
        self.cells.append(cell)
        return cell

    def add_register(self, info: RegisterInfo) -> RegisterInfo:
        if info.name not in self.signals:
            raise ValueError(f"register {info.name!r} has no declared signal")
        self.registers[info.name] = info
        return info

    def add_memory(self, memory: Memory) -> Memory:
        if memory.name in self.memories:
            raise ValueError(f"memory {memory.name!r} already defined")
        self.memories[memory.name] = memory
        return memory

    def width_of(self, signal: str) -> int:
        return self.signals[signal]

    def combinational_cells(self) -> List[Cell]:
        return [cell for cell in self.cells if not cell.is_sequential]

    def sequential_cells(self) -> List[Cell]:
        return [cell for cell in self.cells if cell.is_sequential]

    def state_bit_count(self) -> int:
        """Total number of state bits (registers + memory contents)."""
        register_bits = sum(info.width for info in self.registers.values())
        memory_bits = sum(memory.width * memory.depth for memory in self.memories.values())
        return register_bits + memory_bits

    def module_paths(self) -> Set[str]:
        paths = {cell.module_path for cell in self.cells}
        paths.update(info.module_path for info in self.registers.values())
        paths.update(memory.module_path for memory in self.memories.values())
        return paths

    def driver_of(self, signal: str) -> Optional[Cell]:
        for cell in self.cells:
            if cell.output == signal and cell.cell_type is not CellType.MEM_WRITE:
                return cell
        return None

    def validate(self) -> None:
        """Check structural invariants; raise ValueError when broken."""
        for cell in self.cells:
            if cell.output not in self.signals:
                raise ValueError(f"cell {cell.name!r} drives undeclared signal")
        for name in self.inputs:
            if self.driver_of(name) is not None:
                raise ValueError(f"input signal {name!r} must not be driven by a cell")
        for name, info in self.registers.items():
            if info.width != self.signals[name]:
                raise ValueError(
                    f"register {name!r} width {info.width} does not match signal width "
                    f"{self.signals[name]}"
                )
