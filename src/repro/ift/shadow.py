"""Shadow taint state and the taint-aware netlist simulator.

:class:`TaintSimulator` runs one or two instances of a netlist (two in
diffIFT's differential-testbench configuration) and maintains a shadow taint
value for every signal, register and memory entry, updated each cycle
according to the policies of :mod:`repro.ift.policies`.  It corresponds to the
IFT shadow circuit of Figure 2(b): the original circuit is evaluated for
values, and the shadow circuit is evaluated for taints.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.ift import policies
from repro.ift.policies import TaintMode
from repro.rtl.cells import Cell, CellType
from repro.rtl.netlist import Module
from repro.rtl.simulator import NetlistSimulator
from repro.utils.bitops import mask, popcount, to_unsigned


class PackedShadowState:
    """Signal taints packed into one flat vector indexed by signal slot.

    Every signal of the module gets a fixed slot (declaration order), so the
    per-cycle taint evaluation writes ``vector[slot]`` instead of churning a
    per-signal dict.  The slot index is built once per module and shared by
    ``reset`` (the vector is re-zeroed, the index is immutable).
    """

    __slots__ = ("_index", "_taints", "memory_taints")

    def __init__(self, module: Module, index: Optional[Dict[str, int]] = None) -> None:
        self._index: Dict[str, int] = (
            index
            if index is not None
            else {name: slot for slot, name in enumerate(module.signals)}
        )
        self._taints: List[int] = [0] * len(self._index)
        self.memory_taints: Dict[str, List[int]] = {
            name: [0] * memory.depth for name, memory in module.memories.items()
        }

    def taint_of(self, signal: str) -> int:
        slot = self._index.get(signal)
        return self._taints[slot] if slot is not None else 0

    def set_taint(self, signal: str, taint: int) -> None:
        self._taints[self._index[signal]] = taint


class TaintSimulator:
    """Simulate a module together with its IFT shadow state.

    ``mode`` selects the propagation discipline.  In ``DIFFIFT`` mode the
    simulator runs ``num_instances = 2`` copies of the design in lock step;
    the cross-instance difference of each signal gates the control-taint terms.
    In ``CELLIFT`` mode a single instance is run and control taints always
    propagate (the difference gates are treated as always-on).
    """

    def __init__(
        self,
        module: Module,
        mode: TaintMode = TaintMode.CELLIFT,
        num_instances: Optional[int] = None,
    ) -> None:
        self.module = module
        self.mode = mode
        if num_instances is None:
            num_instances = 2 if mode is TaintMode.DIFFIFT else 1
        if mode is TaintMode.DIFFIFT and num_instances != 2:
            raise ValueError("diffIFT requires exactly two DUT instances")
        if mode is TaintMode.CELLIFT and num_instances != 1:
            raise ValueError("CellIFT instruments a single DUT instance")
        self.instances = [NetlistSimulator(module) for _ in range(num_instances)]
        # The evaluation order and sequential-cell list are identical across
        # instances and cycles; the public accessors copy per call, so cache
        # them once for the per-cycle loops.
        self._evaluation_order = self.instances[0]._order
        self._sequential_cells = module.sequential_cells()
        self.shadow = PackedShadowState(module)
        self.cycle = 0
        self.taint_history: List[int] = []

    # -- setup -----------------------------------------------------------------

    def reset(self) -> None:
        for instance in self.instances:
            instance.reset()
        self.shadow = PackedShadowState(self.module, index=self.shadow._index)
        self.cycle = 0
        self.taint_history = []

    def taint_signal(self, name: str, taint: Optional[int] = None) -> None:
        """Mark a signal (typically an input or register) as a taint source."""
        width = self.module.width_of(name)
        self.shadow.set_taint(
            name, mask(width) if taint is None else to_unsigned(taint, width)
        )

    # -- stepping ----------------------------------------------------------------

    def step(
        self,
        inputs: Optional[Dict[str, int]] = None,
        per_instance_inputs: Optional[List[Dict[str, int]]] = None,
        input_taints: Optional[Dict[str, int]] = None,
    ) -> Dict[str, int]:
        """Advance one cycle; returns the taint of each output signal."""
        if per_instance_inputs is not None:
            if len(per_instance_inputs) != len(self.instances):
                raise ValueError("one input map per instance is required")
            for simulator, instance_inputs in zip(self.instances, per_instance_inputs):
                simulator.set_inputs(instance_inputs)
        elif inputs is not None:
            for simulator in self.instances:
                simulator.set_inputs(inputs)
        if input_taints:
            for name, taint in input_taints.items():
                self.taint_signal(name, taint)

        for simulator in self.instances:
            simulator.evaluate_combinational()
        self._evaluate_combinational_taints()
        next_register_taints = self._compute_sequential_taints()
        for simulator in self.instances:
            simulator._clock_edge()
            simulator.state.cycle += 1
        self._commit_sequential_taints(next_register_taints)
        self.cycle += 1
        self.taint_history.append(self.state_taint_sum())
        return {name: self.shadow.taint_of(name) for name in self.module.outputs}

    def run(self, cycles: int, inputs: Optional[Dict[str, int]] = None) -> List[int]:
        """Run ``cycles`` cycles with constant inputs; return taint sums per cycle."""
        sums = []
        for _ in range(cycles):
            self.step(inputs=inputs)
            sums.append(self.state_taint_sum())
        return sums

    # -- taint evaluation ----------------------------------------------------------

    def _diff(self, signal: str) -> int:
        if len(self.instances) < 2:
            return 1  # gates are always-on outside differential mode
        a = self.instances[0].state.value(signal)
        b = self.instances[1].state.value(signal)
        return 1 if a != b else 0

    def _value(self, signal: str) -> int:
        return self.instances[0].state.value(signal)

    def _evaluate_combinational_taints(self) -> None:
        shadow = self.shadow
        taints = shadow._taints
        index = shadow._index
        taint_of = shadow.taint_of
        memory_taints = shadow.memory_taints
        value_of = self._value
        diff_of = self._diff
        module = self.module
        mode = self.mode
        for cell in self._evaluation_order:
            taints[index[cell.output]] = evaluate_cell_taint(
                cell=cell,
                module=module,
                value_of=value_of,
                taint_of=taint_of,
                memory_taints=memory_taints,
                diff_of=diff_of,
                mode=mode,
            )

    def _compute_sequential_taints(self) -> List[Tuple[int, int]]:
        """Next-state register taints as ``(signal slot, taint)`` pairs."""
        shadow = self.shadow
        taint_of = shadow.taint_of
        index = shadow._index
        next_taints: List[Tuple[int, int]] = []
        for cell in self._sequential_cells:
            if cell.cell_type is CellType.REG:
                width = self.module.width_of(cell.output)
                next_taints.append(
                    (index[cell.output], taint_of(cell.port("d")) & mask(width))
                )
            elif cell.cell_type is CellType.REG_EN:
                width = self.module.width_of(cell.output)
                next_taints.append(
                    (
                        index[cell.output],
                        policies.register_enable_taint(
                            en=self._value(cell.port("en")),
                            d=self._value(cell.port("d")),
                            q=self._value(cell.output),
                            en_t=taint_of(cell.port("en")),
                            d_t=taint_of(cell.port("d")),
                            q_t=taint_of(cell.output),
                            width=width,
                            en_diff=self._diff(cell.port("en")),
                            mode=self.mode,
                        ),
                    )
                )
            elif cell.cell_type is CellType.MEM_WRITE:
                self._apply_memory_write_taint(cell)
        return next_taints

    def _apply_memory_write_taint(self, cell: Cell) -> None:
        memory = self.module.memories[cell.memory]
        taint_of = self.shadow.taint_of
        address = self._value(cell.port("addr")) % memory.depth
        entry_taints = self.shadow.memory_taints[cell.memory]
        entry_taints[address] = policies.memory_write_taint(
            wen=self._value(cell.port("wen")),
            wdata_t=taint_of(cell.port("data")),
            entry_taint=entry_taints[address],
            wen_t=taint_of(cell.port("wen")),
            addr_t=taint_of(cell.port("addr")),
            width=memory.width,
            wen_diff=self._diff(cell.port("wen")),
            addr_diff=self._diff(cell.port("addr")),
            mode=self.mode,
        )

    def _commit_sequential_taints(self, next_taints: List[Tuple[int, int]]) -> None:
        taints = self.shadow._taints
        for slot, taint in next_taints:
            taints[slot] = taint

    # -- measurement -------------------------------------------------------------------

    def state_taint_sum(self) -> int:
        """Number of tainted state bits (registers + memory entries)."""
        total = 0
        for name in self.module.registers:
            total += popcount(self.shadow.taint_of(name))
        for name, entries in self.shadow.memory_taints.items():
            total += sum(popcount(entry) for entry in entries)
        return total

    def taints_by_module(self) -> Dict[str, int]:
        """Tainted state-bit count per module path (feeds the coverage matrix)."""
        per_module: Dict[str, int] = {}
        for name, info in self.module.registers.items():
            count = popcount(self.shadow.taint_of(name))
            if count:
                per_module[info.module_path] = per_module.get(info.module_path, 0) + count
        for name, memory in self.module.memories.items():
            count = sum(popcount(entry) for entry in self.shadow.memory_taints[name])
            if count:
                per_module[memory.module_path] = per_module.get(memory.module_path, 0) + count
        return per_module


def evaluate_cell_taint(
    cell: Cell,
    module: Module,
    value_of,
    taint_of,
    memory_taints: Dict[str, List[int]],
    diff_of,
    mode: TaintMode,
) -> int:
    """Compute the output taint of one combinational cell."""
    width = module.width_of(cell.output)
    kind = cell.cell_type

    if kind is CellType.CONST:
        return 0
    if kind is CellType.NOT:
        return policies.not_taint(taint_of(cell.port("a"))) & mask(width)
    if kind is CellType.AND:
        return policies.and_taint(
            value_of(cell.port("a")),
            value_of(cell.port("b")),
            taint_of(cell.port("a")),
            taint_of(cell.port("b")),
        ) & mask(width)
    if kind is CellType.OR:
        return policies.or_taint(
            value_of(cell.port("a")),
            value_of(cell.port("b")),
            taint_of(cell.port("a")),
            taint_of(cell.port("b")),
            width,
        )
    if kind is CellType.XOR:
        return policies.xor_taint(taint_of(cell.port("a")), taint_of(cell.port("b"))) & mask(width)
    if kind in (CellType.ADD, CellType.SUB):
        return policies.add_taint(
            taint_of(cell.port("a")), taint_of(cell.port("b")), width
        )
    if kind in (CellType.SHL, CellType.SHR):
        return policies.shift_taint(
            value_of(cell.port("a")),
            taint_of(cell.port("a")),
            value_of(cell.port("b")),
            taint_of(cell.port("b")),
            width,
            left=kind is CellType.SHL,
        )
    if kind.is_comparison:
        return policies.comparison_taint(
            taint_of(cell.port("a")),
            taint_of(cell.port("b")),
            out_diff=diff_of(cell.output),
            mode=mode,
        )
    if kind is CellType.MUX:
        return policies.mux_taint(
            sel=value_of(cell.port("sel")),
            a=value_of(cell.port("a")),
            b=value_of(cell.port("b")),
            sel_t=taint_of(cell.port("sel")),
            a_t=taint_of(cell.port("a")),
            b_t=taint_of(cell.port("b")),
            width=width,
            sel_diff=diff_of(cell.port("sel")),
            mode=mode,
        )
    if kind is CellType.CONCAT:
        return policies.concat_taint(
            taint_of(cell.port("a")),
            taint_of(cell.port("b")),
            module.width_of(cell.port("b")),
        ) & mask(width)
    if kind is CellType.SLICE:
        return policies.slice_taint(
            taint_of(cell.port("a")), cell.params["hi"], cell.params["lo"]
        )
    if kind is CellType.REDUCE_OR:
        return policies.reduce_or_taint(
            value_of(cell.port("a")),
            taint_of(cell.port("a")),
            module.width_of(cell.port("a")),
        )
    if kind is CellType.MEM_READ:
        memory = module.memories[cell.memory]
        address = value_of(cell.port("addr")) % memory.depth
        return policies.memory_read_taint(
            entry_taint=memory_taints[cell.memory][address],
            addr_t=taint_of(cell.port("addr")),
            width=width,
            addr_diff=diff_of(cell.port("addr")),
            mode=mode,
        )
    raise NotImplementedError(f"no taint policy for cell type {kind}")
