"""A small fluent DSL for constructing netlists.

The builder keeps the cell/port bookkeeping out of circuit descriptions so the
example library (:mod:`repro.rtl.library`) and tests read close to RTL.
Every builder method returns the name of the signal it drives, so expressions
compose naturally::

    b = CircuitBuilder("rob")
    enq_valid = b.input("enq_valid", 1)
    tail = b.register("rob_tail_idx", 3)
    match = b.eq(tail, b.const(3, 3), name="match_rob3")
    update = b.and_(enq_valid, match, name="update_rob3")
"""

from __future__ import annotations

from typing import Optional

from repro.rtl.cells import Cell, CellType
from repro.rtl.netlist import Memory, Module, RegisterInfo


class CircuitBuilder:
    """Incrementally constructs a :class:`~repro.rtl.netlist.Module`."""

    def __init__(self, name: str) -> None:
        self.module = Module(name=name)
        self._counter = 0
        self._module_path = name

    # -- naming ---------------------------------------------------------------

    def _fresh(self, prefix: str) -> str:
        self._counter += 1
        return f"{prefix}_{self._counter}"

    def scope(self, path: str) -> "CircuitBuilder":
        """Set the module path recorded on subsequently created cells."""
        self._module_path = path
        return self

    # -- signals --------------------------------------------------------------

    def input(self, name: str, width: int) -> str:
        return self.module.add_input(name, width)

    def signal(self, name: str, width: int) -> str:
        return self.module.add_signal(name, width)

    def output(self, signal: str) -> str:
        return self.module.add_output(signal)

    def const(self, value: int, width: int, name: Optional[str] = None) -> str:
        signal = name or self._fresh("const")
        self.module.add_signal(signal, width)
        self._cell(CellType.CONST, signal, {}, params={"value": value})
        return signal

    # -- combinational cells ---------------------------------------------------

    def _binary(self, cell_type: CellType, a: str, b: str, width: int, name: Optional[str]) -> str:
        signal = name or self._fresh(cell_type.value)
        self.module.add_signal(signal, width)
        self._cell(cell_type, signal, {"a": a, "b": b})
        return signal

    def and_(self, a: str, b: str, name: Optional[str] = None) -> str:
        return self._binary(CellType.AND, a, b, self._w(a), name)

    def xor(self, a: str, b: str, name: Optional[str] = None) -> str:
        return self._binary(CellType.XOR, a, b, self._w(a), name)

    def add(self, a: str, b: str, name: Optional[str] = None) -> str:
        return self._binary(CellType.ADD, a, b, self._w(a), name)

    def sub(self, a: str, b: str, name: Optional[str] = None) -> str:
        return self._binary(CellType.SUB, a, b, self._w(a), name)

    def shl(self, a: str, b: str, name: Optional[str] = None) -> str:
        return self._binary(CellType.SHL, a, b, self._w(a), name)

    def shr(self, a: str, b: str, name: Optional[str] = None) -> str:
        return self._binary(CellType.SHR, a, b, self._w(a), name)

    def eq(self, a: str, b: str, name: Optional[str] = None) -> str:
        return self._compare(CellType.EQ, a, b, name)

    def neq(self, a: str, b: str, name: Optional[str] = None) -> str:
        return self._compare(CellType.NEQ, a, b, name)

    def lt(self, a: str, b: str, name: Optional[str] = None) -> str:
        return self._compare(CellType.LT, a, b, name)

    def _compare(self, cell_type: CellType, a: str, b: str, name: Optional[str]) -> str:
        signal = name or self._fresh(cell_type.value)
        self.module.add_signal(signal, 1)
        self._cell(cell_type, signal, {"a": a, "b": b})
        return signal

    def mux(self, sel: str, a: str, b: str, name: Optional[str] = None) -> str:
        """2:1 multiplexer returning ``a`` when sel is 0 and ``b`` when sel is 1."""
        signal = name or self._fresh("mux")
        self.module.add_signal(signal, self._w(a))
        self._cell(CellType.MUX, signal, {"sel": sel, "a": a, "b": b})
        return signal

    def concat(self, a: str, b: str, name: Optional[str] = None) -> str:
        """Concatenate ``a`` (high bits) and ``b`` (low bits)."""
        signal = name or self._fresh("concat")
        self.module.add_signal(signal, self._w(a) + self._w(b))
        self._cell(CellType.CONCAT, signal, {"a": a, "b": b})
        return signal

    def slice_(self, a: str, hi: int, lo: int, name: Optional[str] = None) -> str:
        signal = name or self._fresh("slice")
        self.module.add_signal(signal, hi - lo + 1)
        self._cell(CellType.SLICE, signal, {"a": a}, params={"hi": hi, "lo": lo})
        return signal

    def reduce_or(self, a: str, name: Optional[str] = None) -> str:
        signal = name or self._fresh("reduce_or")
        self.module.add_signal(signal, 1)
        self._cell(CellType.REDUCE_OR, signal, {"a": a})
        return signal

    # -- sequential cells -------------------------------------------------------

    def register(
        self,
        name: str,
        width: int,
        next_value: Optional[str] = None,
        init: int = 0,
        liveness_mask: Optional[str] = None,
    ) -> str:
        """Declare a register; its next value can be connected later."""
        self.module.add_signal(name, width)
        self.module.add_register(
            RegisterInfo(
                name=name,
                width=width,
                init=init,
                module_path=self._module_path,
                liveness_mask=liveness_mask,
            )
        )
        if next_value is not None:
            self.connect_register(name, next_value)
        return name

    def connect_register(self, name: str, next_value: str, enable: Optional[str] = None) -> None:
        """Connect a previously declared register's D (and optional enable) input."""
        if name not in self.module.registers:
            raise ValueError(f"{name!r} is not a declared register")
        if enable is None:
            self._cell(CellType.REG, name, {"d": next_value}, cell_name=f"{name}_reg")
        else:
            self._cell(
                CellType.REG_EN,
                name,
                {"d": next_value, "en": enable},
                cell_name=f"{name}_reg",
            )

    def memory(
        self,
        name: str,
        width: int,
        depth: int,
        liveness_mask: Optional[str] = None,
    ) -> Memory:
        memory = Memory(
            name=name,
            width=width,
            depth=depth,
            module_path=self._module_path,
            liveness_mask=liveness_mask,
        )
        return self.module.add_memory(memory)

    def mem_read(self, memory: str, addr: str, name: Optional[str] = None) -> str:
        signal = name or self._fresh(f"{memory}_rdata")
        self.module.add_signal(signal, self.module.memories[memory].width)
        self._cell(CellType.MEM_READ, signal, {"addr": addr}, memory=memory)
        return signal

    def mem_write(self, memory: str, addr: str, data: str, wen: str) -> None:
        signal = self._fresh(f"{memory}_wport")
        self.module.add_signal(signal, 1)
        self._cell(
            CellType.MEM_WRITE,
            signal,
            {"addr": addr, "data": data, "wen": wen},
            memory=memory,
        )

    # -- plumbing ----------------------------------------------------------------

    def _cell(
        self,
        cell_type: CellType,
        output: str,
        connections: dict,
        params: Optional[dict] = None,
        memory: Optional[str] = None,
        cell_name: Optional[str] = None,
    ) -> Cell:
        cell = Cell(
            name=cell_name or self._fresh(f"cell_{cell_type.value}"),
            cell_type=cell_type,
            output=output,
            connections=connections,
            params=params or {},
            memory=memory,
            module_path=self._module_path,
        )
        return self.module.add_cell(cell)

    def _w(self, signal: str) -> int:
        return self.module.width_of(signal)

    def build(self) -> Module:
        self.module.validate()
        return self.module
