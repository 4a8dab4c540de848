"""Execution resources: issue ports, non-pipelined units and latency selection.

Port contention is itself a side channel (the ``lsu``/``fpu`` timing
components of Table 5 and the Spectre-Rewind family of bugs B4/B5), so the
port manager records when secret-dependent (transient) instructions delay
other instructions.
"""

from __future__ import annotations

from typing import Dict

from repro.isa.instructions import Instruction, InstructionClass
from repro.uarch.config import CoreConfig


class ExecutionPorts:
    """Per-cycle issue-port arbitration plus non-pipelined unit occupancy."""

    def __init__(self, config: CoreConfig) -> None:
        self.config = config
        # Claims per cycle for each port class, and the number of ports of
        # each class (the processor's nop-run macro-step reads the int count).
        self.port_usage: Dict[str, Dict[int, int]] = {"int": {}, "mem": {}, "fp": {}}
        self.port_limits = {
            "int": config.int_issue_ports,
            "mem": config.mem_issue_ports,
            "fp": config.fp_issue_ports,
        }
        # Non-pipelined units: the divider and FP divider are busy for the
        # whole operation, so a transient fdiv blocks a later one.
        self.div_busy_until = 0
        self.fp_div_busy_until = 0
        self.contention_cycles: Dict[str, int] = {"int": 0, "mem": 0, "fp": 0, "div": 0, "fdiv": 0}

    def try_claim(self, instruction: Instruction, cycle: int) -> bool:
        """Claim an issue port of the instruction's class this cycle, if one is free."""
        port = instruction.port_class
        usage = self.port_usage[port]
        count = usage.get(cycle, 0)
        if count >= self.port_limits[port]:
            self.contention_cycles[port] += 1
            return False
        usage[cycle] = count + 1
        return True

    def claim_divider(self, cycle: int, latency: int, floating_point: bool) -> int:
        """Claim the (non-pipelined) divider; returns the actual start cycle."""
        if floating_point:
            start = max(cycle, self.fp_div_busy_until)
            self.contention_cycles["fdiv"] += start - cycle
            self.fp_div_busy_until = start + latency
        else:
            start = max(cycle, self.div_busy_until)
            self.contention_cycles["div"] += start - cycle
            self.div_busy_until = start + latency
        return start

    def drop_usage_before(self, cycle: int) -> None:
        """Garbage-collect per-cycle usage maps (keeps memory bounded)."""
        threshold = cycle - 4
        for usage in self.port_usage.values():
            if len(usage) > 8:
                for c in [c for c in usage if c < threshold]:
                    del usage[c]

    def reset(self) -> None:
        self.port_usage = {"int": {}, "mem": {}, "fp": {}}
        self.div_busy_until = 0
        self.fp_div_busy_until = 0
        self.contention_cycles = {"int": 0, "mem": 0, "fp": 0, "div": 0, "fdiv": 0}


def base_latency(instruction: Instruction, config: CoreConfig) -> int:
    """Latency of an instruction excluding memory-hierarchy effects."""
    iclass = instruction.iclass
    if iclass is InstructionClass.ALU:
        return config.alu_latency
    if iclass is InstructionClass.MUL_DIV:
        if instruction.mnemonic.startswith(("div", "rem")):
            return config.div_latency
        return config.mul_latency
    if iclass is InstructionClass.FP:
        return config.fp_latency
    if iclass is InstructionClass.FP_DIV:
        return config.fp_div_latency
    if iclass is InstructionClass.BRANCH or iclass is InstructionClass.JUMP:
        return config.branch_resolve_latency
    if iclass is InstructionClass.SYSTEM or iclass is InstructionClass.ILLEGAL:
        return config.alu_latency
    # Memory instructions: the cache model supplies the real latency.
    return config.alu_latency
