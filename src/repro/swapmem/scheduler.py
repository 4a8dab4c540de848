"""The swapMem runtime: executes a swap schedule on one processor instance.

The runner plays the role of the trap handler + swap scheduler that live in
the shared region in the paper's testharness: every packet ends by raising an
exception (generated packets end with ``ecall``), at which point the runner
flushes the instruction cache, loads the next packet into the swappable
region, and redirects the DUT to its entry point.  Before the transient packet
it optionally revokes the secret's read permission ("updates sensitive data
permissions", §3.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.swapmem.layout import DEFAULT_LAYOUT
from repro.swapmem.memory import SwapMemory
from repro.swapmem.packets import Packet, PacketKind, SwapSchedule
from repro.uarch.events import TraceLog
from repro.uarch.processor import Processor

# The cycle budget of one packet: a packet that has not trapped out by then
# (a wedged or looping stimulus) is cut off and the schedule moves on.
MAX_CYCLES_PER_PACKET = 600

# Sentinel distinguishing "never analyzed" from a legitimately-None analysis.
_UNSET = object()


@dataclass
class PacketRunRecord:
    """Execution record of one packet within a schedule run."""

    packet_name: str
    kind: PacketKind
    start_cycle: int
    end_cycle: int
    committed_instructions: int
    halted_on: str


@dataclass
class SwapRunResult:
    """The outcome of running a full swap schedule on one DUT instance."""

    processor: Processor
    schedule: SwapSchedule
    packet_records: List[PacketRunRecord] = field(default_factory=list)
    total_cycles: int = 0
    window_pcs: Set[int] = field(default_factory=set)
    # Trace snapshot taken by the runner.  A pooled processor installs a new
    # TraceLog on reset, so a result's snapshot stays valid after the core is
    # reused; ``None`` (results built by hand) falls back to the live trace.
    trace: Optional[TraceLog] = None
    _window_analysis: object = field(default=_UNSET, init=False, repr=False, compare=False)

    # -- window analysis -----------------------------------------------------------

    def transient_span(self) -> Optional[Tuple[int, int]]:
        for record in self.packet_records:
            if record.kind is PacketKind.TRANSIENT:
                return record.start_cycle, record.end_cycle
        return None

    def _analyze_window(self) -> Tuple[bool, Optional[Tuple[int, int]]]:
        """One memoized pass over the trace for both window queries.

        Both public accessors rebuild ``set(trace.committed_sequences())``;
        results are queried repeatedly (the reduction loop), so the
        pass runs once per result.
        """
        if self._window_analysis is not _UNSET:
            return self._window_analysis
        span = self.transient_span()
        if span is None:
            analysis = (False, None)
        else:
            start, end = span
            trace = self.trace if self.trace is not None else self.processor.trace
            committed = set(trace.committed_sequences())
            cycles = [
                event.cycle
                for event in trace.enqueues
                if start <= event.cycle <= end
                and (not self.window_pcs or event.pc in self.window_pcs)
                and event.sequence not in committed
            ]
            analysis = (bool(cycles), (min(cycles), end) if cycles else None)
        self._window_analysis = analysis
        return analysis

    def window_triggered(self) -> bool:
        """Did the transient window trigger during the transient packet?

        A window is considered triggered when instructions at window addresses
        were enqueued during the transient packet but never committed (the
        RoB IO criterion of §4.1.2).
        """
        return self._analyze_window()[0]

    def window_cycle_range(self) -> Optional[Tuple[int, int]]:
        """The cycle range during which window instructions were transiently in flight."""
        return self._analyze_window()[1]

    def transient_packet_cycles(self) -> Optional[int]:
        span = self.transient_span()
        if span is None:
            return None
        return span[1] - span[0]

    def summary(self) -> Dict[str, object]:
        return {
            "packets": len(self.packet_records),
            "total_cycles": self.total_cycles,
            "window_triggered": self.window_triggered(),
            "transient_cycles": self.transient_packet_cycles(),
        }


class SwapRunner:
    """Drives one processor instance through a swap schedule."""

    def __init__(
        self,
        processor: Processor,
        swap_memory: SwapMemory,
        schedule: SwapSchedule,
    ) -> None:
        if processor.memory is not swap_memory.data:
            raise ValueError(
                "the processor must be constructed with the swapMem data memory "
                "(Processor(config, memory=swap_memory.data))"
            )
        self.processor = processor
        self.swap_memory = swap_memory
        self.schedule = schedule

    def run(self) -> SwapRunResult:
        processor = self.processor
        window_pcs = self.schedule.window_pcs(DEFAULT_LAYOUT.swappable_base)
        result = SwapRunResult(
            processor=processor,
            schedule=self.schedule,
            window_pcs=window_pcs,
            trace=processor.trace,
        )
        processor.set_fetch_source(self.swap_memory.fetch)

        # Mutable operands declared by packets are written into the dedicated
        # region before execution starts (the swapMem runtime owns that region).
        for packet in self.schedule.packets:
            for slot, value in packet.metadata.get("operand_writes", {}).items():
                self.swap_memory.set_operand(slot, value)

        for packet in self.schedule.ordered_packets():
            self._run_packet(packet, result)
        result.total_cycles = processor.cycle
        return result

    def _run_packet(self, packet: Packet, result: SwapRunResult) -> None:
        processor = self.processor
        if (
            packet.kind is PacketKind.TRANSIENT
            and self.schedule.protect_secret_before_transient
        ):
            self.swap_memory.protect_secret()

        entry = self.swap_memory.load_packet(packet)
        # The trap handler flushes the instruction cache and redirects the DUT
        # to the new sequence's entry point.
        processor.hierarchy.flush_icache()
        processor.flush_transient_state()
        processor.fetch_pc = entry
        processor.fetch_stall_until = processor.cycle + 1
        processor.fetch_serialized = False

        start_cycle = processor.cycle
        committed_before = processor.committed_instructions
        outcome = processor.run(max_cycles=MAX_CYCLES_PER_PACKET)
        result.packet_records.append(
            PacketRunRecord(
                packet_name=packet.name,
                kind=packet.kind,
                start_cycle=start_cycle,
                end_cycle=processor.cycle,
                committed_instructions=processor.committed_instructions - committed_before,
                halted_on=outcome.halted_on,
            )
        )
