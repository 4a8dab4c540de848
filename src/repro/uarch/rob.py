"""Reorder buffer model."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from repro.isa.instructions import Instruction
from repro.isa.simulator import TrapCause


@dataclass(slots=True)
class RobEntry:
    """One in-flight instruction."""

    sequence: int
    pc: int
    instruction: Instruction
    fetch_cycle: int
    predicted_next_pc: int
    dispatch_cycle: int = -1
    executed: bool = False
    complete_cycle: Optional[int] = None
    result: int = 0
    actual_next_pc: Optional[int] = None
    exception: Optional[TrapCause] = None
    exception_tval: int = 0

    # Rollback support: the destination's previous value and taint.
    dest_reg: Optional[int] = None
    old_value: int = 0
    old_taint: bool = False

    # Memory metadata.
    effective_address: Optional[int] = None
    store_value: int = 0
    address_tainted: bool = False

    # Taint metadata.
    sources_tainted: bool = False
    result_tainted: bool = False

    # Control-flow metadata.
    ras_snapshot: Optional[object] = None

    squashed: bool = False
    committed: bool = False
    # Cycle at which this entry became the RoB head (set by the commit stage);
    # exception-type transient windows are measured from this point.
    head_arrival_cycle: Optional[int] = None

    # Sequence numbers of the in-flight producers of each source register
    # (dispatch-time renaming snapshot); filled in by the dispatch stage.
    _producers: Optional[Dict[int, int]] = None


class ReorderBuffer:
    """A bounded in-order list of in-flight instructions."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.entries: List[RobEntry] = []
        self.tainted_entries: Set[int] = set()
        self._next_sequence = 0
        # O(1) sequence -> entry lookup for the operand-wakeup hot path.
        self._by_sequence: Dict[int, RobEntry] = {}
        # Monotonic counter bumped whenever the tainted in-flight entry count
        # can have changed; the processor's census fast path sums it.
        self.taint_version = 0

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def is_full(self) -> bool:
        return len(self.entries) >= self.capacity

    def allocate_sequence(self) -> int:
        sequence = self._next_sequence
        self._next_sequence += 1
        return sequence

    def enqueue(self, entry: RobEntry) -> RobEntry:
        entries = self.entries
        if len(entries) >= self.capacity:
            raise RuntimeError("RoB overflow: caller must check is_full before enqueueing")
        entries.append(entry)
        self._by_sequence[entry.sequence] = entry
        return entry

    def head(self) -> Optional[RobEntry]:
        return self.entries[0] if self.entries else None

    def pop_head(self) -> RobEntry:
        entry = self.entries.pop(0)
        del self._by_sequence[entry.sequence]
        if entry.sequence in self.tainted_entries:
            self.tainted_entries.discard(entry.sequence)
            self.taint_version += 1
        return entry

    def remove_younger_than(self, sequence: int) -> List[RobEntry]:
        """Remove and return all entries younger than ``sequence`` (exclusive)."""
        squashed = [entry for entry in self.entries if entry.sequence > sequence]
        self.entries = [entry for entry in self.entries if entry.sequence <= sequence]
        tainted_removed = False
        for entry in squashed:
            entry.squashed = True
            del self._by_sequence[entry.sequence]
            if entry.sequence in self.tainted_entries:
                self.tainted_entries.discard(entry.sequence)
                tainted_removed = True
        if tainted_removed:
            self.taint_version += 1
        return squashed

    def remove_all(self) -> List[RobEntry]:
        squashed = self.entries
        self.entries = []
        self._by_sequence = {}
        tainted_removed = False
        for entry in squashed:
            entry.squashed = True
            if entry.sequence in self.tainted_entries:
                tainted_removed = True
        self.tainted_entries = set()
        if tainted_removed:
            self.taint_version += 1
        return squashed

    def mark_tainted(self, sequence: int) -> None:
        if sequence not in self.tainted_entries:
            self.tainted_entries.add(sequence)
            self.taint_version += 1

    def tainted_entry_count(self) -> int:
        inflight = {entry.sequence for entry in self.entries}
        return len(self.tainted_entries & inflight)

    def find(self, sequence: int) -> Optional[RobEntry]:
        return self._by_sequence.get(sequence)

    def reset(self) -> None:
        """Restore construction state; ``taint_version`` stays monotonic.

        ``_next_sequence`` restarts at 0 — sequence numbers appear in trace
        events, so a reused RoB must hand out the same numbers a fresh one
        would.
        """
        self.entries = []
        self._by_sequence = {}
        self._next_sequence = 0
        if self.tainted_entries:
            self.taint_version += 1
        self.tainted_entries = set()
