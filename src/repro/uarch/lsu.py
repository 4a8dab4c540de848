"""Load/store unit: load queue, store queue, and port-contention tracking.

The store queue buffers stores until commit and forwards data to younger
loads.  Loads may execute speculatively before an older store's address is
known; :meth:`LoadStoreUnit.check_ordering_violation` detects the resulting
memory-disambiguation squash when the store resolves.  The unit also models
the contention side channels the paper exploits: load-issue-port contention
(``lsu`` in Table 5) and the load write-back port contention of
Spectre-Reload (B5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple


@dataclass
class StoreQueueEntry:
    sequence: int
    address: Optional[int] = None  # None while the address is still unresolved
    nbytes: int = 0
    value: int = 0
    tainted: bool = False
    committed: bool = False


@dataclass
class LoadQueueEntry:
    sequence: int
    address: int
    nbytes: int
    execute_cycle: int
    tainted_address: bool = False
    forwarded_from_store: Optional[int] = None


def _ranges_overlap(addr_a: int, len_a: int, addr_b: int, len_b: int) -> bool:
    return addr_a < addr_b + len_b and addr_b < addr_a + len_a


class LoadStoreUnit:
    """Tracks in-flight memory operations and their ordering obligations."""

    def __init__(self, ldq_entries: int, stq_entries: int, writeback_port_shared: bool = False) -> None:
        self.ldq_capacity = ldq_entries
        self.stq_capacity = stq_entries
        self.load_queue: List[LoadQueueEntry] = []
        self.store_queue: List[StoreQueueEntry] = []
        self.tainted_load_slots: Set[int] = set()
        self.tainted_store_slots: Set[int] = set()
        # Monotonic counter bumped whenever a tainted slot is added or
        # removed; the processor's census fast path sums it.
        self.taint_version = 0
        # Spectre-Reload (B5): load pipeline and load queue share one
        # write-back port; at most one load completion per cycle when True.
        self.writeback_port_shared = writeback_port_shared
        self._writeback_cycles_used: Set[int] = set()
        self.port_contention_cycles = 0

    # -- allocation ----------------------------------------------------------------

    def allocate_store(self, sequence: int) -> StoreQueueEntry:
        entry = StoreQueueEntry(sequence=sequence)
        self.store_queue.append(entry)
        return entry

    def resolve_store(
        self, sequence: int, address: int, nbytes: int, value: int, tainted: bool
    ) -> Optional[StoreQueueEntry]:
        for entry in self.store_queue:
            if entry.sequence == sequence:
                entry.address = address
                entry.nbytes = nbytes
                entry.value = value
                entry.tainted = tainted
                if tainted and sequence not in self.tainted_store_slots:
                    self.tainted_store_slots.add(sequence)
                    self.taint_version += 1
                return entry
        return None

    def record_load(
        self,
        sequence: int,
        address: int,
        nbytes: int,
        cycle: int,
        tainted_address: bool = False,
        forwarded_from_store: Optional[int] = None,
    ) -> LoadQueueEntry:
        entry = LoadQueueEntry(
            sequence=sequence,
            address=address,
            nbytes=nbytes,
            execute_cycle=cycle,
            tainted_address=tainted_address,
            forwarded_from_store=forwarded_from_store,
        )
        self.load_queue.append(entry)
        if tainted_address and sequence not in self.tainted_load_slots:
            self.tainted_load_slots.add(sequence)
            self.taint_version += 1
        return entry

    # -- forwarding and ordering -----------------------------------------------------

    def forwarding_sources(
        self, sequence: int, address: int, nbytes: int
    ) -> List[StoreQueueEntry]:
        """All older stores overlapping the load, oldest first.

        A load's data may come from several in-flight stores of different
        widths (plus memory for uncovered bytes); the caller overlays the
        entries in this order so the youngest store wins each byte.
        """
        sources = [
            entry
            for entry in self.store_queue
            if entry.sequence < sequence
            and entry.address is not None
            and _ranges_overlap(entry.address, entry.nbytes, address, nbytes)
        ]
        return sorted(sources, key=lambda entry: entry.sequence)

    def check_ordering_violation(
        self, store_sequence: int, address: int, nbytes: int
    ) -> Optional[LoadQueueEntry]:
        """A store just resolved: did a younger load already read the location?"""
        violating: Optional[LoadQueueEntry] = None
        for entry in self.load_queue:
            if entry.sequence <= store_sequence:
                continue
            if entry.forwarded_from_store is not None and entry.forwarded_from_store >= store_sequence:
                continue
            if _ranges_overlap(entry.address, entry.nbytes, address, nbytes):
                if violating is None or entry.sequence < violating.sequence:
                    violating = entry
        return violating

    # -- write-back port (Spectre-Reload, B5) ------------------------------------------

    def schedule_writeback(self, cycle: int) -> int:
        """Return the cycle at which a load completion may write back.

        With the shared port only one load may write back per cycle, so a
        completion slides forward to the next free cycle; the slip is the
        secret-observable contention Spectre-Reload exploits.
        """
        if not self.writeback_port_shared:
            return cycle
        granted = cycle
        while granted in self._writeback_cycles_used:
            granted += 1
        self._writeback_cycles_used.add(granted)
        self.port_contention_cycles += granted - cycle
        return granted

    # -- squash / commit ------------------------------------------------------------------

    def squash_younger_than(self, sequence: int) -> None:
        self.load_queue = [entry for entry in self.load_queue if entry.sequence <= sequence]
        self.store_queue = [entry for entry in self.store_queue if entry.sequence <= sequence]
        kept_loads = {s for s in self.tainted_load_slots if s <= sequence}
        kept_stores = {s for s in self.tainted_store_slots if s <= sequence}
        if len(kept_loads) != len(self.tainted_load_slots) or len(kept_stores) != len(
            self.tainted_store_slots
        ):
            self.taint_version += 1
        self.tainted_load_slots = kept_loads
        self.tainted_store_slots = kept_stores

    def squash_all(self) -> None:
        self.load_queue = []
        self.store_queue = []
        if self.tainted_load_slots or self.tainted_store_slots:
            self.taint_version += 1
        self.tainted_load_slots = set()
        self.tainted_store_slots = set()

    def commit_store(self, sequence: int) -> Optional[StoreQueueEntry]:
        for index, entry in enumerate(self.store_queue):
            if entry.sequence == sequence:
                entry.committed = True
                self.store_queue.pop(index)
                if sequence in self.tainted_store_slots:
                    self.tainted_store_slots.discard(sequence)
                    self.taint_version += 1
                return entry
        return None

    def retire_load(self, sequence: int) -> None:
        self.load_queue = [entry for entry in self.load_queue if entry.sequence != sequence]
        if sequence in self.tainted_load_slots:
            self.tainted_load_slots.discard(sequence)
            self.taint_version += 1

    # -- inspection -------------------------------------------------------------------------

    def tainted_counts(self) -> Dict[str, int]:
        inflight_loads = {entry.sequence for entry in self.load_queue}
        inflight_stores = {entry.sequence for entry in self.store_queue}
        return {
            "ldq": len(self.tainted_load_slots & inflight_loads),
            "stq": len(self.tainted_store_slots & inflight_stores),
        }

    def state_fingerprint(self) -> Tuple:
        loads = tuple((e.sequence, e.address, e.nbytes) for e in self.load_queue)
        stores = tuple((e.sequence, e.address, e.nbytes, e.value) for e in self.store_queue)
        return loads, stores

    def reset(self) -> None:
        """Restore construction state; ``taint_version`` stays monotonic."""
        self.load_queue = []
        self.store_queue = []
        if self.tainted_load_slots or self.tainted_store_slots:
            self.taint_version += 1
        self.tainted_load_slots = set()
        self.tainted_store_slots = set()
        self._writeback_cycles_used = set()
        self.port_contention_cycles = 0
