"""Set-associative caches, MSHRs and the line fill buffer.

The data cache is the workhorse side channel (``i/dcache`` in Table 5): secret
dependent addresses leave secret-dependent lines resident.  The MSHR/LFB pair
models the false-positive scenario of §3.1 (C2-2): refilled lines pass through
the fill buffer, and when the refill completes the MSHR merely marks the entry
invalid, leaving stale (possibly secret-tainted) data behind — data that taint
liveness analysis must classify as unexploitable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.uarch.config import CacheConfig


@dataclass(slots=True)
class CacheAccessResult:
    """Outcome of a cache access."""

    hit: bool
    latency: int
    set_index: int
    evicted_line: Optional[int] = None
    filled: bool = False


class SetAssociativeCache:
    """A blocking, LRU, physically-indexed cache model."""

    def __init__(self, name: str, config: CacheConfig) -> None:
        self.name = name
        self.config = config
        # Per set: ordered list of line addresses, most recently used first.
        self.sets: List[List[int]] = [[] for _ in range(config.sets)]
        # Indices of the sets filled since the last flush (a set only turns
        # non-empty through a fill), so a flush clears only those.
        self._filled_sets: List[int] = []
        self.tainted_lines: Set[int] = set()
        self.accesses = 0
        self.misses = 0
        # Monotonic counter bumped when the tainted-line set changes size;
        # the processor's census fast path sums it.
        self.taint_version = 0
        # Power-of-two geometries index with shift/mask on the hot path.
        line_bytes = config.line_bytes
        self._line_shift = (
            line_bytes.bit_length() - 1 if line_bytes & (line_bytes - 1) == 0 else None
        )
        set_count = config.sets
        self._set_mask = set_count - 1 if set_count & (set_count - 1) == 0 else None

    def _line_address(self, address: int) -> int:
        if self._line_shift is not None:
            return address >> self._line_shift
        return address // self.config.line_bytes

    def _set_index_of_line(self, line: int) -> int:
        if self._set_mask is not None:
            return line & self._set_mask
        return line % self.config.sets

    def access(self, address: int, fill_on_miss: bool = True, tainted: bool = False) -> CacheAccessResult:
        """Access the cache, optionally filling the line on a miss."""
        self.accesses += 1
        line = self._line_address(address)
        set_index = self._set_index_of_line(line)
        ways = self.sets[set_index]
        if ways and ways[0] == line:
            # Already most recently used (sequential fetch within a line):
            # skip the remove/insert reordering.
            if tainted and line not in self.tainted_lines:
                self.tainted_lines.add(line)
                self.taint_version += 1
            return CacheAccessResult(
                hit=True, latency=self.config.hit_latency, set_index=set_index
            )
        if line in ways:
            ways.remove(line)
            ways.insert(0, line)
            if tainted and line not in self.tainted_lines:
                self.tainted_lines.add(line)
                self.taint_version += 1
            return CacheAccessResult(
                hit=True, latency=self.config.hit_latency, set_index=set_index
            )
        self.misses += 1
        evicted = None
        if fill_on_miss:
            if not ways:
                self._filled_sets.append(set_index)
            if len(ways) >= self.config.ways:
                evicted = ways.pop()
                if evicted in self.tainted_lines:
                    self.tainted_lines.discard(evicted)
                    self.taint_version += 1
            ways.insert(0, line)
            if tainted and line not in self.tainted_lines:
                self.tainted_lines.add(line)
                self.taint_version += 1
        return CacheAccessResult(
            hit=False,
            latency=self.config.miss_latency,
            set_index=set_index,
            evicted_line=evicted,
            filled=fill_on_miss,
        )

    def fetch_access(self, address: int) -> int:
        """An untainted, filling access that returns 0 on a hit, else the miss latency.

        Counters and LRU order change exactly as under ``access(address)``;
        the fetch stage only needs the stall, not a result object.
        """
        self.accesses += 1
        # ``_line_address`` and ``_set_index_of_line``, written out: fetch
        # calls this once per fetched instruction.
        shift = self._line_shift
        line = address >> shift if shift is not None else address // self.config.line_bytes
        set_mask = self._set_mask
        set_index = line & set_mask if set_mask is not None else line % self.config.sets
        ways = self.sets[set_index]
        if ways:
            if ways[0] == line:
                return 0
            if line in ways:
                ways.remove(line)
                ways.insert(0, line)
                return 0
            if len(ways) >= self.config.ways:
                evicted = ways.pop()
                if evicted in self.tainted_lines:
                    self.tainted_lines.discard(evicted)
                    self.taint_version += 1
        else:
            self._filled_sets.append(set_index)
        self.misses += 1
        ways.insert(0, line)
        return self.config.miss_latency

    def flush(self) -> None:
        sets = self.sets
        for set_index in self._filled_sets:
            sets[set_index].clear()
        self._filled_sets.clear()
        if self.tainted_lines:
            self.taint_version += 1
        self.tainted_lines = set()

    def reset(self) -> None:
        """Restore construction state: a flush plus zeroed access counters."""
        self.flush()
        self.accesses = 0
        self.misses = 0

    def state_fingerprint(self) -> Tuple[Tuple[int, ...], ...]:
        return tuple(tuple(ways) for ways in self.sets)

    def tainted_entry_count(self) -> int:
        return len(self.tainted_lines)


@dataclass
class MshrEntry:
    """One miss status holding register entry."""

    line_address: int
    valid: bool = True
    tainted: bool = False
    allocated_cycle: int = 0


class LineFillBuffer:
    """MSHR-managed line fill buffer.

    ``invalidate_on_complete`` mirrors the BOOM behaviour the paper describes:
    on refill completion the MSHR flips the entry's state register to invalid
    but the buffered data (and its taint) stays resident until the slot is
    reallocated.
    """

    def __init__(self, entries: int) -> None:
        self.entries = entries
        self.slots: List[Optional[MshrEntry]] = [None] * entries
        # Stale data remembered per slot after the MSHR invalidates it.
        self.stale_taint: List[bool] = [False] * entries
        # Monotonic counter bumped when a slot's census contribution (tainted
        # live data or tainted stale data) changes; the census fast path sums it.
        self.taint_version = 0

    def allocate(self, line_address: int, cycle: int, tainted: bool = False) -> Optional[int]:
        """Allocate a slot for a refill; returns the slot index or None when full."""
        for index, slot in enumerate(self.slots):
            if slot is None or not slot.valid:
                contributed = slot is not None and (slot.tainted or self.stale_taint[index])
                if contributed != tainted:
                    self.taint_version += 1
                self.slots[index] = MshrEntry(
                    line_address=line_address, valid=True, tainted=tainted, allocated_cycle=cycle
                )
                self.stale_taint[index] = False
                return index
        return None

    def complete(self, slot_index: int) -> None:
        """Refill finished: mark the MSHR invalid, keep the (stale) data around."""
        slot = self.slots[slot_index]
        if slot is None:
            return
        slot.valid = False
        if (slot.tainted or self.stale_taint[slot_index]) != slot.tainted:
            self.taint_version += 1
        self.stale_taint[slot_index] = slot.tainted

    def tainted_slots(self) -> List[int]:
        """Slots holding tainted data, regardless of validity (raw reachability)."""
        tainted = []
        for index, slot in enumerate(self.slots):
            if slot is not None and (slot.tainted or self.stale_taint[index]):
                tainted.append(index)
        return tainted

    def live_tainted_slots(self) -> List[int]:
        """Slots whose taint is still guarded valid by the MSHR (exploitable)."""
        return [
            index
            for index, slot in enumerate(self.slots)
            if slot is not None and slot.valid and slot.tainted
        ]

    def reset(self) -> None:
        if self.tainted_slots():
            self.taint_version += 1
        self.slots = [None] * self.entries
        self.stale_taint = [False] * self.entries

    def tainted_entry_count(self) -> int:
        return len(self.tainted_slots())

    def state_fingerprint(self) -> Tuple:
        return tuple(
            (slot.line_address, slot.valid) if slot is not None else None for slot in self.slots
        )


@dataclass
class MemoryHierarchy:
    """L1I + L1D (+ optional unified L2) with MSHRs in front of the D-side."""

    icache: SetAssociativeCache
    dcache: SetAssociativeCache
    lfb: LineFillBuffer
    l2_present: bool = True
    l2_extra_latency: int = 18
    l2: Optional[SetAssociativeCache] = None
    cycle: int = 0

    @classmethod
    def from_config(cls, config) -> "MemoryHierarchy":
        l2 = None
        if config.l2_present:
            l2_config = CacheConfig(
                sets=config.dcache.sets * 4,
                ways=config.dcache.ways * 2,
                line_bytes=config.dcache.line_bytes,
                hit_latency=config.dcache.miss_latency,
                miss_latency=config.dcache.miss_latency + config.l2_extra_latency,
            )
            l2 = SetAssociativeCache("l2", l2_config)
        return cls(
            icache=SetAssociativeCache("icache", config.icache),
            dcache=SetAssociativeCache("dcache", config.dcache),
            lfb=LineFillBuffer(config.mshr_entries),
            l2_present=config.l2_present,
            l2_extra_latency=config.l2_extra_latency,
            l2=l2,
        )

    def data_access(self, address: int, tainted: bool = False) -> CacheAccessResult:
        """A demand data access including MSHR allocation on a miss."""
        result = self.dcache.access(address, tainted=tainted)
        if not result.hit:
            latency = result.latency
            if self.l2 is not None:
                l2_result = self.l2.access(address, tainted=tainted)
                latency = (
                    self.l2.config.hit_latency
                    if l2_result.hit
                    else self.l2.config.miss_latency
                )
            slot = self.lfb.allocate(
                address // self.dcache.config.line_bytes, self.cycle, tainted=tainted
            )
            if slot is not None:
                self.lfb.complete(slot)
            return CacheAccessResult(
                hit=False,
                latency=latency,
                set_index=result.set_index,
                evicted_line=result.evicted_line,
                filled=True,
            )
        return result

    def flush_icache(self) -> None:
        self.icache.flush()

    @property
    def taint_version(self) -> int:
        version = self.icache.taint_version + self.dcache.taint_version + self.lfb.taint_version
        if self.l2 is not None:
            version += self.l2.taint_version
        return version

    def tainted_counts(self) -> Dict[str, int]:
        counts = {
            "icache": self.icache.tainted_entry_count(),
            "dcache": self.dcache.tainted_entry_count(),
            "lfb": self.lfb.tainted_entry_count(),
        }
        if self.l2 is not None:
            counts["l2"] = self.l2.tainted_entry_count()
        return counts

    def state_fingerprint(self) -> Tuple:
        parts = [self.icache.state_fingerprint(), self.dcache.state_fingerprint(), self.lfb.state_fingerprint()]
        if self.l2 is not None:
            parts.append(self.l2.state_fingerprint())
        return tuple(parts)

    def reset(self) -> None:
        """Restore the whole hierarchy to construction state in place."""
        self.icache.reset()
        self.dcache.reset()
        if self.l2 is not None:
            self.l2.reset()
        self.lfb.reset()
        self.cycle = 0
