"""Module-granular taint tracking for the processor model.

The processor tracks how secret data (initially resident at tainted memory
addresses) propagates into architectural registers, in-flight RoB entries,
caches, TLB, predictors, the line-fill buffer and the load/store queues.

Data taints always propagate (operands → results, tainted addresses → touched
cache lines).  Control taints — the taints produced when a *decision* depends
on a secret (a squash of tainted in-flight state, a secret-dependent branch
redirect, a secret-indexed replacement decision) — are propagated according to
the configured mode, mirroring the circuit-level policies:

* ``CELLIFT``: control taints always propagate; a rollback with tainted
  in-flight state therefore taints entire structures (the taint explosion of
  §2.2 / Figure 6).
* ``DIFFIFT``: control taints only propagate when the differential oracle
  reports that the two DUT instances actually diverged on that decision
  (Table 1's ``*_diff`` gating).
* ``NONE``: no taint is tracked at all (the un-instrumented "Base" rows of
  Table 4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.uarch.config import TaintTrackingMode

# Bit-weights used when converting tainted elements into tainted state bits,
# so the taint-sum curves are comparable with the paper's register-bit counts.
BIT_WEIGHTS: Dict[str, int] = {
    "regfile": 64,
    "rob": 32,
    "dcache": 512,
    "icache": 512,
    "l2": 512,
    "tlb": 64,
    "bht": 2,
    "btb": 64,
    "ras": 64,
    "loop": 16,
    "lfb": 512,
    "ldq": 72,
    "stq": 136,
    "memory": 64,
}


@dataclass(slots=True)
class TaintCensus:
    """Tainted element and bit counts per module at one cycle."""

    cycle: int
    element_counts: Dict[str, int] = field(default_factory=dict)

    def bit_count(self, module: str) -> int:
        return self.element_counts.get(module, 0) * BIT_WEIGHTS.get(module, 64)

    def total_bits(self) -> int:
        return sum(self.bit_count(module) for module in self.element_counts)

    def nonzero_modules(self) -> Dict[str, int]:
        return {module: count for module, count in self.element_counts.items() if count}


@dataclass(slots=True)
class ControlEvent:
    """A recorded secret-influenced (or potentially influenced) decision."""

    kind: str
    key: Tuple
    value: int
    tainted: bool
    cycle: int


DiffOracle = Callable[[str, Tuple, int], bool]


class TaintState:
    """Architectural-register and memory taint plus control-taint gating."""

    def __init__(
        self,
        mode: TaintTrackingMode = TaintTrackingMode.NONE,
        diff_oracle: Optional[DiffOracle] = None,
    ) -> None:
        self.mode = mode
        # A plain attribute, not a property: the mode is fixed for the
        # state's lifetime and every register write checks it.
        self.enabled = mode is not TaintTrackingMode.NONE
        self.diff_oracle = diff_oracle
        # Register taint is one bit per architectural register, packed into a
        # 32-bit mask; memory byte taint is packed into 64-byte occupancy
        # words keyed by ``address >> 6`` (a word is dropped when it empties,
        # so the common no-taint case stays an empty-dict check).
        self._register_mask: int = 0
        self._addr_words: Dict[int, int] = {}
        self.control_log: List[ControlEvent] = []
        self.census_log: List[TaintCensus] = []
        # Count of extra structure-wide taints injected by control-taint
        # explosions (CellIFT mode); keyed by module name.
        self.control_taint_overlays: Dict[str, int] = {}
        # Monotonic counter bumped whenever the census-visible taint state
        # (register mask or overlays) changes; the processor sums these
        # counters across all structures to skip recomputing an unchanged
        # census.  Never reset backwards — a repeated value would alias.
        self.taint_version: int = 0

    # -- configuration ------------------------------------------------------------

    def reset(self) -> None:
        self._register_mask = 0
        self._addr_words = {}
        self.control_log = []
        self.census_log = []
        self.control_taint_overlays = {}
        self.taint_version += 1

    # -- data taint ------------------------------------------------------------------

    def taint_address_range(self, base: int, size: int) -> None:
        """Mark a memory region (the secret) as the taint source."""
        words = self._addr_words
        address = base
        end = base + size
        while address < end:
            word = address >> 6
            low = address & 63
            span = min(end - address, 64 - low)
            words[word] = words.get(word, 0) | (((1 << span) - 1) << low)
            address += span

    def address_tainted(self, address: int, nbytes: int = 1) -> bool:
        words = self._addr_words
        if not words:
            return False
        if nbytes == 1:
            bits = words.get(address >> 6)
            return bits is not None and (bits >> (address & 63)) & 1 != 0
        end = address + nbytes
        while address < end:
            word = address >> 6
            low = address & 63
            span = min(end - address, 64 - low)
            bits = words.get(word)
            if bits and bits & (((1 << span) - 1) << low):
                return True
            address += span
        return False

    def taint_memory_write(self, address: int, nbytes: int, tainted: bool) -> None:
        if not self.enabled:
            return
        words = self._addr_words
        if not tainted and not words:
            return
        end = address + nbytes
        while address < end:
            word = address >> 6
            low = address & 63
            span = min(end - address, 64 - low)
            chunk = ((1 << span) - 1) << low
            if tainted:
                words[word] = words.get(word, 0) | chunk
            else:
                bits = words.get(word)
                if bits:
                    bits &= ~chunk
                    if bits:
                        words[word] = bits
                    else:
                        del words[word]
            address += span

    def set_register_taint(self, index: int, tainted: bool) -> None:
        if index != 0 and self.enabled:
            bit = 1 << index
            mask_value = self._register_mask
            if tainted:
                updated = mask_value | bit
            else:
                updated = mask_value & ~bit
            if updated != mask_value:
                self._register_mask = updated
                self.taint_version += 1

    def register_is_tainted(self, index: int) -> bool:
        return (self._register_mask >> index) & 1 != 0

    def tainted_register_count(self) -> int:
        return self._register_mask.bit_count()

    # -- control taint ------------------------------------------------------------------

    def control_event(self, kind: str, key: Tuple, value: int, tainted: bool, cycle: int) -> bool:
        """Record a control decision; return True when control taint must propagate."""
        self.control_log.append(ControlEvent(kind, key, value, tainted, cycle))
        if not self.enabled or not tainted:
            return False
        if self.mode is TaintTrackingMode.CELLIFT:
            return True
        if self.mode is TaintTrackingMode.DIFFIFT:
            if self.diff_oracle is None:
                return False
            return self.diff_oracle(kind, key, value)
        return False

    def add_control_overlay(self, module: str, elements: int) -> None:
        """Taint ``elements`` additional elements of ``module`` due to control flow."""
        if not self.enabled or elements <= 0:
            return
        self.control_taint_overlays[module] = self.control_taint_overlays.get(module, 0) + elements
        self.taint_version += 1

    # -- census --------------------------------------------------------------------------

    def record_census(self, cycle: int, component_counts: Dict[str, int]) -> TaintCensus:
        """Combine component-reported counts with overlays and archive them."""
        counts = dict(component_counts)
        counts["regfile"] = self.tainted_register_count()
        counts["memory"] = 0  # architectural memory taint is the source, not coverage
        for module, extra in self.control_taint_overlays.items():
            counts[module] = counts.get(module, 0) + extra
        census = TaintCensus(cycle, counts)
        self.census_log.append(census)
        return census

    def record_census_repeat(self, cycle: int) -> TaintCensus:
        """Archive a census identical to the previous one (dirty-flag fast path).

        The processor calls this when no structure's ``taint_version`` counter
        moved since the last census: the element counts are necessarily the
        same, so the new census shares the previous ``element_counts`` dict
        (censuses are never mutated after recording).
        """
        previous = self.census_log[-1]
        census = TaintCensus(cycle, previous.element_counts)
        self.census_log.append(census)
        return census

    def final_census(self) -> Optional[TaintCensus]:
        return self.census_log[-1] if self.census_log else None

    # -- differential support ------------------------------------------------------------------

    def control_events_by_key(self) -> Dict[Tuple, ControlEvent]:
        index: Dict[Tuple, ControlEvent] = {}
        for event in self.control_log:
            index[(event.kind,) + event.key] = event
        return index


def make_peer_diff_oracle(peer: TaintState) -> DiffOracle:
    """Build a diff oracle that compares control values against a peer instance.

    The peer instance must have already executed the same stimulus (the
    differential testbench runs the secondary DUT first); decisions are keyed
    by the dynamic instruction sequence number, which is identical across the
    two instances because they fetch the same instruction stream.
    """
    peer_events = peer.control_events_by_key()

    def oracle(kind: str, key: Tuple, value: int) -> bool:
        event = peer_events.get((kind,) + key)
        if event is None:
            # The peer never reached this decision: the divergence itself is a
            # difference, so control taint may propagate.
            return True
        return event.value != value

    return oracle
