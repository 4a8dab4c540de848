"""Branch prediction structures: BHT, BTB, RAS and loop predictor.

Every structure doubles as a potential side channel: entries can be installed
or evicted transiently, and each structure keeps a per-entry taint flag so the
taint engine can record when secret-derived values reach it (the ``(fau)btb``,
``ras`` and ``loop`` timing components of Table 5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple


@dataclass
class PredictionOutcome:
    """The frontend-facing result of a prediction lookup."""

    taken: bool
    target: Optional[int] = None
    hit: bool = False
    source: str = "default"


class BranchHistoryTable:
    """A table of saturating 2-bit counters indexed by (pc >> 2) % entries."""

    def __init__(self, entries: int, counter_bits: int = 2) -> None:
        self.entries = entries
        self.counter_bits = counter_bits
        self._max = (1 << counter_bits) - 1
        self._default = self._max // 2  # weakly not-taken
        self.counters: List[int] = [self._default] * entries
        self.tainted: Set[int] = set()
        # Monotonic counter bumped when the tainted-entry set changes size;
        # the processor's census fast path sums it.
        self.taint_version = 0

    def _index(self, pc: int) -> int:
        return (pc >> 2) % self.entries

    def predict(self, pc: int) -> PredictionOutcome:
        counter = self.counters[self._index(pc)]
        return PredictionOutcome(taken=counter > self._max // 2, source="bht")

    def train(self, pc: int, taken: bool, tainted: bool = False) -> None:
        index = self._index(pc)
        counter = self.counters[index]
        counter = min(counter + 1, self._max) if taken else max(counter - 1, 0)
        self.counters[index] = counter
        if tainted and index not in self.tainted:
            self.tainted.add(index)
            self.taint_version += 1

    def reset(self) -> None:
        self.counters = [self._default] * self.entries
        if self.tainted:
            self.taint_version += 1
        self.tainted = set()

    def state_fingerprint(self) -> Tuple[int, ...]:
        return tuple(self.counters)

    def tainted_entry_count(self) -> int:
        return len(self.tainted)


class BranchTargetBuffer:
    """A direct-mapped branch target buffer with per-entry tags."""

    def __init__(self, entries: int) -> None:
        self.entries = entries
        self.tags: List[Optional[int]] = [None] * entries
        self.targets: List[int] = [0] * entries
        self.tainted: Set[int] = set()
        self.taint_version = 0

    def _index(self, pc: int) -> int:
        return (pc >> 2) % self.entries

    def predict(self, pc: int) -> PredictionOutcome:
        index = self._index(pc)
        if self.tags[index] == pc:
            return PredictionOutcome(taken=True, target=self.targets[index], hit=True, source="btb")
        return PredictionOutcome(taken=False, target=None, hit=False, source="btb")

    def install(self, pc: int, target: int, tainted: bool = False) -> None:
        index = self._index(pc)
        self.tags[index] = pc
        self.targets[index] = target
        if tainted:
            if index not in self.tainted:
                self.tainted.add(index)
                self.taint_version += 1
        elif index in self.tainted:
            self.tainted.discard(index)
            self.taint_version += 1

    def invalidate(self, pc: int) -> None:
        index = self._index(pc)
        self.tags[index] = None
        if index in self.tainted:
            self.tainted.discard(index)
            self.taint_version += 1

    def reset(self) -> None:
        self.tags = [None] * self.entries
        self.targets = [0] * self.entries
        if self.tainted:
            self.taint_version += 1
        self.tainted = set()

    def state_fingerprint(self) -> Tuple[Tuple[Optional[int], int], ...]:
        return tuple(zip(self.tags, self.targets))

    def tainted_entry_count(self) -> int:
        return len(self.tainted)


@dataclass
class RasSnapshot:
    """Checkpoint of the RAS taken at prediction time for recovery."""

    top_of_stack: int
    top_entry: int
    full_stack: Tuple[int, ...]


class ReturnAddressStack:
    """A circular return address stack with configurable recovery discipline.

    ``restore_below_tos`` models the mitigation gap of Phantom-RSB (B2): a
    correct implementation restores the entire stack from the checkpoint on a
    misprediction squash, while BOOM only restores the top-of-stack pointer
    and the top entry, leaving transiently written entries below the TOS in
    place.
    """

    def __init__(self, entries: int, restore_below_tos: bool = True) -> None:
        self.entries = entries
        self.restore_below_tos = restore_below_tos
        self.stack: List[int] = [0] * entries
        self.top_of_stack = 0
        self.tainted: Set[int] = set()
        self.taint_version = 0

    def push(self, return_address: int, tainted: bool = False) -> None:
        self.top_of_stack = (self.top_of_stack + 1) % self.entries
        self.stack[self.top_of_stack] = return_address
        if tainted:
            if self.top_of_stack not in self.tainted:
                self.tainted.add(self.top_of_stack)
                self.taint_version += 1
        elif self.top_of_stack in self.tainted:
            self.tainted.discard(self.top_of_stack)
            self.taint_version += 1

    def pop(self) -> int:
        value = self.stack[self.top_of_stack]
        self.top_of_stack = (self.top_of_stack - 1) % self.entries
        return value

    def peek(self) -> int:
        return self.stack[self.top_of_stack]

    def snapshot(self) -> RasSnapshot:
        return RasSnapshot(
            top_of_stack=self.top_of_stack,
            top_entry=self.stack[self.top_of_stack],
            full_stack=tuple(self.stack),
        )

    def restore(self, snapshot: RasSnapshot) -> None:
        """Recover after a squash.

        With ``restore_below_tos`` the entire stack content is rolled back;
        without it (the buggy behaviour) only the pointer and top entry are.
        """
        self.top_of_stack = snapshot.top_of_stack
        if self.restore_below_tos:
            self.stack = list(snapshot.full_stack)
            if self.tainted:
                self.taint_version += 1
            self.tainted = set()
        else:
            self.stack[self.top_of_stack] = snapshot.top_entry
            if self.top_of_stack in self.tainted:
                self.tainted.discard(self.top_of_stack)
                self.taint_version += 1

    def reset(self) -> None:
        self.stack = [0] * self.entries
        self.top_of_stack = 0
        if self.tainted:
            self.taint_version += 1
        self.tainted = set()

    def state_fingerprint(self) -> Tuple[int, ...]:
        return tuple(self.stack) + (self.top_of_stack,)

    def tainted_entry_count(self) -> int:
        return len(self.tainted)


class LoopPredictor:
    """Counts iterations of backward branches and predicts the exit iteration."""

    def __init__(self, entries: int, confidence_threshold: int = 3) -> None:
        self.entries = entries
        self.confidence_threshold = confidence_threshold
        self.trip_counts: Dict[int, int] = {}
        self.current_counts: Dict[int, int] = {}
        self.confidence: Dict[int, int] = {}
        self.tainted: Set[int] = set()
        self.taint_version = 0

    def _index(self, pc: int) -> int:
        return (pc >> 2) % self.entries

    def predict(self, pc: int) -> Optional[bool]:
        """Return a taken/not-taken override, or None when not confident."""
        index = self._index(pc)
        if self.confidence.get(index, 0) < self.confidence_threshold:
            return None
        trip = self.trip_counts.get(index)
        if trip is None:
            return None
        return self.current_counts.get(index, 0) + 1 < trip

    def train(self, pc: int, taken: bool, tainted: bool = False) -> None:
        index = self._index(pc)
        if tainted and index not in self.tainted:
            self.tainted.add(index)
            self.taint_version += 1
        if taken:
            self.current_counts[index] = self.current_counts.get(index, 0) + 1
            return
        observed_trip = self.current_counts.get(index, 0) + 1
        if self.trip_counts.get(index) == observed_trip:
            self.confidence[index] = self.confidence.get(index, 0) + 1
        else:
            self.trip_counts[index] = observed_trip
            self.confidence[index] = 1
        self.current_counts[index] = 0

    def reset(self) -> None:
        self.trip_counts = {}
        self.current_counts = {}
        self.confidence = {}
        if self.tainted:
            self.taint_version += 1
        self.tainted = set()

    def state_fingerprint(self) -> Tuple[Tuple[int, int, int], ...]:
        indices = sorted(set(self.trip_counts) | set(self.current_counts) | set(self.confidence))
        return tuple(
            (
                self.trip_counts.get(index, 0),
                self.current_counts.get(index, 0),
                self.confidence.get(index, 0),
            )
            for index in indices
        )

    def tainted_entry_count(self) -> int:
        return len(self.tainted)


@dataclass
class BranchPredictorUnit:
    """Bundles all prediction structures behind one frontend-facing interface."""

    bht: BranchHistoryTable
    btb: BranchTargetBuffer
    ras: ReturnAddressStack
    loop: LoopPredictor

    @classmethod
    def from_config(cls, config) -> "BranchPredictorUnit":
        predictors = config.predictors
        return cls(
            bht=BranchHistoryTable(predictors.bht_entries, predictors.bht_counter_bits),
            btb=BranchTargetBuffer(predictors.btb_entries),
            ras=ReturnAddressStack(
                predictors.ras_entries,
                restore_below_tos=not config.has_bug("phantom-rsb"),
            ),
            loop=LoopPredictor(predictors.loop_entries, predictors.loop_confidence_threshold),
        )

    def reset(self) -> None:
        self.bht.reset()
        self.btb.reset()
        self.ras.reset()
        self.loop.reset()

    def state_fingerprint(self) -> Tuple:
        return (
            self.bht.state_fingerprint(),
            self.btb.state_fingerprint(),
            self.ras.state_fingerprint(),
            self.loop.state_fingerprint(),
        )

    @property
    def taint_version(self) -> int:
        return (
            self.bht.taint_version
            + self.btb.taint_version
            + self.ras.taint_version
            + self.loop.taint_version
        )

    def tainted_counts(self) -> Dict[str, int]:
        return {
            "bht": self.bht.tainted_entry_count(),
            "btb": self.btb.tainted_entry_count(),
            "ras": self.ras.tainted_entry_count(),
            "loop": self.loop.tainted_entry_count(),
        }
