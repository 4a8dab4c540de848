"""A small fully-associative TLB model (the ``(l2)tlb`` timing component)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Set, Tuple

PAGE_SHIFT = 12


@dataclass
class TlbAccessResult:
    hit: bool
    latency: int
    page: int


class Tlb:
    """LRU fully-associative translation lookaside buffer.

    Transiently executed loads install translations speculatively (that is the
    (l2)tlb side channel of Table 5); entries can be marked tainted when the
    page number itself was derived from a secret.
    """

    def __init__(self, entries: int, hit_latency: int = 1, miss_latency: int = 12) -> None:
        self.entries = entries
        self.hit_latency = hit_latency
        self.miss_latency = miss_latency
        self.pages: List[int] = []  # most recently used first
        self.tainted_pages: Set[int] = set()
        self.accesses = 0
        self.misses = 0
        # Monotonic counter bumped when the tainted-page set changes size;
        # the processor's census fast path sums it.
        self.taint_version = 0

    def _page(self, address: int) -> int:
        return address >> PAGE_SHIFT

    def access(self, address: int, fill_on_miss: bool = True, tainted: bool = False) -> TlbAccessResult:
        self.accesses += 1
        page = self._page(address)
        if page in self.pages:
            self.pages.remove(page)
            self.pages.insert(0, page)
            if tainted and page not in self.tainted_pages:
                self.tainted_pages.add(page)
                self.taint_version += 1
            return TlbAccessResult(hit=True, latency=self.hit_latency, page=page)
        self.misses += 1
        if fill_on_miss:
            if len(self.pages) >= self.entries:
                evicted = self.pages.pop()
                if evicted in self.tainted_pages:
                    self.tainted_pages.discard(evicted)
                    self.taint_version += 1
            self.pages.insert(0, page)
            if tainted and page not in self.tainted_pages:
                self.tainted_pages.add(page)
                self.taint_version += 1
        return TlbAccessResult(hit=False, latency=self.miss_latency, page=page)

    def flush(self) -> None:
        self.pages = []
        if self.tainted_pages:
            self.taint_version += 1
        self.tainted_pages = set()

    def reset(self) -> None:
        """Restore construction state: a flush plus zeroed access counters."""
        self.flush()
        self.accesses = 0
        self.misses = 0

    def state_fingerprint(self) -> Tuple[int, ...]:
        return tuple(self.pages)

    def tainted_entry_count(self) -> int:
        return len(self.tainted_pages)
