"""Allocation-light campaign metrics: counters and latency histograms.

The campaign runs millions of simulator steps, so the instruments here are
deliberately boring: a :class:`Counter` is one integer and a
:class:`LatencyHistogram` is a fixed vector of integer bucket counts over power-of-two bounds.  Because every instrument reduces to
integers added together, snapshots merge commutatively — per-slice
histograms recorded on different workers and joined in *any* order (inline,
process-pool, or distributed arrival order) produce byte-identical merged
buckets and percentiles.  That property is what lets metric snapshots ride
the result payloads without threatening the engine's determinism oracle.

When telemetry is off, :data:`NULL_REGISTRY` hands out shared no-op
instances whose ``add``/``record`` are empty methods — the
instrumentation points pay one no-op call, nothing else.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Optional, Tuple

__all__ = [
    "Counter",
    "HISTOGRAM_BOUNDS",
    "LatencyHistogram",
    "MetricsRegistry",
    "MetricsScope",
    "NULL_REGISTRY",
    "diff_snapshots",
]

# Fixed log-scale bucket bounds in seconds: 2**-20 (~1 µs) .. 2**6 (64 s),
# plus one overflow bucket.  Fixed bounds (rather than adaptive ones) are
# what make merged histograms deterministic and wire-serializable: every
# process buckets identically, so merging is plain integer addition.
HISTOGRAM_BOUNDS: Tuple[float, ...] = tuple(2.0 ** e for e in range(-20, 7))


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def add(self, amount: int = 1) -> None:
        self.value += amount


class LatencyHistogram:
    """Integer bucket counts over :data:`HISTOGRAM_BOUNDS` (+1 overflow).

    ``total_us`` accumulates whole microseconds (an int, not a float) so
    that merge order cannot perturb the sum: integer addition commutes and
    associates exactly, float addition does not.
    """

    __slots__ = ("count", "total_us", "counts")

    def __init__(self) -> None:
        self.count = 0
        self.total_us = 0
        self.counts: List[int] = [0] * (len(HISTOGRAM_BOUNDS) + 1)

    def record(self, seconds: float) -> None:
        self.counts[bisect_left(HISTOGRAM_BOUNDS, seconds)] += 1
        self.count += 1
        self.total_us += int(seconds * 1_000_000)

    def merge(self, other: "LatencyHistogram") -> None:
        self.count += other.count
        self.total_us += other.total_us
        for index, bucket in enumerate(other.counts):
            self.counts[index] += bucket

    def merge_dict(self, payload: Dict[str, object]) -> None:
        """Merge a :meth:`to_dict` wire form (tolerates sparse buckets)."""
        self.count += int(payload.get("count", 0))
        self.total_us += int(payload.get("total_us", 0))
        for index, bucket in payload.get("buckets", ()):
            if 0 <= index < len(self.counts):
                self.counts[index] += bucket

    def mean_seconds(self) -> float:
        return (self.total_us / 1_000_000) / self.count if self.count else 0.0

    def percentile(self, pct: float) -> float:
        """The bucket upper bound covering the requested percentile.

        Returning the bound (rather than interpolating inside the bucket)
        keeps percentiles a pure function of the integer bucket counts, so
        any merge order reports the same number.  The overflow bucket
        reports twice the last bound.
        """
        if self.count <= 0:
            return 0.0
        rank = max(1, -(-int(pct * self.count) // 100))  # ceil(pct*count/100)
        cumulative = 0
        for index, bucket in enumerate(self.counts):
            cumulative += bucket
            if cumulative >= rank:
                if index < len(HISTOGRAM_BOUNDS):
                    return HISTOGRAM_BOUNDS[index]
                return HISTOGRAM_BOUNDS[-1] * 2
        return HISTOGRAM_BOUNDS[-1] * 2

    def to_dict(self) -> Dict[str, object]:
        """Sparse wire form: only non-zero buckets, as ``[index, count]``."""
        return {
            "count": self.count,
            "total_us": self.total_us,
            "buckets": [
                [index, bucket]
                for index, bucket in enumerate(self.counts)
                if bucket
            ],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "LatencyHistogram":
        histogram = cls()
        histogram.merge_dict(payload)
        return histogram


class _NullCounter(Counter):
    __slots__ = ()

    def add(self, amount: int = 1) -> None:
        pass


class _NullHistogram(LatencyHistogram):
    __slots__ = ()

    def record(self, seconds: float) -> None:
        pass


_NULL_COUNTER = _NullCounter()
_NULL_HISTOGRAM = _NullHistogram()


class MetricsScope:
    """A name-prefixing view of a registry (``scope.counter("x")`` →
    ``registry.counter("prefix/x")``)."""

    __slots__ = ("_registry", "_prefix")

    def __init__(self, registry: "MetricsRegistry", prefix: str) -> None:
        self._registry = registry
        self._prefix = prefix

    def counter(self, name: str) -> Counter:
        return self._registry.counter(f"{self._prefix}/{name}")

    def histogram(self, name: str) -> LatencyHistogram:
        return self._registry.histogram(f"{self._prefix}/{name}")


class MetricsRegistry:
    """A per-process family of named instruments.

    Instruments are memoized by name, so instrumentation points can resolve
    them once (at construction) and hold direct references — the hot path
    never does a dict lookup.  A disabled registry returns shared no-op
    instances and snapshots to empty tables.
    """

    __slots__ = ("enabled", "_counters", "_histograms")

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, LatencyHistogram] = {}

    def counter(self, name: str) -> Counter:
        if not self.enabled:
            return _NULL_COUNTER
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter()
        return instrument

    def histogram(self, name: str) -> LatencyHistogram:
        if not self.enabled:
            return _NULL_HISTOGRAM
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = LatencyHistogram()
        return instrument

    def scope(self, prefix: str) -> MetricsScope:
        return MetricsScope(self, prefix)

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """A JSON-ready view: counter values and sparse histograms."""
        return {
            "counters": {
                name: self._counters[name].value
                for name in sorted(self._counters)
            },
            "histograms": {
                name: self._histograms[name].to_dict()
                for name in sorted(self._histograms)
            },
        }

    def merge_snapshot(self, snapshot: Optional[Dict[str, object]]) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        Counters and histogram buckets add.  Because everything is integer addition, merging the same snapshots
        in any order produces the same state.
        """
        if not self.enabled or not snapshot:
            return
        for name, value in (snapshot.get("counters") or {}).items():
            self.counter(name).add(int(value))
        for name, payload in (snapshot.get("histograms") or {}).items():
            self.histogram(name).merge_dict(payload)


#: The shared disabled registry: hand this to instrumentation points when
#: telemetry is off and every record/add call is a no-op.
NULL_REGISTRY = MetricsRegistry(enabled=False)


def diff_snapshots(
    later: Dict[str, object], earlier: Optional[Dict[str, object]]
) -> Dict[str, Dict[str, object]]:
    """What happened between two snapshots of one growing registry.

    Counters and histogram buckets subtract (zero rows dropped).  Used to attribute a long-lived registry's
    growth (e.g. the distributed backend's) to one epoch or one run.
    """
    earlier = earlier or {}
    counters = {}
    earlier_counters = earlier.get("counters") or {}
    for name, value in (later.get("counters") or {}).items():
        delta = int(value) - int(earlier_counters.get(name, 0))
        if delta:
            counters[name] = delta
    histograms = {}
    earlier_histograms = earlier.get("histograms") or {}
    for name, payload in (later.get("histograms") or {}).items():
        late = LatencyHistogram.from_dict(payload)
        early = earlier_histograms.get(name)
        if early:
            late.count -= int(early.get("count", 0))
            late.total_us -= int(early.get("total_us", 0))
            for index, bucket in early.get("buckets", ()):
                late.counts[index] -= bucket
        if late.count:
            histograms[name] = late.to_dict()
    return {
        "counters": counters,
        "histograms": histograms,
    }
