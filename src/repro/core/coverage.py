"""The taint coverage matrix (§4.2.2).

DejaVuzz's coverage metric is *secret-sensitive*: for every module and every
clock cycle, the number of tainted state elements inside that module is used
as an index into a per-module bitmap; each newly set bitmap slot is one
coverage point ``(module, tainted-count)``.  The metric is

* **local** — measured per module, so it reflects how far the secret has
  propagated across hierarchies, and
* **position-insensitive** — encoding the secret into a different slot of the
  same structure does not produce a new point, filtering redundant encodings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.uarch.taint import TaintCensus
from repro.utils.jsontypes import json_typed


@dataclass(frozen=True)
class CoveragePoint:
    """One (module, tainted-element-count) tuple."""

    module: str
    tainted_count: int

    def to_dict(self) -> Dict[str, object]:
        return {"module": self.module, "tainted_count": self.tainted_count}

    @staticmethod
    def from_dict(payload: Dict[str, object]) -> "CoveragePoint":
        return CoveragePoint(
            module=json_typed(payload["module"], str, "module"),
            tainted_count=json_typed(payload["tainted_count"], int, "tainted_count"),
        )


class TaintCoverageMatrix:
    """Accumulates coverage points across a fuzzing campaign."""

    def __init__(self, bitmap_size: int = 256) -> None:
        self.bitmap_size = bitmap_size
        self._points: Set[CoveragePoint] = set()
        self.history: List[int] = []  # cumulative count after each observation batch

    def __len__(self) -> int:
        return len(self._points)

    @property
    def points(self) -> Set[CoveragePoint]:
        return set(self._points)

    def observe_census(self, census: TaintCensus) -> int:
        """Add the points implied by one cycle's census; return new points added."""
        added = 0
        for module, count in census.element_counts.items():
            if count <= 0:
                continue
            slot = min(count, self.bitmap_size - 1)
            point = CoveragePoint(module=module, tainted_count=slot)
            if point not in self._points:
                self._points.add(point)
                added += 1
        return added

    def observe_census_log(
        self,
        census_log: Iterable[TaintCensus],
        cycle_range: Optional[Tuple[int, int]] = None,
    ) -> int:
        """Add the points of a whole run, optionally restricted to a cycle range."""
        added = 0
        for census in census_log:
            if cycle_range is not None and not cycle_range[0] <= census.cycle <= cycle_range[1]:
                continue
            added += self.observe_census(census)
        self.history.append(len(self._points))
        return added

    def per_module_counts(self) -> Dict[str, int]:
        """Number of distinct coverage points per module."""
        counts: Dict[str, int] = {}
        for point in self._points:
            counts[point.module] = counts.get(point.module, 0) + 1
        return counts

    def merge(self, other: "TaintCoverageMatrix") -> int:
        """Union another matrix into this one.

        Records a history snapshot (so merged campaigns keep a continuous
        coverage curve) and returns the number of points that were new to this
        matrix — the per-shard accounting signal of the parallel engine.
        """
        added = self.add_points(other._points)
        return added

    def add_points(self, points: Iterable[CoveragePoint]) -> int:
        """Add pre-computed coverage points; snapshot history; return new points."""
        added = 0
        for point in points:
            if point not in self._points:
                self._points.add(point)
                added += 1
        self.history.append(len(self._points))
        return added

    def to_dicts(self) -> List[Dict[str, object]]:
        """All points in a JSON-safe wire form, deterministically ordered."""
        ordered = sorted(self._points, key=lambda point: (point.module, point.tainted_count))
        return [point.to_dict() for point in ordered]

    @staticmethod
    def from_dicts(
        payload: Iterable[Dict[str, object]], bitmap_size: int = 256
    ) -> "TaintCoverageMatrix":
        matrix = TaintCoverageMatrix(bitmap_size=bitmap_size)
        matrix._points = {CoveragePoint.from_dict(entry) for entry in payload}
        return matrix

    def snapshot(self) -> int:
        """Record the current total into the history curve and return it."""
        total = len(self._points)
        self.history.append(total)
        return total


@dataclass
class CoverageFeedback:
    """The Phase-2 feedback decision derived from one run's coverage delta."""

    new_points: int
    taint_increased: bool
    average_gain: float
    action: str = "keep"  # keep | mutate_window | discard_seed

    @staticmethod
    def decide(
        new_points: int,
        taint_increased: bool,
        average_gain: float,
        consecutive_low_gain: int,
        low_gain_limit: int = 3,
    ) -> "CoverageFeedback":
        """The decision rule of §4.2.2.

        If sensitive data did not propagate, or the coverage increase is below
        the running average, mutate the window section; after several
        consecutive low-gain attempts, discard the seed and return to Phase 1.
        """
        if not taint_increased or new_points < average_gain:
            action = "discard_seed" if consecutive_low_gain >= low_gain_limit else "mutate_window"
        else:
            action = "keep"
        return CoverageFeedback(
            new_points=new_points,
            taint_increased=taint_increased,
            average_gain=average_gain,
            action=action,
        )
