"""Bug reports and campaign results."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.phase3 import LeakageVerdict
from repro.generation.window_types import TransientWindowType, group_of
from repro.uarch.bugs import BUG_REGISTRY
from repro.utils.jsontypes import json_typed


# Table 5's abbreviated transient-window categories.
_WINDOW_CATEGORY = {
    "Load/Store Access Fault": "mem-excp",
    "Load/Store Page Fault": "mem-excp",
    "Load/Store Misalign": "mem-excp",
    "Illegal Instruction": "illegal",
    "Memory Disambiguation": "mem-disamb",
    "Branch Misprediction": "mispred",
    "Indirect Jump Misprediction": "mispred",
    "Return Address Misprediction": "mispred",
}

# Map live sinks / contention sources onto Table 5's timing-component names.
_COMPONENT_NAMES = {
    "dcache": "dcache",
    "icache": "icache",
    "l2": "dcache",
    "tlb": "(l2)tlb",
    "btb": "(fau)btb",
    "ras": "ras",
    "loop": "loop",
    "bht": "(fau)btb",
    "lfb": "dcache",
    "fetch-port": "icache",
    "lsu": "lsu",
    "fpu": "fpu",
    "lsu-writeback-port": "lsu",
}


# Wire-form readers: a value of another JSON type raises TypeError naming it.
def _typed(payload: Dict[str, object], key: str, kind: type) -> object:
    return json_typed(payload[key], kind, key)


def _optional(payload: Dict[str, object], key: str, kind: type) -> object:
    return None if payload[key] is None else _typed(payload, key, kind)


def _list_of(values: object, kind: type, name: str) -> List[object]:
    return [json_typed(value, kind, name) for value in json_typed(values, list, name)]


@dataclass
class BugReport:
    """One reported (potential) transient execution vulnerability."""

    iteration: int
    seed_id: int
    core: str
    window_type: TransientWindowType
    attack_type: str                 # "meltdown" | "spectre"
    window_category: str             # mem-excp / mispred / illegal / mem-disamb
    timing_components: Tuple[str, ...]
    verdict: LeakageVerdict
    wall_clock_seconds: float = 0.0
    matched_known_bugs: Tuple[str, ...] = ()

    @property
    def signature(self) -> Tuple[str, str, Tuple[str, ...]]:
        """Deduplication key: attack type x window category x components."""
        return (self.attack_type, self.window_category, self.timing_components)

    def describe(self) -> str:
        components = ", ".join(self.timing_components) or "timing"
        matched = f" (matches {', '.join(self.matched_known_bugs)})" if self.matched_known_bugs else ""
        return (
            f"[{self.core}] {self.attack_type} via {self.window_category} window, "
            f"encoded into: {components}{matched}"
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "iteration": self.iteration,
            "seed_id": self.seed_id,
            "core": self.core,
            "window_type": self.window_type.value,
            "attack_type": self.attack_type,
            "window_category": self.window_category,
            "timing_components": list(self.timing_components),
            "verdict": self.verdict.to_dict(),
            "wall_clock_seconds": self.wall_clock_seconds,
            "matched_known_bugs": list(self.matched_known_bugs),
        }

    @staticmethod
    def from_dict(payload: Dict[str, object]) -> "BugReport":
        def strings(key: str) -> Tuple[str, ...]:
            return tuple(_list_of(payload[key], str, key))

        return BugReport(
            iteration=_typed(payload, "iteration", int),
            seed_id=_typed(payload, "seed_id", int),
            core=_typed(payload, "core", str),
            window_type=TransientWindowType(payload["window_type"]),
            attack_type=_typed(payload, "attack_type", str),
            window_category=_typed(payload, "window_category", str),
            timing_components=strings("timing_components"),
            verdict=LeakageVerdict.from_dict(payload["verdict"]),
            wall_clock_seconds=_typed(payload, "wall_clock_seconds", float),
            matched_known_bugs=strings("matched_known_bugs"),
        )


def classify_report(
    iteration: int,
    seed_id: int,
    core_name: str,
    window_type: TransientWindowType,
    verdict: LeakageVerdict,
    contention: Optional[Dict[str, int]] = None,
    wall_clock_seconds: float = 0.0,
) -> BugReport:
    """Turn a Phase-3 verdict into a categorised bug report (Table 5 row)."""
    group = group_of(window_type)
    category = _WINDOW_CATEGORY[group]
    attack_type = window_type.attack_type

    components: List[str] = []
    for sink in sorted(verdict.live_sinks):
        name = _COMPONENT_NAMES.get(sink, sink)
        if name not in components:
            components.append(name)
    if verdict.reason == "timing":
        contention = contention or {}
        if contention.get("fdiv", 0) or contention.get("fp", 0):
            components.append("fpu")
        if contention.get("mem", 0) or contention.get("lsu_writeback", 0):
            components.append("lsu")
        if not components:
            components.append("icache")

    matched = _match_known_bugs(core_name, verdict, components)
    return BugReport(
        iteration=iteration,
        seed_id=seed_id,
        core=core_name,
        window_type=window_type,
        attack_type=attack_type,
        window_category=category,
        timing_components=tuple(components),
        verdict=verdict,
        wall_clock_seconds=wall_clock_seconds,
        matched_known_bugs=matched,
    )


def _match_known_bugs(core_name: str, verdict: LeakageVerdict, components: List[str]) -> Tuple[str, ...]:
    """Match a finding against the registry of known CVE-assigned defects."""
    family = "boom" if "boom" in core_name.lower() else "xiangshan"
    matched = []
    for bug in BUG_REGISTRY.values():
        if family not in bug.affected_cores:
            continue
        component_name = _COMPONENT_NAMES.get(bug.timing_component, bug.timing_component)
        if component_name in components or bug.timing_component in components:
            matched.append(bug.identifier)
    return tuple(matched)


# The per-core subtotals of CampaignResult.core_breakdown.
_BREAKDOWN_KEYS = ("iterations", "reports", "triggered_windows")


@dataclass
class CampaignResult:
    """The aggregate outcome of one fuzzing campaign."""

    fuzzer_name: str
    core: str
    iterations_run: int = 0
    coverage_history: List[int] = field(default_factory=list)
    reports: List[BugReport] = field(default_factory=list)
    triggered_windows: Dict[str, int] = field(default_factory=dict)
    training_overhead: Dict[str, List[int]] = field(default_factory=dict)
    effective_training_overhead: Dict[str, List[int]] = field(default_factory=dict)
    start_time: float = field(default_factory=time.perf_counter)
    elapsed_seconds: float = 0.0
    first_bug_seconds: Optional[float] = None
    first_bug_iteration: Optional[int] = None
    # Per-core subtotals, filled by merge_shard when shards from more than one
    # core fold into the same aggregate (heterogeneous engine campaigns).
    core_breakdown: Dict[str, Dict[str, int]] = field(default_factory=dict)

    def finish(self) -> "CampaignResult":
        self.elapsed_seconds = time.perf_counter() - self.start_time
        return self

    def to_dict(self, include_timing: bool = True) -> Dict[str, object]:
        """A JSON-safe wire form carrying everything but the live clock.

        ``include_timing=False`` zeroes the wall-clock fields (campaign and
        per-report), leaving only the deterministic content: two campaigns run
        from the same root entropy then serialize byte-identically, which is
        what the reproducibility benchmarks assert.
        """
        reports = [report.to_dict() for report in self.reports]
        if not include_timing:
            for entry in reports:
                entry["wall_clock_seconds"] = 0.0
        return {
            "fuzzer_name": self.fuzzer_name,
            "core": self.core,
            "iterations_run": self.iterations_run,
            "coverage_history": list(self.coverage_history),
            "reports": reports,
            "triggered_windows": dict(self.triggered_windows),
            "training_overhead": {
                group: list(samples) for group, samples in self.training_overhead.items()
            },
            "effective_training_overhead": {
                group: list(samples)
                for group, samples in self.effective_training_overhead.items()
            },
            "elapsed_seconds": self.elapsed_seconds if include_timing else 0.0,
            "first_bug_seconds": self.first_bug_seconds if include_timing else None,
            "first_bug_iteration": self.first_bug_iteration,
            "core_breakdown": {
                core: dict(entry) for core, entry in self.core_breakdown.items()
            },
        }

    @staticmethod
    def from_dict(payload: Dict[str, object]) -> "CampaignResult":
        # Every value is type-checked, so a malformed payload fails here
        # rather than in a later merge_shard or under a wrong name.
        def samples(key: str) -> Dict[str, List[int]]:
            return {
                group: _list_of(values, int, key)
                for group, values in _typed(payload, key, dict).items()
            }

        result = CampaignResult(
            fuzzer_name=_typed(payload, "fuzzer_name", str),
            core=_typed(payload, "core", str),
        )
        result.iterations_run = _typed(payload, "iterations_run", int)
        result.coverage_history = _list_of(
            payload["coverage_history"], int, "coverage_history"
        )
        result.reports = [
            BugReport.from_dict(entry) for entry in _typed(payload, "reports", list)
        ]
        result.triggered_windows = {
            group: json_typed(count, int, "triggered_windows")
            for group, count in _typed(payload, "triggered_windows", dict).items()
        }
        result.training_overhead = samples("training_overhead")
        result.effective_training_overhead = samples("effective_training_overhead")
        result.elapsed_seconds = _typed(payload, "elapsed_seconds", float)
        result.first_bug_seconds = _optional(payload, "first_bug_seconds", float)
        result.first_bug_iteration = _optional(payload, "first_bug_iteration", int)
        result.core_breakdown = {
            core: {key: _typed(entry, key, int) for key in _BREAKDOWN_KEYS}
            for core, entry in _typed(payload, "core_breakdown", dict).items()
        }
        return result

    def merge_shard(self, shard: "CampaignResult") -> "CampaignResult":
        """Fold one shard's campaign into this aggregate.

        Everything except ``coverage_history`` is combined here — the merged
        coverage curve is owned by the parallel engine, which snapshots its
        global :class:`~repro.core.coverage.TaintCoverageMatrix` at every sync
        epoch (shard-local curves count duplicate cross-shard points and would
        over-report if summed).
        """
        self.iterations_run += shard.iterations_run
        self.reports.extend(shard.reports)
        breakdown = self.core_breakdown.setdefault(
            shard.core, dict.fromkeys(_BREAKDOWN_KEYS, 0)
        )
        breakdown["iterations"] += shard.iterations_run
        breakdown["reports"] += len(shard.reports)
        breakdown["triggered_windows"] += sum(shard.triggered_windows.values())
        for group, count in shard.triggered_windows.items():
            self.triggered_windows[group] = self.triggered_windows.get(group, 0) + count
        for group, samples in shard.training_overhead.items():
            self.training_overhead.setdefault(group, []).extend(samples)
        for group, samples in shard.effective_training_overhead.items():
            self.effective_training_overhead.setdefault(group, []).extend(samples)
        if shard.first_bug_iteration is not None and (
            self.first_bug_iteration is None
            or shard.first_bug_iteration < self.first_bug_iteration
        ):
            self.first_bug_iteration = shard.first_bug_iteration
        if shard.first_bug_seconds is not None and (
            self.first_bug_seconds is None
            or shard.first_bug_seconds < self.first_bug_seconds
        ):
            self.first_bug_seconds = shard.first_bug_seconds
        return self

    def record_report(self, report: BugReport) -> None:
        if self.first_bug_seconds is None:
            self.first_bug_seconds = time.perf_counter() - self.start_time
            self.first_bug_iteration = report.iteration
        self.reports.append(report)

    def unique_bug_signatures(self) -> List[Tuple[str, str, Tuple[str, ...]]]:
        signatures = []
        for report in self.reports:
            if report.signature not in signatures:
                signatures.append(report.signature)
        return signatures

    def final_coverage(self) -> int:
        return self.coverage_history[-1] if self.coverage_history else 0

    def matched_known_bugs(self) -> List[str]:
        matched = []
        for report in self.reports:
            for identifier in report.matched_known_bugs:
                if identifier not in matched:
                    matched.append(identifier)
        return matched

    def table5_rows(self) -> List[Dict[str, str]]:
        """Rows in the shape of Table 5: attack type x window categories x components."""
        grouped: Dict[Tuple[str, str], set] = {}
        window_groups: Dict[Tuple[str, str], set] = {}
        for report in self.reports:
            key = (report.core, report.attack_type)
            grouped.setdefault(key, set()).update(report.timing_components)
            window_groups.setdefault(key, set()).add(report.window_category)
        rows = []
        for (core, attack_type), components in sorted(grouped.items()):
            rows.append(
                {
                    "processor": core,
                    "attack_type": attack_type,
                    "transient_window": ", ".join(sorted(window_groups[(core, attack_type)])),
                    "encoded_timing_component": ", ".join(sorted(components)),
                }
            )
        return rows

    def summary(self) -> Dict[str, object]:
        summary = {
            "fuzzer": self.fuzzer_name,
            "core": self.core,
            "iterations": self.iterations_run,
            "coverage": self.final_coverage(),
            "reports": len(self.reports),
            "unique_bugs": len(self.unique_bug_signatures()),
            "known_bugs_matched": self.matched_known_bugs(),
            "first_bug_iteration": self.first_bug_iteration,
            "elapsed_seconds": round(self.elapsed_seconds, 2),
        }
        if len(self.core_breakdown) > 1:
            summary["per_core"] = {
                core: dict(entry) for core, entry in sorted(self.core_breakdown.items())
            }
        return summary
