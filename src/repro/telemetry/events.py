"""Structured telemetry records the campaign scheduler emits.

One :class:`RoundEvent` per merged sync epoch — the record a live view or
an external scraper consumes to answer "how is the campaign doing *right
now*": per-core coverage and this round's gain, corpus size and churn,
redistribution and cross-core transfer outcomes.

Records are timing-adjacent diagnostics: they ride the telemetry ring and
JSONL sinks only, never checkpoints or the deterministic campaign wire
forms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

__all__ = ["RoundEvent"]


@dataclass
class RoundEvent:
    """Everything the scheduler knows at one merged epoch boundary."""

    epoch: int
    rounds_total: int
    iterations_done: int
    coverage: Dict[str, int]  # per-core total points after this merge
    coverage_gain: Dict[str, int]  # per-core new points this round
    coverage_total: int
    corpus_size: int
    corpus_evictions: int  # cumulative capacity evictions
    redistributed: int  # seeds handed out at this boundary
    transferred: int  # cross-core transfers at this boundary
    reports: int  # cumulative leak reports
    slices: List[dict] = field(default_factory=list)  # per-slice rows

    def to_record(self) -> Dict[str, object]:
        return {
            "type": "round",
            "epoch": self.epoch,
            "rounds_total": self.rounds_total,
            "iterations_done": self.iterations_done,
            "coverage": dict(self.coverage),
            "coverage_gain": dict(self.coverage_gain),
            "coverage_total": self.coverage_total,
            "corpus_size": self.corpus_size,
            "corpus_evictions": self.corpus_evictions,
            "redistributed": self.redistributed,
            "transferred": self.transferred,
            "reports": self.reports,
            "slices": [dict(row) for row in self.slices],
        }
