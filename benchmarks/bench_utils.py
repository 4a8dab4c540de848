"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper's evaluation
section and prints it.  Deterministic tables are archived under
``benchmarks/results/`` and committed, so a change that moves them shows in
review.  Tables of wall-clock measurements differ on every run; they go to
the untracked ``benchmarks/results/timing/`` instead, so running the suite
leaves the tree clean.

A wall-clock bar compares a reference arm with a fast arm.  It is gated on
the median ratio of alternating paired runs (:func:`paired_ratio`), never on
one run of each: on a shared host single runs of one campaign swing by ±20%.
"""

from __future__ import annotations

import os
import statistics
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Iterable, List, Sequence, Tuple

RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")
TIMING_DIR = os.path.join(RESULTS_DIR, "timing")
# Pairs per wall-clock bar: the median of three survives one disturbed pair.
PAIRS = 3


def _write_artefact(directory: str, name: str, text: str) -> str:
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{name}.txt")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text if text.endswith("\n") else text + "\n")
    print(f"\n===== {name} =====")
    print(text)
    return path


def save_results(name: str, text: str) -> str:
    """Write a deterministic result artefact and echo it to stdout; returns the path."""
    return _write_artefact(RESULTS_DIR, name, text)


def save_timing_results(name: str, text: str) -> str:
    """Write a wall-clock result artefact (untracked) and echo it; returns the path."""
    return _write_artefact(TIMING_DIR, name, text)


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Render a plain-text table with aligned columns."""
    materialized: List[List[str]] = [[str(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in materialized:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [
        "  ".join(header.ljust(widths[index]) for index, header in enumerate(headers)),
        "  ".join("-" * widths[index] for index in range(len(headers))),
    ]
    for row in materialized:
        lines.append("  ".join(cell.ljust(widths[index]) for index, cell in enumerate(row)))
    return "\n".join(lines)


def format_cell(value) -> str:
    """Table-3 style cell: ``TO (ETO)`` or ``/`` when the window never triggered."""
    if value is None:
        return "/"
    if isinstance(value, tuple):
        return f"{value[0]} ({value[1]})"
    return str(value)


@dataclass(frozen=True)
class PairedRatio:
    """Wall clocks of alternating paired runs of a reference and a fast arm."""

    reference_seconds: Tuple[float, ...]
    fast_seconds: Tuple[float, ...]
    reference: Tuple[object, ...]  # what each arm's runs returned, in pair order
    fast: Tuple[object, ...]

    @property
    def ratios(self) -> List[float]:
        """Per pair, reference seconds over fast seconds (above 1: fast wins)."""
        return [ref / fast for ref, fast in zip(self.reference_seconds, self.fast_seconds)]

    @property
    def median(self) -> float:
        return statistics.median(self.ratios)

    @property
    def iqr(self) -> Tuple[float, float]:
        low, _, high = statistics.quantiles(self.ratios, n=4)
        return low, high

    def describe(self) -> str:
        return "median {:.2f}x (IQR {:.2f}-{:.2f}) over {} alternating pairs".format(
            self.median, *self.iqr, len(self.ratios)
        )

    def table(self, reference_name: str, fast_name: str) -> str:
        """One row per pair: the arm that ran first, both wall clocks, the ratio."""
        rows = [
            [index, fast_name if index % 2 else reference_name,
             f"{ref:.3f}", f"{fast:.3f}", f"{ref / fast:.2f}x"]
            for index, (ref, fast) in enumerate(zip(self.reference_seconds, self.fast_seconds))
        ]
        header = ["Pair", "First", f"{reference_name} s", f"{fast_name} s", "Ratio"]
        return format_table(header, rows) + f"\n{reference_name}/{fast_name}: {self.describe()}"


def paired_ratio(reference: Callable[[], object], fast: Callable[[], object]) -> PairedRatio:
    """Time :data:`PAIRS` alternating pairs of runs of two arms.

    Even pairs run the reference arm first, odd pairs the fast arm, so a
    drift in the host's load, or a cache either arm warms for the other,
    lands on both arms alike.  A bar gated on the median of the per-pair
    ratios is moved by one disturbed pair no further than to its neighbour.
    """
    arms = (reference, fast)
    seconds, outputs = ([], []), ([], [])
    for index in range(PAIRS):
        for arm in (1, 0) if index % 2 else (0, 1):
            started = perf_counter()
            outputs[arm].append(arms[arm]())
            seconds[arm].append(perf_counter() - started)
    return PairedRatio(*map(tuple, seconds), *map(tuple, outputs))
