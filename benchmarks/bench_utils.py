"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper's evaluation
section and prints it.  Deterministic tables are archived under
``benchmarks/results/`` and committed, so a change that moves them shows in
review.  Tables of wall-clock measurements differ on every run; they go to
the untracked ``benchmarks/results/timing/`` instead, so running the suite
leaves the tree clean.
"""

from __future__ import annotations

import os
from typing import Iterable, List, Sequence

RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")
TIMING_DIR = os.path.join(RESULTS_DIR, "timing")


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
