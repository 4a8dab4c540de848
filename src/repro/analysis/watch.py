"""Live campaign telemetry viewer.

Tails a campaign's telemetry stream — a ``--telemetry-dir`` of rotating
``telemetry-*.jsonl`` files, or one JSONL file — and keeps a refreshing
status table on the terminal::

    python -m repro.analysis.watch /path/to/telemetry-dir

The follower reads incrementally by byte offset and only ever consumes
complete lines, so it can safely watch a directory a live campaign is
appending to (the sink's line-atomic appends guarantee it sees whole
records or nothing); rotation just makes a new file appear, which the next
poll picks up.

``--once`` renders a single snapshot and exits — the CI mode: it validates
every record against the expected schema and exits non-zero when any record
is malformed (or when there are none at all).  ``--json OUT`` additionally
writes the machine-readable summary (the
:func:`repro.analysis.telemetry_table` dict), which is how the CI smoke
compares the stream's final coverage against the engine's own result JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.results import latency_percentiles, telemetry_table
from repro.core.wire import MAX_FRAME_BYTES, decode_object

__all__ = ["TelemetryFollower", "main", "render_summary", "validate_record"]

# Fields every well-formed record of each type must carry; ``--once`` fails
# CI when a record misses one (a scraper contract, kept in sync with the
# emitters in repro.telemetry and repro.core.engine).
REQUIRED_FIELDS: Dict[str, Tuple[str, ...]] = {
    "round": (
        "ts",
        "epoch",
        "rounds_total",
        "iterations_done",
        "coverage",
        "coverage_total",
        "corpus_size",
        "reports",
    ),
    "metrics": ("ts", "counters", "histograms"),
    "tasks": ("ts", "epoch", "rows"),
    "campaign": ("ts", "complete", "coverage", "coverage_total", "iterations", "reports"),
}


def validate_record(record: Dict[str, object]) -> Optional[str]:
    """Return an error string for a malformed record, None when well-formed."""
    kind = record.get("type")
    if kind not in REQUIRED_FIELDS:
        return f"unknown record type {kind!r}"
    missing = [name for name in REQUIRED_FIELDS[kind] if name not in record]
    if missing:
        return f"{kind} record missing field(s): {', '.join(missing)}"
    return None


class TelemetryFollower:
    """Incrementally reads telemetry records from a directory or a file.

    Each :meth:`poll` reads whatever complete lines have appeared since the
    last one, across every file of the stream (rotation-aware: new files are
    discovered on each poll).  Malformed lines (blank, unparseable, not an
    object) are counted, never raised — a live view must survive a torn
    write from a crashing producer.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self.records: List[Dict[str, object]] = []
        self.errors: List[str] = []
        self._offsets: Dict[str, int] = {}
        # Files whose next bytes continue an over-long line being skipped.
        self._skipping: Set[str] = set()

    def files(self) -> List[str]:
        if os.path.isdir(self.path):
            return sorted(
                os.path.join(self.path, name)
                for name in os.listdir(self.path)
                if name.endswith(".jsonl")
            )
        return [self.path]

    def poll(self) -> List[Dict[str, object]]:
        """Consume newly completed lines; returns the records they held.

        Reads at most ``MAX_FRAME_BYTES + 1`` bytes of each file per call.
        A line longer than ``MAX_FRAME_BYTES`` is counted in :attr:`errors`
        and skipped up to its newline, never parsed.
        """
        new: List[Dict[str, object]] = []
        for file in self.files():
            offset = self._offsets.get(file, 0)
            try:
                with open(file, "rb") as handle:
                    handle.seek(offset)
                    chunk = handle.read(MAX_FRAME_BYTES + 1)
            except OSError:
                continue
            name = os.path.basename(file)
            if file in self._skipping:
                newline = chunk.find(b"\n")
                if newline < 0:
                    self._offsets[file] = offset + len(chunk)
                    continue
                self._skipping.discard(file)
                offset += newline + 1
                chunk = chunk[newline + 1:]
            # Only complete lines are consumed; a trailing partial line is
            # left for the next poll (the writer appends whole lines, so a
            # partial read means we raced the append itself).
            end = chunk.rfind(b"\n")
            if end < 0:
                if len(chunk) > MAX_FRAME_BYTES:
                    self.errors.append(
                        f"{name}: line longer than {MAX_FRAME_BYTES} bytes"
                    )
                    self._skipping.add(file)
                    offset += len(chunk)
                self._offsets[file] = offset
                continue
            self._offsets[file] = offset + end + 1
            for line in chunk[:end].split(b"\n"):
                try:
                    record = decode_object(line, "record")
                except ValueError as error:
                    self.errors.append(f"{name}: {error}")
                    continue
                problem = validate_record(record)
                if problem is not None:
                    self.errors.append(f"{name}: {problem}")
                new.append(record)
        self.records.extend(new)
        return new

    def poll_to_end(self) -> None:
        """Poll until no file has a further complete line to consume."""
        while True:
            offsets = dict(self._offsets)
            self.poll()
            if self._offsets == offsets:
                return


def render_summary(
    summary: Dict[str, object], source: str, errors: int = 0
) -> List[str]:
    """Format one telemetry summary as the status table's lines."""
    lines = [f"campaign telemetry — {source}"]
    rounds_total = summary.get("rounds_total")
    progress = (
        f"{summary['rounds']}/{rounds_total}"
        if rounds_total
        else str(summary["rounds"])
    )
    throughput = summary.get("iterations_per_second")
    rate = f"  {throughput:.1f} iter/s" if throughput else ""
    campaign = summary.get("campaign")
    state = (
        "finished" if campaign and campaign.get("complete")
        else "halted" if campaign
        else "running"
    )
    lines.append(
        f"  rounds {progress} ({state})  iterations {summary.get('iterations_done')}"
        f"  coverage {summary.get('coverage_total')}"
        f"  reports {summary.get('reports')}{rate}"
    )
    last_round = summary.get("last_round") or {}
    gains = last_round.get("coverage_gain", {})
    coverage = summary.get("coverage") or {}
    if coverage:
        lines.append("  per-core coverage:")
        for core in sorted(coverage):
            gain = gains.get(core)
            gain_text = f"  (+{gain} last round)" if gain is not None else ""
            lines.append(f"    {core:24s} {coverage[core]:6d}{gain_text}")
    if last_round:
        lines.append(
            f"  corpus {last_round.get('corpus_size')} seed(s), "
            f"{last_round.get('corpus_evictions')} eviction(s); "
            f"redistributed {last_round.get('redistributed')}, "
            f"transferred {last_round.get('transferred')} at last sync"
        )
    workers = summary.get("workers") or []
    if workers:
        lines.append("  workers:")
        for row in workers:
            lines.append(
                f"    {row['worker']:16s} tasks={row['tasks']:3d} "
                f"epochs={row['epochs']:2d} "
                f"task-seconds={row['task_seconds']:.2f} "
                f"reassigned-in={row['reassigned_tasks']}"
            )
    metrics = summary.get("metrics") or {}
    histograms = metrics.get("histograms") or {}
    if histograms:
        lines.append("  latencies:")
        for name in sorted(histograms):
            stats = latency_percentiles(histograms[name])
            if not stats["count"]:
                continue
            lines.append(
                f"    {name:28s} n={stats['count']:6d} "
                f"mean={stats['mean_seconds']*1000:8.3f}ms "
                f"p50<={stats['p50_seconds']*1000:8.3f}ms "
                f"p90<={stats['p90_seconds']*1000:8.3f}ms"
            )
    if errors:
        lines.append(f"  !! {errors} malformed record(s)")
    return lines


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.watch",
        description="Tail a campaign telemetry directory (or one JSONL file) "
        "with a refreshing status table.",
    )
    parser.add_argument(
        "path",
        metavar="PATH",
        help="telemetry directory (--telemetry-dir of a campaign) or a "
        "single .jsonl file",
    )
    parser.add_argument(
        "--once",
        action="store_true",
        help="render one snapshot and exit; non-zero when records are "
        "missing or malformed (CI mode)",
    )
    parser.add_argument(
        "--interval",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="refresh interval of the live view (default: 2)",
    )
    parser.add_argument(
        "--json",
        metavar="OUT",
        help="also write the machine-readable summary dict as JSON "
        "(repro.analysis.telemetry_table form)",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if not os.path.exists(args.path):
        print(f"error: {args.path} does not exist", file=sys.stderr)
        return 2
    follower = TelemetryFollower(args.path)

    if args.once:
        follower.poll_to_end()
        summary = telemetry_table(follower.records)
        for line in render_summary(summary, args.path, errors=len(follower.errors)):
            print(line)
        if args.json:
            with open(args.json, "w", encoding="utf-8") as handle:
                json.dump(summary, handle, indent=2)
            print(f"wrote {args.json}")
        if follower.errors:
            for problem in follower.errors:
                print(f"error: {problem}", file=sys.stderr)
            return 1
        if not follower.records:
            print("error: no telemetry records found", file=sys.stderr)
            return 1
        return 0

    try:
        while True:
            follower.poll()
            summary = telemetry_table(follower.records)
            # Home + clear: repaint in place without scrollback spam.
            sys.stdout.write("\x1b[H\x1b[2J")
            for line in render_summary(
                summary, args.path, errors=len(follower.errors)
            ):
                print(line)
            print(
                f"\n[{time.strftime('%H:%M:%S')}] {len(follower.records)} "
                f"record(s); refresh {args.interval:g}s — Ctrl-C to stop"
            )
            sys.stdout.flush()
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
