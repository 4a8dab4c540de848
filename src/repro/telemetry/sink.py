"""Telemetry sinks: the in-memory ring, rotating JSONL files, and the
engine-side pipeline that feeds both.

Durability model: each record is one JSON line, appended with a single
``write()`` on a freshly opened append-mode handle and closed immediately.
Appends of one line are atomic enough for a tailing scraper (it sees whole
lines or nothing), a crashed campaign loses at most the record being
written, and rotation creates a *new* numbered file rather than renaming —
a ``tail -F telemetry-*.jsonl`` never chases a moved inode.  Records are
seconds apart, so the open/close per record costs nothing that matters.

Sink failures (disk full, permissions, dead NFS) must never touch campaign
results: the first ``OSError`` marks the sink failed, warns once on stderr,
and every later record is dropped silently.  The in-memory ring keeps
working either way.
"""

from __future__ import annotations

import os
import re
import sys
import time
from collections import deque
from typing import Deque, Dict, Iterator, List, Optional

from repro.core.wire import encode_frame
from repro.telemetry.metrics import MetricsRegistry

__all__ = ["CampaignTelemetry", "TelemetryRing", "TelemetrySink"]

_FILE_PATTERN = re.compile(r"^(?P<prefix>[\w.-]+)-(?P<index>\d{5})\.jsonl$")


class TelemetryRing:
    """A bounded in-memory record buffer, exposed on ``EngineResult.telemetry``.

    Diagnostics only: never checkpointed, never part of the deterministic
    campaign wire forms.
    """

    __slots__ = ("capacity", "_records",)

    def __init__(self, capacity: int = 512) -> None:
        self.capacity = capacity
        self._records: Deque[Dict[str, object]] = deque(maxlen=capacity)

    def append(self, record: Dict[str, object]) -> None:
        self._records.append(record)

    def records(self, kind: Optional[str] = None) -> List[Dict[str, object]]:
        if kind is None:
            return list(self._records)
        return [row for row in self._records if row.get("type") == kind]

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[Dict[str, object]]:
        return iter(list(self._records))


class TelemetrySink:
    """Rotating JSONL writer for a telemetry directory.

    Files are ``<prefix>-00001.jsonl``, ``<prefix>-00002.jsonl``, … — a new
    number when the current file would exceed ``max_bytes``.  On
    construction the sink resumes after the highest existing number, so a
    resumed campaign appends a fresh file instead of clobbering history.
    """

    def __init__(
        self,
        directory: str,
        max_bytes: int = 4_000_000,
        prefix: str = "telemetry",
    ) -> None:
        self.directory = directory
        self.max_bytes = max_bytes
        self.prefix = prefix
        self.failed = False
        self.records_written = 0
        self._index = 1
        self._size = 0
        try:
            os.makedirs(directory, exist_ok=True)
            existing = self.files()
        except OSError as error:
            self._fail(error)
            return
        if existing:
            last = os.path.basename(existing[-1])
            match = _FILE_PATTERN.match(last)
            if match is not None:
                self._index = int(match.group("index")) + 1

    @property
    def current_path(self) -> str:
        return os.path.join(
            self.directory, f"{self.prefix}-{self._index:05d}.jsonl"
        )

    def files(self) -> List[str]:
        """All of this sink family's files, in rotation order."""
        names = [
            name
            for name in os.listdir(self.directory)
            if (match := _FILE_PATTERN.match(name)) is not None
            and match.group("prefix") == self.prefix
        ]
        return [os.path.join(self.directory, name) for name in sorted(names)]

    def emit(self, record: Dict[str, object]) -> bool:
        """Append one record; returns whether it was durably written."""
        if self.failed:
            return False
        line = encode_frame(record)
        if self._size and self._size + len(line) > self.max_bytes:
            self._index += 1
            self._size = 0
        try:
            with open(self.current_path, "ab") as handle:
                handle.write(line)
        except OSError as error:
            self._fail(error)
            return False
        self._size += len(line)
        self.records_written += 1
        return True

    def _fail(self, error: OSError) -> None:
        if not self.failed:
            print(
                f"[telemetry] sink failed ({error}); "
                "dropping further records (campaign unaffected)",
                file=sys.stderr,
                flush=True,
            )
        self.failed = True


class CampaignTelemetry:
    """The engine-side telemetry pipeline.

    Owns the campaign-lifetime :class:`MetricsRegistry` (per-slice payload
    snapshots merge into it at epoch boundaries), the in-memory ring, and
    the optional rotating file sink.
    """

    def __init__(
        self,
        directory: Optional[str] = None,
        enabled: bool = True,
        ring_capacity: int = 512,
    ) -> None:
        self.enabled = enabled
        self.registry = MetricsRegistry(enabled=enabled)
        self.ring = TelemetryRing(capacity=ring_capacity)
        self.sink: Optional[TelemetrySink] = (
            TelemetrySink(directory) if (enabled and directory) else None
        )

    def emit(self, record: Dict[str, object]) -> bool:
        """Emit one record to the ring and (when configured) the sink."""
        if not self.enabled:
            return False
        record.setdefault("ts", round(time.time(), 3))
        self.ring.append(record)
        if self.sink is not None:
            self.sink.emit(record)
        return True

    def merge_metrics(self, snapshot: Optional[Dict[str, object]]) -> None:
        self.registry.merge_snapshot(snapshot)
