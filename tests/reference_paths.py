"""Reference paths for the byte-transparent hot-path accelerators.

Production code has one path: the warm-DUT pool, the dirty-flagged taint
census and live telemetry are always on.  Each fake below puts back the path
its accelerator replaced, or takes telemetry out, so a test can run the same
work both ways and compare the deterministic results.  Apply them with
pytest's ``monkeypatch`` (or a ``monkeypatch.context()`` to scope them to
one arm of a comparison).  ``without_packet`` is the naive form of Phase 1's
in-place training reduction, for tests that rebuild the reduction step by
step.
"""

from repro.core.phase1 import DutPool
from repro.swapmem.packets import SwapSchedule
from repro.telemetry import CampaignTelemetry, Counter, LatencyHistogram, MetricsRegistry
from repro.uarch.processor import Processor


def fresh_duts(monkeypatch) -> None:
    """Every Phase-1 simulation builds a fresh SwapMemory/Processor pair."""
    monkeypatch.setattr(DutPool, "checkout", DutPool._fresh_pair)


def census_recompute(monkeypatch) -> None:
    """Every tainted cycle recomputes the full census, moved counters or not."""
    record = Processor._record_census

    def recompute(self):
        self._census_version = -1
        record(self)

    monkeypatch.setattr(Processor, "_record_census", recompute)


class _DarkCounter(Counter):
    __slots__ = ()

    def add(self, amount: int = 1) -> None:
        pass


class _DarkHistogram(LatencyHistogram):
    __slots__ = ()

    def record(self, seconds: float) -> None:
        pass


def dark_telemetry(monkeypatch) -> None:
    """Telemetry observes nothing: every registry hands out no-op
    instruments, and the campaign pipeline drops every record."""
    monkeypatch.setattr(MetricsRegistry, "counter", lambda self, name: _DarkCounter())
    monkeypatch.setattr(MetricsRegistry, "histogram", lambda self, name: _DarkHistogram())
    monkeypatch.setattr(CampaignTelemetry, "emit", lambda self, record: None)


def without_packet(schedule: SwapSchedule, name: str) -> SwapSchedule:
    """A copy of ``schedule`` with one packet removed."""
    return SwapSchedule(
        packets=[packet for packet in schedule.packets if packet.name != name],
        protect_secret_before_transient=schedule.protect_secret_before_transient,
        name=schedule.name,
    )


def reference_paths(monkeypatch) -> None:
    """All three fakes at once."""
    for fake in (fresh_duts, census_recompute, dark_telemetry):
        fake(monkeypatch)
