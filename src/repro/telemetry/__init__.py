"""Live campaign telemetry: always-on counters, round events, JSONL sinks.

Three layers, deliberately decoupled from the deterministic campaign state:

* :mod:`repro.telemetry.metrics` — allocation-light ``Counter`` /
  ``LatencyHistogram`` instruments in a per-process ``MetricsRegistry``.
  Fixed log-scale histogram buckets and integer accumulators make snapshot
  merges order-independent, so per-slice metrics can ride result payloads
  through any backend and join in any arrival order.
* :mod:`repro.telemetry.events` — the structured ``RoundEvent`` the
  scheduler emits at every merged sync epoch.
* :mod:`repro.telemetry.sink` — the in-memory ``TelemetryRing`` (on
  ``EngineResult.telemetry``), the rotating-JSONL ``TelemetrySink`` an
  external scraper can tail, and the engine-side ``CampaignTelemetry``
  pipeline tying them together.

Telemetry is diagnostics only: nothing here is checkpointed, fingerprinted,
or part of ``campaign_deterministic`` — results are byte-identical with
telemetry on, off, or failing mid-run.
"""

from repro.telemetry.events import RoundEvent
from repro.telemetry.metrics import (
    Counter,
    HISTOGRAM_BOUNDS,
    LatencyHistogram,
    MetricsRegistry,
    MetricsScope,
    NULL_REGISTRY,
    diff_snapshots,
)
from repro.telemetry.sink import CampaignTelemetry, TelemetryRing, TelemetrySink

__all__ = [
    "CampaignTelemetry",
    "Counter",
    "HISTOGRAM_BOUNDS",
    "LatencyHistogram",
    "MetricsRegistry",
    "MetricsScope",
    "NULL_REGISTRY",
    "RoundEvent",
    "TelemetryRing",
    "TelemetrySink",
    "diff_snapshots",
]
