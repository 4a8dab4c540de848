"""Result analysis helpers: taint curves, timing comparison, table aggregation."""

from repro.analysis.results import (
    TaintCurve,
    extract_taint_curve,
    summarize_training_overhead,
    training_overhead_table,
    coverage_curve_statistics,
    coverage_improvement,
    latency_percentiles,
    per_core_breakdown,
    cross_core_transfer_table,
    profile_hotspot_table,
    simulator_process_table,
    telemetry_table,
    window_batch_table,
    worker_utilization_table,
)

__all__ = [
    "TaintCurve",
    "extract_taint_curve",
    "summarize_training_overhead",
    "training_overhead_table",
    "coverage_curve_statistics",
    "coverage_improvement",
    "latency_percentiles",
    "per_core_breakdown",
    "cross_core_transfer_table",
    "profile_hotspot_table",
    "simulator_process_table",
    "telemetry_table",
    "window_batch_table",
    "worker_utilization_table",
]
