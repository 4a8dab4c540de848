"""Analysis utilities shared by the benchmark harness and the examples.

These helpers turn raw simulation artefacts (taint census logs, campaign
results) into the series and tables the paper reports: the per-cycle taint-sum
curves of Figure 6, the TO/ETO rows of Table 3, and coverage-curve statistics
for Figure 7.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.report import CampaignResult
from repro.generation.window_types import window_types_for_table3
from repro.uarch.taint import TaintCensus


@dataclass
class TaintCurve:
    """A taint-sum-versus-cycle series (one line of Figure 6)."""

    label: str
    cycles: List[int] = field(default_factory=list)
    taint_bits: List[int] = field(default_factory=list)

    def peak(self) -> int:
        return max(self.taint_bits, default=0)

    def final(self) -> int:
        return self.taint_bits[-1] if self.taint_bits else 0


def extract_taint_curve(
    census_log: Iterable[TaintCensus],
    label: str,
    cycle_offset: int = 0,
) -> TaintCurve:
    """Build a :class:`TaintCurve` from a processor's taint census log."""
    curve = TaintCurve(label=label)
    for census in census_log:
        curve.cycles.append(census.cycle - cycle_offset)
        curve.taint_bits.append(census.total_bits())
    return curve


def summarize_training_overhead(samples: Sequence[int]) -> Optional[float]:
    """Average training overhead, or None when the window type never triggered."""
    if not samples:
        return None
    return sum(samples) / len(samples)


def training_overhead_table(
    campaigns: Dict[str, CampaignResult]
) -> List[Dict[str, object]]:
    """Assemble Table-3-shaped rows from one campaign per fuzzer variant.

    Each row is one fuzzer; columns are the eight window-type groups, each
    holding ``(TO, ETO)`` or ``None`` when the variant failed to trigger that
    window type (the ``/`` cells of the paper's table).
    """
    rows: List[Dict[str, object]] = []
    for fuzzer_name, campaign in campaigns.items():
        row: Dict[str, object] = {"fuzzer": fuzzer_name, "core": campaign.core}
        for group in window_types_for_table3():
            to_average = summarize_training_overhead(campaign.training_overhead.get(group, []))
            eto_average = summarize_training_overhead(
                campaign.effective_training_overhead.get(group, [])
            )
            if to_average is None:
                row[group] = None
            else:
                row[group] = (round(to_average, 1), round(eto_average or 0.0, 1))
        rows.append(row)
    return rows


def coverage_curve_statistics(curves: Sequence[List[int]]) -> Dict[str, object]:
    """Mean final coverage and a simple spread across repeated trials (Figure 7)."""
    finals = [curve[-1] if curve else 0 for curve in curves]
    if not finals:
        return {"mean_final": 0.0, "min_final": 0, "max_final": 0}
    return {
        "mean_final": sum(finals) / len(finals),
        "min_final": min(finals),
        "max_final": max(finals),
    }


def coverage_improvement(
    dejavuzz_curve: Sequence[int], baseline_curve: Sequence[int]
) -> Optional[float]:
    """Final-coverage ratio (the paper's headline 4.7x is this quantity)."""
    if not dejavuzz_curve or not baseline_curve or baseline_curve[-1] == 0:
        return None
    return dejavuzz_curve[-1] / baseline_curve[-1]


# -- heterogeneous (cross-core) campaigns ----------------------------------------------------


def per_core_breakdown(campaign: CampaignResult) -> List[Dict[str, object]]:
    """One row per core of a merged heterogeneous campaign.

    Pulls the engine-maintained subtotals (iterations, reports, triggered
    windows) out of ``core_breakdown``.  A serial campaign never populates
    the breakdown, so its single row falls back to the campaign totals and
    the per-core count of the merged report list.
    """
    rows: List[Dict[str, object]] = []
    reports_by_core: Dict[str, int] = {}
    for report in campaign.reports:
        reports_by_core[report.core] = reports_by_core.get(report.core, 0) + 1
    breakdown = campaign.core_breakdown or {campaign.core: {}}
    for core in sorted(breakdown):
        entry = breakdown[core]
        rows.append(
            {
                "core": core,
                "iterations": entry.get("iterations", campaign.iterations_run),
                "reports": entry.get("reports", reports_by_core.get(core, 0)),
                "triggered_windows": entry.get("triggered_windows", 0),
            }
        )
    return rows


def worker_utilization_table(
    task_log: Iterable[Dict[str, object]]
) -> List[Dict[str, object]]:
    """Aggregate a distributed run's task deliveries into one row per worker.

    ``task_log`` is :attr:`repro.core.engine.EngineResult.task_log` (or the
    ``rows`` of a telemetry stream's ``tasks`` records): one entry per merged
    slice task, where the tasks a worker daemon delivered carry its
    ``worker`` id, ``name`` and ``reassigned`` flag.  Each output row sums a
    worker's contribution — tasks delivered, distinct epochs served, total
    task wall seconds executed, and how many of its deliveries were
    *reassignments* (tasks inherited from a worker that died mid-epoch).
    Tasks run without a worker daemon, and workers that joined but never
    delivered a task, do not appear; the log is timing-adjacent diagnostics,
    never part of the deterministic campaign wire forms.
    """
    rows: Dict[str, Dict[str, object]] = {}
    for entry in task_log:
        if "worker" not in entry:
            continue  # run by an in-process backend
        worker = str(entry["worker"])
        row = rows.setdefault(
            worker,
            {
                "worker": worker,
                "name": str(entry.get("name", "")),
                "tasks": 0,
                "epochs": set(),
                "task_seconds": 0.0,
                "reassigned_tasks": 0,
            },
        )
        row["tasks"] += 1
        row["epochs"].add(entry.get("epoch"))
        row["task_seconds"] = round(
            row["task_seconds"] + float(entry.get("wall_seconds", 0.0)), 3
        )
        if entry.get("reassigned"):
            row["reassigned_tasks"] += 1
    finished = []
    for worker in sorted(rows):
        row = dict(rows[worker])
        row["epochs"] = len(rows[worker]["epochs"])
        finished.append(row)
    return finished


def simulator_process_table(
    task_log: Iterable[Dict[str, object]]
) -> List[Dict[str, object]]:
    """Aggregate a subprocess-simulator run's accounting into one row per slice.

    ``task_log`` is :attr:`repro.core.engine.EngineResult.task_log`: the
    tasks executed against an out-of-process simulator server carry its
    process counters (``spawns, restarts, steps, step_seconds_total,
    mean_step_seconds``).  Each output row sums a slice's server-process
    story across the campaign — tasks served, server processes spawned,
    crash/hang recoveries, protocol steps, and the mean per-step wall clock.
    Tasks simulated in-process do not appear.  Like the rest of the task
    log, this is timing-adjacent diagnostics and never part of the
    deterministic campaign wire forms.
    """
    rows: Dict[int, Dict[str, object]] = {}
    for entry in task_log:
        if "spawns" not in entry:
            continue  # simulated in-process
        index = int(entry["slice"])
        row = rows.setdefault(
            index,
            {
                "slice": index,
                "tasks": 0,
                "spawns": 0,
                "restarts": 0,
                "steps": 0,
                "step_seconds_total": 0.0,
            },
        )
        row["tasks"] += 1
        row["spawns"] += int(entry["spawns"])
        row["restarts"] += int(entry["restarts"])
        row["steps"] += int(entry["steps"])
        row["step_seconds_total"] = round(
            row["step_seconds_total"] + float(entry["step_seconds_total"]), 6
        )
    finished = []
    for index in sorted(rows):
        row = dict(rows[index])
        row["mean_step_seconds"] = round(
            row["step_seconds_total"] / row["steps"] if row["steps"] else 0.0, 6
        )
        finished.append(row)
    return finished


def window_batch_table(
    task_log: Iterable[Dict[str, object]]
) -> List[Dict[str, object]]:
    """Aggregate the batch-evaluation counters into one row per slice.

    ``task_log`` is :attr:`repro.core.engine.EngineResult.task_log`: every
    slice-epoch task's row carries the window-batching counters
    (``window_batches, batch_simulations, max_batch, dut_constructions,
    dut_reuses``).  Each output row sums a slice's story across the campaign:
    how many window batches ran, the simulations they performed, the widest
    batch and how often the warm DUT was reused.  The companion of
    :func:`profile_hotspot_table` for the batching layer — diagnostics only,
    never part of the deterministic campaign wire forms.
    """
    rows: Dict[int, Dict[str, object]] = {}
    for entry in task_log:
        index = int(entry["slice"])
        row = rows.setdefault(
            index,
            {
                "slice": index,
                "tasks": 0,
                "batches": 0,
                "batch_simulations": 0,
                "max_batch": 0,
                "dut_constructions": 0,
                "dut_reuses": 0,
            },
        )
        row["tasks"] += 1
        row["batches"] += int(entry["window_batches"])
        row["batch_simulations"] += int(entry["batch_simulations"])
        row["max_batch"] = max(row["max_batch"], int(entry["max_batch"]))
        row["dut_constructions"] += int(entry["dut_constructions"])
        row["dut_reuses"] += int(entry["dut_reuses"])
    return [dict(rows[index]) for index in sorted(rows)]


def profile_hotspot_table(
    task_log: Iterable[Dict[str, object]],
    top: int = 10,
) -> List[Dict[str, object]]:
    """Merge per-slice cProfile reports into one campaign-wide hotspot table.

    ``task_log`` is :attr:`repro.core.engine.EngineResult.task_log`: each
    profiled slice-epoch task's row carries ``profile: [{function, calls,
    tottime, cumtime}]``.  Rows are summed by function across all profiled
    tasks and returned sorted by cumulative time, largest first.  Like the
    rest of the task log this is diagnostics only — it never appears in
    deterministic wire forms or checkpoints.

    A caveat inherent to merging top-N truncations: a function just below
    every task's cut-off is absent here too, so treat the table as "where the
    hot tasks spent their time", not an exact whole-campaign profile.
    """
    merged: Dict[str, Dict[str, object]] = {}
    for entry in task_log:
        for row in entry.get("profile", []):
            name = str(row["function"])
            bucket = merged.setdefault(
                name,
                {"function": name, "calls": 0, "tottime": 0.0, "cumtime": 0.0},
            )
            bucket["calls"] += int(row.get("calls", 0))
            bucket["tottime"] = round(
                bucket["tottime"] + float(row.get("tottime", 0.0)), 6
            )
            bucket["cumtime"] = round(
                bucket["cumtime"] + float(row.get("cumtime", 0.0)), 6
            )
    ordered = sorted(
        merged.values(), key=lambda row: (-row["cumtime"], row["function"])
    )
    return ordered[: top if top and top > 0 else len(ordered)]


def telemetry_table(records: Iterable[Dict[str, object]]) -> Dict[str, object]:
    """Summarize a telemetry record stream into one campaign-status dict.

    ``records`` is any iterable of telemetry records — the in-memory ring on
    :attr:`repro.core.engine.EngineResult.telemetry`, or the JSON lines read
    back from a ``--telemetry-dir`` sink (``repro.analysis.watch`` uses this
    for both the live view and ``--once``).  The summary carries the latest
    round's coverage/iteration figures, an iterations-per-second estimate
    from the round timestamps, the per-worker utilization rollup over the
    streamed task rows, and the final campaign record when the run has ended.
    """
    rounds: List[Dict[str, object]] = []
    task_rows: List[Dict[str, object]] = []
    campaign: Optional[Dict[str, object]] = None
    metrics: Optional[Dict[str, object]] = None
    for record in records:
        kind = record.get("type")
        if kind == "round":
            rounds.append(record)
        elif kind == "tasks":
            task_rows.extend(record["rows"])
        elif kind == "campaign":
            campaign = record
        elif kind == "metrics":
            metrics = record  # cumulative; the latest one wins
    last_round = rounds[-1] if rounds else None
    throughput = None
    if len(rounds) >= 2:
        span = float(rounds[-1].get("ts", 0.0)) - float(rounds[0].get("ts", 0.0))
        done = int(rounds[-1].get("iterations_done", 0)) - int(
            rounds[0].get("iterations_done", 0)
        )
        if span > 0:
            throughput = round(done / span, 2)
    latest = campaign or last_round or {}
    return {
        "rounds": len(rounds),
        "rounds_total": latest.get("rounds_total"),
        "coverage": dict(latest.get("coverage", {})),
        "coverage_total": latest.get("coverage_total"),
        "iterations_done": (
            campaign.get("iterations")
            if campaign is not None
            else (last_round or {}).get("iterations_done")
        ),
        "reports": latest.get("reports"),
        "iterations_per_second": throughput,
        "last_round": last_round,
        "workers": worker_utilization_table(task_rows),
        "campaign": campaign,
        "metrics": metrics,
    }


def latency_percentiles(
    histogram: object, percentiles: Sequence[int] = (50, 90, 99)
) -> Dict[str, object]:
    """Percentile summary of one latency histogram.

    Accepts a live :class:`repro.telemetry.LatencyHistogram` or its
    serialized dict form (as found under ``histograms`` in a telemetry
    ``metrics`` record).  Percentiles are bucket upper bounds — the
    deterministic, merge-stable figure the fixed log-scale buckets support —
    so read them as "no worse than", not exact order statistics.
    """
    from repro.telemetry.metrics import LatencyHistogram

    live = (
        histogram
        if isinstance(histogram, LatencyHistogram)
        else LatencyHistogram.from_dict(histogram)
    )
    summary: Dict[str, object] = {
        "count": live.count,
        "mean_seconds": round(live.mean_seconds(), 6),
    }
    for pct in percentiles:
        summary[f"p{pct}_seconds"] = round(live.percentile(pct), 6)
    return summary


def cross_core_transfer_table(
    transfers: Iterable[Dict[str, object]]
) -> List[Dict[str, object]]:
    """Aggregate the engine's transfer log into a donor-core x target-core table.

    Each row counts the seeds transferred along one (donor core, target core)
    edge, how many of those started slice-epochs that contributed globally-new
    coverage on the target core, the summed new points, and how many of those
    epochs produced bug reports there.  Attribution is epoch-granular — the
    transferred seed opens the receiving epoch and its mutated descendants
    count towards its outcome — so the table reads as "did seeding the other
    core with this donor pay off", not as per-stimulus leakage portability.
    """
    edges: Dict[Tuple[str, str], Dict[str, int]] = {}
    for row in transfers:
        key = (str(row["donor_core"]), str(row["target_core"]))
        edge = edges.setdefault(
            key,
            {"transfers": 0, "productive": 0, "new_points": 0, "with_reports": 0},
        )
        edge["transfers"] += 1
        new_points = row.get("new_global_points")
        if new_points is not None and new_points > 0:
            edge["productive"] += 1
            edge["new_points"] += int(new_points)
        reports = row.get("reports")
        if reports is not None and reports > 0:
            edge["with_reports"] += 1
    return [
        {"donor_core": donor, "target_core": target, **counts}
        for (donor, target), counts in sorted(edges.items())
    ]
