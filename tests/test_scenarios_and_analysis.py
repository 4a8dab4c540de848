"""Tests for the attack-scenario library, analysis helpers and bug ablations."""

import pytest

from repro.analysis import (
    TaintCurve,
    coverage_curve_statistics,
    coverage_improvement,
    cross_core_transfer_table,
    extract_taint_curve,
    per_core_breakdown,
    summarize_training_overhead,
    training_overhead_table,
)
from repro.core import DejaVuzzFuzzer, FuzzerConfiguration
from repro.core.report import CampaignResult
from repro.scenarios import ATTACK_SCENARIOS, build_attack_schedule, run_attack
from repro.swapmem import PacketKind
from repro.uarch import TaintTrackingMode, small_boom_config, xiangshan_minimal_config

BOOM = small_boom_config()


def _peak_taint_bits(result):
    return extract_taint_curve(result.primary.processor.taint.census_log, "primary").peak()


class TestAttackScenarios:
    def test_all_five_scenarios_registered(self):
        assert set(ATTACK_SCENARIOS) == {
            "spectre-v1",
            "spectre-v2",
            "spectre-rsb",
            "spectre-v4",
            "meltdown",
        }

    @pytest.mark.parametrize("name", sorted(ATTACK_SCENARIOS))
    def test_scenarios_trigger_on_boom(self, name):
        result = run_attack(name, BOOM, taint_mode=TaintTrackingMode.DIFFIFT)
        assert result.window_triggered
        assert _peak_taint_bits(result) > 0

    def test_build_attack_schedule_returns_completed_window(self):
        schedule, seed = build_attack_schedule("spectre-v1", BOOM)
        transient = schedule.transient_packet()
        assert transient.metadata.get("window_completed") is True
        assert any(p.kind is PacketKind.WINDOW_TRAINING for p in schedule.packets)
        assert seed.window_type.name == "BRANCH_MISPREDICTION"

    def test_unknown_scenario_rejected(self):
        with pytest.raises(KeyError):
            build_attack_schedule("spectre-v99", BOOM)

    def test_cellift_taints_more_than_diffift(self):
        """The Figure 6 relationship: CellIFT over-taints, diffIFT stays bounded."""
        diff_result = run_attack("spectre-v1", BOOM, taint_mode=TaintTrackingMode.DIFFIFT)
        cell_result = run_attack("spectre-v1", BOOM, taint_mode=TaintTrackingMode.CELLIFT)
        diff_peak = _peak_taint_bits(diff_result)
        cell_peak = _peak_taint_bits(cell_result)
        assert cell_peak > 5 * diff_peak

    def test_false_negative_mode_suppresses_control_taints(self):
        diff_result = run_attack("meltdown", BOOM, taint_mode=TaintTrackingMode.DIFFIFT)
        fn_result = run_attack(
            "meltdown", BOOM, taint_mode=TaintTrackingMode.DIFFIFT, false_negative_mode=True
        )
        diff_peak = _peak_taint_bits(diff_result)
        fn_peak = _peak_taint_bits(fn_result)
        assert fn_peak <= diff_peak
        # Data taints still propagate in the false-negative case.
        assert fn_peak > 0


class TestBugAblations:
    def test_phantom_rsb_requires_the_bug(self):
        """B2: transiently written RAS entries survive only on the buggy core."""
        buggy = run_attack("spectre-rsb", small_boom_config())
        patched = run_attack("spectre-rsb", small_boom_config(enable_bugs=False))
        assert buggy.window_triggered and patched.window_triggered
        buggy_ras = buggy.primary.processor.predictors.ras
        patched_ras = patched.primary.processor.predictors.ras
        assert buggy_ras.restore_below_tos is False
        assert patched_ras.restore_below_tos is True

    def test_spectre_reload_contention_only_with_bug(self):
        """B5: the shared load write-back port only exists on the buggy core."""
        buggy = run_attack("spectre-v1", xiangshan_minimal_config())
        patched = run_attack("spectre-v1", xiangshan_minimal_config(enable_bugs=False))
        assert buggy.primary.processor.lsu.writeback_port_shared is True
        assert patched.primary.processor.lsu.writeback_port_shared is False

    def test_patched_core_produces_fewer_or_equal_findings(self):
        buggy_campaign = DejaVuzzFuzzer(
            FuzzerConfiguration(core=xiangshan_minimal_config(), entropy=13)
        ).run_campaign(12)
        patched_campaign = DejaVuzzFuzzer(
            FuzzerConfiguration(core=xiangshan_minimal_config(enable_bugs=False), entropy=13)
        ).run_campaign(12)
        assert len(patched_campaign.matched_known_bugs()) <= len(buggy_campaign.matched_known_bugs())


class TestAnalysisHelpers:
    def test_taint_curve_extraction(self):
        from repro.uarch.taint import TaintCensus

        log = [
            TaintCensus(cycle=10, element_counts={"dcache": 1}),
            TaintCensus(cycle=11, element_counts={"dcache": 2}),
        ]
        curve = extract_taint_curve(log, label="diffIFT", cycle_offset=10)
        assert curve.cycles == [0, 1]
        assert curve.peak() == curve.final() == 2 * 512

    def test_empty_curve(self):
        curve = TaintCurve(label="empty")
        assert curve.peak() == 0 and curve.final() == 0

    def test_summarize_training_overhead(self):
        assert summarize_training_overhead([]) is None
        assert summarize_training_overhead([10, 20]) == 15

    def test_training_overhead_table_marks_missing_types(self):
        campaign = CampaignResult(fuzzer_name="dejavuzz", core="small-boom")
        campaign.training_overhead["Branch Misprediction"] = [100, 110]
        campaign.effective_training_overhead["Branch Misprediction"] = [2, 4]
        rows = training_overhead_table({"dejavuzz": campaign})
        row = rows[0]
        assert row["Branch Misprediction"] == (105.0, 3.0)
        assert row["Illegal Instruction"] is None

    def test_coverage_statistics_and_improvement(self):
        stats = coverage_curve_statistics([[1, 5, 9], [2, 4, 11]])
        assert stats["mean_final"] == 10
        assert coverage_improvement([0, 10, 47], [0, 5, 10]) == pytest.approx(4.7)
        assert coverage_improvement([], [1]) is None

    def test_per_core_breakdown_rows(self):
        campaign = CampaignResult(fuzzer_name="dejavuzz", core="small-boom+xiangshan-minimal")
        campaign.core_breakdown = {
            "xiangshan-minimal": {"iterations": 8, "reports": 2, "triggered_windows": 3},
            "small-boom": {"iterations": 10, "reports": 1, "triggered_windows": 4},
        }
        rows = per_core_breakdown(campaign)
        assert [row["core"] for row in rows] == ["small-boom", "xiangshan-minimal"]
        assert rows[0]["iterations"] == 10 and rows[1]["reports"] == 2

    def test_per_core_breakdown_falls_back_for_serial_campaigns(self):
        campaign = CampaignResult(fuzzer_name="dejavuzz", core="small-boom")
        campaign.iterations_run = 6
        rows = per_core_breakdown(campaign)
        assert rows == [
            {"core": "small-boom", "iterations": 6, "reports": 0, "triggered_windows": 0}
        ]

    def test_worker_utilization_table_aggregates_deliveries(self):
        from repro.analysis import worker_utilization_table

        log = [
            {"worker": "w001", "name": "hostB:9", "epoch": 0, "slice": 1,
             "wall_seconds": 0.4, "reassigned": False},
            {"worker": "w000", "name": "hostA:7", "epoch": 0, "slice": 0,
             "wall_seconds": 0.5, "reassigned": False},
            {"worker": "w000", "name": "hostA:7", "epoch": 1, "slice": 1,
             "wall_seconds": 0.25, "reassigned": True},
            {"worker": "w000", "name": "hostA:7", "epoch": 1, "slice": 0,
             "wall_seconds": 0.25, "reassigned": False},
            # A task run in-process has no delivering worker.
            {"epoch": 1, "slice": 2, "wall_seconds": 0.3},
        ]
        rows = worker_utilization_table(log)
        assert [row["worker"] for row in rows] == ["w000", "w001"]
        w0 = rows[0]
        assert w0["tasks"] == 3
        assert w0["epochs"] == 2
        assert w0["task_seconds"] == pytest.approx(1.0)
        assert w0["reassigned_tasks"] == 1  # inherited from the dead worker
        assert rows[1] == {
            "worker": "w001", "name": "hostB:9", "tasks": 1, "epochs": 1,
            "task_seconds": 0.4, "reassigned_tasks": 0,
        }
        assert worker_utilization_table([]) == []

    def test_simulator_process_table_aggregates_per_slice(self):
        from repro.analysis import simulator_process_table

        log = [
            {"slice": 1, "epoch": 0, "spawns": 1, "restarts": 0,
             "steps": 10, "step_seconds_total": 0.5, "mean_step_seconds": 0.05},
            {"slice": 0, "epoch": 0, "spawns": 1, "restarts": 0,
             "steps": 8, "step_seconds_total": 0.4, "mean_step_seconds": 0.05},
            {"slice": 0, "epoch": 1, "spawns": 1, "restarts": 1,
             "steps": 12, "step_seconds_total": 0.2, "mean_step_seconds": 0.0167},
            # A task simulated in-process carries no process counters.
            {"slice": 2, "epoch": 1, "window_batches": 3},
        ]
        rows = simulator_process_table(log)
        assert [row["slice"] for row in rows] == [0, 1]
        slice0 = rows[0]
        assert slice0["tasks"] == 2
        assert slice0["spawns"] == 2
        assert slice0["restarts"] == 1  # the epoch-1 crash recovery
        assert slice0["steps"] == 20
        assert slice0["step_seconds_total"] == pytest.approx(0.6)
        assert slice0["mean_step_seconds"] == pytest.approx(0.03)
        assert rows[1]["tasks"] == 1 and rows[1]["restarts"] == 0
        assert simulator_process_table([]) == []

    def test_cross_core_transfer_table_aggregates_edges(self):
        transfers = [
            {"donor_core": "small-boom", "target_core": "xiangshan-minimal",
             "new_global_points": 4, "reports": 1},
            {"donor_core": "small-boom", "target_core": "xiangshan-minimal",
             "new_global_points": 0, "reports": 0},
            {"donor_core": "xiangshan-minimal", "target_core": "small-boom",
             "new_global_points": None, "reports": None},
        ]
        rows = cross_core_transfer_table(transfers)
        assert len(rows) == 2
        boom_to_xs = rows[0]
        assert boom_to_xs["donor_core"] == "small-boom"
        assert boom_to_xs["transfers"] == 2
        assert boom_to_xs["productive"] == 1
        assert boom_to_xs["new_points"] == 4
        assert boom_to_xs["with_reports"] == 1
        # A transfer that never ran (no next epoch) counts as not productive.
        assert rows[1]["transfers"] == 1 and rows[1]["productive"] == 0
        assert cross_core_transfer_table([]) == []
