"""Integration tests for the three DejaVuzz phases."""

import pytest

from repro.core.coverage import TaintCoverageMatrix
from repro.core.phase1 import TransientWindowTriggering
from repro.core.phase2 import TransientExecutionExploration
from repro.core.phase3 import TransientLeakageAnalysis
from repro.core.report import classify_report
from repro.generation import EncodeStrategy, Seed, TransientWindowType
from repro.swapmem import PacketKind
from repro.uarch import small_boom_config, xiangshan_minimal_config

BOOM = small_boom_config()
XIANGSHAN = xiangshan_minimal_config()


def triggered_phase1(window_type, entropy=3, config=BOOM, **phase1_kwargs):
    phase1 = TransientWindowTriggering(config, **phase1_kwargs)
    for attempt in range(6):
        seed = Seed.fresh(
            entropy=entropy + attempt * 1000,
            window_type=window_type,
            encode_strategies=(EncodeStrategy.DCACHE_INDEX,),
        )
        result = phase1.run(seed)
        if result.triggered:
            return result, seed
    pytest.fail(f"could not trigger {window_type.value} within 6 attempts")


class TestPhase1:
    def test_exception_windows_need_no_training(self):
        result, _ = triggered_phase1(TransientWindowType.LOAD_PAGE_FAULT)
        assert result.training_overhead == 0
        assert result.effective_training_overhead == 0
        assert result.training_required is False

    def test_misprediction_windows_keep_targeted_training(self):
        result, _ = triggered_phase1(TransientWindowType.BRANCH_MISPREDICTION)
        assert result.training_required is True
        assert result.training_overhead > 50          # nop padding dominates (TO)
        assert 1 <= result.effective_training_overhead <= 8  # but few real instructions (ETO)

    def test_training_reduction_prunes_decoys(self):
        result, _ = triggered_phase1(TransientWindowType.RETURN_MISPREDICTION)
        # Three candidates generated, only the derived one survives reduction.
        assert len(result.schedule.training_packets()) == 1

    def test_boom_illegal_instruction_never_triggers(self):
        phase1 = TransientWindowTriggering(BOOM)
        failures = [
            phase1.run(
                Seed.fresh(entropy=e, window_type=TransientWindowType.ILLEGAL_INSTRUCTION)
            ).triggered
            for e in range(3)
        ]
        assert not any(failures)

    def test_xiangshan_illegal_instruction_triggers(self):
        result, _ = triggered_phase1(
            TransientWindowType.ILLEGAL_INSTRUCTION, config=XIANGSHAN
        )
        assert result.triggered

    def test_simulation_budget_reported(self):
        result, _ = triggered_phase1(TransientWindowType.BRANCH_MISPREDICTION)
        # Baseline simulation plus one re-simulation per candidate training packet.
        assert result.simulations_used >= 2


class TestPhase2:
    def test_secret_propagates_and_creates_coverage(self):
        phase1_result, seed = triggered_phase1(TransientWindowType.LOAD_PAGE_FAULT)
        coverage = TaintCoverageMatrix()
        phase2 = TransientExecutionExploration(BOOM)
        result = phase2.run(phase1_result, seed, coverage)
        assert result.taint_increased
        assert result.new_coverage_points > 0
        assert result.window_cycle_range is not None
        assert len(coverage) == result.new_coverage_points

    def test_completed_schedule_contains_window_training(self):
        phase1_result, seed = triggered_phase1(TransientWindowType.BRANCH_MISPREDICTION)
        phase2 = TransientExecutionExploration(BOOM)
        schedule = phase2.complete_window(phase1_result, seed)
        assert any(p.kind is PacketKind.WINDOW_TRAINING for p in schedule.packets)
        transient = schedule.transient_packet()
        assert transient.metadata.get("window_completed") is True

    def test_second_identical_run_adds_no_coverage(self):
        phase1_result, seed = triggered_phase1(TransientWindowType.LOAD_PAGE_FAULT)
        coverage = TaintCoverageMatrix()
        phase2 = TransientExecutionExploration(BOOM)
        first = phase2.run(phase1_result, seed, coverage)
        second = phase2.run(phase1_result, seed, coverage)
        assert first.new_coverage_points > 0
        assert second.new_coverage_points == 0


class TestPhase3:
    def _phase2_result(self, window_type, strategies=(EncodeStrategy.DCACHE_INDEX,), config=BOOM):
        phase1_result, seed = triggered_phase1(window_type, config=config)
        seed = seed.mutated(encode_strategies=strategies)
        phase2 = TransientExecutionExploration(config)
        return phase2.run(phase1_result, seed, TaintCoverageMatrix())

    def test_dcache_encoding_is_exploitable(self):
        phase2_result = self._phase2_result(TransientWindowType.LOAD_PAGE_FAULT)
        phase3 = TransientLeakageAnalysis(BOOM)
        result = phase3.run(phase2_result)
        assert result.verdict.is_leak
        assert result.verdict.reason in ("live_taint", "timing")
        if result.verdict.reason == "live_taint":
            assert "dcache" in result.verdict.live_sinks

    def test_sanitized_run_removes_encode_taint(self):
        phase2_result = self._phase2_result(TransientWindowType.BRANCH_MISPREDICTION)
        phase3 = TransientLeakageAnalysis(BOOM)
        sanitized = phase3.sanitize_and_rerun(phase2_result.schedule, phase2_result.seed)
        encoded = phase3.encoded_taints(phase2_result.run, sanitized)
        assert encoded  # the encoding block is responsible for extra taints

    def test_liveness_annotations_filter_residual_taint(self):
        phase2_result = self._phase2_result(TransientWindowType.LOAD_PAGE_FAULT)
        with_liveness = TransientLeakageAnalysis(BOOM, use_liveness_annotations=True).run(
            phase2_result
        )
        without_liveness = TransientLeakageAnalysis(BOOM, use_liveness_annotations=False).run(
            phase2_result
        )
        live_with = set(with_liveness.verdict.live_sinks)
        live_without = set(without_liveness.verdict.live_sinks)
        assert live_with <= live_without

    def test_report_classification(self):
        phase2_result = self._phase2_result(TransientWindowType.LOAD_PAGE_FAULT)
        verdict = TransientLeakageAnalysis(BOOM).run(phase2_result).verdict
        report = classify_report(
            iteration=3,
            seed_id=phase2_result.seed.seed_id,
            core_name=BOOM.name,
            window_type=TransientWindowType.LOAD_PAGE_FAULT,
            verdict=verdict,
        )
        assert report.attack_type == "meltdown"
        assert report.window_category == "mem-excp"
        assert report.timing_components
        assert "meltdown" in report.describe()

    def test_spectre_classification(self):
        phase2_result = self._phase2_result(TransientWindowType.RETURN_MISPREDICTION)
        verdict = TransientLeakageAnalysis(BOOM).run(phase2_result).verdict
        report = classify_report(
            iteration=0,
            seed_id=0,
            core_name=BOOM.name,
            window_type=TransientWindowType.RETURN_MISPREDICTION,
            verdict=verdict,
        )
        assert report.attack_type == "spectre"
        assert report.window_category == "mispred"
