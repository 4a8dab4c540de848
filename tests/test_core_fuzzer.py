"""Tests for the fuzzing manager, its ablation variants and the SpecDoctor baseline."""

import pytest

from repro.baselines import SPECDOCTOR_SUPPORTED_WINDOWS, SpecDoctorConfiguration, SpecDoctorFuzzer
from repro.core import DejaVuzzFuzzer, FuzzerConfiguration, ShardTask, TransientWindowTriggering
from repro.core.backends import ShardCampaignRunner
from repro.core.coverage import TaintCoverageMatrix
from repro.core.fuzzer import LoopState
from repro.generation import TrainingMode, TransientWindowType
from repro.generation.mutation import Mutator
from repro.generation.seeds import Seed
from repro.scenarios.attacks import run_attack
from repro.uarch import (
    TaintTrackingMode,
    large_boom_config,
    small_boom_config,
    xiangshan_minimal_config,
)
from repro.utils.rng import DeterministicRng

BOOM = small_boom_config()


class TestDejaVuzzFuzzer:
    def test_campaign_runs_and_reports(self):
        configuration = FuzzerConfiguration(core=BOOM, entropy=11)
        campaign = DejaVuzzFuzzer(configuration).run_campaign(iterations=20)
        assert campaign.iterations_run == 20
        assert len(campaign.coverage_history) == 20
        assert campaign.coverage_history == sorted(campaign.coverage_history)  # monotone
        assert campaign.final_coverage() > 0
        assert campaign.triggered_windows  # at least one window type triggered
        summary = campaign.summary()
        assert summary["fuzzer"] == "dejavuzz"
        assert summary["core"] == BOOM.name

    def test_campaign_finds_leakages(self):
        configuration = FuzzerConfiguration(core=BOOM, entropy=11)
        campaign = DejaVuzzFuzzer(configuration).run_campaign(iterations=25)
        assert campaign.reports, "expected at least one reported leakage in 25 iterations"
        assert campaign.first_bug_iteration is not None
        assert campaign.table5_rows()

    def test_deterministic_given_entropy(self):
        # Back-to-back campaigns in the same process: seed ids are allocated
        # from a campaign-local counter (not module-global state), so the
        # second run replays the first exactly — histories, reports and the
        # seeds themselves.
        first_fuzzer = DejaVuzzFuzzer(FuzzerConfiguration(core=BOOM, entropy=4))
        second_fuzzer = DejaVuzzFuzzer(FuzzerConfiguration(core=BOOM, entropy=4))
        first = first_fuzzer.run_campaign(8)
        second = second_fuzzer.run_campaign(8)
        assert first.coverage_history == second.coverage_history
        assert first.triggered_windows == second.triggered_windows
        assert [report.seed_id for report in first.reports] == [
            report.seed_id for report in second.reports
        ]
        assert first_fuzzer.top_seeds(5) == second_fuzzer.top_seeds(5)

    def test_variant_names(self):
        assert FuzzerConfiguration(core=BOOM).variant_name() == "dejavuzz"
        assert (
            FuzzerConfiguration(core=BOOM, training_mode=TrainingMode.RANDOM).variant_name()
            == "dejavuzz*"
        )
        assert (
            FuzzerConfiguration(core=BOOM, coverage_feedback=False).variant_name() == "dejavuzz-"
        )

    def test_dejavuzz_star_uses_random_training(self):
        configuration = FuzzerConfiguration(
            core=BOOM, entropy=5, training_mode=TrainingMode.RANDOM
        )
        campaign = DejaVuzzFuzzer(configuration).run_campaign(iterations=10)
        assert campaign.fuzzer_name == "dejavuzz*"
        # Random training keeps whole random packets, so the effective overhead
        # of triggered misprediction windows is much larger than derived training.
        for group, samples in campaign.effective_training_overhead.items():
            if group in ("Branch Misprediction", "Indirect Jump Misprediction",
                         "Return Address Misprediction") and samples:
                assert max(samples) > 10

    def test_dejavuzz_minus_still_measures_coverage(self):
        configuration = FuzzerConfiguration(core=BOOM, entropy=6, coverage_feedback=False)
        campaign = DejaVuzzFuzzer(configuration).run_campaign(iterations=10)
        assert campaign.fuzzer_name == "dejavuzz-"
        assert campaign.final_coverage() >= 0

    def test_progress_callback_invoked(self):
        calls = []
        DejaVuzzFuzzer(FuzzerConfiguration(core=BOOM, entropy=2)).run_campaign(
            iterations=3, progress_callback=lambda i, result: calls.append(i)
        )
        assert calls == [0, 1, 2]


class TestSpecDoctorBaseline:
    def test_supported_window_types_only(self):
        fuzzer = SpecDoctorFuzzer(SpecDoctorConfiguration(core=BOOM, entropy=1))
        with pytest.raises(ValueError):
            fuzzer.generate_stimulus(TransientWindowType.RETURN_MISPREDICTION)
        stimulus = fuzzer.generate_stimulus(TransientWindowType.LOAD_PAGE_FAULT)
        assert stimulus.window_type in SPECDOCTOR_SUPPORTED_WINDOWS

    def test_linear_stimulus_is_single_packet(self):
        fuzzer = SpecDoctorFuzzer(SpecDoctorConfiguration(core=BOOM, entropy=1))
        stimulus = fuzzer.generate_stimulus(TransientWindowType.BRANCH_MISPREDICTION)
        assert len(stimulus.schedule.packets) == 1
        assert stimulus.training_instructions >= 100

    def test_campaign_triggers_windows_and_candidates(self):
        fuzzer = SpecDoctorFuzzer(SpecDoctorConfiguration(core=BOOM, entropy=5))
        campaign = fuzzer.run_campaign(iterations=8)
        assert campaign.fuzzer_name == "specdoctor"
        assert campaign.triggered_windows
        # Only the four supported groups can ever appear.
        supported_groups = {
            "Load/Store Page Fault",
            "Memory Disambiguation",
            "Branch Misprediction",
            "Indirect Jump Misprediction",
        }
        assert set(campaign.triggered_windows) <= supported_groups
        # The unreduced random prefix is counted as training overhead.
        for samples in campaign.training_overhead.values():
            assert min(samples) >= 100

    def test_specdoctor_coverage_grows_slower_than_dejavuzz(self):
        iterations = 12
        dejavuzz = DejaVuzzFuzzer(FuzzerConfiguration(core=BOOM, entropy=7)).run_campaign(iterations)
        specdoctor = SpecDoctorFuzzer(SpecDoctorConfiguration(core=BOOM, entropy=7)).run_campaign(
            iterations
        )
        assert dejavuzz.final_coverage() >= specdoctor.final_coverage()


class TestCrossCoreCampaigns:
    def test_xiangshan_campaign_matches_its_bugs(self):
        configuration = FuzzerConfiguration(core=xiangshan_minimal_config(), entropy=11)
        campaign = DejaVuzzFuzzer(configuration).run_campaign(iterations=20)
        matched = set(campaign.matched_known_bugs())
        for identifier in matched:
            assert identifier in {"meltdown-sampling", "spectre-refetch", "spectre-reload"}

    def test_none_taint_mode_reports_nothing_via_taint(self):
        # The fuzzer always runs diffIFT; the tracking mode is chosen on the
        # dual-DUT harness.  Without IFT there is no coverage signal.
        points = {}
        for mode in (TaintTrackingMode.NONE, TaintTrackingMode.DIFFIFT):
            run = run_attack("spectre-v1", BOOM, taint_mode=mode)
            points[mode] = TaintCoverageMatrix().observe_census_log(
                run.taint_census_log(), cycle_range=run.window_cycle_range
            )
        assert points[TaintTrackingMode.NONE] == 0
        assert points[TaintTrackingMode.DIFFIFT] > 0


def packet_facts(packet):
    return packet.name, packet.instructions, packet.entry_offset, packet.metadata


def schedule_facts(phase1):
    return [packet_facts(packet) for packet in phase1.schedule.packets]


def held_window():
    """The loop state of the first short BOOM campaign that ends holding a
    window."""
    for entropy in range(1, 30):
        fuzzer = DejaVuzzFuzzer(FuzzerConfiguration(core=BOOM, entropy=entropy))
        fuzzer.run_campaign(2)
        if fuzzer.loop_state.window_seed is not None:
            return fuzzer.loop_state
    raise AssertionError("no campaign held a window")


class TestLoopState:
    @pytest.mark.parametrize(
        "core", [BOOM, xiangshan_minimal_config(), large_boom_config()],
        ids=lambda core: core.name,
    )
    def test_the_acquiring_seed_rebuilds_the_window(self, core):
        phase1 = TransientWindowTriggering(core)
        mutator = Mutator(DeterministicRng(5, "mutation"), seed_id_base=900)
        triggered = 0
        for type_index, window_type in enumerate(TransientWindowType):
            for entropy in (1, 2, 3):
                seed = Seed.fresh(
                    seed_id=100 * type_index + entropy, entropy=entropy,
                    window_type=window_type, core=core.name,
                )
                acquired = phase1.run(seed)
                if not acquired.triggered:
                    continue
                triggered += 1
                rebuilt = phase1.rebuild(seed, acquired.kept_training)
                assert rebuilt.simulations_used == 0
                assert packet_facts(rebuilt.spec.packet) == packet_facts(acquired.spec.packet)
                assert schedule_facts(rebuilt) == schedule_facts(acquired)
                assert rebuilt.schedule.name == acquired.schedule.name
                assert (
                    rebuilt.schedule.protect_secret_before_transient
                    == acquired.schedule.protect_secret_before_transient
                )
                assert rebuilt.training_overhead == acquired.training_overhead
                # A window mutation draws a new seed id and entropy, which
                # trigger generation is seeded from: the current seed of a
                # held window does not rebuild it.
                mutated = phase1.rebuild(mutator.mutate_window(seed), acquired.kept_training)
                assert packet_facts(mutated.spec.packet) != packet_facts(acquired.spec.packet)
        assert triggered > 0

    def test_loop_state_round_trips(self):
        state = held_window()
        assert LoopState.from_dict(state.to_dict(), BOOM.name) == state

    def test_a_held_window_runs_no_phase1_before_phase2(self, monkeypatch):
        state = held_window()
        simulations = []
        simulate = TransientWindowTriggering._simulate
        monkeypatch.setattr(
            TransientWindowTriggering,
            "_simulate",
            lambda self, *args: simulations.append(1) or simulate(self, *args),
        )
        runner = ShardCampaignRunner(
            ShardTask(
                slice_index=0, epoch=1, iterations=1,
                configuration=FuzzerConfiguration(core=BOOM, entropy=77, seed_id_base=500),
                loop_state=state,
            )
        )
        step = runner.advance()
        assert step.phase == "explore" and simulations == []
        while runner.advance() is not None:
            pass
        # The resumed window was counted when it was acquired, not again.
        diagnostics = runner.payload["diagnostics"]
        assert diagnostics["window_batches"] == diagnostics["batch_simulations"] == 0
        result = runner.result
        assert result.triggered_windows == {}
        assert result.training_overhead == {}
        assert result.effective_training_overhead == {}

    def test_a_window_seed_of_another_core_is_refused(self):
        # The current seed was transferred, but the window it would resume
        # was acquired on BOOM.
        state = held_window()
        moved = state.seed.transfer("xiangshan-minimal", seed_id=3)
        fuzzer = DejaVuzzFuzzer(FuzzerConfiguration(core=xiangshan_minimal_config()))
        with pytest.raises(ValueError, match="transfer it before running"):
            fuzzer.run_campaign(1, loop_state=LoopState(moved, window_seed=state.window_seed))
