"""Tests for the sharded parallel campaign engine, the shared corpus and the
wire-format serialization that carries state between executor processes."""

import json

import pytest

from repro.core import (
    CampaignResult,
    CorpusEntry,
    CoveragePoint,
    DejaVuzzFuzzer,
    EngineConfiguration,
    FuzzerConfiguration,
    LeakageVerdict,
    ParallelCampaignEngine,
    SharedCorpus,
    run_parallel_campaign,
)
from repro.core.engine import (
    TRANSFER_SEED_ID_BASE,
    CampaignScheduler,
    ShardTask,
    build_parser,
    core_registry_lines,
    main as engine_main,
    resolve_core,
    run_shard_task,
)
from repro.core.report import BugReport
from repro.generation.seeds import EncodeStrategy, Seed
from repro.generation.window_types import TransientWindowType, group_of
from repro.uarch import small_boom_config, xiangshan_minimal_config

BOOM = small_boom_config()
XIANGSHAN = xiangshan_minimal_config()


def make_seed(seed_id=7, entropy=123, **kwargs):
    return Seed.fresh(
        seed_id=seed_id,
        entropy=entropy,
        window_type=TransientWindowType.LOAD_PAGE_FAULT,
        **kwargs,
    )


class TestWireFormats:
    def test_seed_roundtrip(self):
        seed = make_seed(
            encode_strategies=(EncodeStrategy.TLB_INDEX, EncodeStrategy.FPU_CONTENTION),
            mask_high_bits=True,
        )
        child = seed.mutated(seed_id=99, entropy=456)
        rebuilt = Seed.from_dict(child.to_dict())
        assert rebuilt == child
        # The per-seed rng stream depends on (entropy, seed_id): a faithful
        # round trip must reproduce it exactly.
        assert rebuilt.rng("phase1").randint(0, 10**6) == child.rng("phase1").randint(0, 10**6)

    def test_seed_from_dict_does_not_touch_the_id_counter(self):
        before = make_seed(seed_id=None).seed_id
        Seed.from_dict(make_seed(seed_id=1234).to_dict())
        after = make_seed(seed_id=None).seed_id
        assert after == before + 1

    def test_coverage_point_roundtrip(self):
        point = CoveragePoint(module="dcache", tainted_count=3)
        assert CoveragePoint.from_dict(point.to_dict()) == point

    def test_leakage_verdict_roundtrip(self):
        verdict = LeakageVerdict(
            is_leak=True,
            reason="live_taint",
            timing_difference=0,
            live_sinks={"dcache": 2},
            dead_sinks={"rob": 1},
            encoded_sinks={"dcache": 2, "rob": 1},
        )
        assert LeakageVerdict.from_dict(verdict.to_dict()) == verdict

    def test_bug_report_roundtrip(self):
        report = BugReport(
            iteration=4,
            seed_id=11,
            core="small-boom",
            window_type=TransientWindowType.BRANCH_MISPREDICTION,
            attack_type="spectre",
            window_category="mispred",
            timing_components=("dcache",),
            verdict=LeakageVerdict(is_leak=True, reason="timing", timing_difference=3),
            wall_clock_seconds=1.5,
            matched_known_bugs=("phantom-btb",),
        )
        assert BugReport.from_dict(report.to_dict()) == report

    def test_campaign_result_roundtrip(self):
        campaign = DejaVuzzFuzzer(FuzzerConfiguration(core=BOOM, entropy=3)).run_campaign(6)
        rebuilt = CampaignResult.from_dict(campaign.to_dict())
        assert rebuilt.coverage_history == campaign.coverage_history
        assert rebuilt.iterations_run == campaign.iterations_run
        assert rebuilt.reports == campaign.reports
        assert rebuilt.triggered_windows == campaign.triggered_windows
        assert rebuilt.summary()["unique_bugs"] == campaign.summary()["unique_bugs"]


class TestSharedCorpus:
    def test_ranked_by_gain_with_deterministic_ties(self):
        corpus = SharedCorpus()
        corpus.add(make_seed(seed_id=1), gain=5, slice_index=0, epoch=0)
        corpus.add(make_seed(seed_id=2), gain=9, slice_index=1, epoch=0)
        corpus.add(make_seed(seed_id=3), gain=5, slice_index=0, epoch=0)
        best = corpus.best(3)
        assert [entry.seed.seed_id for entry in best] == [2, 1, 3]

    def test_higher_gain_updates_existing_entry(self):
        corpus = SharedCorpus()
        corpus.add(make_seed(seed_id=1), gain=2, slice_index=0, epoch=0)
        corpus.add(make_seed(seed_id=1), gain=8, slice_index=0, epoch=1)
        corpus.add(make_seed(seed_id=1), gain=4, slice_index=0, epoch=2)
        assert len(corpus) == 1
        assert corpus.best(1)[0].gain == 8

    def test_capacity_trim_keeps_top_gain(self):
        corpus = SharedCorpus(capacity=2)
        for seed_id, gain in ((1, 1), (2, 9), (3, 5)):
            corpus.add(make_seed(seed_id=seed_id), gain=gain, slice_index=0, epoch=0)
        assert len(corpus) == 2
        assert [entry.seed.seed_id for entry in corpus.best(2)] == [2, 3]

    def test_adding_a_low_gain_seed_to_a_full_corpus_does_not_crash(self):
        # Regression: the freshly-offered entry can be the one trimmed away;
        # add() must still return it instead of raising KeyError.
        corpus = SharedCorpus(capacity=2)
        corpus.add(make_seed(seed_id=1), gain=9, slice_index=0, epoch=0)
        corpus.add(make_seed(seed_id=2), gain=5, slice_index=0, epoch=0)
        evicted = corpus.add(make_seed(seed_id=3), gain=1, slice_index=1, epoch=0)
        assert evicted.seed.seed_id == 3
        assert len(corpus) == 2
        assert [entry.seed.seed_id for entry in corpus.best(2)] == [1, 2]

    def test_exclude_slice_skips_own_seeds(self):
        corpus = SharedCorpus()
        corpus.add(make_seed(seed_id=1), gain=9, slice_index=0, epoch=0)
        corpus.add(make_seed(seed_id=2), gain=1, slice_index=1, epoch=0)
        best = corpus.best(1, exclude_slice=0)
        assert best[0].seed.seed_id == 2

    def test_wire_roundtrip(self):
        corpus = SharedCorpus()
        corpus.add(make_seed(seed_id=1), gain=3, slice_index=0, epoch=1)
        rebuilt = SharedCorpus()
        rebuilt.extend(CorpusEntry.from_dict(entry) for entry in corpus.to_dicts())
        assert rebuilt.best(1)[0].seed == corpus.best(1)[0].seed

    def test_wire_roundtrip_preserves_the_core_tag(self):
        corpus = SharedCorpus()
        corpus.add(make_seed(seed_id=1), gain=3, slice_index=0, epoch=1, core="small-boom")
        corpus.add(make_seed(seed_id=2), gain=5, slice_index=1, epoch=1, core="xiangshan-minimal")
        rebuilt = SharedCorpus()
        rebuilt.extend(CorpusEntry.from_dict(entry) for entry in corpus.to_dicts())
        assert [entry.core for entry in rebuilt.best(2)] == [
            "xiangshan-minimal",
            "small-boom",
        ]
        assert rebuilt.cores() == ["small-boom", "xiangshan-minimal"]

    def test_core_tag_defaults_to_the_seed_realization(self):
        corpus = SharedCorpus()
        seed = Seed.from_dict({**make_seed(seed_id=4).to_dict(), "core": "small-boom"})
        entry = corpus.add(seed, gain=1, slice_index=0, epoch=0)
        assert entry.core == "small-boom"

    def test_best_filters_by_compatible_core(self):
        corpus = SharedCorpus()
        corpus.add(make_seed(seed_id=1), gain=9, slice_index=0, epoch=0, core="small-boom")
        corpus.add(make_seed(seed_id=2), gain=5, slice_index=1, epoch=0, core="xiangshan-minimal")
        corpus.add(make_seed(seed_id=3), gain=1, slice_index=2, epoch=0, core="")
        picked = corpus.best(3, core="xiangshan-minimal")
        # The foreign (boom) entry is filtered out; the untagged one ranks.
        assert [entry.seed.seed_id for entry in picked] == [2, 3]

    def test_eviction_drops_the_lowest_gain_first(self):
        corpus = SharedCorpus(capacity=3)
        for seed_id, gain in ((1, 4), (2, 8), (3, 6), (4, 7), (5, 5)):
            corpus.add(make_seed(seed_id=seed_id), gain=gain, slice_index=0, epoch=0)
        # Capacity 3: gains 4 then 5 were evicted, in that order.
        assert [entry.seed.seed_id for entry in corpus.best(3)] == [2, 4, 3]

    def test_eviction_ties_break_on_seed_id(self):
        corpus = SharedCorpus(capacity=2)
        for seed_id in (30, 10, 20):
            corpus.add(make_seed(seed_id=seed_id), gain=5, slice_index=0, epoch=0)
        # All gains equal: the lowest seed ids survive, insertion order moot.
        assert [entry.seed.seed_id for entry in corpus.best(2)] == [10, 20]

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            SharedCorpus(capacity=0)


class TestShardTask:
    def test_shard_task_is_a_pure_function_of_its_payload(self):
        task = ShardTask(
            slice_index=0,
            epoch=0,
            iterations=4,
            configuration=FuzzerConfiguration(core=BOOM, entropy=31, seed_id_base=10),
        )
        first = run_shard_task(task)
        second = run_shard_task(task)
        assert first["points"] == second["points"]
        assert first["result"]["coverage_history"] == second["result"]["coverage_history"]
        assert first["top_seeds"] == second["top_seeds"]

    def test_baseline_points_are_not_reported_back(self):
        baseline = [{"module": "dcache", "tainted_count": 1}]
        task = ShardTask(
            slice_index=0,
            epoch=0,
            iterations=3,
            configuration=FuzzerConfiguration(core=BOOM, entropy=31),
            baseline_points=baseline,
        )
        payload = run_shard_task(task)
        # Reported points are (final - baseline): the preloaded global point
        # must never be echoed back as a shard observation.
        assert {"module": "dcache", "tainted_count": 1} not in payload["points"]


class TestParallelCampaignEngine:
    def test_budget_split_is_exact(self):
        engine = ParallelCampaignEngine(
            EngineConfiguration(
                fuzzer=FuzzerConfiguration(core=BOOM, entropy=1),
                shards=3,
                iterations=17,
                sync_epochs=2,
            )
        )
        budgets = engine.scheduler.epoch_budgets()
        assert sum(sum(epoch) for epoch in budgets) == 17
        # One budget entry per *logical slice* (default max(shards, 16)),
        # not per physical shard.
        slices = engine.configuration.slices
        assert slices == 16
        assert len(budgets) == 2 and all(len(epoch) == slices for epoch in budgets)

    def test_runs_full_budget_and_merges_supersets(self):
        result = run_parallel_campaign(
            BOOM, shards=2, iterations=12, sync_epochs=2, entropy=7, executor="inline"
        )
        assert result.campaign.iterations_run == 12
        assert len(result.coverage) > 0
        for slice_index, points in result.slice_points.items():
            assert points <= result.coverage.points, f"slice {slice_index} not a subset"
        # The merged curve is the engine's epoch-by-epoch history: monotone.
        history = result.campaign.coverage_history
        assert history == sorted(history)
        assert history[-1] == len(result.coverage)

    def test_a_registry_name_is_accepted_as_core(self):
        result = run_parallel_campaign(core="boom", iterations=2, executor="inline")
        assert result.campaign.core == BOOM.name
        assert result.campaign.iterations_run == 2

    def test_fuzzer_configuration_refuses_a_core_that_is_no_core_config(self):
        with pytest.raises(ValueError, match="CoreConfig"):
            FuzzerConfiguration(core="boom")

    def test_deterministic_given_root_entropy(self):
        first = run_parallel_campaign(
            BOOM, shards=2, iterations=10, sync_epochs=2, entropy=5, executor="inline"
        )
        second = run_parallel_campaign(
            BOOM, shards=2, iterations=10, sync_epochs=2, entropy=5, executor="inline"
        )
        assert first.coverage.points == second.coverage.points
        assert first.campaign.coverage_history == second.campaign.coverage_history
        assert first.campaign.triggered_windows == second.campaign.triggered_windows
        assert [r.signature for r in first.campaign.reports] == [
            r.signature for r in second.campaign.reports
        ]

    def test_redistribution_reaches_lagging_shards(self):
        result = run_parallel_campaign(
            BOOM, shards=2, iterations=12, sync_epochs=3, entropy=7, executor="inline"
        )
        assert result.redistributed_seeds > 0

    def test_redistribution_assigns_distinct_seeds(self):
        from repro.core.engine import ParallelCampaignEngine as Engine

        engine = Engine(
            EngineConfiguration(
                fuzzer=FuzzerConfiguration(core=BOOM, entropy=1),
                shards=3,
            )
        )
        engine.scheduler.state.corpus.add(make_seed(seed_id=100), gain=9, slice_index=2, epoch=0)
        engine.scheduler.state.corpus.add(make_seed(seed_id=200), gain=5, slice_index=2, epoch=0)
        from repro.core.engine import EngineResult
        from repro.core.coverage import TaintCoverageMatrix
        from repro.core.report import CampaignResult

        result = EngineResult(
            campaign=CampaignResult(fuzzer_name="dejavuzz", core=BOOM.name),
            core_coverage={BOOM.name: TaintCoverageMatrix()},
            shards=3,
            epochs=1,
        )
        assignments = engine.scheduler._redistribute({0: 0, 1: 1, 2: 10}, result)
        # Shards 0 and 1 lag; they must receive two *different* donor seeds.
        assert assignments[0] is not None and assignments[1] is not None
        assert assignments[0]["seed_id"] != assignments[1]["seed_id"]
        assert result.redistributed_seeds == 2

        # A shard with no iterations left next epoch must not receive (and
        # silently drop) a donor seed; the redistribution slot moves to the
        # next-lagging shard instead (shard 2 donated both corpus seeds, so it
        # is excluded from receiving them back).
        result.redistributed_seeds = 0
        assignments = engine.scheduler._redistribute(
            {0: 0, 1: 1, 2: 10}, result, next_budgets=[0, 1, 1]
        )
        assert assignments[0] is None
        assert assignments[1] is not None
        assert result.redistributed_seeds == 1

    def test_first_bug_iteration_is_rebased_across_epochs(self):
        result = run_parallel_campaign(
            BOOM, shards=2, iterations=16, sync_epochs=2, entropy=7, executor="inline"
        )
        if result.campaign.first_bug_iteration is not None:
            # Rebased to shard-cumulative iterations: can never exceed the
            # per-shard total budget.
            assert 0 <= result.campaign.first_bug_iteration < 16
            # Merged reports sit on the same rebased timeline, so the earliest
            # report agrees with the aggregate first-bug metric.
            assert result.campaign.reports
            assert (
                min(report.iteration for report in result.campaign.reports)
                == result.campaign.first_bug_iteration
            )

    def test_slice_seed_ids_never_collide(self):
        bases = {
            CampaignScheduler.slice_seed_id_base(index, epoch)
            for index in range(8)
            for epoch in range(4)
        }
        assert len(bases) == 8 * 4

    def test_rejects_bad_configuration(self):
        with pytest.raises(ValueError):
            EngineConfiguration(fuzzer=FuzzerConfiguration(core=BOOM), shards=0)
        with pytest.raises(ValueError):
            EngineConfiguration(fuzzer=FuzzerConfiguration(core=BOOM), executor="threads")
        with pytest.raises(ValueError):
            EngineConfiguration(fuzzer=FuzzerConfiguration(core=BOOM), iterations=0)
        with pytest.raises(ValueError):
            EngineConfiguration(fuzzer=FuzzerConfiguration(core=BOOM), max_workers=0)
        with pytest.raises(ValueError, match="sync_epochs"):
            EngineConfiguration(fuzzer=FuzzerConfiguration(core=BOOM), sync_epochs=0)
        with pytest.raises(ValueError, match="sync_epochs"):
            EngineConfiguration(fuzzer=FuzzerConfiguration(core=BOOM), sync_epochs=-3)
        for latency in (-0.1, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="step_latency"):
                EngineConfiguration(
                    fuzzer=FuzzerConfiguration(core=BOOM), step_latency=latency
                )
        # Slice-epoch seed-id bases must never reach the transfer namespace
        # (slice 99 epoch 0 would land exactly on TRANSFER_SEED_ID_BASE).
        with pytest.raises(ValueError, match="seed-id namespace"):
            EngineConfiguration(fuzzer=FuzzerConfiguration(core=BOOM), shards=100)
        EngineConfiguration(fuzzer=FuzzerConfiguration(core=BOOM), shards=98)

    def test_seed_id_namespace_boundaries(self):
        # Exactly-full epoch namespace: 100 epochs fill one slice's stride
        # to the brim (100 * EPOCH_ID_STRIDE == SLICE_ID_STRIDE) and pass...
        EngineConfiguration(
            fuzzer=FuzzerConfiguration(core=BOOM),
            shards=2, iterations=101, sync_epochs=100,
        )
        # ...while one more epoch spills into the next slice's stride.
        with pytest.raises(ValueError, match="slice's seed-id stride"):
            EngineConfiguration(
                fuzzer=FuzzerConfiguration(core=BOOM),
                shards=2, iterations=102, sync_epochs=101,
            )
        # Exactly-full slice namespace: the highest slice-epoch base plus one
        # stride lands exactly on TRANSFER_SEED_ID_BASE and passes...
        EngineConfiguration(
            fuzzer=FuzzerConfiguration(core=BOOM),
            shards=2, slices=99, iterations=101, sync_epochs=100,
        )
        # ...while one more slice crosses into the transfer namespace.
        with pytest.raises(ValueError, match="seed-id namespace"):
            EngineConfiguration(
                fuzzer=FuzzerConfiguration(core=BOOM),
                shards=2, slices=100, iterations=2, sync_epochs=1,
            )
        with pytest.raises(ValueError, match="slices must be positive"):
            EngineConfiguration(
                fuzzer=FuzzerConfiguration(core=BOOM), shards=2, slices=0
            )

    def test_rejects_bad_core_assignments(self):
        fuzzer = FuzzerConfiguration(core=BOOM)
        with pytest.raises(ValueError, match="than slices"):
            EngineConfiguration(
                fuzzer=fuzzer, shards=2, slices=2,
                cores=["boom", "xiangshan", "boom-large"],
            )
        with pytest.raises(ValueError, match="at least one core"):
            EngineConfiguration(fuzzer=fuzzer, shards=1, cores=[])
        with pytest.raises(ValueError, match="unknown core"):
            EngineConfiguration(fuzzer=fuzzer, shards=1, cores=["rocket"])
        with pytest.raises(ValueError, match="cannot interpret"):
            EngineConfiguration(fuzzer=fuzzer, shards=1, cores=[42])

    def test_core_assignments_accept_names_configs_and_fuzzers(self):
        fuzzer = FuzzerConfiguration(core=BOOM, entropy=3)
        configuration = EngineConfiguration(
            fuzzer=fuzzer,
            shards=3,
            cores=["xiangshan", XIANGSHAN, FuzzerConfiguration(core=BOOM, entropy=99)],
        )
        prototypes = configuration.slice_fuzzers()
        # One prototype per logical slice, the cores rotation applied
        # round-robin: slice s runs cores[s % len(cores)].
        assert len(prototypes) == configuration.slices
        assert [prototype.core.name for prototype in prototypes[:3]] == [
            "xiangshan-minimal",
            "xiangshan-minimal",
            "small-boom",
        ]
        assert prototypes[3].core.name == prototypes[0].core.name
        # Name/config entries inherit the prototype's knobs; a full
        # FuzzerConfiguration is taken as-is.
        assert prototypes[0].entropy == 3
        assert prototypes[2].entropy == 99


class TestHeterogeneousEngine:
    def run_mixed(self, entropy=11, iterations=16, epochs=2):
        return run_parallel_campaign(
            cores=["boom", "xiangshan"],
            shards=2,
            iterations=iterations,
            sync_epochs=epochs,
            entropy=entropy,
            executor="inline",
        )

    def test_coverage_is_merged_strictly_per_core(self):
        result = self.run_mixed()
        assert set(result.core_coverage) == {"small-boom", "xiangshan-minimal"}
        for slice_index, points in result.slice_points.items():
            core_name = result.slice_cores[slice_index]
            assert points <= result.core_coverage[core_name].points
        # Each matrix holds exactly its own shards' points: nothing leaked
        # across the core boundary during the merge.
        for core_name, matrix in result.core_coverage.items():
            own = set()
            for index, name in result.slice_cores.items():
                if name == core_name:
                    own |= result.slice_points[index]
            assert matrix.points == own

    def test_single_coverage_property_is_refused_for_mixed_campaigns(self):
        result = self.run_mixed()
        with pytest.raises(ValueError, match="per core"):
            result.coverage
        homogeneous = run_parallel_campaign(
            BOOM, shards=2, iterations=6, sync_epochs=1, entropy=1, executor="inline"
        )
        assert homogeneous.coverage is homogeneous.core_coverage[BOOM.name]

    def test_mixed_campaign_is_reproducible_from_root_entropy(self):
        first = self.run_mixed(entropy=2025, iterations=24, epochs=3)
        second = self.run_mixed(entropy=2025, iterations=24, epochs=3)
        assert first.campaign.to_dict(include_timing=False) == second.campaign.to_dict(
            include_timing=False
        )
        assert first.transfers == second.transfers
        for core_name in first.core_coverage:
            assert (
                first.core_coverage[core_name].points
                == second.core_coverage[core_name].points
            )

    def test_transfers_re_realize_for_the_target_core(self):
        result = self.run_mixed(entropy=2025, iterations=24, epochs=3)
        assert result.transferred_seeds > 0
        for row in result.transfers:
            assert row["donor_core"] != row["target_core"]
            assert row["transferred_seed_id"] >= TRANSFER_SEED_ID_BASE
            # Every transfer ran in a later epoch, so its outcome is known.
            assert row["new_global_points"] is not None

    def test_aggregate_report_carries_the_per_core_breakdown(self):
        result = self.run_mixed()
        breakdown = result.campaign.core_breakdown
        assert set(breakdown) == {"small-boom", "xiangshan-minimal"}
        assert (
            sum(entry["iterations"] for entry in breakdown.values())
            == result.campaign.iterations_run
        )
        summary = result.summary()
        assert set(summary["per_core_coverage"]) == set(result.core_coverage)
        assert summary["coverage"] == result.total_coverage()

    def test_fuzzer_rejects_a_foreign_core_seed(self):
        fuzzer = DejaVuzzFuzzer(FuzzerConfiguration(core=BOOM, entropy=1))
        foreign = Seed.from_dict(
            {**make_seed(seed_id=5).to_dict(), "core": "xiangshan-minimal"}
        )
        with pytest.raises(ValueError, match="transfer"):
            fuzzer.run_campaign(2, initial_seed=foreign)
        # The transferred realization of the same seed is accepted.
        moved = foreign.transfer("small-boom", seed_id=6)
        assert group_of(moved.window_type) == group_of(foreign.window_type)
        fuzzer.run_campaign(2, initial_seed=moved)


class TestEngineCli:
    def test_list_cores_exits_cleanly(self, capsys):
        assert engine_main(["--list-cores"]) == 0
        output = capsys.readouterr().out
        assert "boom" in output and "xiangshan" in output

    def test_core_registry_lists_each_core_once_with_aliases(self):
        lines = core_registry_lines()
        assert len(lines) == 3
        boom_line = next(line for line in lines if line.startswith("boom "))
        assert "small-boom" in boom_line  # alias folded into the canonical row
        large_line = next(line for line in lines if line.startswith("boom-large"))
        assert "large-boom" in large_line

    def test_three_core_registry_drives_a_heterogeneous_campaign(self):
        result = run_parallel_campaign(
            cores=["boom", "boom-large", "xiangshan"],
            shards=3,
            iterations=6,
            sync_epochs=1,
            executor="inline",
            entropy=5,
        )
        assert set(result.core_coverage) == {
            "small-boom",
            "large-boom",
            "xiangshan-minimal",
        }
        assert result.campaign.iterations_run == 6

    def test_resolve_core_accepts_aliases(self):
        assert resolve_core("boom").name == resolve_core("small-boom").name
        assert resolve_core("xiangshan").name == resolve_core("xiangshan-minimal").name
        with pytest.raises(ValueError, match="unknown core"):
            resolve_core("rocket")

    def test_cores_flag_drives_a_heterogeneous_campaign(self, capsys):
        code = engine_main(
            ["--cores", "boom,xiangshan", "--iterations", "8", "--epochs", "1", "--backend", "inline"]
        )
        output = capsys.readouterr().out
        assert code == 0
        assert "small-boom+xiangshan-minimal" in output
        assert "per_core_coverage" in output

    def test_bad_cores_flag_is_reported(self, capsys):
        assert engine_main(["--cores", "rocket", "--backend", "inline"]) == 2
        assert "unknown core" in capsys.readouterr().out

    def test_core_flag_accepts_canonical_names_and_aliases(self):
        parser = build_parser()
        for name in ("boom", "boom-large", "xiangshan", "small-boom", "large-boom"):
            assert parser.parse_args(["--core", name]).core == name

    def test_removed_window_lookahead_flag_is_refused(self, capsys):
        with pytest.raises(SystemExit) as raised:
            engine_main(["--window-lookahead", "4", "--backend", "inline"])
        assert raised.value.code == 2
        assert "--window-lookahead" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, named",
        [(["--backend", "async"], "'async'"), (["--concurrency", "2"], "--concurrency")],
        ids=["backend-async", "concurrency"],
    )
    def test_removed_async_backend_flags_are_refused(self, capsys, argv, named):
        with pytest.raises(SystemExit) as raised:
            engine_main([*argv, "--iterations", "1"])
        assert raised.value.code == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value",
        [("--sync-policy", "stall"), ("--epoch-iterations", "1"),
         ("--stall-gain", "1"), ("--window-rounds", "2")],
    )
    def test_removed_stall_policy_flags_are_refused(self, capsys, flag, value):
        with pytest.raises(SystemExit) as raised:
            engine_main([flag, value, "--iterations", "1", "--backend", "inline"])
        assert raised.value.code == 2
        assert flag in capsys.readouterr().err

    def test_removed_async_executor_is_refused(self):
        with pytest.raises(ValueError, match=r"\(known: inline, process, distributed\)"):
            EngineConfiguration(fuzzer=FuzzerConfiguration(core=BOOM), executor="async")


class TestSeedIdReproducibility:
    def test_identical_campaigns_allocate_identical_seed_ids(self):
        def run_once():
            fuzzer = DejaVuzzFuzzer(FuzzerConfiguration(core=BOOM, entropy=21))
            fuzzer.run_campaign(5)
            return [seed.seed_id for seed, _ in fuzzer.top_seeds(10)]

        first = run_once()
        # Churn the module-global counter between the two campaigns: library
        # code paths must not depend on it.
        for _ in range(7):
            Seed.fresh(entropy=1, window_type=TransientWindowType.LOAD_MISALIGN)
        second = run_once()
        assert first == second


class TestSyncSchedule:
    def cfg(self, **overrides):
        defaults = dict(
            fuzzer=FuzzerConfiguration(core=BOOM, entropy=5),
            shards=2,
            iterations=12,
            executor="inline",
        )
        defaults.update(overrides)
        return EngineConfiguration(**defaults)

    def test_every_boundary_but_the_last_redistributes(self):
        result = ParallelCampaignEngine(self.cfg(sync_epochs=3)).run()
        rounds = result.telemetry.records("round")
        assert [record["redistributed"] > 0 for record in rounds] == [True, True, False]

    def test_planned_epochs_guard_the_seed_id_namespace(self):
        # 101 epochs need 101 epoch bases, one more than a slice's stride holds.
        with pytest.raises(ValueError, match="seed-id stride"):
            self.cfg(iterations=10_000, sync_epochs=101)


class TestCheckpointResume:
    def cfg(self, tmp_path=None, cores=None, entropy=7, **overrides):
        defaults = dict(
            fuzzer=FuzzerConfiguration(core=BOOM, entropy=entropy),
            shards=2,
            iterations=12,
            sync_epochs=3,
            executor="inline",
            cores=cores,
        )
        if tmp_path is not None:
            defaults["checkpoint_path"] = str(tmp_path / "checkpoint.json")
        defaults.update(overrides)
        return EngineConfiguration(**defaults)

    def assert_resumed_matches_uninterrupted(self, tmp_path, cores=None, entropy=7):
        uninterrupted = ParallelCampaignEngine(
            self.cfg(cores=cores, entropy=entropy)
        ).run()
        halted_engine = ParallelCampaignEngine(
            self.cfg(tmp_path, cores=cores, entropy=entropy)
        )
        partial = halted_engine.run(max_epochs=1)
        assert not partial.complete
        resumed = ParallelCampaignEngine.resume_from(
            str(tmp_path / "checkpoint.json"),
            self.cfg(tmp_path, cores=cores, entropy=entropy),
        ).run()
        assert resumed.complete
        assert resumed.campaign.to_dict(
            include_timing=False
        ) == uninterrupted.campaign.to_dict(include_timing=False)
        for core_name, matrix in uninterrupted.core_coverage.items():
            assert resumed.core_coverage[core_name].points == matrix.points
            assert resumed.core_coverage[core_name].history == matrix.history
        assert resumed.transfers == uninterrupted.transfers
        assert resumed.redistributed_seeds == uninterrupted.redistributed_seeds
        assert resumed.slice_points == uninterrupted.slice_points
        return resumed

    def test_homogeneous_round_trip_is_byte_identical(self, tmp_path):
        self.assert_resumed_matches_uninterrupted(tmp_path)

    def test_heterogeneous_round_trip_is_byte_identical(self, tmp_path):
        resumed = self.assert_resumed_matches_uninterrupted(
            tmp_path, cores=["boom", "xiangshan"], entropy=11
        )
        assert set(resumed.core_coverage) == {"small-boom", "xiangshan-minimal"}

    def test_checkpoint_rejects_a_different_campaign(self, tmp_path):
        ParallelCampaignEngine(self.cfg(tmp_path)).run(max_epochs=1)
        with pytest.raises(ValueError, match="entropy"):
            ParallelCampaignEngine.resume_from(
                str(tmp_path / "checkpoint.json"), self.cfg(tmp_path, entropy=8)
            )
        with pytest.raises(ValueError, match="iterations"):
            ParallelCampaignEngine.resume_from(
                str(tmp_path / "checkpoint.json"),
                self.cfg(tmp_path, iterations=24),
            )

    def test_resume_rejects_a_changed_epoch_count(self, tmp_path):
        # The epoch count sets every later budget share and redistribution
        # boundary, so a resume must keep it.
        ParallelCampaignEngine(self.cfg(tmp_path)).run(max_epochs=1)
        with pytest.raises(ValueError, match="differing fields: sync_epochs"):
            ParallelCampaignEngine.resume_from(
                str(tmp_path / "checkpoint.json"), self.cfg(tmp_path, sync_epochs=4)
            )

    @pytest.mark.parametrize("old_format", [1, 2])
    def test_an_old_format_fixture_is_refused_with_a_clear_message(
        self, capsys, old_format
    ):
        # Committed checkpoints of the shard-keyed format 1 and of format 2,
        # which carried the removed stall sync policy: each is refused with
        # an actionable format error, not a KeyError from inside restore().
        import os

        fixture = os.path.join(
            os.path.dirname(__file__), "data", f"checkpoint_format{old_format}.json"
        )
        assert json.loads(open(fixture, encoding="utf-8").read())["format"] == old_format
        code = engine_main(
            ["--resume", fixture, "--backend", "inline", "--iterations", "12",
             "--epochs", "3", "--entropy", "7"]
        )
        output = capsys.readouterr().out
        assert code == 2
        assert output.startswith(
            f"error: checkpoint format {old_format}, expected 3; re-run"
        )
        assert "or migrate" in output

    def test_fingerprint_pins_slices_not_shards(self, tmp_path):
        ParallelCampaignEngine(self.cfg(tmp_path)).run(max_epochs=1)
        import json

        payload = json.loads((tmp_path / "checkpoint.json").read_text())
        assert payload["fingerprint"]["slices"] == 16
        assert "shards" not in payload["fingerprint"]

    def test_checkpoint_rejects_an_unknown_format(self, tmp_path):
        import json

        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": 99}))
        with pytest.raises(ValueError, match="checkpoint format"):
            ParallelCampaignEngine.resume_from(str(path), self.cfg())

    def test_checkpoint_larger_than_a_frame_is_refused(self, tmp_path):
        from repro.core.wire import MAX_FRAME_BYTES

        path = tmp_path / "huge.json"
        with open(path, "wb") as handle:
            handle.truncate(MAX_FRAME_BYTES + 1)  # sparse: no 16 MiB write
        with pytest.raises(ValueError, match="checkpoint .* longer than"):
            ParallelCampaignEngine.resume_from(str(path), self.cfg())

    @pytest.mark.parametrize(
        "data",
        [b"\xff\xfe{}\n", b"not json\n", b"[1, 2]\n", b"\n"],
        ids=["non-utf8", "non-json", "not-an-object", "blank"],
    )
    def test_malformed_checkpoint_is_refused(self, tmp_path, data):
        path = tmp_path / "bad.json"
        path.write_bytes(data)
        with pytest.raises(ValueError, match="malformed checkpoint"):
            ParallelCampaignEngine.resume_from(str(path), self.cfg())

    # The key is a dotted path into the checkpoint (list indices are
    # numbers).  A value of DELETE deletes it; any other value replaces it.
    DELETE = object()
    MALFORMED = {
        "no-corpus": ("corpus", DELETE, "lacks corpus"),
        "corpus-int": ("corpus", 5, "wrong type for corpus"),
        "transfers-int": ("transfers", 5, "wrong type for transfers"),
        "slice_points-list": ("slice_points", [], "wrong type for slice_points"),
        "core_coverage-int": ("core_coverage", 5, "wrong type for core_coverage"),
        "assignments-int": ("assignments", 5, "wrong type for assignments"),
        "fingerprint-int": ("fingerprint", 5, "wrong type for fingerprint"),
        "campaign-list": ("campaign", [], "wrong type for campaign"),
        "slice_summaries-int": ("slice_summaries", 5, "wrong type for slice_summaries"),
        "core_coverage-entry-int": (
            "core_coverage.small-boom", 5, "wrong type for core_coverage[small-boom]"
        ),
        "core_coverage-lacks-core": (
            "core_coverage.small-boom", DELETE, "lacks core_coverage[small-boom]"
        ),
        "core_triggered-int": ("core_triggered", 5, "wrong type for core_triggered"),
        "slice_points-entry-int": ("slice_points.0", 5, "wrong type for slice_points[0]"),
        "wall_clock_seconds-list": (
            "wall_clock_seconds", [], "wrong type for wall_clock_seconds"
        ),
        "point-module-null": (
            "core_coverage.small-boom.points.0.module",
            None,
            "wrong type for core_coverage[small-boom].points[0] (module",
        ),
        "seed-mask_high_bits-string": (
            "corpus.0.seed.mask_high_bits", "x", "wrong type for corpus[0] (mask_high_bits"
        ),
        "seed-no-encode_strategies": (
            "assignments.2.encode_strategies",
            [],
            "bad value for assignments[2] (encode_strategies is empty",
        ),
        "campaign-fuzzer_name-null": (
            "campaign.fuzzer_name", None, "wrong type for campaign (fuzzer_name must be str"
        ),
        "campaign-iterations_run-float": (
            "campaign.iterations_run", 5.5,
            "wrong type for campaign (iterations_run must be int, got float",
        ),
        "report-core-int": (
            "campaign.reports.0.core", 5, "wrong type for campaign (core must be str, got int"
        ),
        "report-verdict-is_leak-string": (
            "campaign.reports.0.verdict.is_leak", "no",
            "wrong type for campaign (is_leak must be bool, got str",
        ),
    }

    @pytest.mark.parametrize("content", ["list", "string", *MALFORMED])
    def test_cli_reports_a_malformed_checkpoint(self, tmp_path, capsys, content):
        path = tmp_path / "checkpoint.json"
        if content in self.MALFORMED:
            key, value, message = self.MALFORMED[content]
            ParallelCampaignEngine(self.cfg(tmp_path)).run(max_epochs=1)
            payload = json.loads(path.read_text())
            *parents, key = key.split(".")
            target = payload
            for parent in parents:
                target = target[int(parent) if isinstance(target, list) else parent]
            if isinstance(target, list):
                key = int(key)
            if value is self.DELETE:
                del target[key]
            else:
                target[key] = value
            path.write_text(json.dumps(payload))
        else:
            path.write_text("[1, 2]" if content == "list" else '"x"')
        # The flags match self.cfg(), so a well-formed checkpoint would resume.
        code = engine_main(
            ["--resume", str(path), "--backend", "inline", "--iterations", "12",
             "--epochs", "3", "--entropy", "7"]
        )
        output = capsys.readouterr().out
        assert code == 2
        assert output.startswith("error:")
        if content in self.MALFORMED:
            assert message in output

    def test_integer_wall_clock_seconds_is_accepted(self, tmp_path):
        ParallelCampaignEngine(self.cfg(tmp_path)).run(max_epochs=1)
        path = tmp_path / "checkpoint.json"
        payload = json.loads(path.read_text())
        payload["wall_clock_seconds"] = 3
        path.write_text(json.dumps(payload))
        engine = ParallelCampaignEngine.resume_from(str(path), self.cfg(tmp_path))
        assert engine.scheduler.state.wall_clock_seconds == 3.0

    def test_checkpoint_larger_than_a_frame_is_not_written(self, tmp_path, monkeypatch):
        engine = ParallelCampaignEngine(self.cfg(tmp_path))
        engine.run(max_epochs=1)
        path = tmp_path / "checkpoint.json"
        previous = path.read_bytes()
        monkeypatch.setattr("repro.core.checkpoint.MAX_FRAME_BYTES", len(previous) // 2)
        with pytest.raises(ValueError, match="larger than .* left as it was"):
            engine.scheduler.save_checkpoint(str(path))
        assert path.read_bytes() == previous
        assert not (tmp_path / "checkpoint.json.tmp").exists()

    def test_checkpoint_state_requires_a_started_run(self):
        engine = ParallelCampaignEngine(self.cfg())
        with pytest.raises(ValueError, match="run\\(\\) has not started"):
            engine.scheduler.checkpoint_state()

    def test_checkpoint_file_is_json_and_atomic(self, tmp_path):
        import json

        engine = ParallelCampaignEngine(self.cfg(tmp_path))
        engine.run(max_epochs=1)
        path = tmp_path / "checkpoint.json"
        payload = json.loads(path.read_text())
        assert payload["format"] == 3
        assert payload["next_epoch"] == 1
        assert not (tmp_path / "checkpoint.json.tmp").exists()

    def test_checkpoint_is_synced_before_the_rename(self, tmp_path, monkeypatch):
        import json
        import os

        staging = str(tmp_path / "checkpoint.json.tmp")
        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            # The synced descriptor is the staging file, already complete.
            assert os.fstat(fd).st_ino == os.stat(staging).st_ino
            json.loads(open(staging, encoding="utf-8").read())
            events.append("fsync")
            real_fsync(fd)

        def replace(source, target):
            events.append(("replace", source, target))
            real_replace(source, target)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        ParallelCampaignEngine(self.cfg(tmp_path)).run(max_epochs=1)
        assert events == [
            "fsync",
            ("replace", staging, str(tmp_path / "checkpoint.json")),
        ]


class TestTransferAwareRedistribution:
    def test_untriggered_group_donor_is_preferred(self):
        from repro.core.engine import EngineResult
        from repro.core.coverage import TaintCoverageMatrix

        engine = ParallelCampaignEngine(
            EngineConfiguration(
                fuzzer=FuzzerConfiguration(core=BOOM, entropy=1),
                shards=2,
            )
        )
        # Donor 100 has more gain but its window group is already triggered
        # on the receiving core; donor 200's group is still untriggered.
        high_gain = Seed.fresh(
            seed_id=100, entropy=1, window_type=TransientWindowType.LOAD_PAGE_FAULT
        )
        fresh_group = Seed.fresh(
            seed_id=200, entropy=2, window_type=TransientWindowType.BRANCH_MISPREDICTION
        )
        engine.scheduler.state.corpus.add(high_gain, gain=9, slice_index=1, epoch=0)
        engine.scheduler.state.corpus.add(fresh_group, gain=5, slice_index=1, epoch=0)
        engine.scheduler.state.core_triggered = {BOOM.name: {group_of(high_gain.window_type)}}
        result = EngineResult(
            campaign=CampaignResult(fuzzer_name="dejavuzz", core=BOOM.name),
            core_coverage={BOOM.name: TaintCoverageMatrix()},
            shards=2,
            epochs=1,
        )
        assignments = engine.scheduler._redistribute({0: 0, 1: 10}, result)
        assert assignments[0]["seed_id"] == 200

    def test_gain_order_decides_within_a_tier(self):
        from repro.core.engine import EngineResult
        from repro.core.coverage import TaintCoverageMatrix

        engine = ParallelCampaignEngine(
            EngineConfiguration(
                fuzzer=FuzzerConfiguration(core=BOOM, entropy=1),
                shards=2,
            )
        )
        # No group triggered yet: both donors sit in the same (untriggered)
        # tier, so plain gain order decides.
        engine.scheduler.state.corpus.add(
            Seed.fresh(seed_id=100, entropy=1, window_type=TransientWindowType.LOAD_PAGE_FAULT),
            gain=9, slice_index=1, epoch=0,
        )
        engine.scheduler.state.corpus.add(
            Seed.fresh(seed_id=200, entropy=2, window_type=TransientWindowType.BRANCH_MISPREDICTION),
            gain=5, slice_index=1, epoch=0,
        )
        result = EngineResult(
            campaign=CampaignResult(fuzzer_name="dejavuzz", core=BOOM.name),
            core_coverage={BOOM.name: TaintCoverageMatrix()},
            shards=2,
            epochs=1,
        )
        assignments = engine.scheduler._redistribute({0: 0, 1: 10}, result)
        assert assignments[0]["seed_id"] == 100


class TestFeedbackKnobPlumbing:
    def test_low_gain_limit_reaches_phase2(self):
        configuration = FuzzerConfiguration(core=BOOM, entropy=1, low_gain_limit=7)
        fuzzer = DejaVuzzFuzzer(configuration)
        assert fuzzer.phase2.low_gain_limit == 7

    def test_low_gain_limit_changes_campaign_behaviour(self):
        # limit=0 discards a seed on the first below-average attempt; a large
        # limit keeps re-rolling the same window.  The two policies must not
        # explore identically.
        impatient = DejaVuzzFuzzer(
            FuzzerConfiguration(core=BOOM, entropy=13, low_gain_limit=0)
        ).run_campaign(12)
        patient = DejaVuzzFuzzer(
            FuzzerConfiguration(core=BOOM, entropy=13, low_gain_limit=50)
        ).run_campaign(12)
        assert (
            impatient.coverage_history != patient.coverage_history
            or impatient.triggered_windows != patient.triggered_windows
        )

    def test_mutator_pick_strategies_is_public(self):
        fuzzer = DejaVuzzFuzzer(FuzzerConfiguration(core=BOOM, entropy=1))
        strategies = fuzzer.mutator.pick_strategies()
        assert strategies and all(isinstance(s, EncodeStrategy) for s in strategies)

    def test_seed_id_base_namespaces_campaigns(self):
        shard0 = DejaVuzzFuzzer(FuzzerConfiguration(core=BOOM, entropy=2, seed_id_base=0))
        shard1 = DejaVuzzFuzzer(
            FuzzerConfiguration(core=BOOM, entropy=2, seed_id_base=1_000_000)
        )
        shard0.run_campaign(4)
        shard1.run_campaign(4)
        ids0 = {seed.seed_id for seed, _ in shard0.top_seeds(10)}
        ids1 = {seed.seed_id for seed, _ in shard1.top_seeds(10)}
        assert ids0 and ids1
        assert not ids0 & ids1


class TestElasticResume:
    """A checkpoint written at N physical shards resumes at another shard
    count: every deterministic derivation (entropy streams, seed-id bases,
    core assignment, corpus attribution) is keyed by logical slice, and the
    fingerprint pins ``slices``, never ``shards``.  That such a resume is
    byte-identical to the uninterrupted campaign is the campaign matrix's
    job (``tests/test_campaign_matrix.py``: ``resume-process-2x``,
    ``resume-inline-half``, ``distributed-resume`` and
    ``test_merged_slice_state_matches_the_reference``); these tests keep what
    its two-core, four-slice campaign does not reach: three cores, six slices
    split unevenly over the shards, and a slice-count mismatch."""

    def cfg(self, shards, tmp_path=None, cores=None, **overrides):
        defaults = dict(
            fuzzer=FuzzerConfiguration(core=BOOM, entropy=13),
            shards=shards,
            iterations=12,
            sync_epochs=3,
            executor="inline",
            cores=cores,
        )
        if tmp_path is not None:
            defaults["checkpoint_path"] = str(tmp_path / "checkpoint.json")
        defaults.update(overrides)
        return EngineConfiguration(**defaults)

    def halt_then_resume(self, tmp_path, resume_shards, **overrides):
        uninterrupted = ParallelCampaignEngine(self.cfg(4, **overrides)).run()
        partial = ParallelCampaignEngine(
            self.cfg(4, tmp_path, **overrides)
        ).run(max_epochs=1)
        assert not partial.complete
        resumed = ParallelCampaignEngine.resume_from(
            str(tmp_path / "checkpoint.json"),
            self.cfg(resume_shards, tmp_path, **overrides),
        ).run()
        assert resumed.complete
        assert resumed.shards == resume_shards
        assert resumed.campaign.to_dict(
            include_timing=False
        ) == uninterrupted.campaign.to_dict(include_timing=False)
        assert resumed.slice_points == uninterrupted.slice_points
        assert resumed.transfers == uninterrupted.transfers
        return resumed

    def test_heterogeneous_cores_survive_resharding(self, tmp_path):
        resumed = self.halt_then_resume(
            tmp_path, 8, cores=["boom", "xiangshan", "boom-large"]
        )
        # Slice->core binding is round-robin over the cores rotation and
        # must not move when the physical shard count changes.
        rotation = ["small-boom", "xiangshan-minimal", "large-boom"]
        assert [resumed.slice_cores[index] for index in range(resumed.slices)] == [
            rotation[index % 3] for index in range(resumed.slices)
        ]
        assert set(resumed.core_coverage) == set(rotation)

    def test_explicit_slices_knob_is_honoured_across_resume(self, tmp_path):
        # Six slices split unevenly over four shards and then over two.
        resumed = self.halt_then_resume(tmp_path, 2, slices=6)
        assert resumed.slices == 6

    def test_resume_with_a_different_slice_count_is_rejected(self, tmp_path):
        ParallelCampaignEngine(self.cfg(4, tmp_path)).run(max_epochs=1)
        with pytest.raises(ValueError, match="slices"):
            ParallelCampaignEngine.resume_from(
                str(tmp_path / "checkpoint.json"), self.cfg(4, tmp_path, slices=8)
            )
