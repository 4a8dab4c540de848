"""The sharded parallel campaign engine.

Scales a DejaVuzz campaign across N worker processes — or N worker *hosts*.
The campaign's work is partitioned into a fixed set of **logical slices**
(``EngineConfiguration.slices``, default ``max(shards, 16)``, pinned in the
checkpoint).  Each slice is a full
:class:`~repro.core.fuzzer.DejaVuzzFuzzer` driven by its own split of the
root :class:`~repro.utils.rng.DeterministicRng` entropy (label
``engine/slice<s>/epoch<e>``) and a disjoint seed-id namespace, so a
parallel run is reproducible from a single integer no matter how the OS (or
the network) schedules the workers.

Physical **shards** are pure executors: ``--shards`` only sizes the worker
pool (or fleet) that leases slice tasks each epoch, and never enters any
deterministic derivation.  That is what makes campaigns *elastic*: a
checkpoint taken at ``--shards 4`` resumes at ``--shards 8`` (or 2, or on a
different distributed fleet) with byte-identical results, because every
slice keeps its identity no matter which executor runs it.

The run loop is split into two explicit layers:

* :class:`CampaignScheduler` — the transport-agnostic brain.  It owns every
  campaign *decision*: the sync-epoch schedule, per-slice task construction
  (entropy splits, seed-id bases, baseline coverage), the per-core merge of
  slice payloads, corpus redistribution and cross-core transfer, and the
  checkpoint cadence.  The scheduler consumes only merged per-epoch payload
  dicts, so its decisions are identical no matter where or in what order
  the slices actually ran.
* the :class:`~repro.core.backends.ExecutionBackend` transport — *how* one
  epoch's :class:`~repro.core.backends.ShardTask` list turns into result
  payloads: serially in-process (``inline``), on a reused local process pool
  (``process``; threads when the simulations run out of process), or farmed
  out to remote worker daemons over TCP
  (``distributed`` — :mod:`repro.core.distributed`).

Orthogonally to the backend, ``simulator`` picks where the simulations
themselves execute: ``inproc`` (inside whatever process runs the task) or
``subprocess`` — per-shard out-of-process simulator servers
(:mod:`repro.sim`) with crash/hang recovery, which every backend composes
with.

:class:`ParallelCampaignEngine` is the thin driver wiring the two together:
it asks the scheduler for the next epoch's tasks, hands them to the backend,
and feeds the payloads back.  Because the scheduler never sees the transport,
every backend — any worker count, join order, or mid-epoch worker loss —
produces **byte-identical** campaign results.

The campaign is divided into **sync epochs**.  Within an epoch the slices run
independently; at the epoch boundary the scheduler

1. merges every slice's :class:`~repro.core.coverage.TaintCoverageMatrix`
   into the global matrix *of that slice's core* (coverage points are
   microarchitecture-specific, so BOOM and XiangShan points never share a
   matrix; ``add_points`` reports how many points each slice contributed that
   were globally new on its core),
2. folds the slice :class:`~repro.core.report.CampaignResult` objects into the
   aggregate report (with a per-core breakdown),
3. collects each slice's top-gain seeds into a :class:`SharedCorpus`, tagged
   with their origin core, and
4. redistributes the best corpus seeds to the *lagging* slices (lowest global
   coverage contribution this epoch) for the next epoch.  A lagging slice
   prefers a donor realized for its own core; when only foreign-core donors
   remain, the donor's portable genotype is *transferred* — re-realized for
   the target core via :meth:`~repro.generation.seeds.Seed.transfer`
   (window-type groups transfer; encodings are core-specific).  Every slice
   restarts from its core's merged coverage baseline so no slice spends
   iterations rediscovering another slice's points.

Slices may run different cores (``cores=["boom", "xiangshan"]`` assigns
cores round-robin across the slice set), turning the shared corpus into a
cross-core transfer study: :attr:`EngineResult.transfers` records each
transfer together with the receiving slice-epoch's outcome — the
globally-new coverage and bug reports found on the target core in the epoch
the transferred seed started.  The attribution is epoch-granular: the seed
opens that epoch and its mutated descendants count towards its outcome.
Because the slice→core assignment derives only from ``(slice_index,
cores)``, it too survives resharding.

The schedule is fixed: ``sync_epochs`` equal slices of the iteration
budget, with corpus redistribution at every boundary.

Long campaigns survive restarts: ``checkpoint_path`` makes the engine write a
JSON checkpoint (:mod:`repro.core.checkpoint`) after every merged epoch, and
:meth:`ParallelCampaignEngine.resume_from` rebuilds the engine mid-campaign from it — the resumed campaign is
byte-identical (timing aside) to an uninterrupted one.  Combined with the
distributed backend this covers the preemptible-fleet case: a campaign whose
entire worker fleet is lost resumes from the last merged epoch.

Run it directly::

    python -m repro.core.engine --cores boom,xiangshan --iterations 100
"""

from __future__ import annotations

import argparse
import json
import math
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.backends import (
    BACKEND_NAMES,
    SIMULATOR_NAMES,
    ExecutionBackend,
    ShardTask,
    create_backend,
    run_shard_task,
)
from repro.core.checkpoint import (
    CheckpointState,
    decode_checkpoint,
    encode_checkpoint,
    load_checkpoint,
    write_checkpoint,
)
from repro.core.corpus import SharedCorpus
from repro.core.coverage import CoveragePoint, TaintCoverageMatrix
from repro.core.fuzzer import FuzzerConfiguration
from repro.core.report import CampaignResult
from repro.generation.seeds import Seed
from repro.generation.window_types import group_of
from repro.telemetry import CampaignTelemetry, RoundEvent, TelemetryRing, diff_snapshots
from repro.uarch.boom import large_boom_config, small_boom_config
from repro.uarch.config import CoreConfig
from repro.uarch.xiangshan import xiangshan_minimal_config
from repro.utils.rng import DeterministicRng

__all__ = [
    "CORES",
    "CORE_ALIASES",
    "CampaignScheduler",
    "EngineConfiguration",
    "EngineResult",
    "ParallelCampaignEngine",
    "ShardTask",
    "resolve_core",
    "run_parallel_campaign",
    "run_shard_task",
]

# Canonical cores the CLI can name; the programmatic API accepts any
# CoreConfig.  Aliases map onto the canonical names so the registry (and its
# help text) lists each core exactly once.
CORES: Dict[str, Callable[[], CoreConfig]] = {
    "boom": small_boom_config,
    "boom-large": large_boom_config,
    "xiangshan": xiangshan_minimal_config,
}
CORE_ALIASES: Dict[str, str] = {
    "small-boom": "boom",
    "large-boom": "boom-large",
    "xiangshan-minimal": "xiangshan",
}


def resolve_core(name: str) -> CoreConfig:
    """Build the :class:`CoreConfig` for a registry name or alias."""
    canonical = CORE_ALIASES.get(name, name)
    try:
        factory = CORES[canonical]
    except KeyError:
        known = ", ".join(sorted(CORES) + sorted(CORE_ALIASES))
        raise ValueError(f"unknown core {name!r} (known: {known})") from None
    return factory()


def _split(total: int, parts: int) -> List[int]:
    """``total`` in ``parts`` near-equal shares, the larger ones first."""
    return [total // parts + (1 if index < total % parts else 0) for index in range(parts)]


# Seed-id namespacing: logical slice s / epoch e allocates ids from
# (s + 1) * SLICE_ID_STRIDE + e * EPOCH_ID_STRIDE upward.  A slice would need
# to breed 100k seeds in one epoch (or run 100 epochs) to collide, far beyond
# any realistic campaign; ids stay disjoint so the shared corpus can use the
# seed id as a global identity.  Crucially the namespace is keyed by the
# *logical* slice, never the physical shard executing it, so ids — and every
# deterministic derivation built on them — are independent of the shard count.
SLICE_ID_STRIDE = 10_000_000
EPOCH_ID_STRIDE = 100_000
# Cross-core transfers re-realize a donor seed under a new identity; they get
# their own namespace far above any slice/epoch base (slice bases stay below
# this for fewer than ~100 slices).
TRANSFER_SEED_ID_BASE = 1_000_000_000
# Default logical partition count: generous relative to typical shard counts
# so a campaign started small can later fan out onto a bigger fleet.
DEFAULT_MIN_SLICES = 16
# The shared corpus keeps the CORPUS_CAPACITY best seeds; at every epoch
# boundary the REDISTRIBUTE_TOP slices that gained the least restart from one.
CORPUS_CAPACITY = 64
REDISTRIBUTE_TOP = 2


@dataclass
class EngineConfiguration:
    """Knobs of a sharded campaign."""

    fuzzer: FuzzerConfiguration          # prototype; entropy/seed ids are re-derived per slice
    shards: int = 4                      # physical executors; never enters determinism
    # Logical work partitions of the campaign.  Fixed at configuration time
    # (default max(shards, DEFAULT_MIN_SLICES)) and pinned by the checkpoint
    # fingerprint: every deterministic derivation — entropy streams, seed-id
    # namespaces, core assignment, corpus attribution — keys off the slice,
    # so the same campaign resumes on any shard count.
    slices: Optional[int] = None
    iterations: int = 100                # total budget, split across slices and epochs
    sync_epochs: int = 2                 # equal budget shares, redistribution after each
    max_workers: Optional[int] = None    # process pool size / distributed: workers to wait for
    executor: str = "process"            # backend: "process" | "inline" | "distributed"
    # Injected wait per simulator invocation (seconds), modelling a slow
    # external (RTL) simulator; see repro.core.backends.  Zero = full speed.
    # Applies to the in-process simulator only: with simulator="subprocess"
    # the real server turnaround replaces the injected wait.
    step_latency: float = 0.0
    # Where shard simulations execute: "inproc" (in the executing process) or
    # "subprocess" (per-shard repro.sim server processes with crash recovery).
    simulator: str = "inproc"
    # Shared secret for the distributed backend: worker daemons must present
    # the same token in HELLO or they are rejected.  Not part of the
    # checkpoint fingerprint — authentication is transport, not campaign.
    auth_token: Optional[str] = None
    # When positive, every slice task profiles itself with cProfile and
    # reports its top-N hottest functions (in its EngineResult.task_log row).
    # Diagnostics only — never checkpointed, never in deterministic wire
    # forms; honored by every backend, ignored under the subprocess
    # simulator (the work runs out of process).
    profile: int = 0
    # Directory for live campaign telemetry's rotating JSONL sink
    # (telemetry-00001.jsonl, ...); None keeps records in the in-memory ring
    # only (EngineResult.telemetry).  Pure observation: it never enters the
    # checkpoint fingerprint or the deterministic wire forms, and campaign
    # results are byte-identical whether the sink writes or fails.
    telemetry_dir: Optional[str] = None
    # Write a JSON checkpoint here after every merged epoch; resume with
    # ParallelCampaignEngine.resume_from(path, configuration).
    checkpoint_path: Optional[str] = None
    # Distributed backend: "host:port" the coordinator listens on for worker
    # daemons (port 0 picks a free port; see repro.core.distributed).
    listen: Optional[str] = None
    # Core assignment for heterogeneous campaigns: each entry is a registry
    # name ("boom"), a CoreConfig, or a full FuzzerConfiguration.  The
    # entries are assigned round-robin across the logical slices (slice s
    # runs cores[s % len(cores)]), so the slice→core mapping depends only on
    # the slice identity — not on the shard count.  None runs every slice on
    # the prototype's core.
    cores: Optional[Sequence[object]] = None

    def __post_init__(self) -> None:
        if self.shards <= 0:
            raise ValueError(f"shards must be positive, got {self.shards}")
        if self.slices is None:
            self.slices = max(self.shards, DEFAULT_MIN_SLICES)
        if self.slices <= 0:
            raise ValueError(f"slices must be positive, got {self.slices}")
        if self.iterations <= 0:
            raise ValueError(f"iterations must be positive, got {self.iterations}")
        if self.sync_epochs < 1:
            raise ValueError(
                f"sync_epochs must be at least 1, got {self.sync_epochs}"
            )
        if self.max_workers is not None and self.max_workers <= 0:
            raise ValueError(f"max_workers must be positive, got {self.max_workers}")
        if not 0 <= self.step_latency < math.inf:
            raise ValueError(
                f"step_latency must be finite and non-negative, got {self.step_latency}"
            )
        if self.profile < 0:
            raise ValueError(f"profile must be non-negative, got {self.profile}")
        # Seed ids are the corpus's global identity: epoch bases must stay
        # inside one slice's stride, and the highest slice-epoch base must
        # stay below the transfer namespace, or ids would collide.  Both
        # checks derive from the *logical* slice count — the physical shard
        # count can never exhaust (or be constrained by) the namespace.
        if self.sync_epochs * EPOCH_ID_STRIDE > SLICE_ID_STRIDE:
            raise ValueError(
                f"{self.sync_epochs} sync epochs exhaust one slice's seed-id "
                f"stride ({SLICE_ID_STRIDE // EPOCH_ID_STRIDE} epochs max); use "
                f"fewer epochs"
            )
        highest_base = CampaignScheduler.slice_seed_id_base(
            self.slices - 1, self.sync_epochs - 1
        )
        if highest_base + EPOCH_ID_STRIDE > TRANSFER_SEED_ID_BASE:
            raise ValueError(
                f"slices={self.slices} x sync_epochs={self.sync_epochs} exhausts "
                f"the seed-id namespace below TRANSFER_SEED_ID_BASE "
                f"({TRANSFER_SEED_ID_BASE}); reduce the slice or epoch count"
            )
        if self.executor not in BACKEND_NAMES:
            raise ValueError(
                f"unknown executor {self.executor!r} (known: {', '.join(BACKEND_NAMES)})"
            )
        if self.simulator not in SIMULATOR_NAMES:
            raise ValueError(
                f"unknown simulator {self.simulator!r} "
                f"(known: {', '.join(SIMULATOR_NAMES)})"
            )
        # Resolve eagerly so a bad core name fails at configuration time, not
        # in the middle of a campaign.
        self.slice_fuzzers()

    def slice_fuzzers(self) -> List[FuzzerConfiguration]:
        """One prototype configuration per logical slice (entropy re-derived later).

        ``cores`` entries are assigned round-robin: slice ``s`` runs
        ``cores[s % len(cores)]``.  The mapping depends only on the slice
        index and the (fingerprinted) core list, so it survives resharding.
        """
        if self.cores is None:
            return [self.fuzzer] * self.slices
        if not self.cores:
            raise ValueError("cores must name at least one core")
        if len(self.cores) > self.slices:
            raise ValueError(
                f"more core assignments ({len(self.cores)}) than slices "
                f"({self.slices}); raise slices or drop entries"
            )
        rotation: List[FuzzerConfiguration] = []
        for spec in self.cores:
            if isinstance(spec, FuzzerConfiguration):
                rotation.append(spec)
            elif isinstance(spec, CoreConfig):
                rotation.append(replace(self.fuzzer, core=spec))
            elif isinstance(spec, str):
                rotation.append(replace(self.fuzzer, core=resolve_core(spec)))
            else:
                raise ValueError(
                    f"cannot interpret core assignment {spec!r} "
                    "(expected name, CoreConfig or FuzzerConfiguration)"
                )
        return [rotation[index % len(rotation)] for index in range(self.slices)]


@dataclass
class EngineResult:
    """The outcome of one sharded campaign.

    Coverage is kept strictly per core: ``core_coverage`` maps each core name
    to its own merged matrix, and points observed on one core are never folded
    into another core's matrix.  For homogeneous campaigns the legacy
    :attr:`coverage` property exposes the single matrix directly.
    """

    campaign: CampaignResult
    core_coverage: Dict[str, TaintCoverageMatrix]
    # Physical executor count this run was configured with — purely
    # diagnostic, and free to differ between a checkpoint and its resume.
    shards: int
    epochs: int
    # Logical work partition count; every per-slice mapping below is keyed by
    # the slice index, which is stable across reshards.
    slices: int = 0
    slice_cores: Dict[int, str] = field(default_factory=dict)
    slice_points: Dict[int, Set[CoveragePoint]] = field(default_factory=dict)
    slice_summaries: List[Dict[str, object]] = field(default_factory=list)
    # One row per cross-core transfer: donor identity/core/gain, target
    # slice/core, the re-realized seed id, the epoch it ran in, and — once
    # that epoch merged — the globally-new points and reports of the
    # receiving slice-epoch.
    transfers: List[Dict[str, object]] = field(default_factory=list)
    redistributed_seeds: int = 0
    transferred_seeds: int = 0
    wall_clock_seconds: float = 0.0
    # One row per merged slice task, {slice, epoch, wall_seconds,
    # **payload["diagnostics"]}: the window-batch counters, plus `profile`
    # rows, subprocess-simulator process counters and the delivering
    # `worker`/`name`/`reassigned` where they apply.  The repro.analysis
    # tables read these rows; the same rows stream as `tasks` telemetry
    # records.  Diagnostics — never checkpointed, never deterministic.
    task_log: List[Dict[str, object]] = field(default_factory=list)
    # The campaign's telemetry record ring (round/tasks/metrics/campaign
    # records, newest last; see repro.telemetry).  The scheduler shares its
    # live ring here, so the same records a JSONL sink streamed are readable
    # off the result.  Like the task log: diagnostics only — never
    # checkpointed, never in the deterministic wire forms.
    telemetry: TelemetryRing = field(default_factory=TelemetryRing)
    # False when run(max_epochs=...) halted mid-campaign; the checkpoint holds
    # the state needed to resume.
    complete: bool = True

    @property
    def coverage(self) -> TaintCoverageMatrix:
        """The merged matrix of a single-core campaign.

        Heterogeneous campaigns have one matrix *per core* and no single
        merged one — cross-core point merging is exactly what the engine
        refuses to do, because coverage points are microarchitecture-specific
        and an implicit union would silently over-count.  Use
        :attr:`core_coverage` instead.
        """
        if len(self.core_coverage) == 1:
            return next(iter(self.core_coverage.values()))
        cores = ", ".join(sorted(self.core_coverage)) or "none"
        raise ValueError(
            f"this campaign has one coverage matrix per core ({cores}); "
            f"an implicit cross-core merge would over-count, so pick one "
            f"explicitly via core_coverage[name]"
        )

    def total_coverage(self) -> int:
        return sum(len(matrix) for matrix in self.core_coverage.values())

    def productive_transfers(self) -> List[Dict[str, object]]:
        """Transfers whose receiving shard-epoch found globally-new coverage."""
        return [
            row
            for row in self.transfers
            if row["new_global_points"] is not None and row["new_global_points"] > 0
        ]

    def summary(self) -> Dict[str, object]:
        summary = self.campaign.summary()
        summary.update(
            {
                "shards": self.shards,
                "slices": self.slices,
                "sync_epochs": self.epochs,
                "coverage": self.total_coverage(),
                "per_core_coverage": {
                    core: len(matrix)
                    for core, matrix in sorted(self.core_coverage.items())
                },
                "redistributed_seeds": self.redistributed_seeds,
                "cross_core_transfers": self.transferred_seeds,
                "productive_transfers": len(self.productive_transfers()),
                "wall_clock_seconds": round(self.wall_clock_seconds, 2),
            }
        )
        from repro.analysis import simulator_process_table

        process_rows = simulator_process_table(self.task_log)
        if process_rows:
            summary["simulator_processes"] = {
                "spawns": sum(row["spawns"] for row in process_rows),
                "restarts": sum(row["restarts"] for row in process_rows),
            }
        return summary


class CampaignScheduler:
    """The transport-agnostic brain of a sharded campaign.

    Owns every campaign *decision* — the epoch/round schedule, per-slice task
    construction, coverage/corpus merging, redistribution and transfer, and
    the checkpoint cadence — but never executes a task itself.  A driver
    (:class:`ParallelCampaignEngine`, or any other transport loop) pulls
    tasks via :meth:`next_tasks`, runs them on whatever transport it likes,
    and feeds the result payload dicts back through :meth:`complete_epoch`.

    All decisions consume only the logical slice identity and merged
    per-epoch payload data, so they are invariant under the transport:
    worker count, completion order, mid-epoch worker loss (tasks re-run
    elsewhere return identical payloads) — and, across a checkpoint/resume
    boundary, even a *changed shard count* — cannot change the campaign's
    results.
    """

    def __init__(self, configuration: EngineConfiguration) -> None:
        self.configuration = configuration
        self._slice_fuzzers = configuration.slice_fuzzers()
        # Wire form of each core's merged coverage, handed to that core's
        # slices as their starting baseline; refreshed at every epoch merge.
        self._baseline_points: Dict[str, List[Dict[str, object]]] = {}
        # Transfers whose receiving epoch has not merged yet, by (slice, epoch).
        self._pending_transfers: Dict[Tuple[int, int], Dict[str, object]] = {}
        # Run-loop state, kept in one object so a campaign can be
        # checkpointed after any epoch and resumed later (possibly in a new
        # process via :meth:`ParallelCampaignEngine.resume_from`).  The
        # result is created when the first run starts.
        self.state = CheckpointState(
            result=None,
            next_epoch=0,
            assignments=dict.fromkeys(range(configuration.slices)),
            slice_iterations_done={},
            transfer_count=0,
            core_triggered={},
            corpus=SharedCorpus(capacity=CORPUS_CAPACITY),
            wall_clock_seconds=0.0,
        )
        self._run_started: Optional[float] = None
        # Elapsed campaign seconds at the moment the current epoch's tasks
        # were built; bug-report wall clocks are rebased onto it at merge.
        self._epoch_offset_seconds = 0.0
        # The campaign's telemetry pipeline: per-slice metric snapshots merge
        # into its registry at every epoch boundary, and the scheduler emits
        # one structured round record per merge.  Observation only — nothing
        # below ever reads it back into a decision.
        self.telemetry = CampaignTelemetry(directory=configuration.telemetry_dir)

    # -- deterministic derivations ---------------------------------------------------------

    def slice_entropy(self, slice_index: int, epoch: int) -> int:
        """The entropy of one slice-epoch, derived only from the root entropy.

        The stream label names the logical slice — never the physical shard
        executing it — so the split is identical on any fleet size.
        """
        stream = DeterministicRng(
            self.configuration.fuzzer.entropy, f"engine/slice{slice_index}/epoch{epoch}"
        )
        return stream.randint(0, 2**31 - 1)

    @staticmethod
    def slice_seed_id_base(slice_index: int, epoch: int) -> int:
        return (slice_index + 1) * SLICE_ID_STRIDE + epoch * EPOCH_ID_STRIDE

    def slice_core(self, slice_index: int) -> CoreConfig:
        return self._slice_fuzzers[slice_index].core

    def epoch_budgets(self) -> List[List[int]]:
        """Split the iteration budget into ``sync_epochs`` equal shares, then
        each share across the slices.

        Remainders go to the lowest indices, so the grand total is exactly
        ``configuration.iterations`` for any slice/epoch combination.
        """
        configuration = self.configuration
        return [
            _split(budget, configuration.slices)
            for budget in _split(configuration.iterations, configuration.sync_epochs)
        ]

    # -- the driver interface ---------------------------------------------------------------

    @property
    def result(self) -> Optional[EngineResult]:
        return self.state.result

    @property
    def next_epoch(self) -> int:
        """Index of the first epoch that has not merged yet."""
        return self.state.next_epoch

    @property
    def finished(self) -> bool:
        return self.state.next_epoch >= len(self.epoch_budgets())

    def begin_run(self) -> None:
        """Start (or continue) the campaign clock; idempotent per run call."""
        self._run_started = time.perf_counter()
        if self.state.result is None:
            self.state.result = self._new_result()

    def next_tasks(self) -> List[ShardTask]:
        """Build the current epoch's slice tasks (empty when budget-less).

        One task per budgeted slice; the backend decides which physical
        executor leases each one.
        """
        epoch = self.state.next_epoch
        budgets = self.epoch_budgets()[epoch]
        self._epoch_offset_seconds = self.state.wall_clock_seconds + (
            time.perf_counter() - (self._run_started or time.perf_counter())
        )
        return [
            self._build_task(slice_index, epoch, budgets[slice_index])
            for slice_index in range(self.configuration.slices)
            if budgets[slice_index] > 0
        ]

    def complete_epoch(self, payloads: List[Dict[str, object]]) -> None:
        """Fold one epoch's payloads in, decide redistribution, checkpoint.

        Payloads may arrive in any order — they are merged in slice order, so
        history snapshots and corpus tiebreaks stay deterministic regardless
        of which worker finished first.
        """
        configuration = self.configuration
        all_budgets = self.epoch_budgets()
        epoch = self.state.next_epoch
        if payloads:
            result = self.state.result
            redistributed_before = result.redistributed_seeds
            transferred_before = result.transferred_seeds
            ordered = sorted(payloads, key=lambda payload: payload["slice_index"])
            epoch_gains = self._merge_epoch(
                ordered,
                result,
                self._epoch_offset_seconds,
                self.state.slice_iterations_done,
            )
            self.state.assignments = {
                index: None for index in range(configuration.slices)
            }
            if epoch < len(all_budgets) - 1:
                self.state.assignments = self._redistribute(
                    epoch_gains, self.state.result, all_budgets[epoch + 1], epoch + 1
                )
            self._emit_round_record(
                epoch=epoch,
                rounds_total=len(all_budgets),
                merged=len(ordered),
                epoch_gains=epoch_gains,
                redistributed=result.redistributed_seeds - redistributed_before,
                transferred=result.transferred_seeds - transferred_before,
            )
        self.state.next_epoch = epoch + 1
        if configuration.checkpoint_path:
            self.save_checkpoint(configuration.checkpoint_path)

    def _emit_round_record(
        self,
        epoch: int,
        rounds_total: int,
        merged: int,
        epoch_gains: Dict[int, int],
        redistributed: int,
        transferred: int,
    ) -> None:
        """Emit one structured round record for a just-merged epoch.

        Pure observation of already-merged state: nothing here feeds back
        into scheduling, so campaign results never depend on it.
        """
        result = self.state.result
        per_core_gain: Dict[str, int] = {}
        for slice_index, gain in epoch_gains.items():
            core = result.slice_cores.get(slice_index, "?")
            per_core_gain[core] = per_core_gain.get(core, 0) + gain
        event = RoundEvent(
            epoch=epoch,
            rounds_total=rounds_total,
            iterations_done=sum(self.state.slice_iterations_done.values()),
            coverage={
                core: len(matrix)
                for core, matrix in sorted(result.core_coverage.items())
            },
            coverage_gain={
                core: per_core_gain[core] for core in sorted(per_core_gain)
            },
            coverage_total=result.total_coverage(),
            corpus_size=len(self.state.corpus),
            corpus_evictions=self.state.corpus.evictions,
            redistributed=redistributed,
            transferred=transferred,
            reports=len(result.campaign.reports),
            slices=result.slice_summaries[-merged:],
        )
        self.telemetry.emit(event.to_record())
        # The cumulative metric registry rides as its own record, next to
        # the round record it accompanies.
        snapshot = self.telemetry.registry.snapshot()
        if any(snapshot.values()):
            self.telemetry.emit({"type": "metrics", "epoch": epoch, **snapshot})

    def end_run(self) -> EngineResult:
        """Stop the campaign clock and return the (possibly partial) result."""
        result = self.state.result
        result.complete = self.finished
        if result.complete:
            result.campaign.finish()
        self.state.wall_clock_seconds += time.perf_counter() - self._run_started
        self._run_started = None
        result.wall_clock_seconds = self.state.wall_clock_seconds
        self.telemetry.emit(
            {
                "type": "campaign",
                "complete": result.complete,
                "epochs_merged": self.state.next_epoch,
                "rounds_total": len(self.epoch_budgets()),
                "coverage": {
                    core: len(matrix)
                    for core, matrix in sorted(result.core_coverage.items())
                },
                "coverage_total": result.total_coverage(),
                "iterations": result.campaign.iterations_run,
                "reports": len(result.campaign.reports),
                "redistributed": result.redistributed_seeds,
                "transferred": result.transferred_seeds,
                "wall_seconds": round(result.wall_clock_seconds, 3),
                "metrics": self.telemetry.registry.snapshot(),
            }
        )
        return result

    # -- checkpoint / resume ----------------------------------------------------------------

    def configuration_fingerprint(self) -> Dict[str, object]:
        """The configuration facts a checkpoint must match to be resumable.

        Everything that feeds the deterministic derivations is included; the
        execution backend, its sizing knobs, and — since format 2 — the
        physical ``shards`` count deliberately are *not*: a campaign
        checkpointed under the process pool may resume inline or on a
        different-sized worker fleet and still produce identical results.
        What *is* pinned is ``slices``, the logical partition count every
        entropy stream and seed-id namespace derives from.
        """
        configuration = self.configuration
        return {
            "slices": configuration.slices,
            "iterations": configuration.iterations,
            "sync_epochs": configuration.sync_epochs,
            "entropy": configuration.fuzzer.entropy,
            "variant": configuration.fuzzer.variant_name(),
            "low_gain_limit": configuration.fuzzer.low_gain_limit,
            "cores": [prototype.core.name for prototype in self._slice_fuzzers],
        }

    def checkpoint_state(self) -> Dict[str, object]:
        """The scheduler's full mid-campaign state as a JSON-safe dict."""
        if self.state.result is None:
            raise ValueError(
                "no campaign state to checkpoint: run() has not started"
            )
        elapsed = self.state.wall_clock_seconds
        if self._run_started is not None:
            elapsed += time.perf_counter() - self._run_started
        return encode_checkpoint(
            self.configuration_fingerprint(),
            replace(self.state, wall_clock_seconds=elapsed),
        )

    def save_checkpoint(self, path: str) -> str:
        """Write the current campaign state to ``path`` (atomically)."""
        return write_checkpoint(path, self.checkpoint_state())

    def restore(self, payload: Dict[str, object]) -> None:
        """Continue from a loaded checkpoint; a malformed one raises
        :class:`ValueError` and leaves the scheduler as it was."""
        self.state = decode_checkpoint(
            payload,
            self.configuration_fingerprint(),
            self._new_result(),
            SharedCorpus(capacity=CORPUS_CAPACITY),
        )
        self._baseline_points = {
            core: matrix.to_dicts()
            for core, matrix in self.state.result.core_coverage.items()
        }
        self._pending_transfers = {
            (row["target_slice"], row["epoch"]): row
            for row in self.state.result.transfers
            if row["new_global_points"] is None
        }

    # -- epoch plumbing ---------------------------------------------------------------------

    def _new_result(self) -> EngineResult:
        """The empty result a run of this campaign starts from."""
        configuration = self.configuration
        slice_cores = {
            index: prototype.core.name
            for index, prototype in enumerate(self._slice_fuzzers)
        }
        names = list(dict.fromkeys(slice_cores.values()))
        result = EngineResult(
            campaign=CampaignResult(
                fuzzer_name=configuration.fuzzer.variant_name(), core="+".join(names)
            ),
            # One matrix per distinct core, in slice order.
            core_coverage={name: TaintCoverageMatrix() for name in names},
            shards=configuration.shards,
            epochs=len(self.epoch_budgets()),
            slices=configuration.slices,
            slice_cores=slice_cores,
            slice_points={index: set() for index in range(configuration.slices)},
        )
        result.telemetry = self.telemetry.ring
        return result

    def _build_task(
        self,
        slice_index: int,
        epoch: int,
        iterations: int,
    ) -> ShardTask:
        prototype = self._slice_fuzzers[slice_index]
        slice_configuration = replace(
            prototype,
            entropy=self.slice_entropy(slice_index, epoch),
            seed_id_base=self.slice_seed_id_base(slice_index, epoch),
        )
        return ShardTask(
            slice_index=slice_index,
            epoch=epoch,
            iterations=iterations,
            configuration=slice_configuration,
            initial_seed=self.state.assignments.get(slice_index),
            baseline_points=self._baseline_points.get(prototype.core.name, []),
            step_latency=self.configuration.step_latency,
            simulator=self.configuration.simulator,
            profile=self.configuration.profile,
        )

    def _merge_epoch(
        self,
        payloads: List[Dict[str, object]],
        result: EngineResult,
        epoch_offset_seconds: float,
        slice_iterations_done: Dict[int, int],
    ) -> Dict[int, int]:
        """Fold one epoch's slice payloads into the global per-core state."""
        epoch_gains: Dict[int, int] = {}
        rows: List[Dict[str, object]] = []
        for payload in payloads:
            slice_index = payload["slice_index"]
            core_name = payload["core"]
            matrix = result.core_coverage[core_name]
            points = {CoveragePoint.from_dict(entry) for entry in payload["points"]}
            newly_added = matrix.add_points(points)
            epoch_gains[slice_index] = newly_added
            result.slice_points[slice_index] |= points
            # The aggregate curve counts points across cores (per-core curves
            # live in each matrix's own history).
            result.campaign.coverage_history.append(result.total_coverage())
            slice_result = CampaignResult.from_dict(payload["result"])
            # Slice bug metrics are epoch-local; rebase them to the engine's
            # origin (campaign start, slice-cumulative iterations) so
            # merge_shard's min() compares like with like and the merged
            # reports sit on the same timeline as first_bug_*.
            iterations_before = slice_iterations_done.get(slice_index, 0)
            if slice_result.first_bug_iteration is not None:
                slice_result.first_bug_iteration += iterations_before
            if slice_result.first_bug_seconds is not None:
                slice_result.first_bug_seconds += epoch_offset_seconds
            for report in slice_result.reports:
                report.iteration += iterations_before
                report.wall_clock_seconds += epoch_offset_seconds
            slice_iterations_done[slice_index] = (
                slice_iterations_done.get(slice_index, 0) + slice_result.iterations_run
            )
            # Which window-type groups this core has triggered so far; the
            # redistribution walk biases donors towards cores where their
            # group is still untriggered.
            self.state.core_triggered.setdefault(core_name, set()).update(
                slice_result.triggered_windows
            )
            result.campaign.merge_shard(slice_result)
            for entry in payload["top_seeds"]:
                self.state.corpus.add(
                    Seed.from_dict(entry["seed"]),
                    gain=int(entry["gain"]),
                    slice_index=slice_index,
                    epoch=payload["epoch"],
                    core=core_name,
                )
            pending = self._pending_transfers.pop(
                (slice_index, payload["epoch"]), None
            )
            if pending is not None:
                pending["new_global_points"] = newly_added
                pending["reports"] = len(slice_result.reports)
            # Diagnostics ride along in the payload; they never feed the
            # deterministic state.
            rows.append(
                {
                    "slice": slice_index,
                    "epoch": payload["epoch"],
                    "wall_seconds": round(payload["wall_seconds"], 3),
                    **payload["diagnostics"],
                }
            )
            metrics = payload.get("metrics")
            if metrics:
                # Per-task metric snapshots (latency histograms) merge into
                # the campaign registry: each task gets
                # a fresh registry, so snapshots are disjoint contributions
                # and the merge is plain integer addition — deterministic in
                # any arrival order, and never part of campaign state.
                self.telemetry.merge_metrics(metrics)
            result.slice_summaries.append(
                {
                    "slice": slice_index,
                    "epoch": payload["epoch"],
                    "core": core_name,
                    "iterations": slice_result.iterations_run,
                    "new_global_points": newly_added,
                    "reports": len(slice_result.reports),
                    "wall_seconds": round(payload["wall_seconds"], 3),
                }
            )
        self._baseline_points = {
            core: matrix.to_dicts() for core, matrix in result.core_coverage.items()
        }
        result.task_log.extend(rows)
        self.telemetry.emit(
            {
                "type": "tasks",
                "epoch": self.state.next_epoch,
                "rows": [dict(row) for row in rows],
            }
        )
        return epoch_gains

    def _redistribute(
        self,
        epoch_gains: Dict[int, int],
        result: EngineResult,
        next_budgets: Optional[List[int]] = None,
        next_epoch: int = 0,
    ) -> Dict[int, Optional[Dict[str, object]]]:
        """Assign top corpus seeds to the slices that gained the least.

        Donors are considered in global gain order, with a transfer-aware
        bias: donors whose window-type *group* the receiving core has not
        triggered yet rank first (stable within each tier, so gain order
        still decides among them) — a seed is worth the most exactly where
        its window group is still unexplored.  A compatible donor (same core
        as the receiving slice, or untagged) is handed over as-is, while a
        foreign-core donor is *transferred* — its portable genotype
        re-realized for the slice's core.  The shared corpus is thus one
        cross-core pool: if the most productive seed campaign-wide lives on
        the other core, the lagging slice still benefits from it.
        ``next_budgets`` filters out slices with no iterations left in the
        next epoch — assigning them a donor would silently drop the seed while
        withholding it from slices that could still run it.
        """
        configuration = self.configuration
        assignments: Dict[int, Optional[Dict[str, object]]] = {
            index: None for index in range(configuration.slices)
        }
        if not epoch_gains or len(self.state.corpus) == 0:
            return assignments
        eligible = [
            index
            for index in epoch_gains
            if next_budgets is None or next_budgets[index] > 0
        ]
        lagging = sorted(eligible, key=lambda index: (epoch_gains[index], index))
        assigned_ids: set = set()
        for slice_index in lagging[:REDISTRIBUTE_TOP]:
            target_core = self.slice_core(slice_index)
            supported = target_core.supported_window_types()
            triggered_groups = self.state.core_triggered.get(target_core.name, set())
            donors = sorted(
                self.state.corpus.best(len(self.state.corpus), exclude_slice=slice_index),
                key=lambda donor: group_of(donor.seed.window_type)
                in triggered_groups,
            )
            # Each lagging slice gets a *distinct* donor seed, otherwise every
            # redistribution slot would restart from the same global best.
            for donor in donors:
                if donor.seed.seed_id in assigned_ids:
                    continue
                if donor.compatible_with(target_core.name):
                    assignments[slice_index] = donor.seed.to_dict()
                    assigned_ids.add(donor.seed.seed_id)
                    result.redistributed_seeds += 1
                    break
                if not donor.seed.transferable_to(supported):
                    continue
                transferred = donor.seed.transfer(
                    target_core.name,
                    seed_id=TRANSFER_SEED_ID_BASE + self.state.transfer_count,
                    supported=supported,
                )
                self.state.transfer_count += 1
                assignments[slice_index] = transferred.to_dict()
                assigned_ids.add(donor.seed.seed_id)
                result.redistributed_seeds += 1
                result.transferred_seeds += 1
                row: Dict[str, object] = {
                    "donor_seed_id": donor.seed.seed_id,
                    "donor_core": donor.core or donor.seed.core,
                    "donor_slice": donor.slice_index,
                    "donor_gain": donor.gain,
                    "target_core": target_core.name,
                    "target_slice": slice_index,
                    "transferred_seed_id": transferred.seed_id,
                    "epoch": next_epoch,
                    "new_global_points": None,
                    "reports": None,
                }
                result.transfers.append(row)
                self._pending_transfers[(slice_index, next_epoch)] = row
                break
        return assignments


class ParallelCampaignEngine:
    """Drives a :class:`CampaignScheduler` over an :class:`ExecutionBackend`.

    The engine owns neither decisions nor transport: it pulls each epoch's
    tasks from the scheduler, hands them to the backend, and feeds the
    payloads back.  Construction-time knobs (``executor=``) pick the backend;
    :meth:`run` also accepts a pre-built backend instance, which is how a
    caller shares one :class:`~repro.core.distributed.DistributedBackend`
    (and its connected worker fleet) across engines or reads its listen
    address before workers join.
    """

    def __init__(self, configuration: EngineConfiguration) -> None:
        self.configuration = configuration
        self.scheduler = CampaignScheduler(configuration)

    # -- campaign --------------------------------------------------------------------------

    def run(
        self,
        progress_callback: Optional[Callable[[int, "EngineResult"], None]] = None,
        max_epochs: Optional[int] = None,
        backend: Optional[ExecutionBackend] = None,
    ) -> EngineResult:
        """Run the sharded campaign and return the merged outcome.

        ``max_epochs`` bounds how many sync epochs this *call* executes —
        with ``checkpoint_path`` set this is a deterministic stand-in for a
        mid-campaign kill: the returned result has ``complete=False`` and the
        campaign continues from the checkpoint via :meth:`resume_from`.
        A resumed engine picks up exactly where the checkpoint left off.

        ``backend`` substitutes a caller-owned backend for the configured
        one; the engine then does *not* close it, so a connected worker
        fleet survives the call.
        """
        scheduler = self.scheduler
        scheduler.begin_run()
        owns_backend = backend is None
        if backend is None:
            backend = self._create_backend()
        # A shared distributed backend's fabric metrics (roundtrip
        # histograms, reassignment counters) are cumulative across
        # campaigns: snapshot now, attribute the delta to this run at the
        # end.
        backend_metrics = getattr(backend, "metrics", None)
        fabric_start = (
            backend_metrics.snapshot() if backend_metrics is not None else None
        )
        telemetry = scheduler.telemetry
        epochs_this_call = 0
        try:
            while not scheduler.finished:
                if max_epochs is not None and epochs_this_call >= max_epochs:
                    break
                epoch = scheduler.next_epoch
                tasks = scheduler.next_tasks()
                payloads = backend.run_epoch(tasks) if tasks else []
                scheduler.complete_epoch(payloads)
                epochs_this_call += 1
                if tasks and progress_callback is not None:
                    progress_callback(epoch, scheduler.result)
        finally:
            if backend_metrics is not None:
                # Fold this run's share of the fabric metrics into the
                # campaign registry before end_run() snapshots it.
                telemetry.merge_metrics(
                    diff_snapshots(backend_metrics.snapshot(), fabric_start)
                )
            if owns_backend:
                backend.close()
        return scheduler.end_run()

    @classmethod
    def resume_from(
        cls, path: str, configuration: EngineConfiguration
    ) -> "ParallelCampaignEngine":
        """Rebuild a mid-campaign engine from a checkpoint file.

        ``configuration`` must describe the same campaign (checked against
        the checkpoint's fingerprint); the execution backend may differ.
        Calling :meth:`run` on the returned engine continues from the first
        unexecuted epoch.
        """
        engine = cls(configuration)
        engine.scheduler.restore(load_checkpoint(path))
        return engine

    def _create_backend(self) -> ExecutionBackend:
        configuration = self.configuration
        return create_backend(
            configuration.executor,
            max_workers=min(
                configuration.shards,
                configuration.max_workers or configuration.shards,
            ),
            listen=configuration.listen,
            min_workers=configuration.max_workers,
            auth_token=configuration.auth_token,
        )


def run_parallel_campaign(
    core=None,
    shards: Optional[int] = None,
    slices: Optional[int] = None,
    iterations: int = 100,
    sync_epochs: int = 2,
    entropy: int = 2025,
    executor: str = "process",
    cores: Optional[Sequence[object]] = None,
    step_latency: float = 0.0,
    simulator: str = "inproc",
    checkpoint_path: Optional[str] = None,
    listen: Optional[str] = None,
    auth_token: Optional[str] = None,
    backend: Optional[ExecutionBackend] = None,
    telemetry_dir: Optional[str] = None,
    **fuzzer_overrides,
) -> EngineResult:
    """Convenience helper mirroring :func:`repro.core.fuzzer.run_quick_campaign`.

    ``core`` (a registry name, a CoreConfig or a FuzzerConfiguration) is the
    prototype core for homogeneous campaigns; ``cores`` gives a per-slice
    assignment for heterogeneous ones (``core`` then defaults to the first
    entry and only seeds the prototype configuration).  ``shards``
    defaults to one per ``cores`` entry, matching the CLI, or to 4; it only
    sizes the execution backend.  ``slices`` pins the logical partition count
    (default ``max(shards, DEFAULT_MIN_SLICES)``) — everything deterministic
    derives from it, so runs with the same ``slices`` but different
    ``shards`` produce identical campaigns.  ``backend`` passes a
    caller-owned backend instance straight through to
    :meth:`ParallelCampaignEngine.run`.
    """
    if shards is None:
        shards = len(cores) if cores else 4
    if core is None:
        if not cores:
            raise ValueError("either core or cores must be given")
        core = cores[0]
    if isinstance(core, FuzzerConfiguration):
        core = core.core
    elif isinstance(core, str):
        core = resolve_core(core)
    fuzzer_configuration = FuzzerConfiguration(core=core, entropy=entropy, **fuzzer_overrides)
    configuration = EngineConfiguration(
        fuzzer=fuzzer_configuration,
        shards=shards,
        slices=slices,
        iterations=iterations,
        sync_epochs=sync_epochs,
        executor=executor,
        cores=cores,
        step_latency=step_latency,
        simulator=simulator,
        checkpoint_path=checkpoint_path,
        listen=listen,
        auth_token=auth_token,
        telemetry_dir=telemetry_dir,
    )
    return ParallelCampaignEngine(configuration).run(backend=backend)


# -- CLI -------------------------------------------------------------------------------------


def core_registry_lines() -> List[str]:
    """One line per canonical core, with its aliases folded in."""
    aliases_of: Dict[str, List[str]] = {name: [] for name in CORES}
    for alias, target in CORE_ALIASES.items():
        aliases_of[target].append(alias)
    lines = []
    for name in sorted(CORES):
        config = CORES[name]()
        alias_text = f" (aliases: {', '.join(sorted(aliases_of[name]))})" if aliases_of[name] else ""
        lines.append(f"{name:12s} -> {config.name}{alias_text}")
    return lines


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.core.engine",
        description="Run a sharded parallel DejaVuzz campaign.",
    )
    parser.add_argument(
        "--core",
        choices=sorted(CORES) + sorted(CORE_ALIASES),
        default="boom",
        help="simulated core for every slice (default: boom; see --list-cores)",
    )
    parser.add_argument(
        "--cores",
        metavar="A,B,...",
        help="comma-separated core rotation assigned to slices round-robin "
        "for a heterogeneous campaign, e.g. boom,xiangshan (overrides "
        "--core; survives resharding because it is keyed by slice)",
    )
    parser.add_argument(
        "--list-cores",
        action="store_true",
        help="list the core registry (canonical names and aliases) and exit",
    )
    parser.add_argument(
        "--shards", type=int, default=None,
        help="physical executor count — sizes pools/fleets only, never the "
        "campaign's deterministic state, so --resume accepts a different "
        "value (default: 4, or the length of --cores)",
    )
    parser.add_argument(
        "--slices", type=int, default=None,
        help="logical work partition count; pinned by the checkpoint "
        "fingerprint (default: max(shards, 16))",
    )
    parser.add_argument(
        "--iterations", type=int, default=100, help="total iteration budget across all slices"
    )
    parser.add_argument(
        "--epochs", type=int, default=2, help="sync epochs (corpus/coverage merges)"
    )
    parser.add_argument("--entropy", type=int, default=2025, help="root entropy")
    parser.add_argument(
        "--workers", type=int, default=None,
        help="process pool size (default: one per shard); with --backend "
        "distributed: how many worker daemons to wait for before the first "
        "epoch (default: 1)",
    )
    parser.add_argument(
        "--backend",
        choices=sorted(BACKEND_NAMES),
        default="process",
        help="execution backend: process pool (threads under --simulator "
        "subprocess), serial inline, or a distributed coordinator farming "
        "shards to remote worker daemons (default: process)",
    )
    parser.add_argument(
        "--listen",
        metavar="HOST:PORT",
        help="distributed backend: listen here for worker daemons "
        "(python -m repro.core.worker --connect HOST:PORT)",
    )
    parser.add_argument(
        "--step-latency",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="injected wait per simulator invocation, modelling a slow "
        "external RTL simulator (default: 0; inproc simulator only)",
    )
    parser.add_argument(
        "--simulator",
        choices=sorted(SIMULATOR_NAMES),
        default="inproc",
        help="where slice simulations execute: inside the executing process "
        "(inproc) or on per-slice repro.sim server subprocesses with "
        "crash recovery (subprocess); default: inproc",
    )
    parser.add_argument(
        "--auth-token",
        default=None,
        metavar="SECRET",
        help="distributed backend: shared secret worker daemons must present "
        "in HELLO (workers with a wrong or missing token are rejected)",
    )
    parser.add_argument(
        "--checkpoint",
        metavar="PATH",
        help="write a JSON checkpoint after every merged epoch",
    )
    parser.add_argument(
        "--resume",
        metavar="PATH",
        help="resume a checkpointed campaign (same campaign flags required; "
        "the backend may differ)",
    )
    parser.add_argument(
        "--halt-after",
        type=int,
        default=None,
        metavar="EPOCHS",
        help="stop after this many sync epochs in this invocation "
        "(deterministic kill stand-in; combine with --checkpoint/--resume)",
    )
    parser.add_argument(
        "--random-training",
        action="store_true",
        help="DejaVuzz* ablation: random trigger-training packets",
    )
    parser.add_argument(
        "--no-coverage-feedback",
        action="store_true",
        help="DejaVuzz- ablation: mutation ignores taint coverage",
    )
    parser.add_argument(
        "--low-gain-limit",
        type=int,
        default=3,
        help="consecutive low-gain attempts before a seed is discarded",
    )
    parser.add_argument(
        "--profile",
        type=int,
        default=0,
        metavar="N",
        help="profile every slice task with cProfile and report the top N "
        "functions by cumulative time (diagnostics only; the subprocess "
        "simulator ignores it)",
    )
    parser.add_argument(
        "--telemetry-dir",
        metavar="DIR",
        help="stream telemetry records (round/metrics/worker/campaign) as "
        "rotating JSONL files here; tail them live with "
        "python -m repro.analysis.watch DIR",
    )
    parser.add_argument("--json", metavar="PATH", help="also dump the merged result as JSON")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    from repro.generation.training import TrainingMode

    args = build_parser().parse_args(argv)
    if args.list_cores:
        print("known cores:")
        for line in core_registry_lines():
            print(f"  {line}")
        return 0

    core_names = [name.strip() for name in args.cores.split(",") if name.strip()] if args.cores else None
    if core_names is not None and not core_names:
        print("error: --cores must name at least one core")
        return 2
    shards = args.shards if args.shards is not None else (len(core_names) if core_names else 4)
    backend = args.backend
    if backend == "distributed" and not args.listen:
        print("error: --backend distributed requires --listen HOST:PORT")
        return 2

    try:
        core = resolve_core(core_names[0] if core_names else args.core)
        fuzzer_configuration = FuzzerConfiguration(
            core=core,
            entropy=args.entropy,
            training_mode=TrainingMode.RANDOM if args.random_training else TrainingMode.DERIVED,
            coverage_feedback=not args.no_coverage_feedback,
            low_gain_limit=args.low_gain_limit,
        )
        configuration = EngineConfiguration(
            fuzzer=fuzzer_configuration,
            shards=shards,
            slices=args.slices,
            iterations=args.iterations,
            sync_epochs=args.epochs,
            max_workers=args.workers,
            executor=backend,
            step_latency=args.step_latency,
            simulator=args.simulator,
            auth_token=args.auth_token,
            checkpoint_path=args.checkpoint,
            listen=args.listen,
            cores=core_names,
            profile=args.profile,
            telemetry_dir=args.telemetry_dir,
        )
        if args.resume:
            engine = ParallelCampaignEngine.resume_from(args.resume, configuration)
        else:
            engine = ParallelCampaignEngine(configuration)
    except (OSError, ValueError) as error:
        print(f"error: {error}")
        return 2

    total_epochs = configuration.sync_epochs

    if backend == "distributed":
        print(
            f"distributed coordinator: listening on {args.listen}, waiting "
            f"for {args.workers or 1} worker(s)"
        )
        print(
            f"start workers with: python -m repro.core.worker "
            f"--connect {args.listen}"
        )

    def report_epoch(epoch: int, result: EngineResult) -> None:
        print(
            f"[epoch {epoch + 1}/{total_epochs}] "
            f"coverage={result.total_coverage()} reports={len(result.campaign.reports)} "
            f"redistributed={result.redistributed_seeds} "
            f"transferred={result.transferred_seeds}"
        )

    result = engine.run(progress_callback=report_epoch, max_epochs=args.halt_after)

    if not result.complete:
        where = configuration.checkpoint_path or "<no --checkpoint given>"
        print(
            f"\nhalted after epoch {engine.scheduler.next_epoch}/{total_epochs}; "
            f"checkpoint: {where}"
        )
        print("resume with the same campaign flags plus --resume PATH")
        return 0

    print(f"\n{result.campaign.fuzzer_name} on {result.campaign.core}: "
          f"{result.slices} slices on {configuration.shards} shards x "
          f"{result.epochs} epochs "
          f"({backend} backend)")
    for key, value in result.summary().items():
        print(f"  {key:22s} {value}")
    print("\nper slice-epoch:")
    for row in result.slice_summaries:
        print(
            f"  slice {row['slice']} ({row['core']}) epoch {row['epoch']}: "
            f"{row['iterations']:4d} iters, +{row['new_global_points']} global points, "
            f"{row['reports']} reports, {row['wall_seconds']}s"
        )
    if result.transfers:
        print("\ncross-core transfers:")
        for row in result.transfers:
            outcome = (
                f"+{row['new_global_points']} points, {row['reports']} reports"
                if row["new_global_points"] is not None
                else "not yet run"
            )
            print(
                f"  seed {row['donor_seed_id']} [{row['donor_core']}] -> "
                f"slice {row['target_slice']} [{row['target_core']}] "
                f"epoch {row['epoch']}: {outcome}"
            )
    from repro import analysis

    worker_rows = analysis.worker_utilization_table(result.task_log)
    if worker_rows:
        print("\nper-worker utilization:")
        for row in worker_rows:
            print(
                f"  {row['worker']:8s} tasks={row['tasks']:3d} "
                f"epochs={row['epochs']:2d} "
                f"task-seconds={row['task_seconds']:.2f} "
                f"reassigned-in={row['reassigned_tasks']}"
            )
    batch_rows = analysis.window_batch_table(result.task_log)
    if batch_rows:
        print("\nper-slice window batching:")
        for row in batch_rows:
            print(
                f"  slice {row['slice']} batches={row['batches']:4d} "
                f"sims={row['batch_simulations']:4d} "
                f"max-batch={row['max_batch']:2d} "
                f"dut-reuses={row['dut_reuses']}/{row['dut_constructions'] + row['dut_reuses']}"
            )
    process_rows = analysis.simulator_process_table(result.task_log)
    if process_rows:
        print("\nper-slice simulator processes:")
        for row in process_rows:
            print(
                f"  slice {row['slice']} tasks={row['tasks']:3d} "
                f"spawns={row['spawns']:2d} restarts={row['restarts']:2d} "
                f"steps={row['steps']:4d} "
                f"mean-step={row['mean_step_seconds']*1000:.1f}ms"
            )
    profiled = sum(1 for row in result.task_log if "profile" in row)
    if profiled:
        print(f"\nhot functions across {profiled} profiled slice task(s):")
        for row in analysis.profile_hotspot_table(result.task_log, top=args.profile):
            print(
                f"  {row['cumtime']:8.3f}s cum  {row['tottime']:8.3f}s self  "
                f"{row['calls']:9d} calls  {row['function']}"
            )

    telemetry = engine.scheduler.telemetry
    if telemetry.sink is not None and telemetry.sink.records_written:
        print(
            f"\ntelemetry: {telemetry.sink.records_written} record(s) in "
            f"{telemetry.sink.directory}; watch live with "
            f"python -m repro.analysis.watch {telemetry.sink.directory}"
        )

    if args.json:
        payload = {
            "summary": result.summary(),
            "campaign": result.campaign.to_dict(),
            # Timing-free wire form: byte-identical across backends and
            # across interrupted+resumed vs. uninterrupted campaigns.
            "campaign_deterministic": result.campaign.to_dict(include_timing=False),
            "coverage_points": {
                core: matrix.to_dicts()
                for core, matrix in sorted(result.core_coverage.items())
            },
            "slice_summaries": result.slice_summaries,
            "transfers": result.transfers,
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
        print(f"\nwrote {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
