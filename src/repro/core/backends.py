"""Pluggable execution backends for the sharded campaign engine.

The :class:`~repro.core.engine.ParallelCampaignEngine` owns *what* runs — the
slice-epoch schedule, coverage merging and corpus redistribution — but not
*how* it runs.  Each sync epoch it hands a list of :class:`ShardTask` payloads
(one per logical slice; the class keeps its historical name because it is the
unit a physical shard executes) to an :class:`ExecutionBackend` and gets one
JSON-safe result payload dict per task back.  Three backends implement the
protocol:

* :class:`InlineBackend` — runs every task serially in the calling process.
  Deterministic on any host; the debugging and CI default.
* :class:`ProcessPoolBackend` — one task per worker process on a shared
  :class:`~concurrent.futures.ProcessPoolExecutor`; the pool is spawned
  lazily on the first multi-task epoch and reused across epochs (worker spawn
  plus interpreter boot is expensive relative to an epoch's work).  An epoch
  of subprocess-simulated tasks only waits on its simulator servers, so it
  runs on a thread pool of the same size instead, driving the caller's warm
  server pool.
* :class:`~repro.core.distributed.DistributedBackend` (registry name
  ``distributed``; imported lazily so the socket machinery stays out of
  single-host runs) — a TCP coordinator farming tasks to remote
  ``python -m repro.core.worker`` daemons, with heartbeat-based fault
  detection and mid-epoch task reassignment.

Simulator placement: ``ShardTask.simulator`` selects where the simulations
of a slice's steps actually execute.

* ``inproc`` (the default) — the simulator runs inside the executing
  process, exactly as before.
* ``subprocess`` — the slice's steps are driven against an out-of-process
  simulator server (``python -m repro.sim.server``, :mod:`repro.sim`): a
  per-slice server process hosts the simulator behind a JSON-lines stdio
  protocol, the step driver blocks on *real* subprocess turnaround instead
  of an injected sleep, and a crashed or hung server is transparently
  restarted and replayed to the step the slice had reached.  The process
  backend drives these tasks on threads, so the genuine subprocess waits of
  concurrent slices overlap.

Latency model: ``ShardTask.step_latency`` injects a fixed wait per simulator
invocation, standing in for an external RTL simulator that responds after a
delay behind the same wire protocol.  :func:`run_shard_task` pays it with
``time.sleep`` at each step, so the waits overlap exactly as far as the
backend runs tasks concurrently.  Latency never feeds back into the
campaign itself — all backends and both simulator placements produce
byte-identical results for the same configuration, which
``tests/test_campaign_matrix.py`` asserts.

Only cheap wire forms (``to_dict`` payloads and dataclasses of primitives)
cross the backend boundary — simulator state never gets pickled — which is
what keeps the protocol open for distributed (socket/queue) backends later.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.coverage import TaintCoverageMatrix
from repro.core.fuzzer import CampaignStep, DejaVuzzFuzzer, FuzzerConfiguration
from repro.generation.seeds import Seed
from repro.telemetry.metrics import MetricsRegistry


# Where a slice task's simulations execute: in the executing process, or on
# an out-of-process simulator server (repro.sim).
SIMULATOR_NAMES = ("inproc", "subprocess")
# How many of its top-gain seeds a slice task reports for the shared corpus.
REPORT_TOP_SEEDS = 4


@dataclass
class ShardTask:
    """One slice-epoch work unit; everything in it is cheaply picklable.

    ``slice_index`` names the *logical* slice this task advances — the
    stable identity all deterministic derivations (entropy stream, seed-id
    base, corpus provenance) are keyed by.  Which physical shard or worker
    executes the task is an execution-backend concern that never appears
    here.
    """

    slice_index: int
    epoch: int
    iterations: int
    configuration: FuzzerConfiguration
    initial_seed: Optional[Dict[str, object]] = None
    baseline_points: List[Dict[str, object]] = field(default_factory=list)
    # Injected wait per simulator invocation (seconds): models a slow external
    # (RTL) simulator behind the same protocol.  Zero means full speed.
    step_latency: float = 0.0
    # "inproc" runs the simulator in the executing process; "subprocess"
    # drives the steps against a repro.sim server process (real turnaround
    # latency, crash/hang recovery via restart-and-replay).
    simulator: str = "inproc"
    # When positive, run_shard_task wraps the slice-epoch in cProfile and
    # adds the top-N functions by cumulative time to the task's diagnostics
    # (``payload["diagnostics"]["profile"]``).  Like the rest of the
    # diagnostics it never enters the deterministic wire forms or
    # checkpoints.  Ignored by the subprocess simulator (the work runs out
    # of process).
    profile: int = 0

    def __post_init__(self) -> None:
        # A task also arrives from the wire (worker daemons, simulator
        # servers): refuse values no engine would send rather than run them.
        for name in ("slice_index", "epoch", "profile"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)}")
        if self.iterations < 1:
            raise ValueError(f"iterations must be positive, got {self.iterations}")
        if not 0 <= self.step_latency < math.inf:
            raise ValueError(
                f"step_latency must be finite and non-negative, got {self.step_latency}"
            )
        if self.simulator not in SIMULATOR_NAMES:
            raise ValueError(
                f"unknown simulator {self.simulator!r} "
                f"(known: {', '.join(SIMULATOR_NAMES)})"
            )


class ShardCampaignRunner:
    """Stepwise executor of one :class:`ShardTask` with inspectable state.

    Pure function of the task payload: no module-global state is read or
    mutated, which is what makes every backend — and the out-of-process
    simulator server, which hosts exactly this runner — produce identical
    results.  :meth:`advance` executes the campaign up to the next simulator
    boundary and returns the :class:`~repro.core.fuzzer.CampaignStep`, or
    ``None`` once the slice task is finished and :attr:`payload` is available.
    The live :attr:`fuzzer` (coverage matrix), :attr:`result` and
    :attr:`steps_taken` stay readable between steps, which is what the
    simulator server's state digests are computed from.
    """

    def __init__(self, task: ShardTask) -> None:
        self.task = task
        self.started = time.perf_counter()
        # One registry per task: the snapshot on the payload
        # (``payload["metrics"]``) is this task's contribution alone, so epoch
        # merges never need delta bookkeeping.
        self.metrics = MetricsRegistry()
        self.fuzzer = DejaVuzzFuzzer(task.configuration, metrics=self.metrics)
        self.baseline = set()
        if task.baseline_points:
            # Start from the merged global coverage of this slice's core so
            # feedback only rewards globally-new points and mutation steers
            # away from covered modules.
            self.fuzzer.coverage = TaintCoverageMatrix.from_dicts(task.baseline_points)
            self.baseline = self.fuzzer.coverage.points
        initial_seed = (
            None if task.initial_seed is None else Seed.from_dict(task.initial_seed)
        )
        self._steps = self.fuzzer.campaign_steps(
            task.iterations, initial_seed=initial_seed
        )
        self.steps_taken = 0  # simulator boundaries passed; the server reports it
        runner_scope = self.metrics.scope("runner")
        self._window_batch_seconds = runner_scope.histogram("window_batch_seconds")
        self._explore_step_seconds = runner_scope.histogram("explore_step_seconds")
        # The accumulating CampaignResult, from the first step onward.
        self.result: Optional[object] = None
        self.payload: Optional[Dict[str, object]] = None

    @property
    def finished(self) -> bool:
        return self.payload is not None

    def advance(self) -> Optional[CampaignStep]:
        """Run to the next simulator boundary; ``None`` when the task is done."""
        if self.payload is not None:
            return None
        started = time.perf_counter()
        try:
            step = next(self._steps)
        except StopIteration as stop:
            self.result = stop.value
            self.payload = self._build_payload()
            return None
        elapsed = time.perf_counter() - started
        if step.phase == "window":
            self._window_batch_seconds.record(elapsed)
        else:
            self._explore_step_seconds.record(elapsed)
        self.result = step.result
        self.steps_taken += 1
        return step

    def _build_payload(self) -> Dict[str, object]:
        task = self.task
        observed = sorted(
            self.fuzzer.coverage.points - self.baseline,
            key=lambda point: (point.module, point.tainted_count),
        )
        return {
            "slice_index": task.slice_index,
            "epoch": task.epoch,
            "core": task.configuration.core.name,
            "result": self.result.to_dict(),
            "points": [point.to_dict() for point in observed],
            "top_seeds": [
                {"seed": seed.to_dict(), "gain": gain}
                for seed, gain in self.fuzzer.top_seeds(REPORT_TOP_SEEDS)
            ],
            "wall_seconds": time.perf_counter() - self.started,
            # The task's one diagnostics dict, starting with the window-batch
            # and DUT-pool counters.  The profiler, the subprocess simulator
            # client and the distributed coordinator add their own keys; the
            # scheduler turns it into this task's EngineResult.task_log row.
            # Never enters deterministic wire forms or checkpoints.
            "diagnostics": self.fuzzer.batch_stats(),
            # Metrics ride the payload like the diagnostics: never
            # deterministic, merged at epoch boundaries, never checkpointed.
            "metrics": {
                "slice_index": task.slice_index,
                "epoch": task.epoch,
                **self.metrics.snapshot(),
            },
        }


def profile_rows(profiler, top: int) -> List[Dict[str, object]]:
    """The top-``top`` functions of a cProfile run, by cumulative time.

    Each row is JSON-safe (``{function, calls, tottime, cumtime}``) so the
    payload can cross any backend's wire protocol unchanged.
    """
    import pstats

    stats = pstats.Stats(profiler)
    stats.sort_stats("cumulative")
    rows: List[Dict[str, object]] = []
    for func in stats.fcn_list[:top]:
        filename, line, name = func
        _, ncalls, tottime, cumtime, _ = stats.stats[func]
        rows.append(
            {
                "function": f"{filename}:{line}({name})",
                "calls": int(ncalls),
                "tottime": round(tottime, 6),
                "cumtime": round(cumtime, 6),
            }
        )
    return rows


def run_shard_task(task: ShardTask) -> Dict[str, object]:
    """Execute one slice-epoch to completion in the current process.

    Drives a :class:`ShardCampaignRunner` to completion: used directly by the
    inline backend and as the worker function of the process pool.  Injected
    simulator latency is paid with a blocking sleep at every step, exactly
    like a synchronous RTL-simulator call would block the worker.  With
    ``task.simulator == "subprocess"`` the steps run against a per-slice
    simulator server process instead, and the blocking waits are the real
    protocol round trips.  ``task.profile > 0`` wraps the drive loop in
    cProfile and adds the hottest functions to the diagnostics (injected
    latency shows up as ``time.sleep`` rows — profile at zero latency for
    clean compute numbers).
    """
    if task.simulator == "subprocess":
        from repro.sim.client import run_task_on_default_pool

        return run_task_on_default_pool(task)
    profiler = None
    if task.profile > 0:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    try:
        runner = ShardCampaignRunner(task)
        while True:
            step = runner.advance()
            if step is None:
                break
            if task.step_latency > 0:
                time.sleep(task.step_latency * step.simulations)
    finally:
        if profiler is not None:
            profiler.disable()
    payload = runner.payload
    if profiler is not None:
        payload["diagnostics"]["profile"] = profile_rows(profiler, task.profile)
    return payload


class ExecutionBackend:
    """How one sync epoch's slice tasks get executed.

    Implementations submit :class:`ShardTask` payloads and collect the result
    payload dicts of :func:`run_shard_task`, in task order.  A backend may
    hold resources across epochs (the process pool does); the engine calls
    :meth:`close` exactly once when the campaign ends.
    """

    name: str = "abstract"

    def run_epoch(self, tasks: List[ShardTask]) -> List[Dict[str, object]]:
        raise NotImplementedError

    def close(self) -> None:
        """Release any held resources; idempotent."""


class InlineBackend(ExecutionBackend):
    """Serial in-process execution — the reference backend."""

    name = "inline"

    def run_epoch(self, tasks: List[ShardTask]) -> List[Dict[str, object]]:
        return [run_shard_task(task) for task in tasks]


class ProcessPoolBackend(ExecutionBackend):
    """One worker per slice task, on pools reused across epochs.

    An in-process simulation needs a process of its own to get around the
    GIL, so such epochs run on a :class:`ProcessPoolExecutor`.  A task with
    ``simulator == "subprocess"`` only waits on its server, so an epoch of
    them runs on a :class:`ThreadPoolExecutor` of the same size that drives
    the caller's warm :func:`~repro.sim.client.default_pool`: one server per
    slice, whichever thread runs it.  Each pool is built on first use and
    kept, so one backend can serve campaigns of both simulator modes.
    """

    name = "process"

    def __init__(self, max_workers: Optional[int] = None) -> None:
        if max_workers is not None and max_workers <= 0:
            raise ValueError(f"max_workers must be positive, got {max_workers}")
        self.max_workers = max_workers
        self._pool: Optional[ProcessPoolExecutor] = None
        self._threads: Optional[ThreadPoolExecutor] = None

    def run_epoch(self, tasks: List[ShardTask]) -> List[Dict[str, object]]:
        if len(tasks) == 1:
            # Not worth a round trip through a worker.
            return [run_shard_task(tasks[0])]
        workers = self.max_workers or len(tasks)
        if all(task.simulator == "subprocess" for task in tasks):
            if self._threads is None:
                self._threads = ThreadPoolExecutor(
                    max_workers=workers, thread_name_prefix="sim-step"
                )
            pool = self._threads
        else:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(max_workers=workers)
            pool = self._pool
        return list(pool.map(run_shard_task, tasks))

    def close(self) -> None:
        for pool in (self._pool, self._threads):
            if pool is not None:
                pool.shutdown()
        self._pool = self._threads = None


BACKEND_NAMES = ("inline", "process", "distributed")


def create_backend(
    name: str,
    max_workers: Optional[int] = None,
    listen: Optional[str] = None,
    min_workers: Optional[int] = None,
    auth_token: Optional[str] = None,
) -> ExecutionBackend:
    """Build a backend from its registry name.

    ``max_workers`` sizes the process pool (default: one per task);
    ``listen``/``min_workers`` give the distributed coordinator its
    ``host:port`` (default: any free localhost port) and how many worker
    daemons to wait for before dispatching the first epoch (default 1);
    ``auth_token`` makes the coordinator reject worker daemons whose HELLO
    does not carry the same shared secret.
    """
    if name == "inline":
        return InlineBackend()
    if name == "process":
        return ProcessPoolBackend(max_workers=max_workers)
    if name == "distributed":
        from repro.core.distributed import DistributedBackend

        return DistributedBackend(
            listen=listen or "127.0.0.1:0",
            min_workers=min_workers if min_workers is not None else 1,
            auth_token=auth_token,
        )
    known = ", ".join(BACKEND_NAMES)
    raise ValueError(f"unknown execution backend {name!r} (known: {known})")
