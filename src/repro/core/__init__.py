"""The DejaVuzz fuzzer: the paper's primary contribution.

The framework (Figure 5) runs in three phases on top of the two operating
primitives:

* **Phase 1 — transient window triggering** (:mod:`repro.core.phase1`):
  trigger generation, targeted training derivation, and training reduction on
  top of swapMem.
* **Phase 2 — transient execution exploration** (:mod:`repro.core.phase2`):
  window completion, diffIFT-instrumented differential simulation, and the
  taint coverage matrix that feeds mutation.
* **Phase 3 — transient leakage analysis** (:mod:`repro.core.phase3`):
  constant-time execution analysis, encode sanitization, and tainted-sink
  liveness analysis.

:class:`repro.core.fuzzer.DejaVuzzFuzzer` wires the phases into a campaign
loop with a seed corpus and coverage feedback; the DejaVuzz* and DejaVuzz−
ablations of §6 are configuration flags on the same class.
"""

from repro.core.coverage import CoveragePoint, TaintCoverageMatrix
from repro.core.phase1 import Phase1Result, TransientWindowTriggering
from repro.core.phase2 import Phase2Result, TransientExecutionExploration
from repro.core.phase3 import LeakageVerdict, Phase3Result, TransientLeakageAnalysis
from repro.core.report import BugReport, CampaignResult
from repro.core.fuzzer import CampaignStep, DejaVuzzFuzzer, FuzzerConfiguration
from repro.core.corpus import CorpusEntry, SharedCorpus
from repro.core.backends import (
    SIMULATOR_NAMES,
    ExecutionBackend,
    InlineBackend,
    ProcessPoolBackend,
    ShardCampaignRunner,
    ShardTask,
    create_backend,
    run_shard_task,
)

# The engine is exported lazily (PEP 562) so that ``python -m repro.core.engine``
# does not import the module twice (once via this package init, once as
# ``__main__``), which would trip runpy's double-import warning.  The
# distributed coordinator and worker daemon are lazy for the same reason
# (both are runnable modules), which also keeps the socket machinery out of
# single-host imports.
_ENGINE_EXPORTS = frozenset(
    {
        "CORES",
        "CORE_ALIASES",
        "CampaignScheduler",
        "EngineConfiguration",
        "EngineResult",
        "ParallelCampaignEngine",
        "resolve_core",
        "run_parallel_campaign",
    }
)


def __getattr__(name):
    if name in _ENGINE_EXPORTS:
        from repro.core import engine

        return getattr(engine, name)
    if name == "DistributedBackend":
        from repro.core import distributed

        return distributed.DistributedBackend
    if name == "run_worker":
        from repro.core import worker

        return worker.run_worker
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "CoveragePoint",
    "TaintCoverageMatrix",
    "Phase1Result",
    "TransientWindowTriggering",
    "Phase2Result",
    "TransientExecutionExploration",
    "LeakageVerdict",
    "Phase3Result",
    "TransientLeakageAnalysis",
    "BugReport",
    "CampaignResult",
    "CampaignStep",
    "DejaVuzzFuzzer",
    "FuzzerConfiguration",
    "CorpusEntry",
    "SharedCorpus",
    "ExecutionBackend",
    "InlineBackend",
    "ProcessPoolBackend",
    "SIMULATOR_NAMES",
    "ShardCampaignRunner",
    "ShardTask",
    "create_backend",
    "run_shard_task",
    "CampaignScheduler",
    "DistributedBackend",
    "EngineConfiguration",
    "EngineResult",
    "ParallelCampaignEngine",
    "resolve_core",
    "run_parallel_campaign",
    "run_worker",
]
