"""Reference paths for the byte-transparent hot-path accelerators.

Production code has one path: the Phase-1 simulation memo, the warm-DUT
pool, the golden-model verify memo (with its assembly cache) and the
dirty-flagged taint census are always on.  Each fake below puts back the
path its accelerator replaced, so a test can run the same work both ways and
compare the deterministic results.  Apply them with pytest's ``monkeypatch``
(or a ``monkeypatch.context()`` to scope them to one arm of a comparison).
"""

from repro.core.phase1 import DutPool, TransientWindowTriggering
from repro.generation.trigger import TriggerGenerator
from repro.uarch.processor import Processor


def uncached_simulation(monkeypatch) -> None:
    """Every Phase-1 simulation runs; none is replayed from the memo."""
    monkeypatch.setattr(
        TransientWindowTriggering, "_simulate", TransientWindowTriggering._simulate_uncached
    )


def fresh_duts(monkeypatch) -> None:
    """Every Phase-1 simulation builds a fresh SwapMemory/Processor pair."""
    monkeypatch.setattr(DutPool, "checkout", DutPool._fresh_pair)


def cold_verification(monkeypatch) -> None:
    """Golden-model verification starts with a cold memo and assembly cache."""
    verify = TriggerGenerator.verify_with_golden_model

    def verify_cold(self, spec, max_instructions=400):
        return verify(TriggerGenerator(self.layout), spec, max_instructions)

    monkeypatch.setattr(TriggerGenerator, "verify_with_golden_model", verify_cold)


def census_recompute(monkeypatch) -> None:
    """Every tainted cycle recomputes the full census, moved counters or not."""
    record = Processor._record_census

    def recompute(self):
        self._census_version = -1
        record(self)

    monkeypatch.setattr(Processor, "_record_census", recompute)


def reference_paths(monkeypatch) -> None:
    """All four reference paths at once."""
    for fake in (uncached_simulation, fresh_duts, cold_verification, census_recompute):
        fake(monkeypatch)
