"""Golden-trace oracle for the processor model.

The determinism tests elsewhere compare backends that share one processor
model, so a processor change that shifts every backend's results the same way
passes them all.  This test pins SHA-256 digests of what the processor
produces on fixed inputs:

* one fixed-entropy Phase-1 schedule per window type on ``boom``,
  ``xiangshan`` and ``boom-large``, run untainted through one warm
  :class:`DutPool` per core (so every case after a core's first also goes
  through ``Processor.reset``);
* two diffIFT dual-DUT runs of Phase-2 completed schedules (secret access
  and encoding in the window), which add the per-cycle taint census series.

For each run it digests every trace event list (enqueue, commit, squash,
redirect, trap), the final registers, the side-channel fingerprint, the
cycle counts and packet records, and ``window_triggered`` /
``window_cycle_range``.

Regenerate the data file (only for an intended change of simulated
behaviour) with::

    PYTHONPATH=src python tests/test_processor_golden.py --regenerate
"""

import enum
import hashlib
import json
import os
import sys
from typing import Dict

from repro.core.engine import resolve_core
from repro.core.phase1 import DutPool, TransientWindowTriggering
from repro.core.phase2 import TransientExecutionExploration
from repro.generation.seeds import Seed
from repro.generation.window_types import TransientWindowType
from repro.swapmem.harness import DualCoreHarness
from repro.swapmem.scheduler import SwapRunner
from repro.uarch.config import TaintTrackingMode

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "processor_golden.json")

CORES = ("boom", "xiangshan", "boom-large")
ENTROPY_BASE = 7_300_000
# (core, window type, entropy) of the tainted dual-DUT runs.
DIFFERENTIAL_CASES = (
    ("boom", TransientWindowType.BRANCH_MISPREDICTION, 7_400_001),
    ("xiangshan", TransientWindowType.LOAD_ACCESS_FAULT, 7_400_002),
)

_EVENT_FIELDS = {
    "enqueues": ("cycle", "rob_index", "sequence", "pc", "mnemonic"),
    "commits": ("cycle", "rob_index", "sequence", "pc", "mnemonic"),
    "squashes": ("cycle", "reason", "trigger_sequence", "trigger_pc", "squashed_sequences"),
    "redirects": ("cycle", "source_pc", "target_pc", "reason"),
    "traps": ("cycle", "sequence", "pc", "cause", "tval"),
}


def _digest(material) -> str:
    encoded = json.dumps(material, sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(encoded.encode()).hexdigest()


def _plain(value):
    return value.value if isinstance(value, enum.Enum) else value


def _event_rows(events, names):
    return [[_plain(getattr(event, name)) for name in names] for event in events]


def _run_digests(result, census: bool) -> Dict[str, str]:
    """Digests of one SwapRunResult, taken before its processor is reused."""
    trace = result.trace
    processor = result.processor
    digests = {
        name: _digest(_event_rows(getattr(trace, name), names))
        for name, names in _EVENT_FIELDS.items()
    }
    digests["registers"] = _digest(processor.registers)
    digests["side_channel"] = _digest(processor.side_channel_fingerprint())
    digests["cycles"] = _digest(
        {
            "total_cycles": result.total_cycles,
            "processor_cycle": processor.cycle,
            "committed": processor.committed_instructions,
            "packets": [
                [
                    record.packet_name,
                    record.kind.value,
                    record.start_cycle,
                    record.end_cycle,
                    record.committed_instructions,
                    record.halted_on,
                ]
                for record in result.packet_records
            ],
        }
    )
    digests["window"] = _digest(
        [result.window_triggered(), result.window_cycle_range()]
    )
    if census:
        digests["census"] = _digest(
            [
                [entry.cycle, sorted(entry.element_counts.items())]
                for entry in processor.taint.census_log
            ]
        )
    return digests


def _seed(core: str, window_type: TransientWindowType, entropy: int) -> Seed:
    return Seed.fresh(entropy=entropy, window_type=window_type, seed_id=entropy, core=core)


def compute_golden() -> Dict[str, Dict[str, str]]:
    golden: Dict[str, Dict[str, str]] = {}
    for core in CORES:
        config = resolve_core(core)
        phase1 = TransientWindowTriggering(config)
        pool = DutPool(config)
        for index, window_type in enumerate(TransientWindowType):
            seed = _seed(core, window_type, ENTROPY_BASE + index)
            _spec, schedule = phase1.generate_schedule(seed)
            swap_memory, processor = pool.checkout(seed.secret_value)
            try:
                result = SwapRunner(processor, swap_memory, schedule).run()
                golden[f"phase1/{core}/{window_type.value}"] = _run_digests(result, census=False)
            finally:
                pool.checkin(processor)
    for core, window_type, entropy in DIFFERENTIAL_CASES:
        config = resolve_core(core)
        seed = _seed(core, window_type, entropy)
        phase1 = TransientWindowTriggering(config).run(seed)
        schedule = TransientExecutionExploration(config).complete_window(phase1, seed)
        run = DualCoreHarness(
            config, schedule, seed.secret_value, taint_mode=TaintTrackingMode.DIFFIFT
        ).run()
        prefix = f"diffift/{core}/{window_type.value}"
        golden[f"{prefix}/primary"] = _run_digests(run.primary, census=True)
        golden[f"{prefix}/variant"] = _run_digests(run.variant, census=True)
    return golden


def test_processor_matches_golden_traces():
    with open(GOLDEN_PATH) as handle:
        expected = json.load(handle)
    actual = compute_golden()
    assert sorted(actual) == sorted(expected)
    moved = [
        f"{case}:{name}"
        for case in sorted(expected)
        for name in sorted(expected[case])
        if actual[case].get(name) != expected[case][name]
    ]
    assert not moved, f"simulated behaviour moved: {moved}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit(f"usage: {sys.argv[0]} --regenerate")
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(compute_golden(), handle, indent=1, sort_keys=True)
        handle.write("\n")
