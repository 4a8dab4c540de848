"""The five classic attacks as ready-to-run swap schedules."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.core.phase1 import TransientWindowTriggering
from repro.core.phase2 import TransientExecutionExploration
from repro.generation.seeds import EncodeStrategy, Seed
from repro.generation.window_types import TransientWindowType
from repro.swapmem.harness import DifferentialRunResult, DualCoreHarness
from repro.swapmem.packets import SwapSchedule
from repro.uarch.config import CoreConfig, TaintTrackingMode


@dataclass(frozen=True)
class AttackScenario:
    """A named classic attack and the window type + seed that realise it."""

    name: str
    window_type: TransientWindowType
    entropy: int
    encode_strategies: Tuple[EncodeStrategy, ...] = (EncodeStrategy.DCACHE_INDEX,)
    description: str = ""


ATTACK_SCENARIOS: Dict[str, AttackScenario] = {
    "spectre-v1": AttackScenario(
        name="spectre-v1",
        window_type=TransientWindowType.BRANCH_MISPREDICTION,
        entropy=101,
        description="Bounds-check bypass: a trained conditional branch mispredicts into the window.",
    ),
    "spectre-v2": AttackScenario(
        name="spectre-v2",
        window_type=TransientWindowType.INDIRECT_MISPREDICTION,
        entropy=102,
        description="Branch target injection: the BTB is trained to send an indirect jump into the window.",
    ),
    "spectre-rsb": AttackScenario(
        name="spectre-rsb",
        window_type=TransientWindowType.RETURN_MISPREDICTION,
        entropy=103,
        description="Return stack poisoning: a trained RAS entry sends a return into the window.",
    ),
    "spectre-v4": AttackScenario(
        name="spectre-v4",
        window_type=TransientWindowType.MEMORY_DISAMBIGUATION,
        entropy=104,
        description="Speculative store bypass: a load executes before an older aliasing store resolves.",
    ),
    "meltdown": AttackScenario(
        name="meltdown",
        window_type=TransientWindowType.LOAD_PAGE_FAULT,
        entropy=105,
        description="Cross-privilege read: a faulting load forwards protected data to the window.",
    ),
}


def _seed_for(scenario: AttackScenario, secret: int) -> Seed:
    # The scenario entropy doubles as the seed id so attack schedules are
    # reproducible regardless of how many seeds were created beforehand
    # (Seed.fresh would otherwise draw from the module-level id counter).
    return Seed.fresh(
        entropy=scenario.entropy,
        window_type=scenario.window_type,
        encode_strategies=scenario.encode_strategies,
        secret_value=secret,
        seed_id=scenario.entropy,
    )


def build_attack_schedule(
    scenario_name: str,
    core: CoreConfig,
    secret: int = 0x5A5A_A5A5_0F0F_F0F0,
    max_attempts: int = 8,
) -> Tuple[SwapSchedule, Seed]:
    """Build the completed (secret-accessing, secret-encoding) schedule for an attack.

    Phase 1 and Step 2.1 of the fuzzer are reused to produce the packets; the
    seed entropy is advanced until a triggering stimulus is found (generation
    is stochastic, exactly as in the fuzzer).
    """
    scenario = ATTACK_SCENARIOS[scenario_name]
    phase1 = TransientWindowTriggering(core)
    phase2 = TransientExecutionExploration(core)
    last_error: Optional[str] = None
    for attempt in range(max_attempts):
        seed = _seed_for(scenario, secret)
        if attempt:
            # Explicit seed_id for the same reason as _seed_for: mutated()
            # would otherwise draw from the module-level id counter.
            seed = seed.mutated(
                entropy=scenario.entropy + 1000 * attempt,
                seed_id=scenario.entropy + 1000 * attempt,
            )
        result = phase1.run(seed)
        if not result.triggered:
            last_error = f"attempt {attempt}: window did not trigger"
            continue
        schedule = phase2.complete_window(result, seed)
        return schedule, seed
    raise RuntimeError(
        f"could not build scenario {scenario_name!r} on {core.name}: {last_error}"
    )


def run_attack(
    scenario_name: str,
    core: CoreConfig,
    taint_mode: TaintTrackingMode = TaintTrackingMode.DIFFIFT,
    secret: int = 0x5A5A_A5A5_0F0F_F0F0,
    false_negative_mode: bool = False,
) -> DifferentialRunResult:
    """Build and run one attack scenario on the dual-DUT harness."""
    schedule, seed = build_attack_schedule(scenario_name, core, secret=secret)
    harness = DualCoreHarness(
        core,
        schedule,
        secret=seed.secret_value,
        taint_mode=taint_mode,
        false_negative_mode=false_negative_mode,
    )
    return harness.run()
