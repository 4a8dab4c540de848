"""Telemetry overhead: campaign throughput with the counters lit vs dark.

The telemetry pipeline is *always on by default*, which only holds up if the
instrumentation is effectively free: a handful of integer adds and
``perf_counter`` pairs per simulation/exploration step.  This harness A/B
measures a single-shard campaign — the hot path every backend multiplies —
with a real :class:`~repro.telemetry.MetricsRegistry` against the
``NULL_REGISTRY`` off switch, and asserts the cost stays under 5%.

Each arm takes the best of three runs (the benchmark convention for shaking
off scheduler noise on shared CI machines), alternating arms so neither
systematically benefits from warmer caches.  Results are archived to the
untracked ``benchmarks/results/timing/telemetry_overhead.txt``; byte-identical
``campaign_deterministic`` output with telemetry on/off is asserted by
``tests/test_telemetry.py``, so this file only polices the wall clock.
"""

from __future__ import annotations

import time

from bench_utils import format_table, save_timing_results

from repro.core.fuzzer import DejaVuzzFuzzer, FuzzerConfiguration
from repro.telemetry import NULL_REGISTRY, MetricsRegistry
from repro.uarch.boom import small_boom_config

CAMPAIGN_ITERATIONS = 24
ROUNDS = 3
# The acceptance bar: telemetry-on throughput must stay within 5% of off.
# A little slack under it keeps CI honest without flaking on timer jitter.
MAX_OVERHEAD = 0.05


def _run_campaign(metrics) -> float:
    core = small_boom_config()
    configuration = FuzzerConfiguration(core=core, entropy=2025)
    fuzzer = DejaVuzzFuzzer(configuration, metrics=metrics)
    start = time.perf_counter()
    fuzzer.run_campaign(iterations=CAMPAIGN_ITERATIONS)
    elapsed = time.perf_counter() - start
    return CAMPAIGN_ITERATIONS / elapsed if elapsed > 0 else float("inf")


def measure_rates() -> dict:
    """Best-of-N iterations/sec for both arms, alternating runs."""
    # One throwaway run warms module imports and code paths for both arms.
    _run_campaign(NULL_REGISTRY)
    on_rates, off_rates = [], []
    for _ in range(ROUNDS):
        off_rates.append(_run_campaign(NULL_REGISTRY))
        on_rates.append(_run_campaign(MetricsRegistry()))
    return {"on": max(on_rates), "off": max(off_rates)}


def test_telemetry_overhead_under_five_percent():
    rates = measure_rates()
    overhead = 1.0 - rates["on"] / rates["off"]
    table = format_table(
        ["arm", "iterations/sec"],
        [
            ("telemetry off (NULL_REGISTRY)", f"{rates['off']:.2f}"),
            ("telemetry on (MetricsRegistry)", f"{rates['on']:.2f}"),
            ("overhead", f"{overhead * 100:+.1f}%"),
        ],
    )
    text = (
        "Telemetry overhead: single-shard campaign throughput with the\n"
        f"metric instruments live vs the NULL_REGISTRY off switch (best of\n"
        f"{ROUNDS}, {CAMPAIGN_ITERATIONS} iterations per run, alternating arms).\n"
        f"Acceptance bar: on-throughput within {MAX_OVERHEAD:.0%} of off.\n\n"
        + table
    )
    save_timing_results("telemetry_overhead", text)
    assert rates["on"] >= (1.0 - MAX_OVERHEAD) * rates["off"], (
        f"telemetry costs {overhead:.1%} of throughput "
        f"(on {rates['on']:.2f} vs off {rates['off']:.2f} iter/s); "
        f"the always-on default requires <{MAX_OVERHEAD:.0%}"
    )


if __name__ == "__main__":
    test_telemetry_overhead_under_five_percent()
