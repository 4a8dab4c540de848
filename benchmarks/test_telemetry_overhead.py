"""Telemetry overhead: campaign throughput with the counters lit vs dark.

The telemetry pipeline is *always on*, which only holds up if the
instrumentation is effectively free: a handful of integer adds and
``perf_counter`` pairs per simulation/exploration step.  This harness A/B
measures a single-shard campaign — the hot path every backend multiplies —
with a real :class:`~repro.telemetry.MetricsRegistry` against
:class:`DarkRegistry`, a registry whose instruments record nothing, and
asserts the cost stays under 5%.

Each pair runs one campaign per arm on the same seed, stepped alternately:
the two campaigns take turns at every simulator boundary
(:meth:`~repro.core.fuzzer.DejaVuzzFuzzer.campaign_steps`), the first arm
alternating, and each arm's steps are timed.  Drift in the host's load so
lands on both arms of a pair alike.  The garbage collector is off while a
pair runs (and collects between pairs): its pauses are triggered by the
allocations of both campaigns together and would land on whichever arm
happened to cross the threshold.  The gate is the median of the per-pair
on/off throughput ratios, so one disturbed pair moves one ratio, not the
verdict.

Results are archived to the untracked
``benchmarks/results/timing/telemetry_overhead.txt``; byte-identical
``campaign_deterministic`` output with telemetry lit/dark is asserted by
``tests/test_campaign_matrix.py``, so this file only polices the wall clock.
"""

from __future__ import annotations

import gc
import statistics
import time

from bench_utils import format_table, save_timing_results

from repro.core.fuzzer import DejaVuzzFuzzer, FuzzerConfiguration
from repro.telemetry import Counter, LatencyHistogram, MetricsRegistry
from repro.uarch.boom import small_boom_config

CAMPAIGN_ITERATIONS = 24
PAIRS = 9
# The acceptance bar: telemetry-on throughput must stay within 5% of off.
MAX_OVERHEAD = 0.05


class _DarkCounter(Counter):
    __slots__ = ()

    def add(self, amount: int = 1) -> None:
        pass


class _DarkHistogram(LatencyHistogram):
    __slots__ = ()

    def record(self, seconds: float) -> None:
        pass


class DarkRegistry(MetricsRegistry):
    """The off arm: every instrument is a shared no-op, so the campaign
    pays one empty call per instrumentation point."""

    __slots__ = ()
    _counter = _DarkCounter()
    _histogram = _DarkHistogram()

    def counter(self, name: str) -> Counter:
        return self._counter

    def histogram(self, name: str) -> LatencyHistogram:
        return self._histogram


def measure_pair() -> tuple:
    """(on, off) iterations/sec of one pair of step-interleaved campaigns."""
    configuration = FuzzerConfiguration(core=small_boom_config(), entropy=2025)
    fuzzers = {
        "on": DejaVuzzFuzzer(configuration, metrics=MetricsRegistry()),
        "off": DejaVuzzFuzzer(configuration, metrics=DarkRegistry()),
    }
    steps = {arm: fuzzer.campaign_steps(CAMPAIGN_ITERATIONS) for arm, fuzzer in fuzzers.items()}
    seconds = dict.fromkeys(steps, 0.0)
    order = ["off", "on"]
    gc.collect()
    gc.disable()
    try:
        while steps:
            for arm in order:
                if arm not in steps:
                    continue
                start = time.perf_counter()
                try:
                    next(steps[arm])
                except StopIteration:
                    del steps[arm]
                seconds[arm] += time.perf_counter() - start
            order.reverse()
    finally:
        gc.enable()
    return CAMPAIGN_ITERATIONS / seconds["on"], CAMPAIGN_ITERATIONS / seconds["off"]


def measure_pairs() -> list:
    # One throwaway pair warms module imports and code paths for both arms.
    measure_pair()
    return [measure_pair() for _ in range(PAIRS)]


def test_telemetry_overhead_under_five_percent():
    pairs = measure_pairs()
    ratio = statistics.median(on / off for on, off in pairs)
    low, _, high = statistics.quantiles([on / off for on, off in pairs], n=4)
    table = format_table(
        ["arm", "median iterations/sec"],
        [
            ("telemetry off (DarkRegistry)", f"{statistics.median(off for _, off in pairs):.2f}"),
            ("telemetry on (MetricsRegistry)", f"{statistics.median(on for on, _ in pairs):.2f}"),
            ("on/off ratio, median (IQR)", f"{ratio:.3f} ({low:.3f}-{high:.3f})"),
            ("overhead", f"{(1.0 - ratio) * 100:+.1f}%"),
        ],
    )
    text = (
        "Telemetry overhead: single-shard campaign throughput with the\n"
        "metric instruments live vs no-op instruments (DarkRegistry), median of\n"
        f"{PAIRS} pairs of step-interleaved campaigns ({CAMPAIGN_ITERATIONS} iterations each).\n"
        f"Acceptance bar: median on/off ratio at least {1.0 - MAX_OVERHEAD:.2f}.\n\n"
        + table
    )
    save_timing_results("telemetry_overhead", text)
    assert ratio >= 1.0 - MAX_OVERHEAD, (
        f"telemetry costs {1.0 - ratio:.1%} of throughput (median on/off "
        f"ratio {ratio:.3f} over {PAIRS} pairs); the always-on default "
        f"requires <{MAX_OVERHEAD:.0%}"
    )


if __name__ == "__main__":
    test_telemetry_overhead_under_five_percent()
