"""The paired-ratio helper every wall-clock bar of the benchmarks goes through."""

import bench_utils
from bench_utils import paired_ratio


def fake_arms(monkeypatch, seconds):
    """Two arms that log their calls and advance a fake clock by ``seconds``."""
    clock, calls = [0.0], []
    monkeypatch.setattr(bench_utils, "perf_counter", lambda: clock[0])

    def arm(name):
        def run():
            calls.append(name)
            clock[0] += seconds[name][calls.count(name) - 1]
            return f"{name}{calls.count(name)}"

        return run

    return arm("reference"), arm("fast"), calls


def test_pairs_alternate_which_arm_runs_first(monkeypatch):
    reference, fast, calls = fake_arms(monkeypatch, {"reference": [1.0] * 3, "fast": [1.0] * 3})
    paired = paired_ratio(reference, fast)
    assert calls == ["reference", "fast", "fast", "reference", "reference", "fast"]
    assert paired.reference == ("reference1", "reference2", "reference3")
    assert paired.fast == ("fast1", "fast2", "fast3")


def test_median_and_iqr_of_the_per_pair_ratios(monkeypatch):
    reference, fast, _ = fake_arms(
        monkeypatch, {"reference": [4.0, 6.0, 6.0], "fast": [2.0, 1.0, 2.0]}
    )
    paired = paired_ratio(reference, fast)
    assert paired.ratios == [2.0, 6.0, 3.0]
    assert paired.median == 3.0
    # statistics.quantiles' default (exclusive) method puts the quartiles of
    # three ratios at positions 1 and 3 of the sorted list.
    assert paired.iqr == (2.0, 6.0)
    assert paired.describe() == "median 3.00x (IQR 2.00-6.00) over 3 alternating pairs"
