"""Table 5 — summary of discovered transient execution bugs.

Runs a DejaVuzz campaign on each core (with the paper's five defects injected)
and regenerates the Table-5-style summary: attack type x transient-window
category x encoded timing components, plus which of the known CVE-assigned
defects (B1-B5) were matched and the iteration of the first finding.  The
wall-clock time of the first finding varies from run to run, so it goes to a
separate, untracked timing table.
"""

from bench_utils import format_table, save_results, save_timing_results

from repro.core import DejaVuzzFuzzer, FuzzerConfiguration
from repro.uarch import BUG_REGISTRY, small_boom_config, xiangshan_minimal_config

ITERATIONS = 45


def run_table5_campaigns():
    campaigns = {}
    for label, core in (
        ("BOOM", small_boom_config()),
        ("XiangShan", xiangshan_minimal_config()),
    ):
        fuzzer = DejaVuzzFuzzer(FuzzerConfiguration(core=core, entropy=2025))
        campaigns[label] = fuzzer.run_campaign(ITERATIONS)
    return campaigns


def render_table5(campaigns):
    rows = []
    for label, campaign in campaigns.items():
        for row in campaign.table5_rows():
            rows.append(
                [
                    label,
                    row["attack_type"],
                    row["transient_window"],
                    row["encoded_timing_component"],
                ]
            )
    table = format_table(
        ["Processor", "Attack Type", "Transient Window", "Encoded Timing Component"], rows
    )
    extra_lines = []
    for label, campaign in campaigns.items():
        matched = ", ".join(campaign.matched_known_bugs()) or "none"
        extra_lines.append(
            f"{label}: {len(campaign.reports)} reports, "
            f"{len(campaign.unique_bug_signatures())} unique signatures, "
            f"known defects matched: {matched}, "
            f"first finding at iteration {campaign.first_bug_iteration}"
        )
    return table + "\n\n" + "\n".join(extra_lines)


def render_first_finding_times(campaigns):
    return "\n".join(
        f"{label}: first finding after {campaign.first_bug_seconds:.1f}s"
        for label, campaign in campaigns.items()
    )


def test_table5_discovered_bugs(benchmark):
    campaigns = benchmark.pedantic(run_table5_campaigns, rounds=1, iterations=1)
    save_results("table5_bugs", render_table5(campaigns))
    save_timing_results("table5_first_finding", render_first_finding_times(campaigns))

    for label, campaign in campaigns.items():
        assert campaign.reports, f"no leakages reported on {label}"
        assert campaign.first_bug_iteration is not None
        # Both Meltdown-type and Spectre-type findings appear on both cores.
        attack_types = {report.attack_type for report in campaign.reports}
        assert {"meltdown", "spectre"} <= attack_types
        # The dcache is always among the encoded timing components.
        components = {c for report in campaign.reports for c in report.timing_components}
        assert "dcache" in components

    # Core-specific defect matching: B1 only exists on XiangShan, B2/B3 only on BOOM.
    boom_matched = set(campaigns["BOOM"].matched_known_bugs())
    xiangshan_matched = set(campaigns["XiangShan"].matched_known_bugs())
    assert "meltdown-sampling" not in boom_matched
    assert not ({"phantom-rsb", "phantom-btb"} & xiangshan_matched)
    assert all(identifier in BUG_REGISTRY for identifier in boom_matched | xiangshan_matched)
