"""Figure 4b — cumulative problem impact under two rankings.

Paper findings reproduced: ranking ⟨cloud location, BGP path⟩ tuples by
their *client-time product* concentrates impact far more than ranking by
affected-prefix counts — the paper needs only 20 % of tuples for 80 % of
impact versus 60 % under the prefix ranking (a 3× gap).
"""

from __future__ import annotations

from _util import emit

from repro.analysis.characterize import impact_records_from_issues
from repro.analysis.report import render_series
from repro.core.impact import (
    coverage_at_fraction,
    cumulative_impact_curve,
    rank_by_impact,
    rank_by_prefix_count,
)
from repro.perf.batch import BatchQuartetGenerator

#: Four simulated days.
WINDOW = range(288, 5 * 288)


def _impact_curves(scenario):
    generator = BatchQuartetGenerator(scenario)
    stream = ((t, generator.generate_quartets(t)) for t in WINDOW)
    records = impact_records_from_issues(stream, scenario.world.targets)
    by_impact = cumulative_impact_curve(rank_by_impact(records))
    by_prefix = cumulative_impact_curve(rank_by_prefix_count(records))
    return records, by_impact, by_prefix


def test_fig4b_impact_skew(benchmark, global_scenario):
    records, by_impact, by_prefix = benchmark.pedantic(
        _impact_curves, args=(global_scenario,), rounds=1, iterations=1
    )
    assert len(records) >= 20, "too few issue aggregates"
    impact_cover = coverage_at_fraction(by_impact, 0.8)
    prefix_cover = coverage_at_fraction(by_prefix, 0.8)
    grid = [0.1, 0.2, 0.4, 0.6, 0.8, 1.0]
    rows = []
    n = len(by_impact)
    for fraction in grid:
        k = max(1, int(round(fraction * n)))
        rows.append(
            (
                f"{100 * fraction:.0f}% of tuples",
                f"impact-rank {by_impact[k - 1]:.3f} | prefix-rank {by_prefix[k - 1]:.3f}",
            )
        )
    text = render_series(
        "Figure 4b: cumulative impact coverage (⟨location, BGP path⟩ tuples)",
        rows,
        x_label="tuples ranked",
        y_label="impact covered",
    )
    text += (
        f"\ntuple fraction for 80% impact, impact-ranked : {impact_cover:.3f}"
        f" (paper: ~0.20)"
        f"\ntuple fraction for 80% impact, prefix-ranked : {prefix_cover:.3f}"
        f" (paper: ~0.60)"
        f"\ngap: {prefix_cover / impact_cover:.1f}x (paper: ~3x)"
    )
    # Impact ranking dominates, with a clear multiple.
    assert impact_cover < prefix_cover
    assert prefix_cover / impact_cover >= 1.3
    emit("fig4b_impact", text)
