"""Figure 2 — % of bad quartets per region, mobile vs non-mobile.

Paper findings reproduced: badness is widely distributed (every region
and connectivity class shows a substantial bad fraction), and the USA —
despite mature infrastructure — shows a *high* bad fraction because its
RTT targets are deliberately aggressive.
"""

from __future__ import annotations

from _util import emit

from repro.analysis.characterize import (
    bad_fraction_by_location,
    bad_fraction_by_region,
)
from repro.analysis.report import render_table
from repro.net.geo import Region
from repro.perf.batch import BatchQuartetGenerator

#: Five simulated days.
WINDOW = range(288, 6 * 288)


def _prevalence(scenario):
    generator = BatchQuartetGenerator(scenario)
    buffered = [generator.generate_quartets(t) for t in WINDOW]
    return (
        bad_fraction_by_region(iter(buffered), scenario.world.targets),
        bad_fraction_by_location(iter(buffered), scenario.world.targets),
    )


def test_fig2_bad_quartet_prevalence(benchmark, global_scenario):
    fractions, by_location = benchmark.pedantic(
        _prevalence, args=(global_scenario,), rounds=1, iterations=1
    )
    rows = []
    for region in Region:
        fixed = fractions.get((region, False))
        mobile = fractions.get((region, True))
        rows.append(
            [
                str(region),
                f"{100 * fixed:.2f}%" if fixed is not None else "-",
                f"{100 * mobile:.2f}%" if mobile is not None else "-",
            ]
        )
    text = render_table(
        ["Region", "non-mobile bad", "mobile bad"],
        rows,
        title="Figure 2: fraction of bad quartets by region",
    )
    # Badness is widespread: every region shows a non-negligible fraction.
    per_region = {}
    for (region, _mobile), fraction in fractions.items():
        per_region.setdefault(region, []).append(fraction)
    for region, values in per_region.items():
        assert max(values) > 0.0005, f"no badness in {region}"
    # The USA inversion: aggressive targets → among the highest fractions.
    usa = max(per_region[Region.USA])
    others = [max(v) for r, v in per_region.items() if r is not Region.USA]
    assert usa >= sorted(others)[len(others) // 2]  # at or above the median
    # §2.2's location view: badness touches a substantial share of
    # locations (the paper: one-third of locations ≥ 13% bad quartets).
    affected = sum(1 for f in by_location.values() if f > 0.001)
    text += (
        f"\nlocations with measurable badness: {affected}/{len(by_location)}"
        f"; worst location: {100 * max(by_location.values()):.2f}% bad"
    )
    assert affected >= len(by_location) // 3
    emit("fig2_prevalence", text)
