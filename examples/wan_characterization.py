#!/usr/bin/env python3
"""Reproduce the paper's §2 measurement study on a simulated fortnight.

Prints the four §2 characterizations the way a measurement notebook
would: prevalence of badness by region (Fig. 2), badness by hour with a
night-time elevation (Fig. 3), the long-tailed persistence distribution
(Fig. 4a), and the impact-skew comparison of the two issue rankings
(Fig. 4b).

Run:
    python examples/wan_characterization.py
"""

from __future__ import annotations

from repro.analysis.cdf import ECDF
from repro.analysis.characterize import (
    PersistenceTracker,
    bad_fraction_by_hour,
    bad_fraction_by_region,
    impact_records_from_issues,
)
from repro.core.impact import (
    coverage_at_fraction,
    cumulative_impact_curve,
    rank_by_impact,
    rank_by_prefix_count,
)
from repro.net.geo import Region
from repro.perf.batch import BatchQuartetGenerator
from repro.sim.scenario import Scenario, ScenarioParams

DAYS = 4
WINDOW = range(288, (DAYS + 1) * 288)


def main() -> None:
    params = ScenarioParams(seed=2025, duration_days=DAYS + 1)
    scenario = Scenario.build(params)
    targets = scenario.world.targets
    print(f"simulating {DAYS} days over {len(scenario.world.slots)} "
          f"⟨client /24, location⟩ pairs ...")

    generator = BatchQuartetGenerator(scenario)
    buffered = [(t, generator.generate_quartets(t)) for t in WINDOW]

    # -- Figure 2: prevalence by region ---------------------------------
    fractions = bad_fraction_by_region((q for _, q in buffered), targets)
    print("\n[Fig. 2] bad-quartet fraction by region:")
    for region in Region:
        cells = []
        for mobile, label in ((False, "fixed"), (True, "mobile")):
            value = fractions.get((region, mobile))
            if value is not None:
                cells.append(f"{label} {100 * value:.2f}%")
        print(f"  {region!s:<10} {'  '.join(cells)}")

    # -- Figure 3: diurnal badness ---------------------------------------
    by_hour = bad_fraction_by_hour(buffered, targets)
    print("\n[Fig. 3] worst and best hours (badness %):")
    ranked_hours = sorted(by_hour, key=lambda h: -by_hour[h])
    for hour in ranked_hours[:3]:
        print(f"  hour {hour:>3} (UTC {hour % 24:02d}h): {100 * by_hour[hour]:.2f}%")
    print("  ...")
    for hour in ranked_hours[-3:]:
        print(f"  hour {hour:>3} (UTC {hour % 24:02d}h): {100 * by_hour[hour]:.2f}%")

    # -- Figure 4a: persistence ------------------------------------------
    tracker = PersistenceTracker()
    for time, quartets in buffered:
        tracker.observe_bucket(time, PersistenceTracker.bad_keys(quartets, targets))
    runs = tracker.finish()
    ecdf = ECDF([float(r) for r in runs])
    print(f"\n[Fig. 4a] {len(runs)} badness episodes:")
    print(f"  lasting ≤ 5 min : {100 * ecdf(1.0):.1f}%  (paper: >60%)")
    print(f"  lasting > 2 h   : {100 * (1 - ecdf(24.0)):.1f}%  (paper: ~8%)")

    # -- Figure 4b: impact skew -------------------------------------------
    records = impact_records_from_issues(buffered, targets)
    by_impact = cumulative_impact_curve(rank_by_impact(records))
    by_prefix = cumulative_impact_curve(rank_by_prefix_count(records))
    impact_cover = coverage_at_fraction(by_impact, 0.8)
    prefix_cover = coverage_at_fraction(by_prefix, 0.8)
    print(f"\n[Fig. 4b] {len(records)} ⟨location, BGP path⟩ issue aggregates:")
    print(f"  tuples needed for 80% impact, ranked by client-time: "
          f"{100 * impact_cover:.0f}%  (paper: ~20%)")
    print(f"  tuples needed for 80% impact, ranked by /24 count : "
          f"{100 * prefix_cover:.0f}%  (paper: ~60%)")
    print(f"  → the impact ranking is {prefix_cover / impact_cover:.1f}x tighter")


if __name__ == "__main__":
    main()
