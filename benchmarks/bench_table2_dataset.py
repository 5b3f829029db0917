"""Table 2 — dataset shape: measurements, client IPs, /24s, prefixes, ASes, metros.

The paper analyzes a month of production telemetry (trillions of RTTs,
O(100M) client IPs). The bench measures the same columns on the
simulated world and checks the *relative* ordering the paper's table
implies: measurements ≫ client IPs ≫ /24s ≥ BGP prefixes ≫ ASes ≥ metros.
"""

from __future__ import annotations

from _util import emit

from repro.analysis.report import render_table
from repro.perf.batch import BatchQuartetGenerator

#: One simulated day of telemetry is counted (the month is a linear scale-up).
DAY_BUCKETS = range(288, 2 * 288)


def _dataset_counts(scenario):
    world = scenario.world
    measurements = 0
    active_prefixes = set()
    generator = BatchQuartetGenerator(scenario)
    for time in DAY_BUCKETS:
        for quartet in generator.generate_quartets(time):
            measurements += quartet.n_samples
            active_prefixes.add(quartet.prefix24)
    return {
        "# RTT measurements (1 day)": measurements,
        "# client IPs": world.population.total_users(),
        "# client IP /24s": len(active_prefixes),
        "# BGP prefixes": len(world.population.announcements()),
        "# client ASes": len(world.population.asns),
        "# client metros": len({p.metro.name for p in world.population}),
    }


def test_table2_dataset_shape(benchmark, global_scenario):
    counts = benchmark.pedantic(
        _dataset_counts, args=(global_scenario,), rounds=1, iterations=1
    )
    paper = {
        "# RTT measurements (1 day)": "many trillions (month)",
        "# client IPs": "O(100 million)",
        "# client IP /24s": "many millions",
        "# BGP prefixes": "O(100,000)",
        "# client ASes": "O(10,000)",
        "# client metros": "O(100)",
    }
    rows = [[key, value, paper[key]] for key, value in counts.items()]
    text = render_table(
        ["Quantity", "simulated", "paper (production)"],
        rows,
        title="Table 2: dataset shape (scaled world)",
    )
    # The ordering the paper's table implies must hold at any scale.
    assert counts["# RTT measurements (1 day)"] > counts["# client IPs"]
    assert counts["# client IPs"] > counts["# client IP /24s"]
    assert counts["# client IP /24s"] >= counts["# BGP prefixes"]
    assert counts["# BGP prefixes"] > counts["# client ASes"]
    assert counts["# client ASes"] >= 7  # at least one per region
    assert counts["# client metros"] >= 7
    emit("table2_dataset", text)
