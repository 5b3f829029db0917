"""Figure 8 — blame fractions over a multi-day window.

Paper findings reproduced: the category mix is stable day over day;
cloud-segment blames stay a small minority (< 4 % in production) except
during a scheduled-maintenance spike (the paper's day-24 bump), which
the bench injects on the penultimate day.
"""

from __future__ import annotations

from _util import emit

from repro.analysis.report import render_table
from repro.core.blame import Blame
from repro.core.config import BlameItConfig
from repro.core.passive import PassiveLocalizer
from repro.perf.batch import BatchQuartetGenerator
from repro.sim.faults import Fault, FaultTarget, SegmentKind

#: Scaled "month": days 1..8 of the nine-day world.
FIRST_DAY, LAST_DAY = 1, 8
MAINTENANCE_DAY = 7


def _maintenance_faults(world, first_id: int):
    """Scheduled maintenance: several locations inflated for most of a day."""
    faults = []
    for offset, location in enumerate(world.locations[:3]):
        faults.append(
            Fault(
                fault_id=first_id + offset,
                target=FaultTarget(
                    kind=SegmentKind.CLOUD, location_id=location.location_id
                ),
                start=MAINTENANCE_DAY * 288 + 60 + 10 * offset,
                duration=90,
                added_ms=75.0,
            )
        )
    return tuple(faults)


def _daily_fractions(scenario, table):
    passive = PassiveLocalizer(BlameItConfig(), scenario.world.targets)
    generator = BatchQuartetGenerator(scenario)
    per_day: dict[int, dict[Blame, int]] = {}
    for day in range(FIRST_DAY, LAST_DAY + 1):
        counts: dict[Blame, int] = {}
        for time in range(day * 288, (day + 1) * 288):
            blames = passive.assign_batch(generator.generate(time), table)
            for result in blames.to_results():
                counts[result.blame] = counts.get(result.blame, 0) + 1
        per_day[day] = counts
    return per_day


def test_fig8_blame_fractions_over_month(benchmark, global_scenario, global_state):
    spike = _maintenance_faults(global_scenario.world, first_id=10_000)
    scenario = global_scenario.with_faults(global_scenario.faults + spike)
    per_day = benchmark.pedantic(
        _daily_fractions, args=(scenario, global_state.table), rounds=1, iterations=1
    )
    rows = []
    cloud_fractions = {}
    for day, counts in sorted(per_day.items()):
        total = max(1, sum(counts.values()))
        fractions = {blame: counts.get(blame, 0) / total for blame in Blame}
        cloud_fractions[day] = fractions[Blame.CLOUD]
        rows.append(
            [
                f"day {day}" + (" (maintenance)" if day == MAINTENANCE_DAY else ""),
                f"{100 * fractions[Blame.CLOUD]:.1f}%",
                f"{100 * fractions[Blame.MIDDLE]:.1f}%",
                f"{100 * fractions[Blame.CLIENT]:.1f}%",
                f"{100 * fractions[Blame.AMBIGUOUS]:.1f}%",
                f"{100 * fractions[Blame.INSUFFICIENT]:.1f}%",
            ]
        )
    text = render_table(
        ["day", "cloud", "middle", "client", "ambiguous", "insufficient"],
        rows,
        title="Figure 8: blame fractions per day",
    )
    # Cloud is a small minority on normal days...
    normal = [f for day, f in cloud_fractions.items() if day != MAINTENANCE_DAY]
    assert sum(normal) / len(normal) < 0.25
    # ...and spikes on the maintenance day (the paper's day-24 bump).
    assert cloud_fractions[MAINTENANCE_DAY] > 2.0 * (sum(normal) / len(normal))
    # Client and middle dominate on normal (non-maintenance) days.
    totals: dict[Blame, int] = {}
    for day, counts in per_day.items():
        if day == MAINTENANCE_DAY:
            continue
        for blame, count in counts.items():
            totals[blame] = totals.get(blame, 0) + count
    assert totals.get(Blame.CLIENT, 0) + totals.get(Blame.MIDDLE, 0) > totals.get(
        Blame.CLOUD, 0
    )
    emit("fig8_blame_month", text)
