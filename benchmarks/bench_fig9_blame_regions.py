"""Figure 9 — blame fractions for one day, split by cloud region.

Paper findings reproduced: middle-segment issues dominate in regions with
still-evolving transit infrastructure (India, China, Brazil) relative to
mature regions (USA); the world realizes this with a higher middle-fault
incidence on those regions' transit ASes.
"""

from __future__ import annotations

import numpy as np
from _util import emit

from repro.analysis.report import render_table
from repro.core.blame import Blame
from repro.core.config import BlameItConfig
from repro.core.passive import PassiveLocalizer
from repro.net.geo import Region
from repro.perf.batch import BatchQuartetGenerator
from repro.sim.faults import Fault, FaultTarget, SegmentKind, sample_duration

DAY = 2
EVOLVING = (Region.INDIA, Region.CHINA, Region.BRAZIL)
MATURE = (Region.USA, Region.EUROPE, Region.AUSTRALIA)


def _evolving_transit_faults(world, rng):
    """Extra middle faults on the evolving regions' transit ASes."""
    faults = []
    fault_id = 20_000
    for region in EVOLVING:
        for asn in world.generated.transit_asns_by_region.get(region, ())[:3]:
            for _ in range(3):
                faults.append(
                    Fault(
                        fault_id=fault_id,
                        target=FaultTarget(kind=SegmentKind.MIDDLE, asn=asn),
                        start=DAY * 288 + int(rng.integers(0, 280)),
                        duration=max(3, sample_duration(rng)),
                        added_ms=float(rng.uniform(40.0, 100.0)),
                    )
                )
                fault_id += 1
    return tuple(faults)


def _fractions_by_region(scenario, table):
    passive = PassiveLocalizer(BlameItConfig(), scenario.world.targets)
    generator = BatchQuartetGenerator(scenario)
    counts: dict[Region, dict[Blame, int]] = {}
    for time in range(DAY * 288, (DAY + 1) * 288):
        blames = passive.assign_batch(generator.generate(time), table)
        for result in blames.to_results():
            region = result.quartet.region
            counts.setdefault(region, {})[result.blame] = (
                counts.setdefault(region, {}).get(result.blame, 0) + 1
            )
    fractions: dict[Region, dict[Blame, float]] = {}
    for region, blames in counts.items():
        total = max(1, sum(blames.values()))
        fractions[region] = {b: blames.get(b, 0) / total for b in Blame}
    return fractions


def test_fig9_blame_by_region(benchmark, global_scenario, global_state):
    rng = np.random.default_rng(31)
    extra = _evolving_transit_faults(global_scenario.world, rng)
    scenario = global_scenario.with_faults(global_scenario.faults + extra)
    fractions = benchmark.pedantic(
        _fractions_by_region,
        args=(scenario, global_state.table),
        rounds=1,
        iterations=1,
    )
    rows = []
    for region in Region:
        blames = fractions.get(region)
        if blames is None:
            continue
        rows.append(
            [
                str(region),
                f"{100 * blames[Blame.CLOUD]:.1f}%",
                f"{100 * blames[Blame.MIDDLE]:.1f}%",
                f"{100 * blames[Blame.CLIENT]:.1f}%",
                f"{100 * blames[Blame.AMBIGUOUS]:.1f}%",
                f"{100 * blames[Blame.INSUFFICIENT]:.1f}%",
            ]
        )
    text = render_table(
        ["region", "cloud", "middle", "client", "ambiguous", "insufficient"],
        rows,
        title="Figure 9: blame fractions for one day, by cloud region",
    )
    evolving_middle = [
        fractions[r][Blame.MIDDLE] for r in EVOLVING if r in fractions
    ]
    mature_middle = [fractions[r][Blame.MIDDLE] for r in MATURE if r in fractions]
    assert evolving_middle and mature_middle
    assert np.mean(evolving_middle) > np.mean(mature_middle), (
        "middle issues should dominate in evolving-transit regions"
    )
    emit("fig9_blame_regions", text)
