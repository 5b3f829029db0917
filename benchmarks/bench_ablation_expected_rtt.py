"""Ablation — learned expected RTTs vs. raw badness targets (§4.3).

The paper's worked example, run at scale: a cloud fault sized so the
shifted RTT distribution only partially crosses the region badness
target. With the learned 14-day median as the comparison point, every
quartet at the location reads as elevated and the cloud is blamed; with
the raw target as the comparison point the bad-fraction never reaches τ
and the genuinely-cloud-caused bad quartets are misattributed.
"""

from __future__ import annotations

import numpy as np
from _util import emit

from repro.analysis.report import render_table
from repro.core.blame import Blame
from repro.core.config import BlameItConfig
from repro.core.passive import PassiveLocalizer
from repro.core.thresholds import ExpectedRTTTable
from repro.perf.batch import BatchQuartetGenerator
from repro.sim.faults import Fault, FaultTarget, SegmentKind
from repro.sim.scenario import Scenario

FAULT_START = 288 + 150
FAULT_DURATION = 24


def _partial_shift_fault(world):
    """A cloud fault sized to push ~the top third of quartets past target."""
    location = world.locations[0]
    headrooms = []
    for slot in world.slots:
        if slot.location.location_id != location.location_id:
            continue
        path = world.mapper.path_for(slot.location, slot.client)
        if path is None:
            continue
        baseline = world.latency.path_latency(
            slot.location.metro, path, slot.client.metro, slot.client.mobile
        )
        target = world.targets.target_ms(location.region, slot.client.mobile)
        headrooms.append(target - baseline.total_ms)
    added = float(np.percentile(headrooms, 65))
    return location, Fault(
        fault_id=0,
        target=FaultTarget(kind=SegmentKind.CLOUD, location_id=location.location_id),
        start=FAULT_START,
        duration=FAULT_DURATION,
        added_ms=max(12.0, added),
    )


def _targets_as_expected(world, learned: ExpectedRTTTable) -> ExpectedRTTTable:
    """The ablated table: cloud expected RTT = the raw badness target."""
    cloud = {}
    for (location_id, mobile) in learned.cloud:
        region = world.location_by_id(location_id).region
        cloud[(location_id, mobile)] = world.targets.target_ms(region, mobile)
    return ExpectedRTTTable(cloud=cloud, middle=dict(learned.middle))


def _cloud_blame_rate(scenario, table, location_id):
    passive = PassiveLocalizer(BlameItConfig(), scenario.world.targets)
    generator = BatchQuartetGenerator(scenario)
    cloud = bad = 0
    for time in range(FAULT_START, FAULT_START + FAULT_DURATION):
        blames = passive.assign_batch(generator.generate(time), table)
        for result in blames.to_results():
            if result.quartet.location_id != location_id:
                continue
            bad += 1
            if result.blame is Blame.CLOUD:
                cloud += 1
    return cloud, bad


def _compare(world, state):
    location, fault = _partial_shift_fault(world)
    ablated = _targets_as_expected(world, state.table)
    learned_counts = _cloud_blame_rate(
        Scenario(world, (fault,), ()), state.table, location.location_id
    )
    ablated_counts = _cloud_blame_rate(
        Scenario(world, (fault,), ()), ablated, location.location_id
    )
    return fault, learned_counts, ablated_counts


def test_ablation_learned_vs_target_expected(benchmark, incident_world, incident_state):
    fault, learned_counts, ablated_counts = benchmark.pedantic(
        _compare, args=(incident_world, incident_state), rounds=1, iterations=1
    )

    def rate(counts):
        cloud, bad = counts
        return cloud / bad if bad else 0.0

    rows = [
        ["learned 14-day median (paper)", learned_counts[1],
         f"{100 * rate(learned_counts):.1f}%"],
        ["raw badness target (ablated)", ablated_counts[1],
         f"{100 * rate(ablated_counts):.1f}%"],
    ]
    text = render_table(
        ["expected-RTT source", "bad quartets at location", "blamed cloud"],
        rows,
        title=(
            f"Ablation: partial-shift cloud fault (+{fault.added_ms:.0f}ms) "
            f"at {fault.target.location_id}"
        ),
    )
    text += "\n(§4.3: the raw target misses distribution shifts below it)"
    assert learned_counts[1] > 0, "the fault should produce bad quartets"
    # The learned median catches the shift; the raw target misses it.
    assert rate(learned_counts) >= 0.7
    assert rate(learned_counts) > rate(ablated_counts) + 0.2
    emit("ablation_expected_rtt", text)
