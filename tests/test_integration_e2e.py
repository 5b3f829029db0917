"""End-to-end integration: several concurrent faults, one pipeline run.

The closest thing to a production day: a cloud overload, a transit
fault, and a client-ISP maintenance overlapping in time. The pipeline
must keep them apart — each surfaces as its own issue with the right
segment and culprit, and the alert ranking reflects measured impact.
"""

import pytest

from repro.core.blame import Blame
from repro.core.config import BlameItConfig
from repro.core.pipeline import BlameItPipeline
from repro.net.asn import middle_asns
from repro.sim.faults import Fault, FaultTarget, SegmentKind
from repro.sim.scenario import Scenario


def multi_fault_scenario(world):
    """(location, middle AS, client AS, scenario): a cloud, a middle and
    a client fault overlapping in time over buckets [160, 189)."""
    # Pick three independent targets: a location, a middle AS not
    # dominating that location, and a client AS not behind that AS.
    location = world.locations[0]
    usage: dict[int, int] = {}
    for slot in world.slots:
        path = world.mapper.path_for(slot.location, slot.client)
        if path is None:
            continue
        for asn in middle_asns(path):
            usage[asn] = usage.get(asn, 0) + 1
    per_loc: dict[int, int] = {}
    loc_total = 0
    for slot in world.slots:
        if slot.location.location_id != location.location_id:
            continue
        loc_total += 1
        path = world.mapper.path_for(slot.location, slot.client)
        for asn in middle_asns(path or (0, 0)):
            per_loc[asn] = per_loc.get(asn, 0) + 1
    middle_asn = max(
        (a for a in usage if per_loc.get(a, 0) / max(1, loc_total) < 0.5),
        key=lambda a: usage[a],
    )
    client_asn = next(
        asn
        for asn in world.population.asns
        if all(
            middle_asn
            not in middle_asns(world.mapper.path_for(s.location, s.client) or (0, 0))
            for s in world.slots
            if s.client.asn == asn
        )
    )
    faults = (
        Fault(
            fault_id=0,
            target=FaultTarget(kind=SegmentKind.CLOUD, location_id=location.location_id),
            start=160,
            duration=14,
            added_ms=80.0,
        ),
        Fault(
            fault_id=1,
            target=FaultTarget(kind=SegmentKind.MIDDLE, asn=middle_asn),
            start=168,
            duration=16,
            added_ms=90.0,
        ),
        Fault(
            fault_id=2,
            target=FaultTarget(kind=SegmentKind.CLIENT, asn=client_asn),
            start=175,
            duration=14,
            added_ms=100.0,
        ),
    )
    return location, middle_asn, client_asn, Scenario(world, faults, ())


@pytest.fixture(scope="module")
def multi_fault_run(small_world):
    location, middle_asn, client_asn, scenario = multi_fault_scenario(small_world)
    pipeline = BlameItPipeline(
        scenario, config=BlameItConfig(history_days=1, probe_budget_per_window=8)
    )
    pipeline.warmup(0, 144, stride=3)
    report = pipeline.run(150, 220)
    return location, middle_asn, client_asn, report


class TestConcurrentFaults:
    def test_all_three_segments_blamed(self, multi_fault_run):
        _, _, _, report = multi_fault_run
        for blame in (Blame.CLOUD, Blame.MIDDLE, Blame.CLIENT):
            assert report.blame_counts.get(blame, 0) > 0, blame

    def test_cloud_issue_at_the_right_location(self, multi_fault_run):
        location, _, _, report = multi_fault_run
        assert any(
            issue.key == location.location_id for issue in report.closed_cloud
        )

    def test_middle_culprit_localized(self, multi_fault_run):
        _, middle_asn, _, report = multi_fault_run
        named = {
            item.verdict.asn
            for item in report.localized
            if item.verdict and item.verdict.asn
        }
        assert middle_asn in named

    def test_client_issue_tracked(self, multi_fault_run):
        _, _, client_asn, report = multi_fault_run
        assert any(issue.key == client_asn for issue in report.closed_client)

    def test_alerts_cover_all_faults(self, multi_fault_run):
        location, middle_asn, client_asn, report = multi_fault_run
        culprits = {alert.culprit_asn for alert in report.alerts}
        blames = {alert.blame for alert in report.alerts}
        assert {Blame.CLOUD, Blame.MIDDLE, Blame.CLIENT} <= blames
        assert client_asn in culprits
        assert middle_asn in culprits

    def test_alerts_impact_sorted(self, multi_fault_run):
        _, _, _, report = multi_fault_run
        impacts = [alert.impact for alert in report.alerts]
        assert impacts == sorted(impacts, reverse=True)

    def test_probe_spend_is_modest(self, multi_fault_run):
        _, _, _, report = multi_fault_run
        # Three incidents should cost a handful of on-demand traceroutes,
        # not a per-path sweep.
        assert 0 < report.probes_on_demand <= 40
