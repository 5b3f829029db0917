"""Failure-injection tests: the pipeline under hostile conditions.

Production systems meet withdrawn routes, empty windows, cold caches and
starved budgets; none of these may crash the pipeline or corrupt its
accounting.
"""

import numpy as np

from repro.core.blame import Blame
from repro.core.config import BlameItConfig
from repro.core.pipeline import BlameItPipeline
from repro.core.thresholds import ExpectedRTTTable
from repro.perf.batch import BatchQuartetGenerator
from repro.sim.faults import Fault, FaultTarget, SegmentKind
from repro.sim.scenario import RerouteEvent, Scenario


class TestWithdrawnRoutes:
    def test_pipeline_survives_mass_withdrawal(self, small_world):
        """Withdrawing a popular announcement mid-run: probes fail, the
        affected clients vanish from telemetry, nothing crashes."""
        slot = small_world.slots[0]
        withdraw = RerouteEvent(
            time=160,
            location_id=slot.location.location_id,
            announcement=slot.client.announcement,
            new_path=None,
        )
        fault = Fault(
            fault_id=0,
            target=FaultTarget(
                kind=SegmentKind.CLOUD, location_id=slot.location.location_id
            ),
            start=165,
            duration=10,
            added_ms=80.0,
        )
        scenario = Scenario(small_world, (fault,), (withdraw,))
        pipeline = BlameItPipeline(scenario, config=BlameItConfig(history_days=1))
        pipeline.warmup(0, 144, stride=4)
        report = pipeline.run(150, 200)
        assert report.total_quartets > 0
        assert report.probes_total >= 0

    def test_probe_of_withdrawn_prefix_counts_but_yields_none(self, small_world):
        slot = small_world.slots[0]
        withdraw = RerouteEvent(
            time=100,
            location_id=slot.location.location_id,
            announcement=slot.client.announcement,
            new_path=None,
        )
        scenario = Scenario(small_world, (), (withdraw,))
        from repro.cloud.traceroute import TracerouteEngine

        engine = TracerouteEngine(scenario, np.random.default_rng(0))
        result = engine.issue(slot.location.location_id, slot.client.prefix24, 110)
        assert result is None
        assert engine.probes_issued == 1


class TestColdStart:
    def test_run_without_warmup_degrades_gracefully(self, small_world):
        """No expected-RTT history: everything is 'insufficient', never a
        wrong blame."""
        fault = Fault(
            fault_id=0,
            target=FaultTarget(
                kind=SegmentKind.CLOUD,
                location_id=small_world.locations[0].location_id,
            ),
            start=150,
            duration=10,
            added_ms=90.0,
        )
        scenario = Scenario(small_world, (fault,), ())
        pipeline = BlameItPipeline(scenario, config=BlameItConfig(history_days=1))
        report = pipeline.run(150, 165)  # no warmup at all
        wrong = (
            report.blame_counts.get(Blame.CLOUD, 0)
            + report.blame_counts.get(Blame.MIDDLE, 0)
            + report.blame_counts.get(Blame.CLIENT, 0)
        )
        assert wrong == 0
        assert report.blame_counts.get(Blame.INSUFFICIENT, 0) > 0

    def test_empty_fixed_table_all_insufficient(self, small_world):
        scenario = Scenario(small_world, (), ())
        pipeline = BlameItPipeline(
            scenario, config=BlameItConfig(history_days=1),
            fixed_table=ExpectedRTTTable(),
        )
        report = pipeline.run(150, 160)
        named = sum(
            report.blame_counts.get(b, 0)
            for b in (Blame.CLOUD, Blame.MIDDLE, Blame.CLIENT)
        )
        assert named == 0


class TestStarvedBudget:
    def test_denied_probes_are_counted(self, small_world):
        pool = small_world.middle_asn_pool()
        faults = tuple(
            Fault(
                fault_id=i,
                target=FaultTarget(kind=SegmentKind.MIDDLE, asn=pool[i % len(pool)]),
                start=150 + i,
                duration=20,
                added_ms=90.0,
            )
            for i in range(4)
        )
        scenario = Scenario(small_world, faults, ())
        pipeline = BlameItPipeline(
            scenario,
            config=BlameItConfig(history_days=1, probe_budget_per_window=1),
        )
        pipeline.warmup(0, 144, stride=4)
        report = pipeline.run(150, 190)
        # The budget is enforced per window; with 4 overlapping issues at
        # shared locations some probes must be denied or deferred.
        assert report.probes_on_demand <= (190 - 150) // 3 * len(
            small_world.locations
        )


class TestDegenerateWindows:
    def test_empty_bucket_range(self, small_scenario):
        pipeline = BlameItPipeline(
            small_scenario, config=BlameItConfig(history_days=1)
        )
        report = pipeline.run(150, 150)
        assert report.total_quartets == 0
        assert report.alerts == []

    def test_single_bucket_run(self, small_scenario):
        pipeline = BlameItPipeline(
            small_scenario, config=BlameItConfig(history_days=1)
        )
        pipeline.warmup(0, 48, stride=4)
        report = pipeline.run(150, 151)
        assert report.total_quartets > 0

    def test_night_bucket_mostly_gated(self, small_scenario):
        """A dead-of-night bucket yields few gated quartets and no crash."""
        # Bucket 96 is 08:00 UTC-ish.
        quartets = BatchQuartetGenerator(small_scenario).generate_quartets(96)
        gated = [q for q in quartets if q.n_samples >= 10]
        assert len(gated) <= len(quartets)
