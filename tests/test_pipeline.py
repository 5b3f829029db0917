"""Integration tests for repro.core.pipeline over small scenarios."""

import numpy as np
import pytest

from repro.core.blame import Blame, BlameResult
from repro.core.pipeline import BlameItPipeline, _KeyedIssueTracker
from repro.core.quartet import Quartet
from repro.net.asn import middle_asns
from repro.net.geo import Region
from repro.perf.batch import BatchQuartetGenerator
from repro.sim.faults import Fault, FaultTarget, SegmentKind
from repro.sim.scenario import Scenario

from tests.harness import make_config, make_pipeline
from tests.row_fold import client_groups


@pytest.fixture(scope="module")
def warm_pipeline_report(small_world):
    """One pipeline run over a scenario with a known cloud fault."""
    location = small_world.locations[0]
    fault = Fault(
        fault_id=0,
        target=FaultTarget(kind=SegmentKind.CLOUD, location_id=location.location_id),
        start=180,
        duration=12,
        added_ms=80.0,
    )
    scenario = Scenario(small_world, (fault,), ())
    pipeline = BlameItPipeline(scenario, config=make_config())
    pipeline.warmup(0, 144, stride=3)
    report = pipeline.run(150, 220)
    return location, report


class TestCloudFaultRun:
    def test_cloud_blames_dominate(self, warm_pipeline_report):
        _, report = warm_pipeline_report
        assert report.blame_counts.get(Blame.CLOUD, 0) > 0
        fractions = report.blame_fractions()
        assert fractions[Blame.CLOUD] == max(
            fractions[b] for b in (Blame.CLOUD, Blame.MIDDLE, Blame.CLIENT)
        )

    def test_cloud_issue_tracked(self, warm_pipeline_report):
        location, report = warm_pipeline_report
        assert any(
            issue.key == location.location_id for issue in report.closed_cloud
        )

    def test_alert_emitted_for_fault(self, warm_pipeline_report):
        location, report = warm_pipeline_report
        cloud_alerts = [a for a in report.alerts if a.blame is Blame.CLOUD]
        assert cloud_alerts
        assert cloud_alerts[0].location_id == location.location_id
        assert cloud_alerts[0].culprit_asn == 8075

    def test_quartet_accounting(self, warm_pipeline_report):
        _, report = warm_pipeline_report
        assert report.total_quartets > 0
        assert 0 < report.bad_quartets <= report.total_quartets

    def test_probe_accounting_consistent(self, warm_pipeline_report):
        _, report = warm_pipeline_report
        assert report.probes_total == (
            report.probes_on_demand + report.probes_background + report.probes_bootstrap
        )
        assert report.probes_bootstrap > 0

    def test_durations_by_category_structure(self, warm_pipeline_report):
        _, report = warm_pipeline_report
        durations = report.durations_by_category()
        assert set(durations) == {Blame.CLOUD, Blame.MIDDLE, Blame.CLIENT}
        assert all(d >= 1 for ds in durations.values() for d in ds)


class TestMiddleFaultRun:
    def test_middle_issue_localized_to_faulty_as(self, small_world):
        slot = next(
            s
            for s in small_world.slots
            if len(middle_asns(small_world.mapper.path_for(s.location, s.client) or (0, 0))) >= 1
        )
        path = small_world.mapper.path_for(slot.location, slot.client)
        culprit = middle_asns(path)[0]
        fault = Fault(
            fault_id=0,
            target=FaultTarget(kind=SegmentKind.MIDDLE, asn=culprit),
            start=180,
            duration=12,
            added_ms=90.0,
        )
        scenario = Scenario(small_world, (fault,), ())
        pipeline = BlameItPipeline(scenario, config=make_config())
        pipeline.warmup(0, 144, stride=3)
        report = pipeline.run(150, 210)
        verdicts = [
            item.verdict.asn
            for item in report.localized
            if item.verdict is not None and item.verdict.asn is not None
        ]
        assert culprit in verdicts

    def test_budget_zero_disables_on_demand(self, small_world):
        fault = Fault(
            fault_id=0,
            target=FaultTarget(
                kind=SegmentKind.MIDDLE, asn=small_world.middle_asn_pool()[0]
            ),
            start=180,
            duration=12,
            added_ms=90.0,
        )
        scenario = Scenario(small_world, (fault,), ())
        pipeline = BlameItPipeline(
            scenario, config=make_config(probe_budget_per_window=0)
        )
        pipeline.warmup(0, 72, stride=3)
        report = pipeline.run(150, 200)
        assert report.probes_on_demand == 0
        assert report.localized == []


class TestPairKeys:
    def test_decodes_like_pair_key_and_reuses_tuples(self, small_world):
        """Pair codes decode to ``batch.pair_key(code)``, and a code
        decoded again (in the same call or a later one) returns the
        same tuple object: the client predictor's history holds one
        tuple per pair."""
        scenario = Scenario.from_world(small_world)
        pipeline = BlameItPipeline(scenario)
        generator = BatchQuartetGenerator(scenario)
        first_batch, later_batch = (
            generator.generate(t, np.random.default_rng(t)) for t in (100, 101)
        )
        codes = first_batch.pair_codes().tolist()
        keys = pipeline._pair_keys(first_batch, codes)
        assert keys == [first_batch.pair_key(code) for code in codes]
        later_codes = later_batch.pair_codes().tolist()
        later = pipeline._pair_keys(later_batch, later_codes + codes)
        assert later == [later_batch.pair_key(code) for code in later_codes + codes]
        assert all(a is b for a, b in zip(later[len(later_codes) :], keys))


class TestFixedTable:
    def test_fixed_table_skips_learning(self, small_world):
        scenario = Scenario(small_world, (), ())
        trainer = BlameItPipeline(scenario, config=make_config())
        trainer.warmup(0, 144, stride=3)
        table = trainer.learner.table()
        pipeline = BlameItPipeline(scenario, config=make_config(), fixed_table=table)
        report = pipeline.run(150, 165)
        assert report.total_quartets > 0
        # The internal learner never saw anything.
        assert pipeline.learner.table().cloud == {}


class TestHealthyRun:
    def test_no_faults_low_badness(self, small_world):
        scenario = Scenario(small_world, (), ())
        pipeline = BlameItPipeline(scenario, config=make_config())
        pipeline.warmup(0, 144, stride=3)
        report = pipeline.run(150, 200)
        assert report.bad_quartets <= report.total_quartets * 0.05
        assert report.probes_on_demand <= 5


class TestKeyedTrackerGapSemantics:
    """Run stitching for cloud/client blames: sweep and displacement must
    close a run under the same gap condition."""

    CLOUD_ASN = 8075

    def _result(self, asn=65001, time=0, loc="edge-A"):
        quartet = Quartet(
            time=time,
            prefix24=7,
            location_id=loc,
            mobile=False,
            mean_rtt_ms=90.0,
            n_samples=20,
            users=10,
            client_asn=asn,
            middle=(10,),
            region=Region.USA,
        )
        return BlameResult(quartet, Blame.CLIENT, 0.1, 0.1)

    def _tracker(self) -> _KeyedIssueTracker:
        return _KeyedIssueTracker(Blame.CLIENT)

    def test_blame_within_gap_extends_run(self):
        """A one-bucket gap (== GAP_BUCKETS) does not end the run."""
        tracker = self._tracker()
        tracker.update(0, client_groups([self._result(time=0)]), self.CLOUD_ASN)
        closed = tracker.update(1, client_groups([self._result(time=1)]), self.CLOUD_ASN)
        assert closed == []
        (issue,) = tracker.open.values()
        assert issue.first_seen == 0
        assert issue.last_seen == 1

    def test_sweep_closes_after_gap(self):
        """An end-of-bucket sweep with no matching blame closes the run
        once more than GAP_BUCKETS buckets passed."""
        tracker = self._tracker()
        tracker.update(0, client_groups([self._result(time=0)]), self.CLOUD_ASN)
        assert tracker.update(1, client_groups([]), self.CLOUD_ASN) == []
        closed = tracker.update(2, client_groups([]), self.CLOUD_ASN)
        assert len(closed) == 1
        assert closed[0].first_seen == 0
        assert tracker.open == {}

    def test_displacement_agrees_with_sweep(self):
        """A fresh blame arriving just past the gap starts a *new* run:
        the sweep closes the old one (under its `> GAP_BUCKETS`
        condition) before the bucket's results are walked, even when
        update did not run for the quiet buckets in between."""
        tracker = self._tracker()
        tracker.update(0, client_groups([self._result(time=0)]), self.CLOUD_ASN)
        closed = tracker.update(2, client_groups([self._result(time=2)]), self.CLOUD_ASN)
        assert len(closed) == 1
        assert closed[0].first_seen == 0
        assert closed[0].last_seen == 0
        (issue,) = tracker.open.values()
        assert issue.first_seen == 2

    def test_update_returns_only_newly_closed(self):
        """Earlier closures must not be re-reported by later updates."""
        tracker = self._tracker()
        tracker.update(
            0, client_groups([self._result(asn=65001, time=0)]), self.CLOUD_ASN
        )
        first = tracker.update(2, client_groups([]), self.CLOUD_ASN)
        assert len(first) == 1
        tracker.update(
            10, client_groups([self._result(asn=65002, time=10)]), self.CLOUD_ASN
        )
        later = tracker.update(13, client_groups([]), self.CLOUD_ASN)
        assert len(later) == 1
        assert later[0].key == 65002
        assert tracker.close_all() == []

    def test_independent_keys_tracked_separately(self):
        tracker = self._tracker()
        tracker.update(
            0,
            client_groups(
                [self._result(asn=65001, time=0), self._result(asn=65002, time=0)]
            ),
            self.CLOUD_ASN,
        )
        closed = tracker.update(
            2, client_groups([self._result(asn=65001, time=2)]), self.CLOUD_ASN
        )
        # Both runs ended: 65001 displaced, 65002 swept.
        assert {issue.key for issue in closed} == {65001, 65002}



class TestKeyedTrackerVoteAccounting:
    """The end-of-bucket sweep must run before the bucket's co-located
    vote totals are credited."""

    CLOUD_ASN = 8075

    def _quartet(self, time=0):
        return Quartet(
            time=time,
            prefix24=7,
            location_id="edge-A",
            mobile=False,
            mean_rtt_ms=90.0,
            n_samples=20,
            users=10,
            client_asn=65001,
            middle=(10,),
            region=Region.USA,
        )

    def test_swept_issue_confidence_undiluted(self):
        """A key recurring past the gap under a different blame category
        contributes votes_total — but not to the already-over run."""
        tracker = _KeyedIssueTracker(Blame.CLIENT)
        tracker.update(
            0,
            client_groups([BlameResult(self._quartet(time=0), Blame.CLIENT, 0.1, 0.1)]),
            self.CLOUD_ASN,
        )
        ambiguous = BlameResult(self._quartet(time=3), Blame.AMBIGUOUS, 0.1, 0.1)
        closed = tracker.update(3, client_groups([ambiguous]), self.CLOUD_ASN)
        assert len(closed) == 1
        assert closed[0].votes_for == 1
        assert closed[0].votes_total == 1
        assert closed[0].confidence == 1.0

    def test_displaced_run_credits_new_issue(self):
        """Displacement still credits the current bucket's votes to the
        *new* run it opens."""
        tracker = _KeyedIssueTracker(Blame.CLIENT)
        tracker.update(
            0,
            client_groups([BlameResult(self._quartet(time=0), Blame.CLIENT, 0.1, 0.1)]),
            self.CLOUD_ASN,
        )
        closed = tracker.update(
            3,
            client_groups([BlameResult(self._quartet(time=3), Blame.CLIENT, 0.1, 0.1)]),
            self.CLOUD_ASN,
        )
        assert len(closed) == 1
        assert closed[0].votes_total == 1  # only its own bucket's votes
        (issue,) = tracker.open.values()
        assert issue.votes_for == 1
        assert issue.votes_total == 1


class TestLocalizeBaselineDedup:
    """`_localize` must not compare the same baseline twice when only a
    single candidate exists."""

    def _probe_setup(self, small_scenario):
        from repro.core.active import ProbedIssue

        pipeline = BlameItPipeline(small_scenario, config=make_config())
        world = small_scenario.world
        asn = world.population.asns[0]
        client = world.population.in_as(asn)[0]
        prefix = client.prefix24
        location = world.assignments[prefix].primary.location_id
        current = pipeline.engine.issue(location, prefix, 10)
        assert current is not None
        probe = ProbedIssue(
            issue_key=(location, middle_asns(current.path)),
            prefix24=prefix,
            time=10,
            result=current,
            priority=1.0,
            issue_first_seen=5,
        )
        return pipeline, location, prefix, probe

    def _count_comparisons(self, pipeline, probe, monkeypatch):
        import repro.core.pipeline as pipeline_mod

        calls = []
        real = pipeline_mod.localize_culprit

        def counting(baseline, current):
            calls.append(baseline.time)
            return real(baseline, current)

        monkeypatch.setattr(pipeline_mod, "localize_culprit", counting)
        localized = pipeline._localize(probe)
        return calls, localized

    def test_single_baseline_compared_once(self, small_scenario, monkeypatch):
        pipeline, location, prefix, probe = self._probe_setup(small_scenario)
        baseline = pipeline.engine.issue(location, prefix, 0)
        pipeline.baselines.put(baseline)
        calls, localized = self._count_comparisons(pipeline, probe, monkeypatch)
        assert calls == [0]
        assert localized.verdict is not None

    def test_two_baselines_compared_newest_and_oldest(
        self, small_scenario, monkeypatch
    ):
        pipeline, location, prefix, probe = self._probe_setup(small_scenario)
        for time in (0, 2):
            pipeline.baselines.put(pipeline.engine.issue(location, prefix, time))
        calls, _ = self._count_comparisons(pipeline, probe, monkeypatch)
        assert calls == [2, 0]  # newest first, then the oldest


class TestDailyTableRefresh:
    @pytest.mark.xfail(
        strict=True,
        reason="the refresh reads the window (day - history_days, day], "
        "whose newest day holds no observations yet: with one day of "
        "history every table after day 0 is empty",
    )
    def test_table_refreshed_after_a_learned_day_is_not_empty(
        self, multi_day_world
    ):
        pipeline = make_pipeline(Scenario.from_world(multi_day_world))
        state = pipeline.begin_run(100, 300)
        while state.cursor < state.end:
            pipeline.step(state)
        assert state.table_day == 1
        assert state.table.cloud and state.table.middle
