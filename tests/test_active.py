"""Tests for repro.core.active: issue tracking, budgets, prioritization."""

import numpy as np
import pytest

from repro.cloud.traceroute import TracerouteEngine, TracerouteView
from repro.core.active import IssueTracker, OnDemandProber, ProbeBudget
from repro.core.blame import Blame, BlameResult
from repro.core.prediction import ClientCountPredictor, DurationPredictor
from repro.core.quartet import Quartet
from repro.net.geo import Region

from tests.row_fold import middle_groups


def _result(blame=Blame.MIDDLE, prefix=1, loc="edge-A", middle=(10,), time=0, users=10):
    quartet = Quartet(
        time=time,
        prefix24=prefix,
        location_id=loc,
        mobile=False,
        mean_rtt_ms=90.0,
        n_samples=20,
        users=users,
        client_asn=65000,
        middle=middle,
        region=Region.USA,
    )
    return BlameResult(quartet=quartet, blame=blame)


class TestIssueTracker:
    def test_opens_issue_for_middle_blame(self):
        tracker = IssueTracker()
        open_issues, closed = tracker.update(0, middle_groups([_result()]))
        assert len(open_issues) == 1
        assert closed == []
        issue = open_issues[0]
        assert issue.key == ("edge-A", (10,))
        assert issue.first_seen == 0

    def test_ignores_other_blames(self):
        tracker = IssueTracker()
        open_issues, _ = tracker.update(0, middle_groups([_result(blame=Blame.CLIENT)]))
        assert open_issues == []

    def test_continuity_extends_issue(self):
        tracker = IssueTracker()
        tracker.update(0, middle_groups([_result(time=0)]))
        open_issues, closed = tracker.update(1, middle_groups([_result(time=1)]))
        assert len(open_issues) == 1
        assert not closed
        assert open_issues[0].duration == 2

    def test_gap_closes_issue(self):
        tracker = IssueTracker()
        tracker.update(0, middle_groups([_result(time=0)]))
        open_issues, closed = tracker.update(2, middle_groups([]))  # silence > gap
        assert open_issues == []
        assert len(closed) == 1
        assert closed[0].duration == 1

    def test_reopened_issue_is_new(self):
        tracker = IssueTracker()
        tracker.update(0, middle_groups([_result(time=0)]))
        _, closed = tracker.update(3, middle_groups([]))
        open_issues, _ = tracker.update(5, middle_groups([_result(time=5)]))
        assert len(open_issues) == 1
        assert open_issues[0].first_seen == 5
        serials = {i.serial for i in closed} | {i.serial for i in open_issues}
        assert len(serials) == 2

    def test_accumulates_prefixes_and_users(self):
        tracker = IssueTracker()
        tracker.update(
            0, middle_groups([_result(prefix=1, users=10), _result(prefix=2, users=20)])
        )
        open_issues, _ = tracker.update(
            1, middle_groups([_result(prefix=1, users=10, time=1)])
        )
        issue = open_issues[0]
        assert issue.prefixes == {1, 2}
        assert issue.users_by_bucket == {0: 30, 1: 10}
        assert issue.total_client_time == pytest.approx(40.0)
        assert issue.representative_prefix() == 1

    def test_close_all(self):
        tracker = IssueTracker()
        tracker.update(0, middle_groups([_result()]))
        remaining = tracker.close_all()
        assert len(remaining) == 1
        assert tracker.open_issues == {}


class TestProbeBudget:
    def test_per_location_limit(self):
        budget = ProbeBudget(per_location_per_window=2)
        budget.start_window()
        assert budget.try_consume("edge-A")
        assert budget.try_consume("edge-A")
        assert not budget.try_consume("edge-A")
        assert budget.try_consume("edge-B")  # independent
        assert budget.denied == 1

    def test_window_reset(self):
        budget = ProbeBudget(per_location_per_window=1)
        budget.start_window()
        assert budget.try_consume("edge-A")
        budget.start_window()
        assert budget.try_consume("edge-A")


class _FlatOracle:
    def traceroute_view(self, location_id, prefix24, time):
        return TracerouteView(path=(1, 10, 65000), cumulative_ms=(2.0, 10.0, 20.0))


def _prober(budget=5) -> OnDemandProber:
    engine = TracerouteEngine(_FlatOracle(), np.random.default_rng(0), hop_noise_ms=0.0)
    return OnDemandProber(
        engine=engine,
        duration_predictor=DurationPredictor(),
        client_predictor=ClientCountPredictor(),
        budget=ProbeBudget(budget),
    )


class TestOnDemandProber:
    def _issues(self, tracker_time=0, n=3):
        tracker = IssueTracker()
        results = [
            _result(prefix=i, middle=(10 + i,), users=10 * (i + 1), time=tracker_time)
            for i in range(n)
        ]
        open_issues, _ = tracker.update(tracker_time, middle_groups(results))
        return open_issues

    def test_priority_uses_predictions(self):
        prober = _prober()
        issues = self._issues()
        prober.client_predictor.observe(issues[0].key, 0, 1000)
        prober.client_predictor.observe(issues[1].key, 0, 10)
        assert prober.priority(issues[0], 0) > prober.priority(issues[1], 0)

    def test_budget_caps_probes(self):
        prober = _prober(budget=1)
        issues = self._issues(n=4)  # all at edge-A
        probed = prober.probe_window(0, issues)
        assert len(probed) == 1
        assert prober.probes_issued == 1

    def test_highest_priority_wins_budget(self):
        prober = _prober(budget=1)
        issues = self._issues(n=3)
        for index, issue in enumerate(issues):
            prober.client_predictor.observe(issue.key, 0, 10 ** index)
        probed = prober.probe_window(0, issues)
        assert probed[0].issue_key == issues[-1].key
        assert probed[0].priority > 0

    def test_issue_probed_once(self):
        prober = _prober()
        issues = self._issues()
        first = prober.probe_window(0, issues)
        second = prober.probe_window(1, issues)
        assert len(first) == 3
        assert second == []

    def test_probe_carries_first_seen(self):
        prober = _prober()
        issues = self._issues(tracker_time=7)
        probed = prober.probe_window(8, issues)
        assert all(p.issue_first_seen == 7 for p in probed)


class TestIssueTrackerGapParity:
    """Displacement and sweep must close a run under the same strict
    `> GAP_BUCKETS` condition (mirrors TestKeyedTrackerGapSemantics for
    the middle-issue tracker)."""

    def test_displacement_agrees_with_sweep(self):
        """A middle blame recurring just past the gap starts a new issue
        instead of extending a run the sweep would already have closed."""
        tracker = IssueTracker()
        tracker.update(0, middle_groups([_result(time=0)]))
        open_issues, closed = tracker.update(2, middle_groups([_result(time=2)]))
        assert len(closed) == 1
        assert closed[0].first_seen == 0
        assert closed[0].last_seen == 0
        assert len(open_issues) == 1
        assert open_issues[0].first_seen == 2
        assert open_issues[0].serial != closed[0].serial

    def test_blame_at_gap_extends(self):
        """Silence of exactly GAP_BUCKETS does not end the run."""
        tracker = IssueTracker()
        tracker.update(0, middle_groups([_result(time=0)]))
        open_issues, closed = tracker.update(1, middle_groups([_result(time=1)]))
        assert closed == []
        assert open_issues[0].first_seen == 0
        assert open_issues[0].duration == 2

    def test_displacement_duration_matches_swept_duration(self):
        """The same quiet spell yields the same issue duration whether
        the close came from a sweep or a displacing blame."""
        swept = IssueTracker()
        swept.update(0, middle_groups([_result(time=0)]))
        _, swept_closed = swept.update(2, middle_groups([]))
        displaced = IssueTracker()
        displaced.update(0, middle_groups([_result(time=0)]))
        _, displaced_closed = displaced.update(2, middle_groups([_result(time=2)]))
        assert [i.duration for i in swept_closed] == [
            i.duration for i in displaced_closed
        ]


class TestProbeBudgetWindows:
    def test_denied_resets_per_window(self):
        budget = ProbeBudget(per_location_per_window=1)
        budget.start_window()
        assert budget.try_consume("edge-A")
        assert not budget.try_consume("edge-A")
        assert not budget.try_consume("edge-A")
        assert budget.denied == 2
        budget.start_window()
        assert budget.denied == 0
        assert budget.try_consume("edge-A")
        assert not budget.try_consume("edge-A")
        assert budget.denied == 1
        assert budget.denied_total == 3


class TestPriorityCaching:
    def test_priority_computed_once_per_candidate(self, monkeypatch):
        prober = _prober()
        issues = TestOnDemandProber()._issues(n=3)
        calls = []
        original = OnDemandProber.priority

        def counting(self, issue, now):
            calls.append(issue.key)
            return original(self, issue, now)

        monkeypatch.setattr(OnDemandProber, "priority", counting)
        probed = prober.probe_window(0, issues)
        assert len(probed) == 3
        assert len(calls) == 3  # once per candidate, not per probe

    def test_reported_priority_matches_sort_priority(self):
        prober = _prober()
        issues = TestOnDemandProber()._issues(n=3)
        for index, issue in enumerate(issues):
            prober.client_predictor.observe(issue.key, 0, 10 ** (index + 1))
        probed = prober.probe_window(0, issues)
        for item in probed:
            issue = next(i for i in issues if i.key == item.issue_key)
            assert item.priority == pytest.approx(prober.priority(issue, 0))

    def test_probe_window_records_metrics(self):
        from repro.obs import MetricsRegistry

        engine = TracerouteEngine(
            _FlatOracle(), np.random.default_rng(0), hop_noise_ms=0.0
        )
        metrics = MetricsRegistry()
        prober = OnDemandProber(
            engine=engine,
            duration_predictor=DurationPredictor(),
            client_predictor=ClientCountPredictor(),
            budget=ProbeBudget(1),
            metrics=metrics,
        )
        issues = TestOnDemandProber()._issues(n=3)  # all share edge-A
        prober.probe_window(0, issues)
        counters = metrics.snapshot()["counters"]
        assert counters["probe.on_demand.issued"] == 1
        assert counters["probe.on_demand.denied"] == 2
