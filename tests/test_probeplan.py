"""Tests for repro.core.probeplan: co-anomaly history, clustering,
planner plumbing through the prober, pipeline, and checkpoint store."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cloud.traceroute import TracerouteEngine, TracerouteView
from repro.core.active import IssueTracker, OnDemandProber, ProbeBudget
from repro.core.blame import Blame, BlameResult
from repro.core.config import BlameItConfig
from repro.core.prediction import ClientCountPredictor, DurationPredictor
from repro.core.probeplan import (
    ClusteredPlanner,
    CoAnomalyHistory,
    NaivePlanner,
    PaperPlanner,
    make_planner,
)
from repro.core.quartet import Quartet
from repro.net.geo import Region
from repro.sim.scenario import Scenario

from tests.harness import digest, make_config, make_pipeline
from tests.row_fold import middle_groups

K_A = ("edge-A", (10, 20))
K_B = ("edge-B", (10, 30))
K_C = ("edge-C", (10, 40))
K_D = ("edge-D", (99,))  # path disjoint from the others


def _history(windows, maxlen=8) -> CoAnomalyHistory:
    history = CoAnomalyHistory(maxlen)
    for window in windows:
        history.observe(window)
    return history


class TestCoAnomalyHistory:
    def test_rejects_nonpositive_maxlen(self):
        with pytest.raises(ValueError):
            CoAnomalyHistory(0)

    def test_empty_windows_are_skipped(self):
        history = _history([set(), {K_A}, set()])
        assert len(history._windows) == 1

    def test_jaccard_similarity(self):
        history = _history([{K_A, K_B}, {K_A, K_B}, {K_A}, {K_B, K_C}])
        # A and B co-occur in 2 of 4 windows: 2 / (3 + 3 - 2).
        assert history.similarity(K_A, K_B) == pytest.approx(0.5)
        assert history.similarity(K_A, K_C) == 0.0
        assert history.similarity(K_A, ("edge-X", (1,))) == 0.0

    def test_similarity_on_empty_history_is_zero(self):
        assert CoAnomalyHistory(4).similarity(K_A, K_B) == 0.0

    def test_ring_evicts_oldest_windows(self):
        history = _history([{K_A, K_B}] + [{K_C}] * 3, maxlen=3)
        assert len(history._windows) == 3
        assert history.similarity(K_A, K_B) == 0.0  # evidence fell off

    def test_state_dict_roundtrip_is_json_safe(self):
        history = _history([{K_A, K_B}, {K_B, K_C}], maxlen=5)
        state = json.loads(json.dumps(history.state_dict()))
        restored = CoAnomalyHistory(1)
        restored.load_state_dict(state)
        assert restored.maxlen == 5
        assert len(restored._windows) == 2
        for pair in ((K_A, K_B), (K_B, K_C), (K_A, K_C)):
            assert restored.similarity(*pair) == history.similarity(*pair)


def _blame_result(key, prefix=1, users=10, time=0) -> BlameResult:
    location_id, middle = key
    quartet = Quartet(
        time=time,
        prefix24=prefix,
        location_id=location_id,
        mobile=False,
        mean_rtt_ms=90.0,
        n_samples=20,
        users=users,
        client_asn=65000,
        middle=middle,
        region=Region.USA,
    )
    return BlameResult(quartet=quartet, blame=Blame.MIDDLE)


def _issues(*keys, time=0):
    """Open MiddleIssues for the given keys, one prefix each."""
    tracker = IssueTracker()
    results = [
        _blame_result(key, prefix=index + 1, time=time)
        for index, key in enumerate(keys)
    ]
    open_issues, _ = tracker.update(time, middle_groups(results))
    return sorted(open_issues, key=lambda issue: issue.key)


def _ranked(issues, priorities=None):
    """(priority, issue) pairs in the paper's (-priority, key) order."""
    priorities = priorities or {}
    pairs = [(priorities.get(issue.key, 1.0), issue) for issue in issues]
    return sorted(pairs, key=lambda pair: (-pair[0], pair[1].key))


class TestClusteredPlanner:
    def test_rejects_nonpositive_floor(self):
        with pytest.raises(ValueError):
            ClusteredPlanner(CoAnomalyHistory(4), floor=0.0)

    def test_co_anomalous_shared_as_targets_cluster(self):
        planner = ClusteredPlanner(
            _history([{K_A, K_B}, {K_A, K_B}]), floor=0.6
        )
        groups = planner.plan(_ranked(_issues(K_A, K_B, K_C)))
        keys = [{m.key for m in g.members} for g in groups]
        assert {K_A, K_B} in keys
        assert {K_C} in keys

    def test_disjoint_paths_never_merge(self):
        # Perfect co-occurrence, but no shared middle AS: a verdict
        # names one AS, so attribution across them could not be valid.
        planner = ClusteredPlanner(_history([{K_A, K_D}] * 3), floor=0.6)
        groups = planner.plan(_ranked(_issues(K_A, K_D)))
        assert all(len(g.members) == 1 for g in groups)

    def test_complete_linkage_keeps_weak_chain_apart(self):
        # A~B always together; C joins them only once in four windows,
        # so every C pair sits at 0.25 — below the floor.  Single
        # linkage would chain C in; complete linkage must not.
        planner = ClusteredPlanner(
            _history([{K_A, K_B, K_C}, {K_A, K_B}, {K_A, K_B}, {K_A, K_B}]),
            floor=0.6,
        )
        groups = planner.plan(_ranked(_issues(K_A, K_B, K_C)))
        keys = sorted(({m.key for m in g.members} for g in groups), key=sorted)
        assert keys == [{K_A, K_B}, {K_C}]

    def test_representative_is_highest_priority_member(self):
        planner = ClusteredPlanner(_history([{K_A, K_B}] * 2), floor=0.6)
        groups = planner.plan(
            _ranked(_issues(K_A, K_B), priorities={K_A: 1.0, K_B: 9.0})
        )
        assert len(groups) == 1
        assert groups[0].representative.key == K_B
        assert groups[0].priority == 9.0
        assert [m.key for m in groups[0].attributed] == [K_A]

    def test_plan_is_input_order_invariant(self):
        history_windows = [{K_A, K_B, K_C}, {K_A, K_B}, {K_B, K_C}]
        priorities = {K_A: 3.0, K_B: 2.0, K_C: 1.0}
        plans = []
        for order in ((K_A, K_B, K_C), (K_C, K_A, K_B), (K_B, K_C, K_A)):
            planner = ClusteredPlanner(_history(history_windows), floor=0.5)
            ranked = _ranked(_issues(*order), priorities=priorities)
            plans.append(
                [
                    (g.representative.key, [m.key for m in g.members])
                    for g in planner.plan(ranked)
                ]
            )
        assert plans[0] == plans[1] == plans[2]

    def test_floor_above_one_is_exact_paper_plan(self):
        issues = _issues(K_A, K_B, K_C)
        ranked = _ranked(issues, priorities={K_A: 2.0, K_B: 5.0, K_C: 1.0})
        clustered = ClusteredPlanner(_history([{K_A, K_B, K_C}] * 4), 1.01)
        paper = PaperPlanner(CoAnomalyHistory(4))
        def as_keys(groups):
            return [
                (g.representative.key, g.priority, [m.key for m in g.members])
                for g in groups
            ]

        assert as_keys(clustered.plan(ranked)) == as_keys(paper.plan(ranked))

    def test_naive_planner_ignores_priority(self):
        issues = _issues(K_A, K_B)
        ranked = _ranked(issues, priorities={K_A: 1.0, K_B: 9.0})
        groups = NaivePlanner(CoAnomalyHistory(4)).plan(ranked)
        assert [g.representative.key for g in groups] == [K_A, K_B]


class TestPlannerState:
    def test_make_planner_dispatch(self):
        for kind, cls in (
            ("naive", NaivePlanner),
            ("paper", PaperPlanner),
            ("clustered", ClusteredPlanner),
        ):
            planner = make_planner(BlameItConfig(probe_planner=kind))
            assert type(planner) is cls
            assert planner.kind == kind
            assert planner.history.maxlen == 48

    def test_state_roundtrip_preserves_clustering(self):
        source = make_planner(
            BlameItConfig(probe_planner="clustered", probe_history_windows=6)
        )
        for _ in range(3):
            source.observe_window({K_A, K_B})
        target = make_planner(BlameItConfig(probe_planner="clustered"))
        target.load_state_dict(json.loads(json.dumps(source.state_dict())))
        assert target.history.maxlen == 6
        ranked = _ranked(_issues(K_A, K_B))
        assert [
            [m.key for m in g.members] for g in target.plan(ranked)
        ] == [[m.key for m in g.members] for g in source.plan(ranked)]


class _FlatOracle:
    def traceroute_view(self, location_id, prefix24, time):
        return TracerouteView(path=(1, 10, 65000), cumulative_ms=(2.0, 10.0, 20.0))


def _prober(planner, budget=5, metrics=None) -> OnDemandProber:
    engine = TracerouteEngine(
        _FlatOracle(), np.random.default_rng(0), hop_noise_ms=0.0
    )
    return OnDemandProber(
        engine=engine,
        duration_predictor=DurationPredictor(),
        client_predictor=ClientCountPredictor(),
        budget=ProbeBudget(budget),
        metrics=metrics,
        planner=planner,
    )


class TestProberWithPlanner:
    def test_cluster_spends_one_slot_and_attributes_members(self):
        planner = ClusteredPlanner(_history([{K_A, K_B}] * 2), floor=0.6)
        prober = _prober(planner)
        issues = _issues(K_A, K_B, K_C)
        probed = prober.probe_window(0, issues)
        assert prober.probes_issued == 2  # one per cluster, not per issue
        by_key = {p.issue_key: p for p in probed}
        (cluster_rep,) = [p for p in probed if p.attributed]
        assert set(cluster_rep.attributed) <= {K_A, K_B}
        assert K_C in by_key and by_key[K_C].attributed == ()
        # Every member is now marked probed — no re-probe next window.
        assert prober.probe_window(1, issues) == []

    def test_denied_representative_leaves_members_unprobed(self):
        # Both clustered issues live at the same location; budget 0
        # denies the representative, so neither member is marked probed.
        keys = (("edge-A", (10, 20)), ("edge-A", (10, 30)))
        planner = ClusteredPlanner(_history([set(keys)] * 2), floor=0.6)
        prober = _prober(planner, budget=0)
        issues = _issues(*keys)
        assert prober.probe_window(0, issues) == []
        assert all(not issue.probed for issue in issues)

    def test_clustered_metrics_recorded(self):
        from repro.obs import MetricsRegistry

        metrics = MetricsRegistry()
        planner = ClusteredPlanner(_history([{K_A, K_B}] * 2), floor=0.6)
        prober = _prober(planner, metrics=metrics)
        prober.probe_window(0, _issues(K_A, K_B, K_C))
        snapshot = metrics.snapshot()
        assert snapshot["counters"]["probe.plan.clusters"] == 1
        assert snapshot["counters"]["probe.plan.saved"] == 1
        assert snapshot["histograms"]["probe.plan.cluster_size"]["count"] == 2

    def test_paper_planner_records_no_plan_metrics(self):
        from repro.obs import MetricsRegistry

        metrics = MetricsRegistry()
        prober = _prober(PaperPlanner(CoAnomalyHistory(4)), metrics=metrics)
        prober.probe_window(0, _issues(K_A, K_B))
        counters = metrics.snapshot()["counters"]
        assert not any(name.startswith("probe.plan.") for name in counters)


class TestConfigKnobs:
    def test_unknown_planner_rejected(self):
        with pytest.raises(ValueError):
            BlameItConfig(probe_planner="greedy")

    def test_bad_floor_and_history_rejected(self):
        with pytest.raises(ValueError):
            BlameItConfig(probe_cluster_floor=0.0)
        with pytest.raises(ValueError):
            BlameItConfig(probe_history_windows=0)


class TestClusteringDisabledIsExactNoOp:
    """Satellite regression: floor > 1.0 means the clustered planner is
    byte-for-byte the paper planner — same report, same budget ledger."""

    def test_report_and_budget_identical(self, small_world, trained_table):
        paper_pipeline, clustered_pipeline = (
            make_pipeline(
                Scenario.from_world(small_world), config=config,
                table=trained_table,
            )
            for config in (
                make_config(probe_planner="paper"),
                make_config(probe_planner="clustered", probe_cluster_floor=1.01),
            )
        )
        paper_report = paper_pipeline.run(100, 160)
        clustered_report = clustered_pipeline.run(100, 160)
        assert digest(clustered_report) == digest(paper_report)
        for attr in ("denied", "denied_total"):
            assert getattr(clustered_pipeline.on_demand.budget, attr) == (
                getattr(paper_pipeline.on_demand.budget, attr)
            )
        assert (
            clustered_pipeline.on_demand.probes_issued
            == paper_pipeline.on_demand.probes_issued
        )
        assert not any(
            item.category == "cluster-attributed"
            for item in clustered_report.localized
        )


class TestClusteredPersistence:
    """Matrix cells of the clustered case kept under their old IDs:
    checkpoint schema v3 carries the planner's co-anomaly history, so
    resumed and sharded clustered runs stay byte-identical."""

    def test_checkpoint_roundtrips_planner_history(self, matrix_cell):
        matrix_cell()

    def test_kill_resume_byte_identical(self, matrix_cell):
        matrix_cell()

    def test_sharded_matches_sequential(self, matrix_cell):
        matrix_cell()


class TestClusteredSavesProbes:
    """The reduced cut of ``bench_probe_savings.py``: on the suite's
    correlated-transit cases the clustered planner issues no more
    on-demand probes than the paper planner at every budget (strictly
    fewer in total), while the family keeps localizing at least as well
    as under the paper planner and at or above the 0.7 floor."""

    BUDGETS = (1, 5)

    @pytest.fixture(scope="class")
    def results(self, suite_world):
        from repro.analysis.validation import (
            build_warmup_state,
            validate_scenario_suite,
        )
        from repro.sim.incidents import IncidentArchetype

        warmup = build_warmup_state(suite_world)
        results = {}
        for planner in ("paper", "clustered"):
            for budget in self.BUDGETS:
                outcome = validate_scenario_suite(
                    suite_world,
                    warmup,
                    families=(IncidentArchetype.CORRELATED_TRANSIT,),
                    config=BlameItConfig(
                        probe_planner=planner, probe_budget_per_window=budget
                    ),
                )
                family = outcome.scorecard["families"]["correlated_transit"]
                results[planner, budget] = {
                    "probes": sum(
                        case.report.probes_on_demand for case in outcome.cases
                    ),
                    "accuracy": family["accuracy"],
                }
        return results

    @pytest.mark.parametrize("budget", BUDGETS)
    def test_no_more_probes_than_paper(self, results, budget):
        assert (
            results["clustered", budget]["probes"]
            <= results["paper", budget]["probes"]
        ), results

    def test_strictly_fewer_probes_in_total(self, results):
        def total(planner):
            return sum(results[planner, b]["probes"] for b in self.BUDGETS)

        assert total("clustered") < total("paper"), results

    @pytest.mark.parametrize("budget", BUDGETS)
    def test_accuracy_kept(self, results, budget):
        clustered = results["clustered", budget]["accuracy"]
        assert clustered >= 0.7, results
        assert clustered >= results["paper", budget]["accuracy"], results
