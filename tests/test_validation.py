"""Tests for repro.analysis.validation: incident and corroboration harnesses."""

import hashlib
import json
import multiprocessing
import os

import numpy as np
import pytest

from repro.analysis import validation
from repro.analysis.validation import (
    SuiteCase,
    build_scenario_suite,
    build_warmup_state,
    corroboration_ratios,
    run_case,
    run_cases,
    score_case,
    suite_world_params,
    validate_scenario_suite,
)
from repro.baselines.asmetro import as_metro_batch
from repro.core.blame import Blame
from repro.core.config import BlameItConfig
from repro.core.pipeline import BlameItPipeline, PipelineReport, SegmentIssue
from repro.sim.faults import Fault, FaultTarget, SegmentKind
from repro.sim.incidents import (
    ADVERSARIAL_ARCHETYPES,
    PAPER_ARCHETYPES,
    DemandSurge,
    IncidentArchetype,
    IncidentSpec,
    generate_incidents,
)
from repro.sim.scenario import Scenario

from tests.harness import digest


@pytest.fixture(scope="module")
def warmup(small_world):
    return build_warmup_state(small_world, days=1, stride=3)


class TestWarmupState:
    def test_table_populated(self, warmup):
        assert warmup.table.cloud
        assert warmup.table.middle

    def test_targets_unique(self, warmup):
        keys = [(loc, middle) for loc, middle, _ in warmup.targets]
        assert len(keys) == len(set(keys))

    def test_apply_preloads_pipeline(self, small_world, warmup):
        scenario = Scenario(small_world, (), ())
        pipeline = BlameItPipeline(scenario, fixed_table=warmup.table)
        warmup.apply(pipeline)
        assert len(pipeline.background._targets) == len(warmup.targets)
        some_key = warmup.client_observations[0][0]
        time = warmup.client_observations[0][1]
        assert pipeline.client_predictor.predict(some_key, time + 288) > 0

    def test_apply_replays_like_scalar_observe(self, small_world, warmup):
        """One ``observe_bucket`` per bucket leaves the predictor in the
        state one ``observe`` per triple does."""
        scenario = Scenario(small_world, (), ())
        applied = BlameItPipeline(scenario, fixed_table=warmup.table)
        warmup.apply(applied)
        scalar = BlameItPipeline(scenario, fixed_table=warmup.table)
        for key, time, users in warmup.client_observations:
            scalar.client_predictor.observe(key, time, users)
        assert (
            applied.client_predictor.state_dict()
            == scalar.client_predictor.state_dict()
        )

    def test_rekey_changes_middle_keys(self, small_world):
        state = build_warmup_state(
            small_world, days=1, stride=24, rekey=as_metro_batch
        )
        for (middle, _mobile) in state.table.middle:
            assert len(middle) == 2  # synthetic (asn, metro-id) keys


def _run_single(world, spec, warmup):
    """One labelled incident run and scored as a one-spec case."""
    return run_case(world, SuiteCase(spec.incident_id, (spec,), "single"), warmup)


class TestValidateIncident:
    """A lone labelled incident, run and scored as a one-spec case."""

    def test_batch_matches(self, small_world, warmup):
        specs = generate_incidents(small_world, 10, np.random.default_rng(2))
        outcomes = [
            outcome
            for spec in specs
            for outcome in _run_single(small_world, spec, warmup).outcomes
        ]
        matched = sum(1 for o in outcomes if o.matched)
        assert matched == 10

    def test_outcome_fields(self, small_world, warmup):
        spec = generate_incidents(small_world, 1, np.random.default_rng(4))[0]
        case_outcome = _run_single(small_world, spec, warmup)
        (outcome,) = case_outcome.outcomes
        assert outcome.spec is spec
        assert case_outcome.report.total_quartets > 0
        assert outcome.matched == (
            outcome.segment_matched and outcome.culprit_matched
        )


class TestCorroboration:
    @pytest.fixture(scope="class")
    def faulty_scenario(self, small_world):
        pool = small_world.middle_asn_pool()
        faults = (
            Fault(
                fault_id=0,
                target=FaultTarget(kind=SegmentKind.MIDDLE, asn=pool[0]),
                start=150,
                duration=24,
                added_ms=90.0,
            ),
            Fault(
                fault_id=1,
                target=FaultTarget(
                    kind=SegmentKind.CLIENT, asn=small_world.population.asns[0]
                ),
                start=150,
                duration=24,
                added_ms=90.0,
            ),
        )
        return Scenario(small_world, faults, ())

    def test_ratios_bounded(self, faulty_scenario, warmup):
        ratios = corroboration_ratios(faulty_scenario, 150, 168, warmup.table)
        assert ratios
        assert all(0.0 <= r <= 1.0 for r in ratios.values())

    def test_bgp_path_beats_as_metro(self, small_world, faulty_scenario, warmup):
        """Figure 11's ordering: BGP-path grouping corroborates at least
        as well as ⟨AS, Metro⟩ on average."""
        path_ratios = corroboration_ratios(faulty_scenario, 150, 168, warmup.table)
        metro_state = build_warmup_state(
            small_world, days=1, stride=3, rekey=as_metro_batch
        )
        metro_ratios = corroboration_ratios(
            faulty_scenario, 150, 168, metro_state.table, use_as_metro=True
        )
        assert path_ratios
        assert metro_ratios
        path_mean = np.mean(list(path_ratios.values()))
        metro_mean = np.mean(list(metro_ratios.values()))
        assert path_mean >= metro_mean - 0.05


def _spec(
    incident_id,
    segment,
    asn,
    start=150,
    duration=12,
    archetype=IncidentArchetype.PEERING_FAULT,
    surges=(),
):
    """A minimal hand-built incident label for scoring tests."""
    return IncidentSpec(
        incident_id=incident_id,
        archetype=archetype,
        faults=(),
        reroutes=(),
        start=start,
        duration=duration,
        expected_segment=segment,
        expected_culprit_asn=asn,
        description="synthetic",
        surges=tuple(surges),
    )


def _cloud_issue(location_id, first, last, impact):
    return SegmentIssue(
        blame=Blame.CLOUD, key=location_id, location_id=location_id,
        culprit_asn=None, first_seen=first, last_seen=last, impact=impact,
    )


def _client_issue(asn, location_id, first, last, impact):
    return SegmentIssue(
        blame=Blame.CLIENT, key=asn, location_id=location_id,
        culprit_asn=asn, first_seen=first, last_seen=last, impact=impact,
    )


def _report(cloud=(), client=()):
    return PipelineReport(
        start=0, end=300, closed_cloud=list(cloud), closed_client=list(client)
    )


class TestValidateIncidentEdgeCases:
    def test_sub_noise_fault_never_matches_its_label(
        self, small_world, warmup
    ):
        """A fault too small to breach any target is invisible to the
        pipeline: whatever blame (if any) surfaces is ambient noise,
        never the injected middle AS — and the outcome must not match."""
        asn = small_world.middle_asn_pool()[0]
        spec = IncidentSpec(
            incident_id=0,
            archetype=IncidentArchetype.PEERING_FAULT,
            faults=(
                Fault(
                    fault_id=0,
                    target=FaultTarget(kind=SegmentKind.MIDDLE, asn=asn),
                    start=150,
                    duration=12,
                    added_ms=2.0,
                ),
            ),
            reroutes=(),
            start=150,
            duration=12,
            expected_segment=SegmentKind.MIDDLE,
            expected_culprit_asn=asn,
            description="sub-noise fault",
        )
        (outcome,) = _run_single(small_world, spec, warmup).outcomes
        assert not outcome.matched
        assert (outcome.blamed_segment, outcome.culprit_asn) != (
            SegmentKind.MIDDLE,
            asn,
        )

    def test_corroboration_ratios_on_issue_free_window(
        self, small_world, warmup
    ):
        """No latency issues in the window -> empty ratios, gracefully."""
        scenario = Scenario(small_world, (), ())
        ratios = corroboration_ratios(scenario, 150, 156, warmup.table)
        assert ratios == {}


class TestScoreCase:
    """Attribution semantics over synthetic reports: pooling, claims,
    ambient discounts, and the flash-crowd negative expectation."""

    def test_zero_issues_nothing_blamed(self, small_world):
        spec = _spec(0, SegmentKind.CLOUD, small_world.cloud_asn)
        (outcome,) = score_case(
            small_world, SuiteCase(0, (spec,), "single"), _report()
        )
        assert outcome.blamed_segment is None
        assert not outcome.matched

    def test_multi_issue_pooling_beats_single_larger_issue(self, small_world):
        """Two client issues naming one AS pool into a single candidate
        that outweighs a larger lone cloud issue."""
        asn = small_world.population.asns[0]
        spec = _spec(0, SegmentKind.CLIENT, asn)
        report = _report(
            cloud=[_cloud_issue("edge-X", 150, 160, 50.0)],
            client=[
                _client_issue(asn, "edge-X", 150, 158, 30.0),
                _client_issue(asn, "edge-Y", 152, 162, 30.0),
            ],
        )
        (outcome,) = score_case(
            small_world, SuiteCase(0, (spec,), "single"), report
        )
        assert outcome.blamed_segment is SegmentKind.CLIENT
        assert outcome.culprit_asn == asn
        assert outcome.matched

    def test_overlapping_incidents_each_match_their_own_blame(
        self, small_world
    ):
        """Two concurrent incidents: the cloud incident's (larger) blame
        is claimed by it, so the client incident is matched against its
        own smaller blame instead of losing the dominance contest."""
        asn = small_world.population.asns[0]
        cloud_spec = _spec(0, SegmentKind.CLOUD, small_world.cloud_asn)
        client_spec = _spec(1, SegmentKind.CLIENT, asn)
        report = _report(
            cloud=[_cloud_issue("edge-X", 148, 164, 500.0)],
            client=[_client_issue(asn, "edge-X", 150, 160, 10.0)],
        )
        outcomes = score_case(
            small_world,
            SuiteCase(0, (cloud_spec, client_spec), "mixed"),
            report,
        )
        assert all(o.matched for o in outcomes)

    def test_ambient_pair_discounted_unless_expected(self, small_world):
        """A chronic (ambient) blame never outcompetes an incident's
        expected blame — but an incident *expecting* the ambient pair
        must still find it."""
        asn_expected = small_world.population.asns[0]
        asn_ambient = small_world.population.asns[1]
        ambient = frozenset({(SegmentKind.CLIENT, asn_ambient)})
        spec = _spec(0, SegmentKind.CLIENT, asn_expected)
        report = _report(
            client=[
                _client_issue(asn_ambient, "edge-X", 148, 164, 500.0),
                _client_issue(asn_expected, "edge-X", 150, 160, 10.0),
            ],
        )
        case = SuiteCase(0, (spec,), "single")
        (with_discount,) = score_case(
            small_world, case, report, ambient_pairs=ambient
        )
        assert with_discount.matched
        (without_discount,) = score_case(small_world, case, report)
        assert not without_discount.matched
        # The ambient pair stays eligible for a spec that expects it.
        expecting = _spec(1, SegmentKind.CLIENT, asn_ambient)
        (outcome,) = score_case(
            small_world,
            SuiteCase(1, (expecting,), "single"),
            report,
            ambient_pairs=ambient,
        )
        assert outcome.matched

    @pytest.fixture
    def surge_metro(self, small_world):
        metro = small_world.population.prefixes[0].metro
        locations = {
            slot.location.location_id
            for slot in small_world.slots
            if slot.client.metro.name == metro.name
        }
        return metro.name, sorted(locations)

    def _flash_spec(self, metro_name):
        return _spec(
            0, None, None,
            archetype=IncidentArchetype.FLASH_CROWD,
            surges=[
                DemandSurge(
                    surge_id=0, metro_name=metro_name,
                    start=150, duration=12, multiplier=3.0,
                )
            ],
        )

    def test_flash_crowd_violated_by_in_scope_issue(
        self, small_world, surge_metro
    ):
        metro_name, locations = surge_metro
        report = _report(cloud=[_cloud_issue(locations[0], 150, 158, 40.0)])
        (outcome,) = score_case(
            small_world,
            SuiteCase(0, (self._flash_spec(metro_name),), "single"),
            report,
        )
        assert not outcome.matched
        assert outcome.blamed_segment is SegmentKind.CLOUD

    def test_flash_crowd_ignores_out_of_scope_issue(
        self, small_world, surge_metro
    ):
        metro_name, locations = surge_metro
        report = _report(
            cloud=[_cloud_issue("not-a-serving-location", 150, 158, 40.0)]
        )
        (outcome,) = score_case(
            small_world,
            SuiteCase(0, (self._flash_spec(metro_name),), "single"),
            report,
        )
        assert outcome.matched
        assert outcome.blamed_segment is None


class TestBuildScenarioSuite:
    @pytest.fixture(scope="class")
    def suite(self, suite_world):
        return build_scenario_suite(suite_world, seed=7)

    def test_deterministic(self, suite_world, suite):
        assert suite == build_scenario_suite(suite_world, seed=7)

    def test_structure_singles_then_mixed(self, suite):
        families = PAPER_ARCHETYPES + ADVERSARIAL_ARCHETYPES
        singles = [c for c in suite if c.kind == "single"]
        mixed = [c for c in suite if c.kind == "mixed"]
        assert len(singles) == len(families)
        assert len(mixed) == len(ADVERSARIAL_ARCHETYPES)
        assert [c.case_id for c in suite] == list(range(len(suite)))

    def test_incident_ids_unique_across_suite(self, suite):
        ids = [s.incident_id for c in suite for s in c.specs]
        assert len(ids) == len(set(ids))

    def test_mixed_backgrounds_are_staggered_paper_incidents(self, suite):
        for case in suite:
            if case.kind != "mixed":
                continue
            subject, background = case.specs
            assert subject.archetype in ADVERSARIAL_ARCHETYPES
            assert background.archetype in PAPER_ARCHETYPES
            assert background.start < subject.start
            # The background's tail is (at most) two buckets past the
            # subject's onset — nearly over at the decision point.
            assert (
                background.start + background.duration
                <= subject.start + 2
            )

    def test_empty_families_rejected(self, suite_world):
        with pytest.raises(ValueError):
            build_scenario_suite(suite_world, seed=7, families=())


class TestValidateScenarioSuite:
    @pytest.fixture(scope="class")
    def result(self, suite_world):
        """A reduced two-family suite (one pipeline run per case)."""
        return validate_scenario_suite(
            suite_world,
            seed=7,
            families=(
                IncidentArchetype.CLOUD_MAINTENANCE,
                IncidentArchetype.FLASH_CROWD,
            ),
        )

    def test_scorecard_shape(self, result):
        scorecard = result.scorecard
        assert set(scorecard) >= {
            "format_version", "seed", "families", "confusion",
            "impact_ranking", "cases", "overall", "ambient_blames",
        }
        assert scorecard["format_version"] >= 1
        assert scorecard["seed"] == 7
        assert set(scorecard["families"]) == {
            "cloud_maintenance",
            "flash_crowd",
        }
        for family, stats in scorecard["families"].items():
            assert set(stats) >= {"incidents", "matched", "accuracy"}, family
            assert 0.0 <= stats["accuracy"] <= 1.0, (family, stats)
        overall = scorecard["overall"]
        assert overall["incidents"] == sum(
            stats["incidents"] for stats in scorecard["families"].values()
        )
        assert 0.0 <= overall["accuracy"] <= 1.0
        # Every adversarial family in the suite gets a mixed-case ranking.
        ranked = {entry["family"] for entry in scorecard["impact_ranking"]}
        assert ranked == {"flash_crowd"}

    def test_confusion_matrix_counts_every_incident(self, result):
        scorecard = result.scorecard
        total = sum(
            count
            for row in scorecard["confusion"].values()
            for count in row.values()
        )
        assert total == scorecard["overall"]["incidents"]

    def test_cases_carry_reports_for_drilldown(self, result):
        assert result.cases
        for case_outcome in result.cases:
            assert case_outcome.report.total_quartets > 0
            assert len(case_outcome.outcomes) == len(case_outcome.case.specs)

    def test_suite_world_params_is_ringed(self):
        params = suite_world_params()
        assert params.rings == 3
        assert params.sparse_ring_share == pytest.approx(0.45)


# ---------------------------------------------------------------------------
# The fork-pool map behind run_cases and the suite
# ---------------------------------------------------------------------------

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the map forks its workers",
)


def _force_workers(monkeypatch, workers: int) -> None:
    """Pin the map's worker count (capped at one per job, as the map's
    own count is) whatever the machine has."""
    monkeypatch.setattr(validation, "_job_workers", lambda jobs: min(workers, jobs))


def _scorecard_digest(result) -> str:
    return hashlib.sha256(
        json.dumps(result.scorecard, sort_keys=True).encode("utf-8")
    ).hexdigest()


def _new_children(before: set) -> set:
    return set(multiprocessing.active_children()) - before


class _JobFailed(Exception):
    """Raised inside one worker's pipeline run."""


@pytest.fixture(scope="module")
def suite_warmup(suite_world):
    return build_warmup_state(suite_world)


@needs_fork
class TestRunCasesPool:
    """The pool and the forced-serial map (which runs the worker's job
    function in this process) must agree byte for byte."""

    @pytest.mark.parametrize("planner", ["paper", "clustered"])
    @pytest.mark.parametrize("seed", [9, 11])
    def test_suite_pool_equals_serial(
        self, monkeypatch, suite_world, suite_warmup, planner, seed
    ):
        def suite():
            return validate_scenario_suite(
                suite_world, suite_warmup, seed=seed,
                config=BlameItConfig(probe_planner=planner),
            )

        _force_workers(monkeypatch, 1)
        serial = suite()
        _force_workers(monkeypatch, 2)
        pooled = suite()
        assert _scorecard_digest(pooled) == _scorecard_digest(serial)
        assert [c.case for c in pooled.cases] == [c.case for c in serial.cases]
        assert [digest(c.report) for c in pooled.cases] == [
            digest(c.report) for c in serial.cases
        ]

    def test_run_cases_equals_run_case_loop(
        self, monkeypatch, suite_world, suite_warmup
    ):
        cases = build_scenario_suite(suite_world, seed=9)[::3]
        ambient = frozenset({(SegmentKind.MIDDLE, None)})
        looped = [
            run_case(suite_world, case, suite_warmup, ambient_pairs=ambient)
            for case in cases
        ]
        _force_workers(monkeypatch, 2)
        before = set(multiprocessing.active_children())
        mapped = run_cases(suite_world, cases, suite_warmup, ambient_pairs=ambient)
        assert not _new_children(before)
        assert [m.case for m in mapped] == list(cases)
        assert [m.outcomes for m in mapped] == [o.outcomes for o in looped]
        assert [digest(m.report) for m in mapped] == [
            digest(o.report) for o in looped
        ]

    def test_worker_exception_reaches_caller_with_its_type(
        self, monkeypatch, suite_world, suite_warmup
    ):
        cases = build_scenario_suite(suite_world, seed=9)[:4]
        original = BlameItPipeline.run

        def run(pipeline, start, end):
            if pipeline.seed == 1000 + cases[1].case_id:
                raise _JobFailed(f"case {cases[1].case_id}")
            return original(pipeline, start, end)

        monkeypatch.setattr(BlameItPipeline, "run", run)
        _force_workers(monkeypatch, 2)
        before = set(multiprocessing.active_children())
        with pytest.raises(_JobFailed, match=f"case {cases[1].case_id}"):
            run_cases(suite_world, cases, suite_warmup)
        assert not _new_children(before)

    def test_suite_in_a_pool_worker_runs_serially(self, suite_world, suite_warmup):
        """A daemonic worker may not fork; the suite runs inline there
        instead of raising, and scores the same."""
        families = (IncidentArchetype.CLOUD_MAINTENANCE, IncidentArchetype.FLASH_CROWD)
        expected = validate_scenario_suite(
            suite_world, suite_warmup, seed=9, families=families
        ).scorecard
        with multiprocessing.get_context("fork").Pool(
            1, initializer=_hold, initargs=(suite_world, suite_warmup)
        ) as pool:
            scorecard, workers = pool.apply(_suite_in_worker, (9, families))
        assert workers == 1
        assert scorecard == expected


_HELD: tuple = ()


def _hold(*held) -> None:
    global _HELD
    _HELD = held


def _suite_in_worker(seed, families):
    world, warmup = _HELD
    scorecard = validate_scenario_suite(
        world, warmup, seed=seed, families=families
    ).scorecard
    return scorecard, validation._job_workers(4)


def test_job_workers_one_per_usable_cpu_at_most_one_per_job():
    cpus = len(os.sched_getaffinity(0))
    assert validation._job_workers(1) == 1
    assert validation._job_workers(100) == (
        cpus if "fork" in multiprocessing.get_all_start_methods() else 1
    )
