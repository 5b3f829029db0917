"""Tests for repro.io: scenario and report (de)serialization."""

import json

import numpy as np
import pytest

from repro.core.config import BlameItConfig
from repro.core.pipeline import BlameItPipeline
from repro.io import (
    load_report,
    load_scenario,
    params_from_dict,
    params_to_dict,
    report_from_dict,
    report_to_dict,
    save_report,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from repro.net.geo import Region
from repro.perf.batch import BatchQuartetGenerator
from repro.sim.faults import Direction, Fault, FaultTarget, SegmentKind
from repro.sim.scenario import DemandSurge, Scenario, ScenarioParams


@pytest.fixture(scope="module")
def params():
    return ScenarioParams(
        seed=13,
        regions=(Region.USA, Region.BRAZIL),
        duration_days=1,
        locations_per_region=1,
        rings=2,
    )


class TestParamsRoundTrip:
    def test_round_trip_equality(self, params):
        assert params_from_dict(params_to_dict(params)) == params

    def test_dict_is_json_compatible(self, params):
        json.dumps(params_to_dict(params))  # must not raise

    def test_defaults_round_trip(self):
        params = ScenarioParams()
        assert params_from_dict(params_to_dict(params)) == params


class TestScenarioRoundTrip:
    @pytest.fixture(scope="class")
    def scenario(self, params):
        from repro.sim.scenario import build_world

        world = build_world(params)
        faults = (
            Fault(
                fault_id=0,
                target=FaultTarget(
                    kind=SegmentKind.CLOUD,
                    location_id=world.locations[0].location_id,
                    affected_fraction=0.7,
                ),
                start=100,
                duration=10,
                added_ms=70.0,
            ),
            Fault(
                fault_id=1,
                target=FaultTarget(
                    kind=SegmentKind.MIDDLE,
                    asn=world.middle_asn_pool()[0],
                    direction=Direction.REVERSE,
                    path_scope=(world.middle_asn_pool()[0],),
                ),
                start=120,
                duration=6,
                added_ms=50.0,
            ),
        )
        return Scenario(world, faults, ())

    def test_round_trip_preserves_faults(self, scenario):
        rebuilt = scenario_from_dict(scenario_to_dict(scenario))
        assert rebuilt.faults == scenario.faults
        assert rebuilt.reroutes == scenario.reroutes

    def test_round_trip_reproduces_world(self, scenario):
        rebuilt = scenario_from_dict(scenario_to_dict(scenario))
        assert len(rebuilt.world.slots) == len(scenario.world.slots)
        original = BatchQuartetGenerator(scenario).generate_quartets(
            105, np.random.default_rng(0)
        )
        again = BatchQuartetGenerator(rebuilt).generate_quartets(
            105, np.random.default_rng(0)
        )
        assert original == again

    def test_file_round_trip(self, scenario, tmp_path):
        path = tmp_path / "scenario.json"
        save_scenario(scenario, path)
        rebuilt = load_scenario(path)
        assert rebuilt.faults == scenario.faults

    def test_version_check(self, scenario):
        data = scenario_to_dict(scenario)
        data["format_version"] = 999
        with pytest.raises(ValueError):
            scenario_from_dict(data)

    def test_surges_and_ring_flaps_round_trip(self, suite_world):
        """A spec carrying a demand surge and an anycast ring flap reloads
        to the same schedule and generates the same quartets."""
        metro = suite_world.slots[0].client.metro
        flap = suite_world.mapper.plan_ring_flap(metro, 0, start=100, duration=12)
        assert flap is not None
        surge = DemandSurge(
            surge_id=0, metro_name=metro.name, start=110, duration=12, multiplier=3.0
        )
        base = Scenario.from_world(suite_world)
        scenario = Scenario(
            suite_world, base.faults, base.reroutes, surges=(surge,), ring_flaps=(flap,)
        )
        rebuilt = scenario_from_dict(json.loads(json.dumps(scenario_to_dict(scenario))))
        assert rebuilt.surges == scenario.surges
        assert rebuilt.ring_flaps == scenario.ring_flaps
        assert rebuilt.faults == scenario.faults
        assert rebuilt.reroutes == scenario.reroutes
        original, again = BatchQuartetGenerator(scenario), BatchQuartetGenerator(rebuilt)
        for t in range(96, 130):
            assert original.generate_quartets(
                t, np.random.default_rng(t)
            ) == again.generate_quartets(t, np.random.default_rng(t)), t

    def test_generated_churn_round_trips(self, params):
        scenario = Scenario.build(params)
        rebuilt = scenario_from_dict(scenario_to_dict(scenario))
        assert rebuilt.reroutes == scenario.reroutes
        assert len(rebuilt.listener.log) == len(scenario.listener.log)


class TestReportSerialization:
    @pytest.fixture(scope="class")
    def report(self, params):
        scenario = Scenario.build(params)
        pipeline = BlameItPipeline(scenario, config=BlameItConfig(history_days=1))
        pipeline.warmup(0, 96, stride=4)
        return pipeline.run(100, 140)

    def test_report_summary(self, report, tmp_path):
        data = report_to_dict(report)
        json.dumps(data)  # JSON-compatible
        assert data["window"] == [100, 140]
        assert data["total_quartets"] == report.total_quartets
        assert set(data["probes"]) == {
            "on_demand",
            "background",
            "churn_triggered",
            "bootstrap",
        }
        path = tmp_path / "report.json"
        save_report(report, path)
        assert json.loads(path.read_text())["window"] == [100, 140]

    def test_report_dict_round_trip(self, report):
        data = report_to_dict(report)
        summary = report_from_dict(data)
        assert summary.window == (100, 140)
        assert summary.total_quartets == report.total_quartets
        # The round trip is lossless: serializing the parsed summary
        # reproduces the original document exactly.
        assert summary.to_dict() == data

    def test_report_file_round_trip(self, report, tmp_path):
        path = tmp_path / "report.json"
        save_report(report, path)
        summary = load_report(path)
        assert summary.to_dict() == report_to_dict(report)

    def test_report_version_check(self, report):
        data = report_to_dict(report)
        data["format_version"] = 999
        with pytest.raises(ValueError, match="unsupported report format"):
            report_from_dict(data)

    def test_report_malformed_document(self, report):
        data = report_to_dict(report)
        del data["probes"]
        with pytest.raises(ValueError, match="malformed report document"):
            report_from_dict(data)
