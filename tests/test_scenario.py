"""Tests for repro.sim.scenario: the world, telemetry, ground truth."""

import numpy as np
import pytest

import repro.sim.scenario as scenario_module
from repro.analysis.validation import build_warmup_state
from repro.net.asn import middle_asns
from repro.net.latency import LatencyModel
from repro.perf.batch import BatchQuartetGenerator
from repro.sim.faults import Fault, FaultTarget, SegmentKind
from repro.sim.incidents import _index_world
from repro.sim.scenario import (
    BUCKETS_PER_DAY,
    DemandSurge,
    RerouteEvent,
    Scenario,
    ScenarioParams,
    build_world,
)
from repro.net.geo import Region


class TestWorldBuild:
    def test_slots_reference_population(self, small_world):
        prefixes = {p.prefix24 for p in small_world.population}
        for slot in small_world.slots:
            assert slot.client.prefix24 in prefixes

    def test_primary_plus_secondary_share(self, small_world):
        shares: dict[int, float] = {}
        for slot in small_world.slots:
            shares[slot.client.prefix24] = (
                shares.get(slot.client.prefix24, 0.0) + slot.share
            )
        for total in shares.values():
            assert total == pytest.approx(1.0)

    def test_calibrated_targets_dominate_baselines(self, small_world):
        """§2.1: no prefix is consistently above its badness threshold."""
        for slot in small_world.slots:
            path = small_world.mapper.path_for(slot.location, slot.client)
            if path is None:
                continue
            baseline = small_world.latency.path_latency(
                slot.location.metro, path, slot.client.metro, slot.client.mobile
            )
            target = small_world.targets.target_ms(
                slot.location.region, slot.client.mobile
            )
            assert baseline.total_ms < target

    def test_location_lookup(self, small_world):
        location = small_world.locations[0]
        assert small_world.location_by_id(location.location_id) is location
        with pytest.raises(KeyError):
            small_world.location_by_id("edge-Nowhere")

    def test_middle_pool_excludes_clients(self, small_world):
        pool = set(small_world.middle_asn_pool())
        assert not pool & set(small_world.population.asns)
        assert small_world.cloud_asn not in pool


class TestFaultFreeScenario:
    def test_no_culprit_without_faults(self, small_scenario, small_world):
        for slot in small_world.slots[:30]:
            culprit = small_scenario.true_culprit(
                slot.location.location_id, slot.client.prefix24, 100
            )
            assert culprit is None

    def test_true_rtt_matches_baseline(self, small_scenario, small_world):
        slot = small_world.slots[0]
        rtt = small_scenario.true_rtt_ms(
            slot.location.location_id, slot.client.prefix24, 50
        )
        baseline = small_scenario.baseline_latency(
            slot.location.location_id, slot.client.prefix24, 50
        )
        assert rtt == pytest.approx(baseline.total_ms)

    def test_traceroute_view_consistent_with_rtt(self, small_scenario, small_world):
        slot = small_world.slots[0]
        view = small_scenario.traceroute_view(
            slot.location.location_id, slot.client.prefix24, 50
        )
        rtt = small_scenario.true_rtt_ms(
            slot.location.location_id, slot.client.prefix24, 50
        )
        assert view.cumulative_ms[-1] == pytest.approx(rtt)
        assert list(view.cumulative_ms) == sorted(view.cumulative_ms)

    def test_quartets_well_formed(self, small_scenario, small_world):
        quartets = BatchQuartetGenerator(small_scenario).generate_quartets(
            150, np.random.default_rng(0)
        )
        assert quartets
        locations = {l.location_id for l in small_world.locations}
        for quartet in quartets:
            assert quartet.location_id in locations
            assert quartet.n_samples >= 1
            assert quartet.mean_rtt_ms >= 1.0
            assert quartet.users >= 1
            path = small_scenario.path_for(
                quartet.location_id, quartet.prefix24, quartet.time
            )
            assert quartet.middle == middle_asns(path)


class TestFaultEffects:
    def _scenario_with(self, world, fault) -> Scenario:
        return Scenario(world, (fault,), ())

    def test_cloud_fault_inflates_location_only(self, small_world):
        location = small_world.locations[0]
        other = small_world.locations[1]
        fault = Fault(
            fault_id=0,
            target=FaultTarget(kind=SegmentKind.CLOUD, location_id=location.location_id),
            start=100,
            duration=10,
            added_ms=70.0,
        )
        scenario = self._scenario_with(small_world, fault)
        healthy = Scenario(small_world, (), ())
        for slot in small_world.slots:
            during = scenario.true_rtt_ms(
                slot.location.location_id, slot.client.prefix24, 105
            )
            clean = healthy.true_rtt_ms(
                slot.location.location_id, slot.client.prefix24, 105
            )
            if slot.location.location_id == location.location_id:
                assert during == pytest.approx(clean + 70.0)
            else:
                assert during == pytest.approx(clean)
        # And the oracle agrees.
        affected = next(
            s for s in small_world.slots
            if s.location.location_id == location.location_id
        )
        assert scenario.true_culprit(
            location.location_id, affected.client.prefix24, 105
        ) == (SegmentKind.CLOUD, small_world.cloud_asn)
        del other

    def test_middle_fault_shows_in_traceroute(self, small_world):
        # Find a slot with a non-empty middle.
        slot = next(
            s
            for s in small_world.slots
            if middle_asns(small_world.mapper.path_for(s.location, s.client) or (0, 0))
        )
        path = small_world.mapper.path_for(slot.location, slot.client)
        culprit = middle_asns(path)[0]
        fault = Fault(
            fault_id=0,
            target=FaultTarget(kind=SegmentKind.MIDDLE, asn=culprit),
            start=100,
            duration=10,
            added_ms=50.0,
        )
        scenario = self._scenario_with(small_world, fault)
        healthy = Scenario(small_world, (), ())
        view = scenario.traceroute_view(
            slot.location.location_id, slot.client.prefix24, 105
        )
        clean = healthy.traceroute_view(
            slot.location.location_id, slot.client.prefix24, 105
        )
        position = view.path.index(culprit)
        delta = view.cumulative_ms[position] - clean.cumulative_ms[position]
        assert delta == pytest.approx(50.0)
        assert scenario.true_culprit(
            slot.location.location_id, slot.client.prefix24, 105
        ) == (SegmentKind.MIDDLE, culprit)

    def test_client_fault_oracle(self, small_world):
        asn = small_world.population.asns[0]
        client = small_world.population.in_as(asn)[0]
        fault = Fault(
            fault_id=0,
            target=FaultTarget(kind=SegmentKind.CLIENT, asn=asn),
            start=100,
            duration=10,
            added_ms=60.0,
        )
        scenario = self._scenario_with(small_world, fault)
        location = small_world.assignments[client.prefix24].primary
        assert scenario.true_culprit(
            location.location_id, client.prefix24, 102
        ) == (SegmentKind.CLIENT, asn)

    def test_sub_threshold_fault_no_culprit(self, small_world):
        location = small_world.locations[0]
        fault = Fault(
            fault_id=0,
            target=FaultTarget(kind=SegmentKind.CLOUD, location_id=location.location_id),
            start=100,
            duration=5,
            added_ms=5.0,  # below MIN_CULPRIT_DELTA_MS
        )
        scenario = self._scenario_with(small_world, fault)
        slot = next(
            s for s in small_world.slots
            if s.location.location_id == location.location_id
        )
        assert scenario.true_culprit(
            location.location_id, slot.client.prefix24, 102
        ) is None


class TestRerouting:
    def test_reroute_changes_path(self, small_world):
        slot = next(
            s
            for s in small_world.slots
            if small_world.mapper.alternate_path_for(s.location, s.client) is not None
        )
        base = small_world.mapper.path_for(slot.location, slot.client)
        alternate = small_world.mapper.alternate_path_for(slot.location, slot.client)
        event = RerouteEvent(
            time=50,
            location_id=slot.location.location_id,
            announcement=slot.client.announcement,
            new_path=alternate,
        )
        scenario = Scenario(small_world, (), (event,))
        assert (
            scenario.path_for(slot.location.location_id, slot.client.prefix24, 49)
            == base
        )
        assert (
            scenario.path_for(slot.location.location_id, slot.client.prefix24, 50)
            == alternate
        )

    def test_withdrawal_makes_unreachable(self, small_world):
        slot = small_world.slots[0]
        event = RerouteEvent(
            time=50,
            location_id=slot.location.location_id,
            announcement=slot.client.announcement,
            new_path=None,
        )
        scenario = Scenario(small_world, (), (event,))
        assert (
            scenario.path_for(slot.location.location_id, slot.client.prefix24, 55)
            is None
        )
        assert (
            scenario.true_rtt_ms(slot.location.location_id, slot.client.prefix24, 55)
            is None
        )
        assert (
            scenario.traceroute_view(
                slot.location.location_id, slot.client.prefix24, 55
            )
            is None
        )

    def test_reroute_logged_as_bgp_update(self, small_world):
        slot = next(
            s
            for s in small_world.slots
            if small_world.mapper.alternate_path_for(s.location, s.client) is not None
        )
        alternate = small_world.mapper.alternate_path_for(slot.location, slot.client)
        event = RerouteEvent(
            time=50,
            location_id=slot.location.location_id,
            announcement=slot.client.announcement,
            new_path=alternate,
        )
        scenario = Scenario(small_world, (), (event,))
        updates = scenario.updates_between(50, 51)
        assert len(updates) == 1
        assert updates[0].new_path == alternate

    def test_initial_installs_not_reported_as_churn(self, small_scenario):
        assert small_scenario.updates_between(0, 1) == ()


class TestDeterminism:
    def test_same_seed_same_world(self):
        params = ScenarioParams(
            seed=99, regions=(Region.USA,), duration_days=1, locations_per_region=1
        )
        a = Scenario.build(params)
        b = Scenario.build(params)
        assert len(a.world.slots) == len(b.world.slots)
        assert a.faults == b.faults
        qa = BatchQuartetGenerator(a).generate_quartets(100, np.random.default_rng(0))
        qb = BatchQuartetGenerator(b).generate_quartets(100, np.random.default_rng(0))
        assert qa == qb

    def test_horizon(self):
        params = ScenarioParams(seed=1, regions=(Region.USA,), duration_days=3)
        assert params.horizon_buckets == 3 * BUCKETS_PER_DAY


class TestSlotTable:
    def test_one_table_per_world_shared_by_every_reader(
        self, monkeypatch, small_params
    ):
        builds = []
        build = scenario_module._build_slot_table

        def counting_build(world):
            builds.append(world)
            return build(world)

        monkeypatch.setattr(scenario_module, "_build_slot_table", counting_build)
        world = build_world(small_params)
        table = world.slot_table
        scenarios = (Scenario(world, (), ()), Scenario.from_world(world))
        generators = [BatchQuartetGenerator(s) for s in scenarios]
        index = _index_world(world)
        build_warmup_state(world, days=1, stride=48)
        assert len(builds) == 1 and builds[0] is world
        assert all(s.world.slot_table is table for s in scenarios)
        assert all(g.table is table for g in generators)
        assert index.table is table
        arrays = [v for v in vars(table).values() if isinstance(v, np.ndarray)]
        assert len(arrays) > 10
        assert not any(a.flags.writeable for a in arrays)

    def test_generators_share_one_path_latency_scan(self, monkeypatch, small_params):
        """N fault-free scenarios cost one baseline per reachable slot in
        total, not N."""
        calls = []
        path_latency = LatencyModel.path_latency

        def counting(self, *args, **kwargs):
            calls.append(args)
            return path_latency(self, *args, **kwargs)

        monkeypatch.setattr(LatencyModel, "path_latency", counting)
        world = build_world(small_params)
        for _ in range(3):
            BatchQuartetGenerator(Scenario(world, (), ()))
        reachable = sum(
            world.mapper.path_for(s.location, s.client) is not None
            for s in world.slots
        )
        assert len(calls) == reachable


class TestDuplicateIds:
    def test_repeated_fault_id_refused(self, small_world):
        faults = tuple(
            Fault(
                fault_id=0,
                target=FaultTarget(
                    kind=SegmentKind.CLOUD, location_id=location.location_id
                ),
                start=100,
                duration=10,
                added_ms=50.0,
            )
            for location in small_world.locations[:2]
        )
        with pytest.raises(ValueError, match="duplicate fault id 0"):
            Scenario(small_world, faults, ())

    def test_repeated_surge_id_refused(self, small_world):
        metros = sorted({s.client.metro.name for s in small_world.slots})[:2]
        surges = tuple(
            DemandSurge(
                surge_id=0, metro_name=name, start=100, duration=10, multiplier=3.0
            )
            for name in metros
        )
        with pytest.raises(ValueError, match="duplicate surge id 0"):
            Scenario(small_world, (), (), surges=surges)
