"""Tests for repro.net.latency: the per-segment latency model."""

import numpy as np
import pytest

from repro.net.geo import WORLD_METROS, Region
from repro.net.latency import LatencyModel, LatencyParams, PathLatency
from repro.perf.batch import MIN_MEAN_RTT_MS, BatchQuartetGenerator
from repro.sim.scenario import Scenario, ScenarioParams, build_world

METROS = {m.name: m for m in WORLD_METROS}


class TestPathLatency:
    def test_total_is_sum(self):
        latency = PathLatency(cloud_ms=2.0, middle_ms=(10.0, 5.0), client_ms=8.0)
        assert latency.total_ms == pytest.approx(25.0)


class TestLatencyModel:
    @pytest.fixture
    def model(self):
        return LatencyModel()

    def test_stable_across_calls(self, model):
        seattle = METROS["Seattle"]
        london = METROS["London"]
        path = (1, 10, 20, 30)
        first = model.path_latency(seattle, path, london)
        second = model.path_latency(seattle, path, london)
        assert first == second

    def test_distinct_paths_get_distinct_latencies(self, model):
        seattle = METROS["Seattle"]
        london = METROS["London"]
        a = model.path_latency(seattle, (1, 10, 30), london)
        b = model.path_latency(seattle, (1, 11, 30), london)
        assert a.total_ms != pytest.approx(b.total_ms)

    def test_middle_carries_propagation(self, model):
        """Long geographic paths must show up in the middle segment."""
        seattle = METROS["Seattle"]
        sydney = METROS["Sydney"]
        chicago = METROS["Chicago"]
        path = (1, 10, 20, 30)
        far = model.path_latency(seattle, path, sydney)
        near = model.path_latency(seattle, path, chicago)
        assert sum(far.middle_ms) > sum(near.middle_ms)
        assert far.total_ms > near.total_ms

    def test_mobile_adds_client_latency(self, model):
        seattle = METROS["Seattle"]
        chicago = METROS["Chicago"]
        path = (1, 10, 30)
        fixed = model.path_latency(seattle, path, chicago, mobile=False)
        mobile = model.path_latency(seattle, path, chicago, mobile=True)
        assert mobile.client_ms > fixed.client_ms
        assert mobile.client_ms - fixed.client_ms == pytest.approx(
            model.params.client_mobile_extra_ms
        )

    def test_direct_adjacency_propagation_in_client(self, model):
        seattle = METROS["Seattle"]
        london = METROS["London"]
        direct = model.path_latency(seattle, (1, 30), london)
        assert direct.middle_ms == ()
        # Transatlantic propagation must land somewhere: the client leg.
        assert direct.client_ms > 60

    def test_segment_positivity(self, model):
        seattle = METROS["Seattle"]
        tokyo = METROS["Tokyo"]
        latency = model.path_latency(seattle, (1, 10, 20, 21, 30), tokyo)
        assert latency.cloud_ms > 0
        assert latency.client_ms > 0
        assert all(ms > 0 for ms in latency.middle_ms)


class TestSampling:
    def test_floor(self):
        """Noise large enough to push means below zero meets the floor."""
        params = ScenarioParams(
            seed=42,
            regions=(Region.USA,),
            locations_per_region=1,
            duration_days=1,
            latency=LatencyParams(noise_sigma=20.0),
        )
        generator = BatchQuartetGenerator(Scenario.from_world(build_world(params)))
        rng = np.random.default_rng(0)
        means = np.concatenate(
            [generator.generate(t, rng).mean_rtt_ms for t in range(100, 112)]
        )
        assert (means >= MIN_MEAN_RTT_MS).all()
        assert (means == MIN_MEAN_RTT_MS).any()
