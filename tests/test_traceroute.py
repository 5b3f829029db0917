"""Tests for repro.cloud.traceroute: the engine and probe accounting."""

import numpy as np
import pytest

from repro.cloud.traceroute import TracerouteEngine, TracerouteResult, TracerouteView


class _StubOracle:
    """Fixed view for a known target; None elsewhere."""

    def __init__(self):
        self.view = TracerouteView(
            path=(1, 10, 20, 30), cumulative_ms=(4.0, 6.0, 8.0, 9.0)
        )

    def traceroute_view(self, location_id, prefix24, time):
        if prefix24 == 100:
            return self.view
        return None


class TestTracerouteEngine:
    @pytest.fixture
    def engine(self):
        return TracerouteEngine(_StubOracle(), np.random.default_rng(0), hop_noise_ms=0.0)

    def test_issue_returns_view(self, engine):
        result = engine.issue("edge-X", 100, time=5)
        assert result.path == (1, 10, 20, 30)
        assert result.cumulative_ms == pytest.approx((4.0, 6.0, 8.0, 9.0))
        assert result.time == 5

    def test_unreachable_counts_against_budget(self, engine):
        assert engine.issue("edge-X", 999, time=0) is None
        assert engine.probes_issued == 1

    def test_per_location_accounting(self, engine):
        engine.issue("edge-A", 100, 0)
        engine.issue("edge-A", 100, 1)
        engine.issue("edge-B", 100, 0)
        assert engine.probes_by_location == {"edge-A": 2, "edge-B": 1}
        assert engine.probes_issued == 3

    def test_noise_keeps_cumulative_monotone(self):
        engine = TracerouteEngine(
            _StubOracle(), np.random.default_rng(7), hop_noise_ms=5.0
        )
        for _ in range(50):
            result = engine.issue("edge-X", 100, 0)
            assert list(result.cumulative_ms) == sorted(result.cumulative_ms)


class TestTracerouteResult:
    def test_contribution_decomposition(self):
        result = TracerouteResult(
            location_id="edge-X",
            prefix24=100,
            time=0,
            path=(1, 10, 20, 30),
            cumulative_ms=(4.0, 6.0, 8.0, 9.0),
        )
        contributions = result.contribution_ms()
        assert contributions == pytest.approx({1: 4.0, 10: 2.0, 20: 2.0, 30: 1.0})
        assert result.end_to_end_ms == pytest.approx(9.0)

    def test_contribution_floor_at_zero(self):
        result = TracerouteResult(
            location_id="edge-X",
            prefix24=100,
            time=0,
            path=(1, 10, 30),
            cumulative_ms=(4.0, 3.5, 9.0),  # inversion artifact
        )
        contributions = result.contribution_ms()
        assert contributions[10] == 0.0
