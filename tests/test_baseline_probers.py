"""Tests for the active-only and Trinocular-style probing baselines."""

import numpy as np

from repro.baselines.active_only import ActiveOnlyMonitor
from repro.baselines.trinocular import TargetBelief, TrinocularMonitor
from repro.cloud.traceroute import TracerouteEngine, TracerouteView


class _SteppingOracle:
    """Healthy until ``fault_at``; then +delta on the first middle hop."""

    def __init__(self, fault_at=50, fault_until=10_000, delta=60.0):
        self.fault_at = fault_at
        self.fault_until = fault_until
        self.delta = delta

    def traceroute_view(self, location_id, prefix24, time):
        inflate = self.delta if self.fault_at <= time < self.fault_until else 0.0
        return TracerouteView(
            path=(1, 10, 30),
            cumulative_ms=(2.0, 10.0 + inflate, 20.0 + inflate),
        )


def _engine(oracle=None) -> TracerouteEngine:
    return TracerouteEngine(
        oracle or _SteppingOracle(), np.random.default_rng(0), hop_noise_ms=0.0
    )


class TestActiveOnlyMonitor:
    def test_probe_volume(self):
        monitor = ActiveOnlyMonitor(engine=_engine(), interval_buckets=2)
        monitor.register_target("edge-A", (10,), 1)
        monitor.register_target("edge-A", (11,), 2)
        monitor.run(0, 20)
        assert monitor.engine.probes_issued == 2 * 10  # 2 targets, every 2nd bucket
        assert monitor.probes_per_day() == 2 * 288 / 2

    def test_detects_and_localizes(self):
        monitor = ActiveOnlyMonitor(engine=_engine(), interval_buckets=2)
        monitor.register_target("edge-A", (10,), 1)
        issues = monitor.run(0, 80)
        assert issues
        first = issues[0]
        assert first.time >= 50
        assert first.verdict.asn == 10

    def test_quiet_world_no_detections(self):
        oracle = _SteppingOracle(fault_at=10**9)
        monitor = ActiveOnlyMonitor(engine=_engine(oracle), interval_buckets=2)
        monitor.register_target("edge-A", (10,), 1)
        assert monitor.run(0, 60) == []

    def test_register_idempotent(self):
        monitor = ActiveOnlyMonitor(engine=_engine())
        monitor.register_target("edge-A", (10,), 1)
        monitor.register_target("edge-A", (10,), 99)
        assert monitor.probes_per_day() == 288 / monitor.interval_buckets


class TestTrinocularMonitor:
    def test_backoff_reduces_probes(self):
        """A stable target must cost far fewer probes than always-on."""
        oracle = _SteppingOracle(fault_at=10**9)
        monitor = TrinocularMonitor(engine=_engine(oracle), min_interval=1, max_interval=32)
        monitor.register_target("edge-A", (10,), 1)
        monitor.run(0, 400)
        always_on = 400  # min_interval probing for the same span
        assert monitor.engine.probes_issued < always_on / 3

    def test_detects_degradation(self):
        monitor = TrinocularMonitor(engine=_engine(_SteppingOracle(fault_at=100)))
        monitor.register_target("edge-A", (10,), 1)
        changes = monitor.run(0, 300)
        degraded = [c for c in changes if c.belief is TargetBelief.DEGRADED]
        assert degraded
        assert degraded[0].time >= 100

    def test_recovery_flips_back(self):
        oracle = _SteppingOracle(fault_at=100, fault_until=200)
        monitor = TrinocularMonitor(engine=_engine(oracle))
        monitor.register_target("edge-A", (10,), 1)
        changes = monitor.run(0, 400)
        beliefs = [c.belief for c in changes]
        assert TargetBelief.DEGRADED in beliefs
        assert beliefs[-1] is TargetBelief.HEALTHY

    def test_confirmations_filter_blips(self):
        """A single contradicting probe must not flip belief."""

        class _BlipOracle:
            def traceroute_view(self, location_id, prefix24, time):
                inflate = 60.0 if time == 50 else 0.0
                return TracerouteView(
                    path=(1, 10, 30),
                    cumulative_ms=(2.0, 10.0 + inflate, 20.0 + inflate),
                )

        monitor = TrinocularMonitor(engine=_engine(_BlipOracle()), confirmations=2)
        monitor.register_target("edge-A", (10,), 1)
        changes = monitor.run(0, 120)
        assert all(c.belief is not TargetBelief.DEGRADED for c in changes)

    def test_probe_ordering_between_baselines(self):
        """Cost ordering: always-on > Trinocular (same world, same span)."""
        span = 400
        active = ActiveOnlyMonitor(
            engine=_engine(_SteppingOracle(fault_at=10**9)), interval_buckets=2
        )
        trinocular = TrinocularMonitor(
            engine=_engine(_SteppingOracle(fault_at=10**9))
        )
        for monitor in (active, trinocular):
            monitor.register_target("edge-A", (10,), 1)
            monitor.register_target("edge-A", (11,), 2)
        active.run(0, span)
        trinocular.run(0, span)
        assert trinocular.engine.probes_issued < active.engine.probes_issued
