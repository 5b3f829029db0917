"""Tests for repro.core.background: baselines and probe scheduling."""

import numpy as np
import pytest

from repro.cloud.traceroute import TracerouteEngine, TracerouteResult, TracerouteView
from repro.core.background import BackgroundProber, BaselineStore
from repro.net.addressing import BGPPrefix
from repro.net.bgp import BGPTable


def _trace(loc="edge-A", prefix=1, time=0, path=(1, 10, 30)) -> TracerouteResult:
    cumulative = tuple(2.0 * (i + 1) for i in range(len(path)))
    return TracerouteResult(
        location_id=loc, prefix24=prefix, time=time, path=path, cumulative_ms=cumulative
    )


class TestBaselineStore:
    def test_lookup_by_middle(self):
        store = BaselineStore()
        store.put(_trace(prefix=1))
        found = store.get("edge-A", prefix24=2, middle=(10,))
        assert found is not None
        assert found.prefix24 == 1  # same path, different /24 is fine

    def test_prefix_fallback_on_new_path(self):
        store = BaselineStore()
        store.put(_trace(prefix=1, path=(1, 10, 30)))
        found = store.get("edge-A", prefix24=1, middle=(11,))
        assert found is not None
        assert found.path == (1, 10, 30)  # the stale old-path baseline

    def test_before_filter(self):
        store = BaselineStore()
        store.put(_trace(time=5))
        store.put(_trace(time=20))
        assert store.get("edge-A", 1, (10,), before=21).time == 20
        assert store.get("edge-A", 1, (10,), before=20).time == 5
        assert store.get("edge-A", 1, (10,), before=5) is None
        assert store.get("edge-A", 1, (10,)).time == 20

    def test_history_bounded(self):
        store = BaselineStore()
        for time in range(BaselineStore.HISTORY + 40):
            store.put(_trace(time=time))
        history = store._by_middle[("edge-A", (10,))]
        assert len(history) == BaselineStore.HISTORY
        # Oldest retained entries come from the tail of the insert stream.
        assert history[0].time == 40

    def test_get_candidates_order_and_filter(self):
        store = BaselineStore()
        for time in (3, 7, 12):
            store.put(_trace(time=time))
        candidates = store.get_candidates("edge-A", 1, (10,), before=12)
        assert [c.time for c in candidates] == [7, 3]
        assert store.get_candidates("edge-A", 1, (10,), before=3) == []
        all_candidates = store.get_candidates("edge-A", 1, (10,))
        assert [c.time for c in all_candidates] == [12, 7, 3]

    def test_miss(self):
        store = BaselineStore()
        assert store.get("edge-A", 1, (10,)) is None


class _WorldOracle:
    """Two registered targets, fixed views."""

    def traceroute_view(self, location_id, prefix24, time):
        return TracerouteView(path=(1, 10, 30), cumulative_ms=(2.0, 4.0, 6.0))


def _prober(interval=12, churn=True) -> BackgroundProber:
    engine = TracerouteEngine(_WorldOracle(), np.random.default_rng(0), hop_noise_ms=0.0)
    return BackgroundProber(
        engine=engine,
        store=BaselineStore(),
        interval_buckets=interval,
        churn_triggered=churn,
    )


class TestPeriodicProbing:
    def test_each_target_probed_once_per_interval(self):
        prober = _prober(interval=12)
        prober.register_target("edge-A", (10,), 1)
        prober.register_target("edge-B", (10,), 2)
        total = 0
        for time in range(24):
            total += len(prober.run_bucket(time))
        assert total == 4  # 2 targets x 2 intervals
        assert prober.probes_periodic == 4

    def test_stagger_deterministic(self):
        first = _prober(interval=12)
        second = _prober(interval=12)
        for prober in (first, second):
            prober.register_target("edge-A", (10,), 1)
        fire_first = [t for t in range(12) if first.run_bucket(t)]
        fire_second = [t for t in range(12) if second.run_bucket(t)]
        assert fire_first == fire_second

    def test_register_idempotent(self):
        prober = _prober()
        assert prober.register_target("edge-A", (10,), 1) is True
        assert prober.register_target("edge-A", (10,), 99) is False
        assert len(prober._targets) == 1

    def test_seed_target_stores_baseline(self):
        prober = _prober()
        prober.register_target("edge-A", (10,), 1)
        result = prober.seed_target("edge-A", (10,), 1, time=5)
        assert result is not None
        assert prober.store.get("edge-A", 1, (10,)) is not None

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            _prober(interval=0)


class TestChurnTriggers:
    def _update(self, time=7):
        table = BGPTable("edge-A")
        prefix = BGPPrefix(network=1 << 8, length=24)
        table.install(prefix, (1, 10, 30), 0)
        return table.install(prefix, (1, 11, 30), time)

    def test_update_triggers_probe(self):
        prober = _prober()
        prober.register_target("edge-A", (10,), 1)
        result = prober.on_bgp_update(self._update())
        assert result is not None
        assert prober.probes_churn == 1

    def test_new_middle_tracked_after_announce(self):
        prober = _prober()
        prober.register_target("edge-A", (10,), 1)
        prober.on_bgp_update(self._update())
        assert ("edge-A", (11,)) in prober._targets

    def test_disabled_churn_ignores_updates(self):
        prober = _prober(churn=False)
        prober.register_target("edge-A", (10,), 1)
        assert prober.on_bgp_update(self._update()) is None
        assert prober.probes_churn == 0

    def test_unknown_prefix_ignored(self):
        prober = _prober()
        prober.register_target("edge-A", (10,), 999999)
        assert prober.on_bgp_update(self._update()) is None

    def test_other_location_ignored(self):
        prober = _prober()
        prober.register_target("edge-B", (10,), 1)
        assert prober.on_bgp_update(self._update()) is None

    def test_probe_totals(self):
        prober = _prober(interval=1)
        prober.register_target("edge-A", (10,), 1)
        prober.run_bucket(0)
        prober.on_bgp_update(self._update())
        assert prober.probes_total == 2
