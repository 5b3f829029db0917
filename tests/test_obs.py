"""Tests for repro.obs: instruments, registry, merging, null path, and
the sharded-vs-sequential metrics equivalence."""

import pytest

from repro.obs import (
    NULL_REGISTRY,
    PHASE_SPANS,
    MetricsRegistry,
    NullRegistry,
    validate_snapshot,
)
from repro.sim.scenario import Scenario

from tests.harness import make_pipeline


class TestInstruments:
    def test_counter(self):
        registry = MetricsRegistry()
        counter = registry.counter("x")
        counter.inc()
        counter.inc(4)
        assert registry.counter("x").value == 5
        assert registry.counter("y").value == 0

    def test_gauge_last_write_wins(self):
        registry = MetricsRegistry()
        registry.gauge("g").set(3)
        registry.gauge("g").set(7.5)
        assert registry.gauge("g").value == 7.5

    def test_histogram_summary(self):
        registry = MetricsRegistry()
        for value in (2.0, 8.0, 5.0):
            registry.histogram("h").observe(value)
        histogram = registry.histogram("h")
        assert histogram.count == 3
        assert histogram.total == pytest.approx(15.0)
        assert histogram.min == 2.0
        assert histogram.max == 8.0
        assert histogram.total / histogram.count == pytest.approx(5.0)

    def test_span_records_wall_clock(self):
        registry = MetricsRegistry()
        with registry.span("work"):
            pass
        with registry.span("work"):
            pass
        spans = registry.snapshot()["spans"]
        assert spans["work"]["count"] == 2
        assert spans["work"]["total"] >= 0.0

    def test_span_records_on_exception(self):
        registry = MetricsRegistry()
        with pytest.raises(RuntimeError):
            with registry.span("work"):
                raise RuntimeError("boom")
        assert registry.snapshot()["spans"]["work"]["count"] == 1


class TestSnapshotAndMerge:
    def _populated(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        registry.counter("c").inc(3)
        registry.gauge("g").set(1.5)
        registry.histogram("h").observe(4.0)
        with registry.span("s"):
            pass
        return registry

    def test_snapshot_schema(self):
        snapshot = self._populated().snapshot()
        validate_snapshot(snapshot)
        assert snapshot["counters"] == {"c": 3}
        assert snapshot["gauges"] == {"g": 1.5}
        assert snapshot["histograms"]["h"]["count"] == 1

    def test_merge_adds_counters_and_combines_histograms(self):
        parent = self._populated()
        worker = MetricsRegistry()
        worker.counter("c").inc(2)
        worker.counter("only_worker").inc()
        worker.histogram("h").observe(10.0)
        parent.merge_snapshot(worker.snapshot())
        assert parent.counter("c").value == 5
        assert parent.counter("only_worker").value == 1
        histogram = parent.histogram("h")
        assert histogram.count == 2
        assert histogram.max == 10.0
        assert histogram.min == 4.0

    def test_merge_empty_histogram_keeps_extremes(self):
        parent = MetricsRegistry()
        parent.histogram("h").observe(4.0)
        empty = MetricsRegistry()
        _ = empty.histogram("h")  # created but never observed
        parent.merge_snapshot(empty.snapshot())
        assert parent.histogram("h").count == 1
        assert parent.histogram("h").min == 4.0

    def test_merge_none_is_noop(self):
        registry = self._populated()
        registry.merge_snapshot(None)
        assert registry.counter("c").value == 3

    def test_validate_rejects_malformed(self):
        with pytest.raises(ValueError):
            validate_snapshot([])  # type: ignore[arg-type]
        with pytest.raises(ValueError):
            validate_snapshot({"counters": {}})
        snapshot = MetricsRegistry().snapshot()
        snapshot["counters"]["bad"] = -1
        with pytest.raises(ValueError):
            validate_snapshot(snapshot)
        with pytest.raises(ValueError):
            validate_snapshot(
                MetricsRegistry().snapshot(), require_spans=("phase.passive",)
            )


class TestNullRegistry:
    def test_disabled_and_empty(self):
        registry = NullRegistry()
        assert not registry.enabled
        registry.counter("c").inc(5)
        registry.gauge("g").set(2)
        registry.histogram("h").observe(1.0)
        with registry.span("s"):
            pass
        snapshot = registry.snapshot()
        validate_snapshot(snapshot)
        assert snapshot["counters"] == {}
        assert snapshot["spans"] == {}

    def test_singletons_no_growth(self):
        assert NULL_REGISTRY.counter("a") is NULL_REGISTRY.counter("b")
        assert NULL_REGISTRY.span("a") is NULL_REGISTRY.span("b")

    def test_merge_is_noop(self):
        registry = NullRegistry()
        other = MetricsRegistry()
        other.counter("c").inc()
        registry.merge_snapshot(other.snapshot())
        assert registry.snapshot()["counters"] == {}


class TestPipelineMetrics:
    def test_report_metrics_none_by_default(self, small_world, trained_table):
        report = make_pipeline(
            Scenario.from_world(small_world), table=trained_table
        ).run(100, 112)
        assert report.metrics is None

    def test_sequential_snapshot_covers_phases(self, small_world, trained_table):
        report = make_pipeline(
            Scenario.from_world(small_world), table=trained_table,
            metrics=MetricsRegistry(), rng_per_bucket=False,
        ).run(100, 130)
        assert report.metrics is not None
        validate_snapshot(report.metrics)
        # Every phase except learning (fixed table) must have fired.
        expected = set(PHASE_SPANS) - {"phase.learning"}
        assert expected <= set(report.metrics["spans"])
        counters = report.metrics["counters"]
        assert counters["pipeline.buckets"] == 30
        assert counters["pipeline.quartets"] == report.total_quartets
        blamed = sum(
            count
            for name, count in counters.items()
            if name.startswith("passive.blame.")
        )
        assert blamed == report.bad_quartets
        assert counters["probe.on_demand.issued"] == report.probes_on_demand

    def test_sharded_merges_worker_counters(self, small_world, trained_table):
        """Sharded and sequential runs agree on every counter (the
        matrix checks their reports)."""
        expected, got = (
            make_pipeline(
                Scenario.from_world(small_world), driver, table=trained_table,
                metrics=MetricsRegistry(),
            ).run(100, 160)
            for driver in ("sequential", "sharded1")
        )
        assert got.metrics is not None and expected.metrics is not None
        validate_snapshot(got.metrics)
        # Counters merge exactly: worker-side passive/generation counts
        # fold into the parent's tracking/probing counts. The sharded
        # driver additionally keeps shard.* dispatch bookkeeping with no
        # sequential counterpart; everything else must match exactly.
        shared = {
            name: value
            for name, value in got.metrics["counters"].items()
            if not name.startswith("shard.")
        }
        assert shared == expected.metrics["counters"]
        assert got.metrics["counters"]["shard.runs"] == 3  # spans of [100, 160)
        assert got.metrics["gauges"] == expected.metrics["gauges"]
        # Worker spans made it across the process boundary.
        assert "phase.generation" in got.metrics["spans"]
        assert "passive.vectorized" in got.metrics["spans"]
