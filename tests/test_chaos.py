"""Unit and end-to-end tests for the `repro.chaos` fault-injection
subsystem: the deterministic hash, plan semantics, quartet injection and
sanitization, probe timeouts with bounded retries, baseline fates, the
degraded no-table passive mode, and full chaos runs of both pipelines.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.chaos import (
    FaultPlan,
    inject_batch,
    inject_quartets,
    sanitize_batch,
    sanitize_quartets,
    uniform,
    uniforms,
)
from repro.cloud.traceroute import TracerouteEngine
from repro.core.active import OnDemandProber, ProbeBudget
from repro.core.background import BackgroundProber, BaselineStore
from repro.core.blame import Blame
from repro.core.config import BlameItConfig
from repro.core.passive import PassiveLocalizer
from repro.core.pipeline import PipelineReport
from repro.core.prediction import ClientCountPredictor, DurationPredictor
from repro.core.quartet import QuartetBatch
from repro.obs import MetricsRegistry, validate_snapshot
from repro.perf.batch import BatchQuartetGenerator
from repro.sim.scenario import Scenario

from tests.harness import make_pipeline
from tests.test_perf import _random_quartets, _targets


class TestUniformHash:
    def test_deterministic(self):
        assert uniform(3, "x", 1, 2) == uniform(3, "x", 1, 2)

    def test_sensitive_to_every_lane(self):
        base = uniform(3, "x", 1, 2)
        assert base != uniform(4, "x", 1, 2)
        assert base != uniform(3, "y", 1, 2)
        assert base != uniform(3, "x", 1, 3)

    def test_vector_matches_scalar(self):
        a = np.arange(100, dtype=np.int64)
        b = np.arange(100, dtype=np.int64) * 7
        vec = uniforms(9, "probe", a, b)
        for i in range(100):
            assert vec[i] == uniform(9, "probe", int(a[i]), int(b[i]))

    def test_bounds_and_spread(self):
        draws = uniforms(0, "spread", np.arange(4096, dtype=np.int64))
        assert draws.min() >= 0.0
        assert draws.max() < 1.0
        assert 0.45 < draws.mean() < 0.55

    def test_order_independent(self):
        """A key's uniform does not depend on its row position."""
        keys = np.array([5, 6, 7], dtype=np.int64)
        forward = uniforms(1, "k", keys)
        backward = uniforms(1, "k", keys[::-1])
        assert forward.tolist() == backward[::-1].tolist()


class TestFaultPlan:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"quartet_drop_rate": 1.5},
            {"probe_timeout_rate": -0.1},
            {"probe_retry_attempts": -1},
            {"shard_crash_max": -1},
            {"slow_shard_ms": -1.0},
            {"baseline_stale_age_buckets": 0},
            {"window": (5, 5)},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            FaultPlan(**kwargs)

    def test_enabled(self):
        assert not FaultPlan().enabled
        assert not FaultPlan(seed=7).enabled
        assert FaultPlan(quartet_drop_rate=0.01).enabled
        assert FaultPlan(drop_expected_table=True).enabled
        assert FaultPlan.smoke().enabled

    def test_window(self):
        plan = FaultPlan(quartet_drop_rate=1.0, window=(10, 20))
        assert not plan.in_window(9)
        assert plan.in_window(10)
        assert plan.in_window(19)
        assert not plan.in_window(20)
        mask = plan.window_mask(np.array([9, 10, 19, 20]))
        assert mask.tolist() == [False, True, True, False]
        assert FaultPlan().window_mask(np.array([0])) is True

    def test_shard_crash_honors_attempt_cap(self):
        plan = FaultPlan(seed=2, shard_crash_rate=1.0, shard_crash_max=2)
        assert plan.shard_crashes(0, 17, 0)
        assert plan.shard_crashes(0, 17, 1)
        assert not plan.shard_crashes(0, 17, 2)
        assert not FaultPlan(seed=2).shard_crashes(0, 17, 0)

    def test_shard_faults_respect_window(self):
        plan = FaultPlan(
            seed=2,
            shard_crash_rate=1.0,
            slow_shard_rate=1.0,
            slow_shard_ms=4.0,
            window=(10, 20),
        )
        # No overlap with the window: inert.
        assert not plan.shard_crashes(20, 30, 0)
        assert plan.shard_delay_ms(20, 30) == 0.0
        # Any overlap: eligible.
        assert plan.shard_crashes(0, 11, 0)
        assert plan.shard_delay_ms(0, 11) == 4.0

    def test_baseline_fate_extremes_and_mix(self):
        missing = FaultPlan(seed=3, baseline_missing_rate=1.0)
        stale = FaultPlan(seed=3, baseline_stale_rate=1.0)
        assert missing.baseline_fate("edge-0", 17) == "missing"
        assert stale.baseline_fate("edge-0", 17) == "stale"
        assert FaultPlan(seed=3).baseline_fate("edge-0", 17) == "ok"
        mixed = FaultPlan(
            seed=3, baseline_missing_rate=0.3, baseline_stale_rate=0.3
        )
        fates = [mixed.baseline_fate(f"loc-{i}", i) for i in range(300)]
        assert {"ok", "missing", "stale"} == set(fates)
        # Same roll decides both fates: deterministic across calls.
        assert fates == [mixed.baseline_fate(f"loc-{i}", i) for i in range(300)]

    def test_probe_streams_are_independent(self):
        plan = FaultPlan(seed=9, probe_timeout_rate=0.5)
        fates = [
            (
                plan.probe_times_out("probe.timeout.on_demand", "edge-x", p, 10, 0),
                plan.probe_times_out("probe.timeout.background", "edge-x", p, 10, 0),
            )
            for p in range(64)
        ]
        assert any(a != b for a, b in fates)


class TestQuartetInjection:
    _PLAN_RATES = dict(
        quartet_drop_rate=0.1,
        quartet_duplicate_rate=0.1,
        quartet_corrupt_rate=0.1,
    )

    @pytest.mark.parametrize("seed", range(10))
    def test_scalar_and_batch_agree(self, seed):
        """The columnar injector (sharded workers) and the scalar one
        (sequential pipeline) give every quartet the same fate."""
        rng = np.random.default_rng(seed)
        quartets = _random_quartets(rng, 200)
        plan = FaultPlan(seed=seed, **self._PLAN_RATES)
        scalar_metrics, batch_metrics = MetricsRegistry(), MetricsRegistry()
        scalar = sanitize_quartets(
            inject_quartets(plan, quartets, scalar_metrics), scalar_metrics
        )
        batch = sanitize_batch(
            inject_batch(plan, QuartetBatch.from_quartets(quartets), batch_metrics),
            batch_metrics,
        ).to_quartets()
        assert scalar == batch
        assert (
            scalar_metrics.snapshot()["counters"]
            == batch_metrics.snapshot()["counters"]
        )

    def test_faults_actually_fire(self):
        rng = np.random.default_rng(0)
        quartets = _random_quartets(rng, 400)
        metrics = MetricsRegistry()
        plan = FaultPlan(seed=0, **self._PLAN_RATES)
        inject_quartets(plan, quartets, metrics)
        counters = metrics.snapshot()["counters"]
        assert counters["chaos.quartet.dropped"] > 0
        assert counters["chaos.quartet.corrupted"] > 0
        assert counters["chaos.quartet.duplicated"] > 0

    def test_zero_rate_plan_is_noop(self):
        rng = np.random.default_rng(1)
        quartets = _random_quartets(rng, 50)
        plan = FaultPlan(seed=1)
        assert inject_quartets(plan, quartets) is quartets
        batch = QuartetBatch.from_quartets(quartets)
        assert inject_batch(plan, batch) is batch

    def test_window_gates_injection(self):
        rng = np.random.default_rng(1)
        quartets = _random_quartets(rng, 50)  # all at bucket 0
        plan = FaultPlan(
            seed=1,
            quartet_drop_rate=1.0,
            quartet_duplicate_rate=1.0,
            quartet_corrupt_rate=1.0,
            window=(1000, 2000),
        )
        assert inject_quartets(plan, quartets) is quartets

    def test_drop_wins_over_other_faults(self):
        rng = np.random.default_rng(2)
        quartets = _random_quartets(rng, 30)
        metrics = MetricsRegistry()
        plan = FaultPlan(
            seed=2,
            quartet_drop_rate=1.0,
            quartet_duplicate_rate=1.0,
            quartet_corrupt_rate=1.0,
        )
        assert inject_quartets(plan, quartets, metrics) == []
        counters = metrics.snapshot()["counters"]
        assert counters["chaos.quartet.dropped"] == 30
        assert "chaos.quartet.corrupted" not in counters

    def test_duplicates_land_adjacent(self):
        rng = np.random.default_rng(3)
        quartets = _random_quartets(rng, 20)
        plan = FaultPlan(seed=3, quartet_duplicate_rate=1.0)
        doubled = inject_quartets(plan, quartets)
        assert len(doubled) == 40
        assert doubled[0] == doubled[1]
        assert doubled[::2] == quartets


class TestSanitization:
    def _with_invalid(self, rng):
        quartets = _random_quartets(rng, 20)
        broken = [
            quartets[3]._replace(mean_rtt_ms=float("nan")),
            quartets[7]._replace(mean_rtt_ms=0.0),
            quartets[11]._replace(n_samples=0),
            quartets[15]._replace(users=-1),
        ]
        for index, bad in zip((3, 7, 11, 15), broken):
            quartets[index] = bad
        return quartets

    def test_clean_input_returns_same_object(self):
        rng = np.random.default_rng(4)
        quartets = _random_quartets(rng, 20)
        assert sanitize_quartets(quartets) is quartets
        batch = QuartetBatch.from_quartets(quartets)
        assert sanitize_batch(batch) is batch

    def test_invalid_rows_dropped_and_counted(self):
        rng = np.random.default_rng(4)
        quartets = self._with_invalid(rng)
        metrics = MetricsRegistry()
        kept = sanitize_quartets(quartets, metrics)
        assert len(kept) == 16
        assert metrics.snapshot()["counters"]["sanitize.quartets_dropped"] == 4
        batch_metrics = MetricsRegistry()
        batch_kept = sanitize_batch(
            QuartetBatch.from_quartets(quartets), batch_metrics
        ).to_quartets()
        assert batch_kept == kept
        assert (
            batch_metrics.snapshot()["counters"]["sanitize.quartets_dropped"] == 4
        )


class TestProbeChaos:
    @pytest.fixture()
    def target(self, small_scenario):
        quartet = BatchQuartetGenerator(small_scenario).generate_quartets(50)[0]
        return quartet.location_id, quartet.prefix24

    def _prober(self, small_scenario, chaos, budget_slots=5):
        engine = TracerouteEngine(small_scenario, np.random.default_rng(0))
        metrics = MetricsRegistry()
        prober = OnDemandProber(
            engine,
            DurationPredictor(),
            ClientCountPredictor(3),
            ProbeBudget(budget_slots),
            metrics=metrics,
            chaos=chaos,
        )
        prober.budget.start_window()
        return prober, metrics

    def test_no_chaos_issues_single_probe(self, small_scenario, target):
        prober, metrics = self._prober(small_scenario, chaos=None)
        assert prober._issue(*target, 50) is not None
        assert prober.probes_issued == 1
        counters = metrics.snapshot()["counters"]
        assert counters == {"probe.on_demand.issued": 1}

    def test_all_timeouts_abandon_after_bounded_retries(
        self, small_scenario, target
    ):
        plan = FaultPlan(seed=1, probe_timeout_rate=1.0, probe_retry_attempts=2)
        prober, metrics = self._prober(small_scenario, chaos=plan)
        assert prober._issue(*target, 50) is None
        assert prober.probes_issued == 3  # initial attempt + 2 retries
        counters = metrics.snapshot()["counters"]
        assert counters["chaos.probe.timeout"] == 3
        assert counters["retry.probe.attempts"] == 2
        assert counters["retry.probe.abandoned"] == 1
        assert "retry.probe.recovered" not in counters

    def test_retry_recovers_a_lost_probe(self, small_scenario, target):
        location_id, prefix = target
        for seed in range(500):
            plan = FaultPlan(
                seed=seed, probe_timeout_rate=0.5, probe_retry_attempts=2
            )
            if plan.probe_times_out(
                "probe.timeout.on_demand", location_id, prefix, 50, 0
            ) and not plan.probe_times_out(
                "probe.timeout.on_demand", location_id, prefix, 50, 1
            ):
                break
        else:  # pragma: no cover - seed search is deterministic
            pytest.fail("no seed times out attempt 0 but not attempt 1")
        prober, metrics = self._prober(small_scenario, chaos=plan)
        assert prober._issue(location_id, prefix, 50) is not None
        counters = metrics.snapshot()["counters"]
        assert counters["chaos.probe.timeout"] == 1
        assert counters["retry.probe.attempts"] == 1
        assert counters["retry.probe.recovered"] == 1

    def test_retries_honor_probe_budget(self, small_scenario, target):
        plan = FaultPlan(seed=1, probe_timeout_rate=1.0, probe_retry_attempts=3)
        prober, metrics = self._prober(small_scenario, chaos=plan, budget_slots=1)
        # The caller's probe_window consumed the only slot for this location.
        assert prober.budget.try_consume(target[0])
        assert prober._issue(*target, 50) is None
        assert prober.probes_issued == 1  # retry denied before re-probing
        counters = metrics.snapshot()["counters"]
        assert counters["retry.probe.denied"] == 1
        assert "retry.probe.attempts" not in counters

    def test_background_loss_leaves_baseline_absent(self, small_scenario, target):
        engine = TracerouteEngine(small_scenario, np.random.default_rng(0))
        store = BaselineStore()
        metrics = MetricsRegistry()
        prober = BackgroundProber(
            engine=engine,
            store=store,
            metrics=metrics,
            chaos=FaultPlan(seed=1, probe_timeout_rate=1.0, probe_retry_attempts=1),
        )
        assert prober._probe(*target, 50) is None
        assert store.state_dict() == BaselineStore().state_dict()  # nothing stored
        counters = metrics.snapshot()["counters"]
        assert counters["chaos.probe.loss"] == 2
        assert counters["retry.probe.background.attempts"] == 1
        assert counters["retry.probe.background.abandoned"] == 1


class TestBaselineChaos:
    def _bootstrap(self, small_world, table, plan):
        metrics = MetricsRegistry()
        pipe = make_pipeline(
            Scenario.from_world(small_world), table=table, chaos=plan,
            metrics=metrics,
        )
        pipe.warmup(0, 48, stride=8)  # register background targets
        report = PipelineReport(start=100, end=100)
        pipe._bootstrap_baselines(100, report)
        return pipe, report, metrics.snapshot()["counters"]

    def test_missing_baselines_skip_bootstrap_probes(
        self, small_world, trained_table
    ):
        plan = FaultPlan(seed=3, baseline_missing_rate=1.0)
        pipe, report, counters = self._bootstrap(small_world, trained_table, plan)
        assert len(pipe.background._targets) > 0
        assert report.probes_bootstrap == 0
        assert pipe.baselines.state_dict() == BaselineStore().state_dict()
        assert counters["chaos.baseline.missing"] == len(pipe.background._targets)

    def test_stale_baselines_probed_in_the_past(self, small_world, trained_table):
        plan = FaultPlan(
            seed=3, baseline_stale_rate=1.0, baseline_stale_age_buckets=90
        )
        pipe, report, counters = self._bootstrap(small_world, trained_table, plan)
        assert counters["chaos.baseline.stale"] == len(pipe.background._targets)
        assert report.probes_bootstrap > 0
        times = {
            result.time
            for history in pipe.baselines._by_middle.values()
            for result in history
        }
        assert times == {9}  # start - 1 - stale age


class TestDegradedTable:
    def test_passive_degrades_without_table(self):
        rng = np.random.default_rng(0)
        quartets = _random_quartets(rng, 200)
        metrics = MetricsRegistry()
        localizer = PassiveLocalizer(BlameItConfig(), _targets(), metrics=metrics)
        results = localizer.assign(quartets, None)
        assert results
        assert {result.blame for result in results} == {Blame.INSUFFICIENT}
        counters = metrics.snapshot()["counters"]
        assert counters["passive.degraded_no_table"] == 1

    def test_pipeline_survives_dropped_table(self, small_world, trained_table):
        plan = FaultPlan(drop_expected_table=True)
        report = make_pipeline(
            Scenario.from_world(small_world), table=trained_table, chaos=plan,
            metrics=MetricsRegistry(),
        ).run(100, 115)
        counters = report.metrics["counters"]
        assert counters["chaos.baseline.table_dropped"] == 1
        assert set(report.blame_counts) <= {Blame.INSUFFICIENT}
        assert report.alerts == []


class TestEndToEndChaos:
    """Whole runs under chaos: the smoke plan's matrix cells, kept under
    their old IDs, and the shard faults' own accounting."""

    def test_smoke_plan_sequential(self, matrix_cell):
        matrix_cell()

    def test_smoke_plan_sharded(self, matrix_cell):
        matrix_cell()

    def test_slow_shard_counted(self, small_world, trained_table):
        metrics = MetricsRegistry()
        make_pipeline(
            Scenario.from_world(small_world), "sharded1", table=trained_table,
            metrics=metrics,
            chaos=FaultPlan(seed=1, slow_shard_rate=1.0, slow_shard_ms=0.1),
        ).run(100, 113)
        assert metrics.snapshot()["counters"]["chaos.shard.slow"] == 1

    def test_abandoned_shards_degrade_gracefully(self, small_world, trained_table):
        """Crashes beyond the retry allowance lose those shards' data but
        never the run: the report completes, empty but well-formed."""
        report = make_pipeline(
            Scenario.from_world(small_world), "sharded1", table=trained_table,
            buckets_per_shard=13, metrics=MetricsRegistry(),
            chaos=FaultPlan(seed=5, shard_crash_rate=1.0, shard_crash_max=2),
        ).run(100, 130)
        validate_snapshot(report.metrics)
        counters = report.metrics["counters"]
        assert counters["chaos.shard.crashed"] == 6  # 3 shards x 2 attempts
        assert counters["retry.shard.abandoned"] == 3
        assert counters["shard.runs"] == 6
        assert report.total_quartets == 0
        assert report.alerts == []
