"""Seeded randomized equivalence harness.

Three byte-identity properties, each over seeded randomness so failures
reproduce exactly:

1. the vectorized passive phase equals the scalar reference over ~50
   random buckets;
2. a sharded run equals the sequential pipeline, report-for-report;
3. both still hold under deterministic chaos — injected worker crashes
   (recovered by the per-shard retry) and injected quartet faults — and
   a single genuine worker failure costs exactly one shard re-run, not
   the whole range.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro.analysis.validation import suite_world_params
from repro.chaos import ChaosKill, FaultPlan
from repro.core.config import BlameItConfig
from repro.core.passive import PassiveLocalizer
from repro.core.pipeline import BlameItPipeline, WindowEntry
from repro.core.quartet import QuartetBatch
from repro.core.thresholds import ExpectedRTTLearner, _Lane
from repro.io import report_to_dict
from repro.obs import MetricsRegistry, validate_snapshot
from repro.perf.sharded import ShardedPipeline, _ShardRunner
from repro.sim.incidents import (
    ADVERSARIAL_ARCHETYPES,
    PAPER_ARCHETYPES,
    generate_incidents,
)
from repro.sim.scenario import Scenario, build_world
from repro.store import CheckpointStore

from tests.test_perf import _random_quartets, _random_table, _targets
from tests.test_thresholds import assert_learners_identical
from tests.test_transport import _assert_summaries_equal


def report_json(report, *, with_metrics: bool = False) -> str:
    """Canonical JSON digest of a report (metrics stripped by default —
    shard bookkeeping and chaos counters legitimately differ between
    drivers while the *results* must not)."""
    digest = report_to_dict(report)
    if not with_metrics:
        digest.pop("metrics", None)
    return json.dumps(digest, sort_keys=True)


class TestVectorizedPassiveEquivalence:
    @pytest.mark.parametrize("seed", range(50))
    def test_assign_batch_matches_scalar(self, seed):
        """50-seed property sweep: identical results (order, blames,
        fractions) between the scalar and vectorized Algorithm 1."""
        rng = np.random.default_rng(seed)
        quartets = _random_quartets(rng, 300)
        table = _random_table(rng)
        localizer = PassiveLocalizer(BlameItConfig(), _targets())
        assert localizer.assign_batch(
            QuartetBatch.from_quartets(quartets), table
        ).to_results() == localizer.assign(quartets, table)


def _fast_config(**overrides) -> BlameItConfig:
    return BlameItConfig(
        history_days=1, background_interval_buckets=36, **overrides
    )


@pytest.fixture(scope="module")
def trained(small_world):
    """A scenario over the small world and the table learned from it."""
    scenario = Scenario.from_world(small_world)
    learner = ExpectedRTTLearner(history_days=1)
    trainer = BlameItPipeline(scenario, config=_fast_config(), learner=learner)
    trainer.warmup(0, 96, stride=4)
    return scenario, learner.table()


class TestShardedEquivalence:
    _config = staticmethod(_fast_config)

    def _sequential(self, trained, chaos=None):
        scenario, table = trained
        return BlameItPipeline(
            scenario,
            config=self._config(),
            fixed_table=table,
            seed=11,
            rng_per_bucket=True,
            chaos=chaos,
        ).run(100, 160)

    def _sharded(self, trained, chaos=None, metrics=None, retries=1):
        scenario, table = trained
        return ShardedPipeline(
            scenario,
            config=self._config(),
            fixed_table=table,
            seed=11,
            n_workers=1,
            buckets_per_shard=13,
            metrics=metrics,
            chaos=chaos,
            shard_retry_attempts=retries,
        ).run(100, 160)

    def test_clean_runs_byte_identical(self, trained):
        assert report_json(
            self._sharded(trained), with_metrics=True
        ) == report_json(self._sequential(trained), with_metrics=True)

    def _online_run(self, world, start, end, sharded: bool):
        # Fresh scenario per run: warmup draws from the scenario's
        # shared RNG stream, so the pipelines must not share one.
        scenario = Scenario.from_world(world)
        if sharded:
            pipeline = ShardedPipeline(
                scenario,
                config=self._config(),
                seed=11,
                n_workers=2,
                buckets_per_shard=13,
            )
        else:
            pipeline = BlameItPipeline(
                scenario, config=self._config(), seed=11,
                rng_per_bucket=True,
            )
        pipeline.warmup(0, 96, stride=4)
        report = pipeline.run(start, end)
        learner = (pipeline.pipeline if sharded else pipeline).learner
        return report, learner

    def test_online_learning_byte_identical(self, small_world):
        """No fixed table: the fold feeds the learner from shipped
        columns, so report AND end-of-run learner state match the
        sequential pipeline (single-day window — one table snapshot
        covers the whole run)."""
        got, got_learner = self._online_run(small_world, 100, 160, sharded=True)
        expected, expected_learner = self._online_run(
            small_world, 100, 160, sharded=False
        )
        assert report_json(got) == report_json(expected)
        assert_learners_identical(got_learner, expected_learner)

    def test_multi_day_online_learning_byte_identical(self, multi_day_world):
        """Regression for the single start-of-run table snapshot: an
        online-learning run spanning day boundaries must re-snapshot the
        expected-RTT table at each boundary, the way the sequential loop
        does — including for windows that straddle a boundary, whose
        buckets the workers defer to the fold. Three days, two workers,
        report and learner state byte-identical."""
        got, got_learner = self._online_run(
            multi_day_world, 100, 700, sharded=True
        )
        expected, expected_learner = self._online_run(
            multi_day_world, 100, 700, sharded=False
        )
        assert report_json(got) == report_json(expected)
        assert_learners_identical(got_learner, expected_learner)

    def test_crash_plus_retry_byte_identical(self, trained):
        """Every shard's worker crashes once; the per-shard retry recovers
        each, and the report still matches the sequential run exactly."""
        plan = FaultPlan(seed=5, shard_crash_rate=1.0, shard_crash_max=1)
        metrics = MetricsRegistry()
        got = self._sharded(trained, chaos=plan, metrics=metrics)
        expected = self._sequential(trained, chaos=plan)
        assert report_json(got) == report_json(expected)
        counters = got.metrics["counters"]
        n_shards = 5  # ceil(60 / 13)
        # Each crashed shard was re-executed exactly once per retry attempt.
        assert counters["chaos.shard.crashed"] == n_shards
        assert counters["retry.shard.attempts"] == n_shards
        assert counters["retry.shard.recovered"] == n_shards
        assert counters["shard.runs"] == 2 * n_shards
        assert "retry.shard.abandoned" not in counters
        validate_snapshot(got.metrics)

    def test_quartet_chaos_byte_identical(self, trained):
        """Dropped/duplicated/corrupted quartets are keyed on quartet
        identity, so sequential and sharded runs inject the same faults
        and produce identical degraded reports."""
        plan = FaultPlan(
            seed=7,
            quartet_drop_rate=0.05,
            quartet_duplicate_rate=0.05,
            quartet_corrupt_rate=0.05,
        )
        got = self._sharded(trained, chaos=plan)
        expected = self._sequential(trained, chaos=plan)
        assert report_json(got) == report_json(expected)
        # The faults actually fired: the degraded run differs from clean.
        assert report_json(expected) != report_json(self._sequential(trained))

    def test_single_failure_costs_exactly_one_shard(self, trained, monkeypatch):
        """Regression for the old all-or-nothing fallback: one worker
        failure must re-run only the failed shard, keeping every
        completed shard's results."""
        calls: list[tuple[tuple[int, int], int]] = []
        original = _ShardRunner.run_shard

        def flaky(self, bounds, attempt=0):
            calls.append((bounds, attempt))
            if bounds == (113, 126) and attempt == 0:
                raise RuntimeError("simulated worker death")
            return original(self, bounds, attempt)

        monkeypatch.setattr(_ShardRunner, "run_shard", flaky)
        metrics = MetricsRegistry()
        got = self._sharded(trained, metrics=metrics)
        # 5 shards of 13 buckets over [100, 160), plus exactly one retry.
        assert len(calls) == 6
        assert calls.count(((113, 126), 0)) == 1
        assert calls.count(((113, 126), 1)) == 1
        counters = got.metrics["counters"]
        assert counters["shard.runs"] == 6
        assert counters["shard.errors"] == 1
        assert counters["retry.shard.recovered"] == 1
        assert report_json(got) == report_json(self._sequential(trained))


class TestLearnerFoldQueue:
    """The learner queues each bucket's rows and folds them when its
    queue fills or the day-boundary refresh reads it."""

    @staticmethod
    def _learned_run(world, *, read_every_bucket: bool, monkeypatch):
        """Two learned days, sequential; returns the report digest and
        the ``_Lane.fold`` calls the run itself made."""
        if read_every_bucket:
            observe = ExpectedRTTLearner.observe_columns

            def observe_and_read(learner, *columns):
                observe(learner, *columns)
                learner.state_arrays()

            monkeypatch.setattr(
                ExpectedRTTLearner, "observe_columns", observe_and_read
            )
        folds = []
        fold = _Lane.fold
        monkeypatch.setattr(
            _Lane, "fold", lambda lane, *args: folds.append(1) or fold(lane, *args)
        )
        pipeline = BlameItPipeline(
            Scenario.from_world(world), config=_fast_config(), seed=11,
            rng_per_bucket=True,
        )
        pipeline.warmup(0, 96, stride=4)
        folds.clear()
        report = pipeline.run(288, 3 * 288)
        monkeypatch.undo()
        return report_json(report), len(folds)

    def test_fewer_folds_than_buckets_same_report(
        self, multi_day_world, monkeypatch
    ):
        """Work-count tripwire: a fold per bucket made two ``_Lane.fold``
        calls (one per lane) for each of the 576 non-empty buckets; the
        queue makes fewer calls than there are buckets, and the report
        equals a run that reads the learner after every bucket."""
        queued, queued_folds = self._learned_run(
            multi_day_world, read_every_bucket=False, monkeypatch=monkeypatch
        )
        eager, eager_folds = self._learned_run(
            multi_day_world, read_every_bucket=True, monkeypatch=monkeypatch
        )
        assert eager_folds == 2 * 2 * 288
        assert queued_folds < 2 * 288
        assert queued == eager


class TestFoldKernelSeam:
    """The one kernel takes a ``BucketSummary`` whoever computed it, and
    a window entry whether or not it arrives pre-blamed."""

    START, END = 100, 113

    @staticmethod
    def _pipeline(trained) -> BlameItPipeline:
        scenario, table = trained
        return BlameItPipeline(
            scenario, config=_fast_config(), fixed_table=table, seed=11,
            rng_per_bucket=True,
        )

    @pytest.fixture(scope="class")
    def summaries(self, trained):
        """Each bucket's summary as ``step`` computed it inline (blames
        deferred), and the same with the blames filled in under the
        run's table."""
        pipeline = self._pipeline(trained)
        inline = []
        fold_bucket = pipeline.fold_bucket

        def record(state, time, summary, lease=None):
            inline.append(summary)
            fold_bucket(state, time, summary, lease)

        pipeline.fold_bucket = record
        pipeline.run(self.START, self.END)
        assert all(s.blames is None for s in inline)
        blamed = [
            dataclasses.replace(
                summary,
                blames=pipeline.passive.assign_batch(
                    summary.deferred_batch, trained[1]
                ),
                deferred_batch=None,
            )
            for summary in inline
        ]
        assert any(len(s.blames) for s in blamed)
        return inline, blamed

    def test_inline_and_worker_summaries_equal(self, trained, summaries):
        """A shard worker ships, column for column, what ``step``
        summarizes inline for the same buckets — with the blames the
        inline batch gets under the same table."""
        scenario, table = trained
        runner = _ShardRunner(scenario, _fast_config(), table, seed=11)
        shipped, _ = runner.run_shard((self.START, self.END))
        _assert_summaries_equal(shipped, summaries[1])

    def test_mixed_window_flushes_like_all_deferred(
        self, trained, summaries, monkeypatch
    ):
        """Pre-blamed and deferred entries of one window come out as the
        same ``BlameResult`` list, in the same order."""
        deferred, blamed = (window[:3] for window in summaries)

        def flushed(window):
            pipeline = self._pipeline(trained)
            state = pipeline.begin_run(self.START, self.END)
            state.window = [
                WindowEntry(s.time, s.blames, s.deferred_batch) for s in window
            ]
            seen = []
            monkeypatch.setattr(
                pipeline, "_process_results",
                lambda now, results, report: seen.append((now, results)),
            )
            pipeline.flush_window(state, self.START + 2)
            assert state.window == []
            return seen

        all_deferred = flushed(deferred)
        assert all_deferred[0][1], "the window blamed nothing"
        assert flushed([blamed[0], deferred[1], blamed[2]]) == all_deferred
        assert flushed(blamed) == all_deferred


class TestSuiteScenarioEquivalence:
    """The scenario-suite's churn — demand surges, anycast ring flaps,
    correlated transit faults, reroutes — must survive the sharded
    transport and the checkpoint store byte-identically.

    One scenario carries every incident family at once (the mixed-suite
    worst case), on a two-day variant of the canonical suite world so
    the run crosses a day-boundary checkpoint. Seed 7 places all nine
    family windows inside the run; the fixture asserts it so a future
    placement drift fails loudly instead of silently weakening the test.
    """

    START, END = 132, 400
    KILL_AT = 288  # the one day boundary inside [START, END)

    @pytest.fixture(scope="class")
    def suite_world_2d(self):
        params = dataclasses.replace(suite_world_params(), duration_days=2)
        return build_world(params)

    @pytest.fixture(scope="class")
    def suite_specs(self, suite_world_2d):
        families = PAPER_ARCHETYPES + ADVERSARIAL_ARCHETYPES
        specs = generate_incidents(
            suite_world_2d, len(families), np.random.default_rng(7),
            families=families,
        )
        for spec in specs:
            assert spec.start < self.END, spec.archetype
            assert spec.start + spec.duration > self.START, spec.archetype
        assert any(s.surges for s in specs)
        assert any(s.ring_flaps for s in specs)
        return specs

    @staticmethod
    def _config(**overrides) -> BlameItConfig:
        return BlameItConfig(
            history_days=1, background_interval_buckets=36, **overrides
        )

    def _run(self, world, specs, *, workers=None, store=None,
             warm_start=False, kill=None):
        # Fresh scenario per run: quartet generation draws from the
        # scenario's shared RNG stream, so runs must not share one.
        scenario = Scenario(
            world,
            tuple(f for s in specs for f in s.faults),
            tuple(r for s in specs for r in s.reroutes),
            surges=tuple(g for s in specs for g in s.surges),
            ring_flaps=tuple(f for s in specs for f in s.ring_flaps),
        )
        chaos = (
            FaultPlan(seed=1, kill_at_bucket=kill) if kill is not None
            else None
        )
        if workers is not None:
            pipeline = ShardedPipeline(
                scenario,
                config=self._config(),
                seed=11,
                n_workers=workers,
                buckets_per_shard=13,
                store=store,
                warm_start=warm_start,
                chaos=chaos,
            )
        else:
            pipeline = BlameItPipeline(
                scenario,
                config=self._config(),
                seed=11,
                rng_per_bucket=True,
                store=store,
                warm_start=warm_start,
                chaos=chaos,
            )
        if not warm_start:
            pipeline.warmup(0, 96, stride=4)
        return pipeline.run(self.START, self.END)

    @pytest.fixture(scope="class")
    def baseline(self, suite_world_2d, suite_specs) -> str:
        """The uninterrupted sequential run's digest."""
        report = self._run(suite_world_2d, suite_specs)
        # The mixed faults are not a no-op over this window.
        assert report.closed_cloud or report.closed_client
        return report_json(report)

    def test_two_workers_byte_identical(
        self, suite_world_2d, suite_specs, baseline
    ):
        got = self._run(suite_world_2d, suite_specs, workers=2)
        assert report_json(got) == baseline

    def test_sequential_kill_resume_byte_identical(
        self, suite_world_2d, suite_specs, baseline, tmp_path
    ):
        store = CheckpointStore(tmp_path)
        with pytest.raises(ChaosKill):
            self._run(
                suite_world_2d, suite_specs, store=store, kill=self.KILL_AT
            )
        assert store.latest_time() == self.KILL_AT
        report = self._run(
            suite_world_2d, suite_specs, store=store, warm_start=True
        )
        store.close()
        assert report_json(report) == baseline

    def test_sharded_kill_resume_byte_identical(
        self, suite_world_2d, suite_specs, baseline, tmp_path
    ):
        store = CheckpointStore(tmp_path)
        with pytest.raises(ChaosKill):
            self._run(
                suite_world_2d, suite_specs, workers=2, store=store,
                kill=self.KILL_AT,
            )
        report = self._run(
            suite_world_2d, suite_specs, workers=2, store=store,
            warm_start=True,
        )
        store.close()
        assert report_json(report) == baseline
