"""Equivalences below the driver level.

1. the vectorized passive phase equals the scalar reference over ~50
   random buckets;
2. a single genuine worker failure costs exactly one shard re-run, not
   the whole range;
3. the learner's fold queue and the fold kernel's seam change nothing.

Driver-against-driver byte identity is the matrix's
(``tests/harness.py``); the cells that predate it keep their IDs here.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.config import BlameItConfig
from repro.core.passive import PassiveLocalizer
from repro.core.pipeline import WindowEntry
from repro.core.quartet import QuartetBatch
from repro.core.thresholds import ExpectedRTTLearner, _Lane
from repro.obs import MetricsRegistry
from repro.perf.sharded import _ShardRunner
from repro.sim.scenario import Scenario

from tests.harness import SEED, SMALL, digest, make_config, make_pipeline, reference
from tests.test_perf import _random_quartets, _random_table, _targets
from tests.test_transport import _assert_summaries_equal


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


class TestShardedEquivalence:
    """Matrix cells kept under their old IDs, and one shard-retry
    accounting test."""

    def test_clean_runs_byte_identical(self, matrix_cell):
        matrix_cell()

    def test_online_learning_byte_identical(self, matrix_cell):
        matrix_cell()

    def test_multi_day_online_learning_byte_identical(self, matrix_cell):
        matrix_cell()

    def test_crash_plus_retry_byte_identical(self, matrix_cell):
        matrix_cell()

    def test_quartet_chaos_byte_identical(self, matrix_cell):
        matrix_cell()

    def test_single_failure_costs_exactly_one_shard(
        self, small_world, trained_table, monkeypatch
    ):
        """Regression for the old all-or-nothing fallback: one worker
        failure must re-run only the failed shard, keeping every
        completed shard's results."""
        calls: list[tuple[tuple[int, int], int]] = []
        original = _ShardRunner.run_shard

        def flaky(self, bounds, attempt=0):
            calls.append((bounds, attempt))
            if bounds == (117, 134) and attempt == 0:
                raise RuntimeError("simulated worker death")
            return original(self, bounds, attempt)

        monkeypatch.setattr(_ShardRunner, "run_shard", flaky)
        got = make_pipeline(
            Scenario.from_world(small_world), "sharded1",
            table=trained_table, metrics=MetricsRegistry(),
        ).run(*SMALL.span)
        # 4 shards of 17 buckets over [100, 160), plus exactly one retry.
        assert len(calls) == 5
        assert calls.count(((117, 134), 0)) == 1
        assert calls.count(((117, 134), 1)) == 1
        counters = got.metrics["counters"]
        assert counters["shard.runs"] == 5
        assert counters["shard.errors"] == 1
        assert counters["retry.shard.recovered"] == 1
        assert digest(got) == reference(SMALL, small_world).digest


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
        pipeline = make_pipeline(Scenario.from_world(world))
        folds.clear()
        report = pipeline.run(288, 3 * 288)
        monkeypatch.undo()
        return digest(report), len(folds)

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

    @pytest.fixture(scope="class")
    def summaries(self, small_world, trained_table):
        """Each bucket's summary as ``step`` computed it inline (blames
        deferred), and the same with the blames filled in under the
        run's table."""
        pipeline = make_pipeline(
            Scenario.from_world(small_world), table=trained_table
        )
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
                    summary.deferred_batch, trained_table
                ),
                deferred_batch=None,
            )
            for summary in inline
        ]
        assert any(len(s.blames) for s in blamed)
        return inline, blamed

    def test_inline_and_worker_summaries_equal(
        self, small_world, trained_table, summaries
    ):
        """A shard worker ships, column for column, what ``step``
        summarizes inline for the same buckets — with the blames the
        inline batch gets under the same table."""
        runner = _ShardRunner(
            Scenario.from_world(small_world), make_config(), trained_table,
            seed=SEED,
        )
        shipped, _ = runner.run_shard((self.START, self.END))
        _assert_summaries_equal(shipped, summaries[1])

    def test_mixed_window_flushes_like_all_deferred(
        self, small_world, trained_table, summaries, monkeypatch
    ):
        """Pre-blamed and deferred entries of one window come out as the
        same ``BlameResult`` list, in the same order."""
        deferred, blamed = (window[:3] for window in summaries)

        def flushed(window):
            pipeline = make_pipeline(
                Scenario.from_world(small_world), table=trained_table
            )
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
    """Matrix cells of the every-family suite case, kept under their
    old IDs: the suite's churn survives the shard transport and the
    checkpoint store."""

    def test_two_workers_byte_identical(self, matrix_cell):
        matrix_cell()

    def test_sequential_kill_resume_byte_identical(self, matrix_cell):
        matrix_cell()

    def test_sharded_kill_resume_byte_identical(self, matrix_cell):
        matrix_cell()
