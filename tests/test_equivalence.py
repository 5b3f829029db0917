"""Equivalences below the driver level.

1. the vectorized passive phase equals the scalar reference over ~50
   random buckets;
2. a single genuine worker failure costs exactly one shard re-run, not
   the whole range;
3. the learner's fold queue and the fold kernel's seam change nothing;
4. the span kernel makes one ``generate`` and one ``assign_batch`` call
   per span, and nothing of a span reaches the pipeline before its fold;
5. the sharded driver's shards are the span chain; it matches the
   sequential run across a kill and a resume, and keeps one object per
   vocabulary across decoded shards.

Driver-against-driver byte identity is the matrix's
(``tests/harness.py``); the cells that predate it keep their IDs here.
"""

from __future__ import annotations

from collections import Counter
from contextlib import closing

import numpy as np
import pytest

import repro.core.pipeline as pipeline_module
import repro.core.thresholds as thresholds_module
from repro.chaos import ChaosKill, FaultPlan
from repro.core.config import BlameItConfig
from repro.core.passive import PassiveLocalizer
from repro.core.pipeline import WindowEntry, summarize_span
from repro.core.quartet import QuartetBatch
from repro.core.thresholds import ExpectedRTTLearner, _Lane
from repro.obs import MetricsRegistry
from repro.perf.batch import BatchQuartetGenerator
from repro.perf.sharded import _ShardWorker
from repro.perf.workers import usable_cpus
from repro.serve import BlameItDaemon
from repro.sim.scenario import BUCKETS_PER_DAY, Scenario
from repro.store import CheckpointStore

from tests import harness
from tests.harness import (
    LEARNED,
    SEED,
    SMALL,
    digest,
    make_config,
    make_pipeline,
    reference,
    span_chain,
)
from tests.test_thresholds import assert_learners_identical
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
        original = _ShardWorker.run_shard

        def flaky(self, bounds, table_msg, refresh=None, attempt=0):
            calls.append((bounds, attempt))
            if bounds == (124, 148) and attempt == 0:
                raise RuntimeError("simulated worker death")
            return original(self, bounds, table_msg, refresh, attempt)

        monkeypatch.setattr(_ShardWorker, "run_shard", flaky)
        got = make_pipeline(
            Scenario.from_world(small_world), "sharded1",
            table=trained_table, metrics=MetricsRegistry(),
        ).run(*SMALL.span)
        # 3 span shards over [100, 160), plus exactly one retry.
        assert len(calls) == 4
        assert calls.count(((124, 148), 0)) == 1
        assert calls.count(((124, 148), 1)) == 1
        counters = got.metrics["counters"]
        assert counters["shard.runs"] == 4
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


class TestSpanKernel:
    """``step`` summarizes a span of buckets per kernel call and folds
    one bucket per call; nothing of a bucket reaches the pipeline's
    state before its fold."""

    @staticmethod
    def _counted_run(world, monkeypatch, span_buckets):
        """Two fixed-table days, sequential, at ``span_buckets`` per
        span; returns the report digest and the run's ``generate`` and
        ``assign_batch`` calls."""
        table = harness.trained_table(world)
        monkeypatch.setattr(pipeline_module, "SPAN_BUCKETS", span_buckets)
        pipeline = make_pipeline(Scenario.from_world(world), table=table)
        calls: Counter = Counter()
        for owner, name in (
            (BatchQuartetGenerator, "generate"),
            (PassiveLocalizer, "assign_batch"),
        ):

            def counted(self, *args, _original=getattr(owner, name), _name=name):
                calls[_name] += 1
                return _original(self, *args)

            monkeypatch.setattr(owner, name, counted)
        report = pipeline.run(BUCKETS_PER_DAY, 3 * BUCKETS_PER_DAY)
        monkeypatch.undo()
        return digest(report), calls

    def test_one_generate_and_one_assign_per_span_same_report(
        self, multi_day_world, monkeypatch
    ):
        """Work-count tripwire: a span per call made one ``generate`` and
        one ``assign_batch`` call for each of the 576 buckets; spans of
        ``SPAN_BUCKETS`` make at most one of each per span, and the
        report equals the one-bucket spans' report."""
        spans, span_calls = self._counted_run(
            multi_day_world, monkeypatch, pipeline_module.SPAN_BUCKETS
        )
        single, single_calls = self._counted_run(multi_day_world, monkeypatch, 1)
        assert single_calls == {
            "generate": 2 * BUCKETS_PER_DAY,
            "assign_batch": 2 * BUCKETS_PER_DAY,
        }
        per_day = -(-BUCKETS_PER_DAY // pipeline_module.SPAN_BUCKETS)
        assert span_calls["generate"] <= 2 * per_day
        assert span_calls["assign_batch"] <= span_calls["generate"]
        assert spans == single

    def test_kill_inside_a_span_leaves_only_folded_pairs(
        self, small_world, trained_table
    ):
        """A daemon killed at bucket 101, inside the span computed at
        100 (a daemon's kill does not end a span): the span's other
        buckets were summarized (one brings a pair bucket 100 did not
        have) but the seen-pair set holds bucket 100's pairs only."""
        scenario = Scenario.from_world(small_world)
        pipeline = make_pipeline(scenario, table=trained_table)
        daemon = BlameItDaemon(pipeline, 100, 200, kill_at=101)
        with pytest.raises(ChaosKill):
            daemon.run()
        state = daemon._state  # noqa: SLF001
        assert state.cursor == 101
        assert [s.time for s in state.ahead] == list(range(101, 124))
        ahead_new = {
            code
            for summary in state.ahead
            for code in summary.pair_codes[summary.new_mask].tolist()
        }
        folded = BatchQuartetGenerator(scenario).generate(
            100, np.random.default_rng((SEED, 100))
        )
        _, seen = pipeline._generator_for(scenario)  # noqa: SLF001
        assert seen == set(folded.pair_codes().tolist())
        assert ahead_new and not ahead_new & seen

    def test_chaos_kill_ends_the_span(self, small_world, trained_table):
        """The chaos plan's kill bucket ends a span: killed at 105, the
        run summarized no bucket it did not fold."""
        pipeline = make_pipeline(
            Scenario.from_world(small_world), table=trained_table,
            chaos=FaultPlan(kill_at_bucket=105),
        )
        state = pipeline.begin_run(100, 200)
        with pytest.raises(ChaosKill):
            for time in range(100, 200):
                pipeline._refresh_table(state, time)  # noqa: SLF001
                pipeline._maybe_checkpoint(state, time)  # noqa: SLF001
                pipeline.step(state)
        assert state.cursor == 105
        assert state.ahead == []


class TestFoldKernelSeam:
    """The one kernel takes a ``BucketSummary`` whoever computed it, and
    a window entry whether or not it arrives pre-blamed."""

    START, END = 100, 113

    @pytest.fixture(scope="class")
    def summaries(self, small_world, trained_table):
        """Each bucket's summary deferred (the span kernel with no
        table, as a bucket whose window flushes in a later day gets
        it), as ``step`` computed it inline under the run's fixed table
        (blamed), and the blamed reference: the kernel run one bucket
        per call, so no aggregate can mix buckets."""
        scenario = Scenario.from_world(small_world)
        pipeline = make_pipeline(scenario, table=trained_table)
        inline = []
        fold_bucket = pipeline.fold_bucket

        def record(state, time, summary, lease=None):
            inline.append(summary)
            fold_bucket(state, time, summary, lease)

        pipeline.fold_bucket = record
        pipeline.run(self.START, self.END)
        assert all(s.blames is not None for s in inline)
        assert any(len(s.blames) for s in inline)
        deferred = summarize_span(
            range(self.START, self.END), BatchQuartetGenerator(scenario),
            SEED, set(), False,
        ).buckets()
        assert all(s.blames is None for s in deferred)
        generator, seen = BatchQuartetGenerator(scenario), set()
        per_bucket = [
            summary
            for t in range(self.START, self.END)
            for summary in summarize_span(
                [t], generator, SEED, seen, False,
                passive=pipeline.passive, table=trained_table,
            ).buckets()
        ]
        return deferred, inline, per_bucket

    def test_inline_and_worker_summaries_equal(
        self, small_world, trained_table, summaries
    ):
        """A shard worker ships, column for column, what ``step``
        summarizes inline for the same buckets under the same table —
        and both equal the buckets summarized one per call."""
        worker = _ShardWorker(Scenario.from_world(small_world), make_config(), SEED)
        span, _ = worker.run_shard((self.START, self.END), (1, trained_table))
        shipped = span.buckets()
        _, inline, per_bucket = summaries
        _assert_summaries_equal(shipped, per_bucket)
        _assert_summaries_equal(inline, per_bucket)

    def test_mixed_window_flushes_like_all_deferred(
        self, small_world, trained_table, summaries, monkeypatch
    ):
        """Pre-blamed and deferred entries of one window come out as the
        same ``BlameResult`` list, in the same order."""
        deferred, blamed = (window[:3] for window in summaries[:2])

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


class TestSpanShards:
    """The sharded driver's shards: one per span of the span kernel, one
    payload per span, one object per vocabulary once decoded."""

    def test_default_shards_are_the_span_chain(self, small_world):
        sharded = make_pipeline(
            Scenario.from_world(small_world), "sharded1", n_workers=3,
            table=harness.trained_table(small_world),
        )
        for start, end in ((250, 600), (100, 160), (287, 289), (5, 5)):
            assert sharded._shards(start, end) == span_chain(start, end)
        assert span_chain(250, 600)[:2] == [(250, 274), (274, 288)]

    def test_learned_kill_inside_a_span_then_resume(
        self, multi_day_world, tmp_path
    ):
        """A learned two-day run at two workers (inline under one usable
        CPU), killed at bucket 530 (inside the span [528, 552)) and
        resumed from the day-1 checkpoint, ends with the sequential
        digest and learner; the resumed run dispatches the span chain
        from 288, a day's worth at a time."""
        expected = reference(LEARNED, multi_day_world)
        store = CheckpointStore(tmp_path)
        workers = min(2, usable_cpus())

        def build(**kwargs):
            return LEARNED.build(
                multi_day_world, "sharded2", n_workers=workers, store=store,
                metrics=MetricsRegistry(), **kwargs,
            )

        try:
            kill = FaultPlan(seed=1, kill_at_bucket=LEARNED.mid_kill)
            with closing(build(chaos=kill)) as killed:
                with pytest.raises(ChaosKill, match="at bucket 530$"):
                    killed.run(*LEARNED.span)
            assert store.latest_time() == 288
            with closing(build(warm_start=True)) as resumed:
                report = resumed.run(*LEARNED.span)
        finally:
            store.close()
        assert digest(report) == expected.digest
        assert_learners_identical(resumed.learner, expected.learner)
        shards = span_chain(288, 576) + span_chain(576, LEARNED.span[1])
        assert report.metrics["counters"]["shard.runs"] == len(shards)

    def test_fixed_table_run_decodes_each_pair_once(
        self, small_world, trained_table, monkeypatch
    ):
        """Tripwire: three decoded shards (spans) at two workers decode
        each ⟨location, middle⟩ pair once in the whole run; a fresh
        vocabulary object per shard would reset the pair-key cache and
        decode a pair again in every shard it appears in."""
        decoded = []
        pair_key = QuartetBatch.pair_key
        monkeypatch.setattr(
            QuartetBatch, "pair_key",
            lambda batch, code: decoded.append(pair_key(batch, code)) or decoded[-1],
        )
        with closing(
            make_pipeline(
                Scenario.from_world(small_world), "sharded2",
                table=trained_table,
            )
        ) as sharded:
            report = sharded.run(*SMALL.span)
        assert sharded.transport_stats["shm_segments"] == len(
            span_chain(*SMALL.span)
        ) == 3
        assert decoded and len(decoded) == len(set(decoded))
        assert digest(report) == reference(SMALL, small_world).digest

    def test_learned_run_folds_one_shared_vocabulary(
        self, multi_day_world, monkeypatch
    ):
        """Tripwire: every learner fold of a sharded learned run over a
        day boundary concatenates segments that carry one vocabulary
        object, never re-codes them against a merged one (what decoded
        shards with fresh tuples each would force)."""
        merged = []
        merge = thresholds_module._merge_codes

        def recorded(codes, vocabs):
            merged.append(any(vocab is not vocabs[0] for vocab in vocabs))
            return merge(codes, vocabs)

        monkeypatch.setattr(thresholds_module, "_merge_codes", recorded)
        with closing(
            make_pipeline(
                Scenario.from_world(multi_day_world), "sharded2"
            )
        ) as sharded:
            merged.clear()  # the warm-up's folds
            sharded.run(240, 340)
        assert merged and not any(merged)


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
