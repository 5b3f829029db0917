"""Sharded execution: buckets fan out to workers, active phase stays serial.

The expensive half of a pipeline run — per-bucket quartet generation and
the passive phase — depends only on the bucket index and the (frozen)
expected-RTT table, so buckets partition cleanly across processes.
:class:`ShardedPipeline` cuts the run range into contiguous shards —
by default exactly the span kernel's spans
(:func:`~repro.core.pipeline.span_stop`: up to ``SPAN_BUCKETS`` buckets,
never across a day boundary) — and has each worker return one compact
:class:`~repro.core.summary.SpanSummary` per span: span-wide columns
(blame results, per-path user counts, newly seen probe targets, the
rows the fold still needs) plus the cuts that split them per bucket.
The parent cuts each span's per-bucket views
(:meth:`~repro.core.summary.SpanSummary.buckets`) as it folds them, in
deterministic time order, through the one fold kernel —
:meth:`BlameItPipeline.fold_bucket
<repro.core.pipeline.BlameItPipeline.fold_bucket>`, the same method the
sequential ``step`` calls: issue tracking, on-demand probing (so the
§5.3 per-window probe budget is enforced exactly once, globally),
background probing, localization and alerting all run in the parent.
This module owns only what is the sharded driver's own: shards, the
worker pool, the transport, the reorder buffer, leases, vocabulary
sharing, stage timing.

Workers run the span kernel
(:func:`~repro.core.pipeline.summarize_span`) over their shard, span by
span, drawing each bucket's quartets from a ``(seed, bucket)``-seeded
generator — the same scheme as ``BlameItPipeline(rng_per_bucket=True)``;
spans travel as NumPy columns, so a sharded run's blame counts are
byte-identical to the sequential pipeline's. Each decoded shard brings
its own copies of the generator's vocabulary tuples; the parent keeps
the first copy of each and swaps it in for every later equal one
(:meth:`~repro.core.summary.SpanSummary.share_vocabularies`), so the
fold's identity-keyed caches keep hitting across shards.

Three execution-engine properties make the fan-out actually scale
(DESIGN.md §4b):

* **Persistent worker pool.** The pool is created lazily on the first
  multi-worker dispatch and survives across per-day segments, across
  whole runs, and across the streaming daemon's ``step`` cadence.
  Workers are seeded once with everything run-invariant (scenario,
  config, seed, chaos plan); each task message carries only the shard
  bounds, the epoch-tagged expected-RTT table (a couple of kilobytes,
  by value), and the run's window bounds. A worker swaps its table only
  when the epoch moves, so within a segment it keeps one table object
  and the localizer's identity-keyed lookups stay warm.
* **Shared-memory transport** (:mod:`repro.perf.transport`). A worker
  pickles its shard's span summaries with every array's bytes out of
  band in one ``multiprocessing.shared_memory`` segment (about 17
  buffers a span, whatever its length); the parent unpickles
  zero-copy views of it and releases the segment when the last window
  entry referencing it flushes. Where a segment cannot be had the same
  stream travels whole through the result pipe (``transport.*``
  counters account both).
* **Fold/compute overlap.** Shards are dispatched individually and
  their results stream back through a reorder buffer keyed by shard
  index, so the parent folds shard *k* while shards *k+1…* are still
  computing — the critical path is max(slowest shard, total fold)
  rather than their sum. With span shards the fold starts after the
  first span, not after a worker's share of the run, and holds one
  span's decoded views at a time. The reorder buffer is what keeps the
  fold deterministic: buckets are always folded in exact time order no
  matter the completion order.

Without a ``fixed_table`` the sequential pipeline refreshes its
expected-RTT table at every day boundary, so the sharded driver cuts
such runs into per-day *segments*: the fold re-snapshots the table from
the (fold-fed, therefore identical) learner at each boundary and ships
the fresh snapshot to the workers for the next segment. One wrinkle:
the sequential loop refreshes at the *top* of a day's first bucket but
flushes a blame window at the *bottom* of the window's last bucket, so
a window straddling the boundary is blamed entirely with the new day's
table. The span kernel therefore defers any bucket whose window flushes
in a later day — its span ships the sanitized rows instead of blames,
and the fold's flush assigns blames with the table current *then* (as
it does for the same buckets of a sequential run).
With a ``fixed_table`` (or under a chaos table drop) there is no
deferral, and a single whole-run segment unless a checkpoint store is
attached (segments then end at day boundaries, where the sequential
pipeline checkpoints) or a chaos kill is planned (a segment ends at the
kill bucket, so the kill fires where the sequential pipeline's does).
"""

from __future__ import annotations

import multiprocessing
import queue
import time as time_mod
import weakref
from typing import TYPE_CHECKING, Iterator

from repro.chaos import ChaosWorkerCrash, FaultPlan
from repro.core.config import BlameItConfig
from repro.core.passive import PassiveLocalizer
from repro.core.pipeline import (
    BlameItPipeline,
    PipelineReport,
    RunState,
    span_stop,
    summarize_span,
)
from repro.core.prediction import DurationPredictor
from repro.core.quartet import QuartetBatch
from repro.core.summary import SpanSummary
from repro.core.thresholds import ExpectedRTTLearner, ExpectedRTTTable
from repro.net.bgp import Timestamp
from repro.obs import NULL_REGISTRY, MetricsRegistry, Snapshot
from repro.perf.batch import BatchQuartetGenerator
from repro.perf.transport import (
    ShardPayload,
    ShmLease,
    decode_result,
    discard_payload,
    encode_result,
)
from repro.perf.workers import usable_cpus
from repro.sim.scenario import BUCKETS_PER_DAY, Scenario

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.store import CheckpointStore

#: One shard's decoded result: its span summaries, the worker's metrics
#: snapshot, and the shared-memory lease their arrays live under (None
#: on the in-band/inline paths). A whole-shard ``None`` marks an
#: abandoned shard whose buckets drop out of the fold.
ShardResult = "tuple[list[SpanSummary], Snapshot | None, ShmLease | None]"

#: The epoch-tagged table of a segment's task messages.
TableMessage = "tuple[int, ExpectedRTTTable]"


class _ShardRunner:
    """Per-process compute core: built once, reused for every shard.

    Construction is the expensive part (the batch generator's per-slot
    precomputation); a :class:`_ShardWorker` keeps one runner alive and
    retargets it per segment via the ``table`` / ``run_bounds`` /
    ``defer_cross_day`` attributes.
    """

    def __init__(
        self,
        scenario: Scenario,
        config: BlameItConfig,
        table: ExpectedRTTTable,
        seed: int,
        metrics_enabled: bool = False,
        chaos: FaultPlan | None = None,
        want_learn: bool = False,
        run_bounds: tuple[int, int] | None = None,
        defer_cross_day: bool = False,
    ) -> None:
        self.generator = BatchQuartetGenerator(scenario)
        self.metrics_enabled = metrics_enabled
        self.localizer = PassiveLocalizer(config, scenario.world.targets)
        self.table = table
        self.seed = seed
        self.chaos = chaos if chaos is not None and chaos.enabled else None
        self.want_learn = want_learn
        self.run_bounds = run_bounds
        self.defer_cross_day = defer_cross_day

    def run_shard(
        self, bounds: tuple[int, int], attempt: int = 0
    ) -> tuple[list[SpanSummary], Snapshot | None]:
        """Process one shard, span by span; returns one
        :class:`~repro.core.summary.SpanSummary` per span plus, when
        observability is on, the shard's metrics snapshot for the parent
        to merge at fold time.

        The registry is fresh per shard (a runner serves many shards and
        each snapshot is merged once, so carrying counts across shards
        would double-count them).

        ``attempt`` is the execution attempt for this shard (0 on first
        dispatch, 1+ for the parent's retries); the fault plan's crash
        decision is keyed on it, so a shard that crashed on attempt 0
        can deterministically succeed on attempt 1.
        """
        start, end = bounds
        chaos = self.chaos
        if chaos is not None and chaos.shard_crashes(start, end, attempt):
            raise ChaosWorkerCrash(
                f"injected crash in shard [{start}, {end}) attempt {attempt}"
            )
        metrics = MetricsRegistry() if self.metrics_enabled else NULL_REGISTRY
        self.localizer.metrics = metrics
        if chaos is not None:
            delay_ms = chaos.shard_delay_ms(start, end)
            if delay_ms > 0:
                metrics.counter("chaos.shard.slow").inc()
                time_mod.sleep(delay_ms / 1000.0)
        refresh = self.run_bounds if self.defer_cross_day else None
        seen_pairs: set[int] = set()
        spans: list[SpanSummary] = []
        time = start
        while time < end:
            stop = span_stop(time, end)
            spans.append(
                summarize_span(
                    range(time, stop),
                    self.generator,
                    self.seed,
                    seen_pairs,
                    self.want_learn,
                    chaos=chaos,
                    metrics=metrics,
                    passive=self.localizer,
                    table=self.table,
                    refresh=refresh,
                )
            )
            time = stop
        return spans, metrics.snapshot() if metrics.enabled else None


class _ShardWorker:
    """One process's shard-compute state: a pool worker's, or the
    parent's own when shards run inline.

    Seeded once with everything run-invariant; each task carries only
    what changes per segment. The runner (and its expensive generator)
    is built on the first task and lives as long as its owner; the
    expected-RTT table is swapped only when the parent's epoch tag
    moves, so a worker holds one table object per segment however many
    tasks it runs.
    """

    def __init__(
        self,
        scenario: Scenario,
        config: BlameItConfig,
        seed: int,
        metrics_enabled: bool,
        chaos: FaultPlan | None,
        want_learn: bool,
    ) -> None:
        self.scenario = scenario
        self.config = config
        self.seed = seed
        self.metrics_enabled = metrics_enabled
        self.chaos = chaos
        self.want_learn = want_learn
        self._runner: _ShardRunner | None = None
        self._epoch: int | None = None

    def run(
        self,
        bounds: tuple[int, int],
        table_msg: "TableMessage",
        run_bounds: tuple[int, int] | None,
        defer_cross_day: bool,
        attempt: int,
    ) -> tuple[list[SpanSummary], Snapshot | None]:
        epoch, table = table_msg
        runner = self._runner
        if runner is None:
            runner = self._runner = _ShardRunner(
                self.scenario, self.config, table, self.seed,
                self.metrics_enabled, self.chaos, self.want_learn,
            )
        elif epoch != self._epoch:
            runner.table = table
        self._epoch = epoch
        runner.run_bounds = run_bounds
        runner.defer_cross_day = defer_cross_day
        return runner.run_shard(bounds, attempt)


_WORKER: _ShardWorker | None = None


def _init_worker(*worker_args) -> None:
    global _WORKER
    _WORKER = _ShardWorker(*worker_args)


def _run_shard_task(*task) -> ShardPayload:
    assert _WORKER is not None, "worker not initialized"
    return encode_result(*_WORKER.run(*task))


class _Resources:
    """Process-level resources held apart from the pipeline object.

    A separate holder lets a ``weakref.finalize`` reclaim the worker
    pool and any outstanding shard shared memory when a pipeline is
    garbage-collected without an explicit :meth:`ShardedPipeline.close`
    — the common shape in tests, which construct many pipelines and
    drop them.
    """

    __slots__ = ("pool", "pool_broken", "leases")

    def __init__(self) -> None:
        self.pool: "multiprocessing.pool.Pool | None" = None
        self.pool_broken = False
        self.leases: set[ShmLease] = set()

    def close(self) -> None:
        pool, self.pool = self.pool, None
        if pool is not None:
            pool.terminate()
            pool.join()
        leases, self.leases = self.leases, set()
        for lease in leases:
            lease.destroy()


class ShardedPipeline:
    """Drives :class:`BlameItPipeline` with sharded generation + passive.

    Args:
        scenario: The world under observation.
        config: Tunables; paper defaults when None.
        learner: Pre-warmed expected-RTT learner (snapshotted at run
            start and re-snapshotted at every day boundary).
        fixed_table: Expected-RTT table used verbatim (wins over
            ``learner``).
        duration_predictor: Optionally pre-seeded duration history.
        n_workers: Worker processes; ``None`` means one per usable CPU
            (:func:`repro.perf.workers.usable_cpus`). With
            one worker (or when a pool cannot be spawned) shards run in
            process — same results, no IPC. The pool is created lazily
            on the first multi-worker dispatch and persists across
            segments, runs, and daemon steps until :meth:`close`.
        buckets_per_shard: Shard granularity; ``None`` makes each shard
            one span of the span kernel (:func:`~repro.core.pipeline.span_stop`:
            up to ``SPAN_BUCKETS`` buckets, never across a day boundary),
            so the fold starts after the first span. A shard of any other
            size is still computed span by span.
        alert_top_k: Tickets emitted.
        seed: Per-bucket quartet RNG seed and probe-noise seed; must
            match the sequential pipeline's for byte-identical runs.
        metrics: Observability registry (see :mod:`repro.obs`). Workers
            record into their own registries (generation spans, passive
            counters) and the parent merges their snapshots at fold time,
            so counter totals match the sequential pipeline's. The parent
            additionally keeps shard bookkeeping under ``shard.*`` /
            ``retry.shard.*`` / ``transport.*`` (dispatches, crashes,
            retries, IPC bytes) that has no sequential counterpart.
        chaos: Deterministic fault plan (see :mod:`repro.chaos`), shipped
            to every worker. Because fault decisions hash the thing's
            identity rather than evaluation order, a chaotic sharded run
            still matches the equally-chaotic sequential run wherever the
            retries recover every shard. An injected
            :class:`~repro.chaos.ChaosWorkerCrash` costs one shard
            resubmission — the pool itself survives.
        shard_retry_attempts: Re-runs the parent grants each failed
            shard before abandoning it (its buckets then simply go
            missing from the fold, like production data loss). With a
            pool, retries are resubmitted to it; inline they re-run in
            process.
        store: Checkpoint store (see :mod:`repro.store`). The fold
            checkpoints at day boundaries exactly like the sequential
            pipeline, and writes nothing else there.
        warm_start: Resume from the store's newest checkpoint.

    Attributes:
        transport_stats: Plain always-on accounting of the transport —
            ``shm_bytes`` / ``shm_segments`` / ``pickle_bytes`` /
            ``fallbacks`` — mirrored into ``transport.*`` counters when
            a metrics registry is attached.
        stage_seconds: Cumulative wall time split between waiting on
            shard results (``shard_wait``) and folding them (``fold``);
            the benchmark's per-stage numbers.
        pools_created: How many worker pools this pipeline has spawned
            (1 for the whole life of a healthy multi-worker pipeline).
    """

    def __init__(
        self,
        scenario: Scenario,
        config: BlameItConfig | None = None,
        learner: ExpectedRTTLearner | None = None,
        fixed_table: ExpectedRTTTable | None = None,
        duration_predictor: DurationPredictor | None = None,
        n_workers: int | None = None,
        buckets_per_shard: int | None = None,
        alert_top_k: int = 10,
        seed: int = 1234,
        metrics: MetricsRegistry | None = None,
        chaos: FaultPlan | None = None,
        shard_retry_attempts: int = 1,
        store: "CheckpointStore | None" = None,
        warm_start: bool = False,
    ) -> None:
        self.config = config or BlameItConfig()
        self.metrics = metrics or NULL_REGISTRY
        self.n_workers = (
            usable_cpus() if n_workers is None else n_workers
        )
        if self.n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if shard_retry_attempts < 0:
            raise ValueError("shard_retry_attempts must be >= 0")
        self.buckets_per_shard = buckets_per_shard
        self.shard_retry_attempts = shard_retry_attempts
        self.pipeline = BlameItPipeline(
            scenario,
            config=self.config,
            learner=learner,
            duration_predictor=duration_predictor,
            fixed_table=fixed_table,
            alert_top_k=alert_top_k,
            seed=seed,
            rng_per_bucket=True,
            metrics=metrics,
            chaos=chaos,
            store=store,
            warm_start=warm_start,
        )
        # The pipeline normalizes disabled plans to None; share its view.
        self.chaos = self.pipeline.chaos
        self.seed = seed
        # Without a fixed table the fold feeds the learner from shipped
        # columns (same values, same order as the sequential loop), so
        # the learner leaves each day in the identical state — which is
        # what makes the per-day table re-snapshots match too.
        self._want_learn = fixed_table is None
        # Set per run/step; shipped to workers for the deferral predicate.
        self._run_bounds: tuple[int, int] | None = None
        self._defer_cross_day = False
        # Re-sending the same snapshot (every daemon step within a day)
        # reuses the same epoch, so workers keep the table they hold.
        self._table_msg: "TableMessage" = (0, None)
        self._worker_args = (
            scenario, self.config, seed, self.metrics.enabled, self.chaos,
            self._want_learn,
        )
        # The parent's own worker state, for shards that run in process.
        self._inline = _ShardWorker(*self._worker_args)
        self.transport_stats = {
            "shm_bytes": 0,
            "pickle_bytes": 0,
            "shm_segments": 0,
            "fallbacks": 0,
        }
        self.stage_seconds = {"shard_wait": 0.0, "fold": 0.0}
        self.pools_created = 0
        # One object per vocabulary across decoded shards (see
        # SpanSummary.share_vocabularies).
        self._vocabularies: dict[tuple, tuple] = {}
        self._res = _Resources()
        self._finalizer = weakref.finalize(self, self._res.close)

    # -- delegation ----------------------------------------------------

    @property
    def engine(self):
        """The fold-side traceroute engine (probes run in the fold)."""
        return self.pipeline.engine

    def warmup(self, start: Timestamp, end: Timestamp, stride: int = 6) -> None:
        """Train the learner/predictors (single-process, see pipeline)."""
        self.pipeline.warmup(start, end, stride=stride)

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        """Release the worker pool and any outstanding shard shared
        memory. Idempotent. Also runs via a GC finalizer, so dropped
        pipelines don't strand worker processes — but the daemon/CLI
        paths call it explicitly (SIGTERM included) rather than waiting
        on collection."""
        self._res.close()

    # -- sharding ------------------------------------------------------

    def _shards(self, start: Timestamp, end: Timestamp) -> list[tuple[int, int]]:
        """``[start, end)`` cut into shards: the span kernel's spans, or
        ``buckets_per_shard``-bucket shards when that is set."""
        if self.buckets_per_shard is not None:
            size = max(1, self.buckets_per_shard)
            return [(t, min(end, t + size)) for t in range(start, end, size)]
        shards = []
        while start < end:
            shards.append((start, span_stop(start, end)))
            start = shards[-1][1]
        return shards

    def _ensure_pool(self) -> "multiprocessing.pool.Pool | None":
        """The persistent pool, created on first use; None means run
        inline (single worker, or a spawn failure we won't repeat)."""
        res = self._res
        if res.pool is not None:
            return res.pool
        if res.pool_broken:
            return None
        try:
            res.pool = multiprocessing.Pool(
                processes=self.n_workers,
                initializer=_init_worker,
                initargs=self._worker_args,
            )
        except (OSError, multiprocessing.ProcessError):
            res.pool_broken = True
            return None
        self.pools_created += 1
        return res.pool

    def _ship_table(self, table: ExpectedRTTTable) -> "TableMessage":
        """The epoch-tagged table message for this segment's tasks; the
        epoch moves only when the held table object changes."""
        if self._table_msg[1] is not table:
            self._table_msg = (self._table_msg[0] + 1, table)
        return self._table_msg

    def _record_failure(self, exc: BaseException) -> None:
        name = (
            "chaos.shard.crashed"
            if isinstance(exc, ChaosWorkerCrash)
            else "shard.errors"
        )
        self.metrics.counter(name).inc()

    def _count_transport(self, name: str, amount: int) -> None:
        self.transport_stats[name] += amount
        self.metrics.counter(f"transport.{name}").inc(amount)

    def _stream_inline(
        self, shards: list[tuple[int, int]], table_msg: "TableMessage"
    ) -> "Iterator[ShardResult | None]":
        """In-process execution: one shard at a time, retries immediate.

        Summaries never leave the process, so there is nothing to
        encode — results carry no lease and no transport bytes.
        """
        metrics = self.metrics
        for bounds in shards:
            output = None
            for attempt in range(self.shard_retry_attempts + 1):
                metrics.counter("shard.runs").inc()
                if attempt:
                    metrics.counter("retry.shard.attempts").inc()
                try:
                    output = self._inline.run(
                        bounds, table_msg, self._run_bounds,
                        self._defer_cross_day, attempt,
                    )
                except Exception as exc:  # noqa: BLE001 - shard isolation
                    self._record_failure(exc)
                    output = None
                else:
                    if attempt:
                        metrics.counter("retry.shard.recovered").inc()
                    break
            else:
                metrics.counter("retry.shard.abandoned").inc()
            yield None if output is None else (output[0], output[1], None)

    def _stream_shards(
        self, shards: list[tuple[int, int]], table_msg: "TableMessage"
    ) -> "Iterator[ShardResult | None]":
        """Yield each shard's result *in shard order, as available*.

        Every shard is dispatched to the persistent pool up front;
        completions stream back through a reorder buffer keyed by shard
        index, so the consumer folds shard *k* the moment it (and its
        predecessors) land, while later shards are still computing.
        Failures are resubmitted to the pool — a crash costs one shard
        re-run, never the pool — up to ``shard_retry_attempts`` times,
        then the shard is abandoned (yielded as None). Parent-side
        bookkeeping: ``shard.runs`` counts every dispatch;
        ``chaos.shard.crashed`` / ``shard.errors`` classify failures;
        ``retry.shard.*`` track the recovery arc.
        """
        if not shards:
            return
        pool = self._ensure_pool() if self.n_workers > 1 else None
        if pool is None:
            yield from self._stream_inline(shards, table_msg)
            return
        metrics = self.metrics
        results: queue.SimpleQueue = queue.SimpleQueue()

        def submit(index: int, attempt: int) -> None:
            metrics.counter("shard.runs").inc()
            if attempt:
                metrics.counter("retry.shard.attempts").inc()
            pool.apply_async(
                _run_shard_task,
                (
                    shards[index], table_msg, self._run_bounds,
                    self._defer_cross_day, attempt,
                ),
                callback=lambda payload, index=index: results.put(
                    (index, payload, None)
                ),
                error_callback=lambda exc, index=index: results.put(
                    (index, None, exc)
                ),
            )

        for index in range(len(shards)):
            submit(index, 0)
        pending = len(shards)
        attempts = [0] * len(shards)
        ready: dict[int, ShardPayload | None] = {}
        emit = 0
        try:
            while pending:
                index, payload, exc = results.get()
                if exc is not None:
                    self._record_failure(exc)
                    attempts[index] += 1
                    if attempts[index] <= self.shard_retry_attempts:
                        submit(index, attempts[index])
                        continue
                    metrics.counter("retry.shard.abandoned").inc()
                    payload = None
                elif attempts[index]:
                    metrics.counter("retry.shard.recovered").inc()
                pending -= 1
                ready[index] = payload
                while emit in ready:
                    payload = ready.pop(emit)
                    emit += 1
                    if payload is None:
                        yield None
                        continue
                    result = decode_result(payload, self._count_transport)
                    if result[2] is not None:
                        self._res.leases.add(result[2])
                    for span in result[0]:
                        span.share_vocabularies(self._vocabularies)
                    yield result
        finally:
            # An abandoned consumer (exception mid-fold, chaos kill)
            # must not strand worker-written segments: wait out the
            # in-flight tasks and reclaim their shared memory.
            while pending:
                _, payload, _ = results.get()
                pending -= 1
                if payload is not None:
                    discard_payload(payload)
            for payload in ready.values():
                if payload is not None:
                    discard_payload(payload)

    # -- the run -------------------------------------------------------

    def run(self, start: Timestamp, end: Timestamp) -> PipelineReport:
        """Process buckets ``[start, end)`` and report.

        Generation and the passive phase run sharded; everything with
        cross-bucket or budget state (issue tracking, probing,
        localization, alerts) folds in the parent in time order —
        overlapped with shard compute, see :meth:`_stream_shards`. When
        the fold learns online (no ``fixed_table``) the run is cut into
        per-day segments so the expected-RTT table is re-snapshotted at
        every day boundary — the same daily refresh the sequential loop
        performs, which keeps multi-day sharded runs byte-identical.
        """
        state = self.begin_run(start, end)
        try:
            while state.cursor < state.end:
                self._run_segment(state)
            return self.finish_run(state)
        finally:
            self._abort_pending()

    # -- the incremental step API --------------------------------------

    def begin_run(
        self,
        start: Timestamp,
        end: Timestamp,
        regenerate=None,
    ) -> RunState:
        """Open an incremental sharded run over ``[start, end)``.

        Same contract as :meth:`BlameItPipeline.begin_run` — the
        streaming daemon drives either interchangeably.
        """
        state = self.pipeline.begin_run(start, end, regenerate=regenerate)
        self._run_bounds = (state.report.start, state.end)
        self._defer_cross_day = (
            self.pipeline.fixed_table is None and not state.table_dropped
        )
        return state

    def step(self, state: RunState, batch: QuartetBatch | None = None) -> None:
        """Process the bucket at ``state.cursor`` sharded and advance.

        The bucket is dispatched as a one-bucket shard through the
        persistent pool (or inline), so a daemon stepping bucket by
        bucket pays no per-step pool or table-shipping cost after the
        first. External ``batch`` sources are unsupported: workers
        regenerate buckets from the scenario, and an externally fed
        batch has no deterministic worker-side equivalent — use the
        sequential pipeline for those.
        """
        if batch is not None:
            raise ValueError(
                "sharded execution regenerates buckets from the scenario; "
                "external batch sources require the sequential pipeline"
            )
        pipeline = self.pipeline
        time = state.cursor
        pipeline._refresh_table(state, time)  # noqa: SLF001 - driver seam
        self._run_bounds = (state.report.start, state.end)
        self._defer_cross_day = (
            pipeline.fixed_table is None and not state.table_dropped
        )
        self._consume(
            state,
            [(time, time + 1)],
            self._ship_table(state.table),
        )
        state.cursor = time + 1

    def finish_run(self, state: RunState) -> PipelineReport:
        """Flush the pending window, finalize, and return the report."""
        return self.pipeline.finish_run(state)

    def _run_segment(self, state: RunState) -> None:
        """Shard-and-fold from ``state.cursor`` to the segment end,
        checkpointing (and firing a planned kill) at the segment's entry
        bucket. A segment stops at the next day boundary when the table
        refreshes daily or a store is attached, and at a planned kill
        bucket ahead of the cursor; otherwise it runs to the run end."""
        pipeline = self.pipeline
        cursor = state.cursor
        pipeline._refresh_table(state, cursor)  # noqa: SLF001 - driver seam
        pipeline._maybe_checkpoint(state, cursor)  # noqa: SLF001 - driver seam
        refresh = pipeline.fixed_table is None and not state.table_dropped
        self._defer_cross_day = refresh
        self._run_bounds = (state.report.start, state.end)
        seg_end = state.end
        if refresh or pipeline._store is not None:  # noqa: SLF001 - driver seam
            seg_end = min(seg_end, (cursor // BUCKETS_PER_DAY + 1) * BUCKETS_PER_DAY)
        kill = self.chaos.kill_at_bucket if self.chaos is not None else None
        if kill is not None and kill > cursor:
            seg_end = min(seg_end, kill)
        self._consume(
            state,
            self._shards(cursor, seg_end),
            self._ship_table(state.table),
        )
        state.cursor = seg_end

    def _consume(
        self,
        state: RunState,
        shards: list[tuple[int, int]],
        table_msg: "TableMessage",
    ) -> None:
        """Fold shard results as the stream yields them, in time order.

        Splits wall time between ``shard_wait`` (blocking on the next
        in-order shard) and ``fold`` (parent-side processing) — with
        real overlap, segment time approaches
        max(slowest shard, total fold) and ``shard_wait`` shrinks
        toward the straggler's excess.
        """
        stream = self._stream_shards(shards, table_msg)
        clock = time_mod.perf_counter
        stage = self.stage_seconds
        try:
            mark = clock()
            for bounds, result in zip(shards, stream):
                now = clock()
                stage["shard_wait"] += now - mark
                self._fold_shard(state, bounds, result)
                mark = clock()
                stage["fold"] += mark - now
        finally:
            stream.close()

    # -- the fold ------------------------------------------------------

    def _fold_shard(
        self,
        state: RunState,
        bounds: tuple[int, int],
        result: "ShardResult | None",
    ) -> None:
        """Hand one shard's buckets to the kernel, in time order, cutting
        each span's per-bucket views as it is folded; None means the
        shard was abandoned (its buckets go missing, the fold carries on
        degraded)."""
        fold = self.pipeline.fold_bucket
        if result is None:
            for time in range(*bounds):
                fold(state, time, None)
            return
        spans, snapshot, lease = result
        self.metrics.merge_snapshot(snapshot)
        try:
            for span in spans:
                for summary in span.buckets():
                    fold(state, summary.time, summary, lease)
        finally:
            # Drop the decode reference; window entries hold their own
            # until the kernel's flush releases them.
            if lease is not None:
                lease.release()
            self._res.leases = {
                held for held in self._res.leases if not held.released
            }

    def _abort_pending(self) -> None:
        """Reclaim shard shared memory left by an aborted run (chaos
        kill, mid-fold failure); a completed run has nothing
        outstanding, making this a no-op on the happy path."""
        leases, self._res.leases = self._res.leases, set()
        for lease in leases:
            lease.destroy()
