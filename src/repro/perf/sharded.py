"""Sharded execution: spans are computed in worker processes, the fold
stays serial.

The expensive half of a pipeline run — quartet generation, ingest and
the passive blames — depends only on the bucket index and the (frozen)
expected-RTT table, so spans partition cleanly across processes.
:class:`ShardedPipeline` is a :class:`BlameItPipeline
<repro.core.pipeline.BlameItPipeline>` that changes only where spans are
computed: it overrides the one seam, ``_span_ahead``, through which
:meth:`~repro.core.pipeline.BlameItPipeline.step` fills
``RunState.ahead``. ``run``, ``begin_run``, ``step`` and ``finish_run``
are the sequential pipeline's own, so checkpoints, planned kills, table
refreshes and the daemon's cadence act where they act sequentially, and
issue tracking, on-demand probing (the §5.3 per-window budget is
enforced once, globally), background probing, localization and alerting
all run in the parent, in time order, through
:meth:`~repro.core.pipeline.BlameItPipeline.fold_bucket`.

A shard is one span of the span kernel
(:func:`~repro.core.pipeline.span_stop`: up to ``SPAN_BUCKETS`` buckets,
never across a day boundary). When the seam finds nothing in flight
for a span's first bucket, it dispatches the span chain from there to
the *dispatch horizon*: the next day boundary when the table
refreshes daily (the next day's spans need the next day's table), the
chaos plan's kill bucket, or the run end. Then it hands over the next
decoded span's views; later spans compute while earlier ones fold.
Workers draw each bucket's quartets from a ``(seed, bucket)``-seeded
generator, as ``BlameItPipeline(rng_per_bucket=True)`` does, so a
sharded run's report is byte-identical to the sequential pipeline's.

* **Persistent worker pool.** Created lazily on the first multi-worker
  dispatch, it survives across dispatches, runs and daemon steps until
  :meth:`ShardedPipeline.close`. Workers are seeded once with everything
  run-invariant (scenario, config, seed, chaos plan); a task carries the
  span, the epoch-tagged expected-RTT table (a couple of kilobytes, by
  value) and the kernel's refresh bounds. A worker swaps its table only
  when the epoch moves, so the localizer's identity-keyed lookups stay
  warm. With one worker (or when a pool cannot be spawned) spans run in
  process through the same worker state, one at a time.
* **Shared-memory transport** (:mod:`repro.perf.transport`). A worker
  pickles its span with every array's bytes out of band in one
  ``multiprocessing.shared_memory`` segment; the parent unpickles
  zero-copy views of it and releases the segment when the last window
  entry referencing it flushes. Where a segment cannot be had the same
  stream travels whole through the result pipe.
* **Reorder buffer.** Results complete in any order; the parent hands
  spans over in shard order only, so buckets fold in exact time order.
  Each decoded span's vocabulary tuples are swapped for the first equal
  copy seen (:meth:`~repro.core.summary.SpanSummary.share_vocabularies`),
  so the fold's identity-keyed caches keep hitting across spans.

A run that dies (chaos kill, an exception in the fold), a daemon that
stops or is killed, and a step out of turn drop the spans in flight:
:meth:`ShardedPipeline.run` reclaims them on the way out, and
:meth:`ShardedPipeline.close` always does.
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
from repro.core.summary import BucketSummary, SpanSummary
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
    share_tracker,
)
from repro.perf.workers import usable_cpus
from repro.sim.scenario import BUCKETS_PER_DAY, Scenario

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.store import CheckpointStore

#: One shard's decoded result: its span summary, the worker's metrics
#: snapshot, and the shared-memory lease its arrays live under (None
#: inline or in band). A whole-shard ``None`` marks an abandoned shard,
#: whose buckets drop out of the fold.
ShardResult = "tuple[SpanSummary, Snapshot | None, ShmLease | None]"

#: The epoch-tagged table of a dispatch's task messages.
TableMessage = "tuple[int, ExpectedRTTTable]"

#: Re-runs the parent grants each failed shard before abandoning it (its
#: buckets then go missing from the fold, like production data loss).
SHARD_RETRY_ATTEMPTS = 1


class _ShardWorker:
    """One process's span-compute state: a pool worker's, or the
    parent's own when spans run inline.

    Seeded once with everything run-invariant; each task carries only
    the span, the epoch-tagged table and the refresh bounds. The batch
    generator (the expensive part: per-slot precomputation) is built on
    the first task and lives as long as its owner; the table is swapped
    only when the parent's epoch tag moves, so a worker holds one table
    object per dispatch however many spans it computes.
    """

    def __init__(
        self,
        scenario: Scenario,
        config: BlameItConfig,
        seed: int,
        metrics_enabled: bool = False,
        chaos: FaultPlan | None = None,
        want_learn: bool = False,
    ) -> None:
        self.scenario = scenario
        self.localizer = PassiveLocalizer(config, scenario.world.targets)
        self.seed = seed
        self.metrics_enabled = metrics_enabled
        self.chaos = chaos if chaos is not None and chaos.enabled else None
        self.want_learn = want_learn
        self._generator: BatchQuartetGenerator | None = None
        self._table: "TableMessage" = (-1, None)

    def run_shard(
        self,
        bounds: tuple[int, int],
        table_msg: "TableMessage",
        refresh: tuple[int, int] | None = None,
        attempt: int = 0,
    ) -> tuple[SpanSummary, Snapshot | None]:
        """Compute one span; returns its
        :class:`~repro.core.summary.SpanSummary` plus, when observability
        is on, the span's metrics snapshot for the parent to merge.

        The registry is fresh per shard (a worker serves many shards and
        each snapshot is merged once). ``attempt`` is the execution
        attempt (0 on first dispatch, 1+ for the parent's retries); the
        fault plan's crash decision is keyed on it, so a shard that
        crashed on attempt 0 can deterministically succeed on attempt 1.
        """
        start, end = bounds
        chaos = self.chaos
        if chaos is not None and chaos.shard_crashes(start, end, attempt):
            raise ChaosWorkerCrash(
                f"injected crash in shard [{start}, {end}) attempt {attempt}"
            )
        if self._generator is None:
            self._generator = BatchQuartetGenerator(self.scenario)
        if table_msg[0] != self._table[0]:
            self._table = table_msg
        metrics = MetricsRegistry() if self.metrics_enabled else NULL_REGISTRY
        self.localizer.metrics = metrics
        if chaos is not None:
            delay_ms = chaos.shard_delay_ms(start, end)
            if delay_ms > 0:
                metrics.counter("chaos.shard.slow").inc()
                time_mod.sleep(delay_ms / 1000.0)
        span = summarize_span(
            range(start, end),
            self._generator,
            self.seed,
            set(),
            self.want_learn,
            chaos=chaos,
            metrics=metrics,
            passive=self.localizer,
            table=self._table[1],
            refresh=refresh,
        )
        return span, metrics.snapshot() if metrics.enabled else None


_WORKER: _ShardWorker | None = None


def _init_worker(*worker_args) -> None:
    global _WORKER
    _WORKER = _ShardWorker(*worker_args)


def _run_shard_task(*task) -> ShardPayload:
    assert _WORKER is not None, "worker not initialized"
    return encode_result(*_WORKER.run_shard(*task))


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

    def destroy_leases(self) -> None:
        leases, self.leases = self.leases, set()
        for lease in leases:
            lease.destroy()

    def close(self) -> None:
        pool, self.pool = self.pool, None
        if pool is not None:
            pool.terminate()
            pool.join()
        self.destroy_leases()


class _Flight:
    """The spans one dispatch sent out: the shards not handed over yet,
    for which run, and the stream their results arrive on."""

    __slots__ = ("state", "shards", "stream")

    def __init__(self, state, shards, stream) -> None:
        self.state = state
        self.shards = shards
        self.stream = stream


class ShardedPipeline(BlameItPipeline):
    """A :class:`BlameItPipeline` whose spans are computed by a worker
    pool.

    Args:
        scenario, config, learner, fixed_table, store, warm_start: As
            for :class:`BlameItPipeline`; buckets are always drawn from
            ``(seed, bucket)`` (``rng_per_bucket``).
        n_workers: Worker processes; ``None`` means one per usable CPU
            (:func:`repro.perf.workers.usable_cpus`). With one worker
            (or when a pool cannot be spawned) spans run in process —
            same results, no IPC.
        seed: Per-bucket quartet RNG seed and probe-noise seed; must
            match the sequential pipeline's for byte-identical runs.
        metrics: Observability registry. Workers record into their own
            registries and the parent merges their snapshots as it takes
            their spans, so counter totals match the sequential
            pipeline's; shard bookkeeping (``shard.*``,
            ``retry.shard.*``, ``transport.*``) has no sequential
            counterpart.
        chaos: Deterministic fault plan, shipped to every worker. Fault
            decisions hash the thing's identity, so a chaotic sharded run
            matches the equally chaotic sequential run wherever the
            retries recover every shard. An injected
            :class:`~repro.chaos.ChaosWorkerCrash` costs one shard
            resubmission; the pool survives.

    Attributes:
        transport_stats: Always-on accounting of the transport —
            ``shm_bytes`` / ``shm_segments`` / ``pickle_bytes`` /
            ``fallbacks`` — mirrored into ``transport.*`` counters.
        stage_seconds: Cumulative wall time split between waiting on the
            next span (``shard_wait``) and the parent's own work from a
            span's hand-over to the next request or the run's end:
            folding its buckets, table refreshes, the final flush
            (``fold``).
        pools_created: Worker pools this pipeline has spawned (1 for the
            whole life of a healthy multi-worker pipeline).
    """

    def __init__(
        self,
        scenario: Scenario,
        config: BlameItConfig | None = None,
        learner: ExpectedRTTLearner | None = None,
        fixed_table: ExpectedRTTTable | None = None,
        n_workers: int | None = None,
        seed: int = 1234,
        metrics: MetricsRegistry | None = None,
        chaos: FaultPlan | None = None,
        store: "CheckpointStore | None" = None,
        warm_start: bool = False,
    ) -> None:
        n_workers = usable_cpus() if n_workers is None else n_workers
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        super().__init__(
            scenario,
            config=config,
            learner=learner,
            fixed_table=fixed_table,
            seed=seed,
            rng_per_bucket=True,
            metrics=metrics,
            chaos=chaos,
            store=store,
            warm_start=warm_start,
        )
        self.n_workers = n_workers
        # Re-sending the same table object (every dispatch within a day)
        # keeps the epoch, so workers keep the table they hold.
        self._table_msg: "TableMessage" = (0, None)
        self._worker_args = (
            scenario, self.config, seed, self.metrics.enabled, self.chaos,
            fixed_table is None,
        )
        self._inline = _ShardWorker(*self._worker_args)
        self.transport_stats = {
            "shm_bytes": 0,
            "pickle_bytes": 0,
            "shm_segments": 0,
            "fallbacks": 0,
        }
        self.stage_seconds = {"shard_wait": 0.0, "fold": 0.0}
        self.pools_created = 0
        # One object per vocabulary across decoded spans (see
        # SpanSummary.share_vocabularies).
        self._vocabularies: dict[tuple, tuple] = {}
        self._flight: _Flight | None = None
        # When the last span was handed over (None: no fold under way).
        self._handed: float | None = None
        self._res = _Resources()
        self._finalizer = weakref.finalize(self, self._res.close)

    def run(self, start: Timestamp, end: Timestamp) -> PipelineReport:
        """:meth:`BlameItPipeline.run`, then reclaim what is left in
        flight or leased (everything, when the run died)."""
        try:
            return super().run(start, end)
        finally:
            self._drop_pending()

    def close(self) -> None:
        """Release the worker pool, the spans in flight and any
        outstanding shared memory. Idempotent. Also runs via a GC
        finalizer, but the daemon and CLI call it explicitly (SIGTERM
        included) rather than waiting on collection."""
        self._drop_pending()
        self._res.close()

    # -- the seam ------------------------------------------------------

    def _span_ahead(
        self, state: RunState, time: Timestamp
    ) -> list[BucketSummary | None]:
        """The next span's views, from the pool, in shard order.

        When nothing in flight continues at ``time`` for this run, the
        span chain from ``time`` to the dispatch horizon is dispatched
        first. The previous span's decode reference is released here:
        ``state.ahead`` is empty, and window entries hold their own.
        """
        clock = time_mod.perf_counter
        now = clock()
        if self._handed is not None:
            self.stage_seconds["fold"] += now - self._handed
        if state.lease is not None:
            state.lease.release()
            state.lease = None
        self._res.leases = {
            lease for lease in self._res.leases if not lease.released
        }
        flight = self._flight
        if (
            flight is None
            or flight.state is not state
            or flight.shards[0][0] != time
        ):
            self._drop_flight()
            flight = self._flight = self._dispatch(state, time)
        bounds = flight.shards.pop(0)
        result = next(flight.stream)
        if not flight.shards:
            self._drop_flight()
        self._handed = clock()
        self.stage_seconds["shard_wait"] += self._handed - now
        if result is None:
            return [None] * (bounds[1] - bounds[0])
        span, snapshot, state.lease = result
        self.metrics.merge_snapshot(snapshot)
        return span.buckets(self._pair_keys)

    def _dispatch(self, state: RunState, time: Timestamp) -> _Flight:
        """Send out the span chain from ``time`` to the horizon: the next
        day boundary when the table refreshes, the chaos plan's kill
        bucket, the run end."""
        refresh = self._refresh_bounds(state)
        stop = state.end
        if refresh is not None:
            stop = min(stop, (time // BUCKETS_PER_DAY + 1) * BUCKETS_PER_DAY)
        shards = self._shards(time, self._before_kill(time, stop))
        if self._table_msg[1] is not state.table:
            self._table_msg = (self._table_msg[0] + 1, state.table)
        pool = self._ensure_pool() if self.n_workers > 1 else None
        stream = (
            self._stream_inline(shards, self._table_msg, refresh)
            if pool is None
            else self._stream_pool(pool, shards, self._table_msg, refresh)
        )
        return _Flight(state, list(shards), stream)

    @staticmethod
    def _shards(start: Timestamp, end: Timestamp) -> list[tuple[int, int]]:
        """``[start, end)`` cut into the span kernel's spans."""
        shards = []
        while start < end:
            shards.append((start, span_stop(start, end)))
            start = shards[-1][1]
        return shards

    def _drop_flight(self) -> None:
        """Stop the stream in flight: wait out its running tasks and
        reclaim the shared memory of results nobody will decode."""
        flight, self._flight = self._flight, None
        if flight is not None:
            flight.stream.close()

    def _drop_pending(self) -> None:
        """Reclaim everything a run leaves: the spans in flight and
        every outstanding lease. A completed run has released them all
        but the last span's decode reference."""
        self._drop_flight()
        if self._handed is not None:
            self.stage_seconds["fold"] += time_mod.perf_counter() - self._handed
            self._handed = None
        self._res.destroy_leases()

    # -- the pool ------------------------------------------------------

    def _ensure_pool(self) -> "multiprocessing.pool.Pool | None":
        """The persistent pool, created on first use; None means run
        inline (a spawn failure we won't repeat)."""
        res = self._res
        if res.pool is not None or res.pool_broken:
            return res.pool
        # Forked workers register their segments with this tracker.
        share_tracker()
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
        self,
        shards: list[tuple[int, int]],
        table_msg: "TableMessage",
        refresh: tuple[int, int] | None,
    ) -> "Iterator[ShardResult | None]":
        """In-process execution: one shard at a time, when asked for,
        retries immediate. Nothing leaves the process, so nothing is
        encoded — results carry no lease and no transport bytes."""
        metrics = self.metrics
        for bounds in shards:
            output = None
            for attempt in range(SHARD_RETRY_ATTEMPTS + 1):
                metrics.counter("shard.runs").inc()
                if attempt:
                    metrics.counter("retry.shard.attempts").inc()
                try:
                    output = self._inline.run_shard(
                        bounds, table_msg, refresh, attempt
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
            yield None if output is None else (*output, None)

    def _stream_pool(
        self,
        pool: "multiprocessing.pool.Pool",
        shards: list[tuple[int, int]],
        table_msg: "TableMessage",
        refresh: tuple[int, int] | None,
    ) -> "Iterator[ShardResult | None]":
        """Yield each shard's result *in shard order, as available*.

        Every shard is dispatched up front; completions land on a queue
        and a reorder buffer keyed by shard index releases them in
        order. Failures are resubmitted — a crash costs one shard
        re-run, never the pool — up to ``SHARD_RETRY_ATTEMPTS`` times,
        then the shard is abandoned (yielded as None). ``shard.runs``
        counts every dispatch; ``chaos.shard.crashed`` / ``shard.errors``
        classify failures; ``retry.shard.*`` track the recovery arc.
        """
        metrics = self.metrics
        results: queue.SimpleQueue = queue.SimpleQueue()

        def submit(index: int, attempt: int) -> None:
            metrics.counter("shard.runs").inc()
            if attempt:
                metrics.counter("retry.shard.attempts").inc()
            pool.apply_async(
                _run_shard_task,
                (shards[index], table_msg, refresh, attempt),
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
                    if attempts[index] <= SHARD_RETRY_ATTEMPTS:
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
                    result[0].share_vocabularies(self._vocabularies)
                    yield result
        finally:
            # A stream dropped early (chaos kill, a stopped daemon, a
            # failed fold) must not strand worker-written segments: wait
            # out the tasks in flight and reclaim their shared memory.
            # A terminated pool (the GC finalizer runs before this) sends
            # nothing more; the resource tracker reclaims what it sent.
            while pending and self._res.pool is pool:
                _, payload, _ = results.get()
                pending -= 1
                if payload is not None:
                    discard_payload(payload)
            for payload in ready.values():
                if payload is not None:
                    discard_payload(payload)
