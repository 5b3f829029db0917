"""Shard-result transport and persistent-pool properties.

Unit level: a shard's span summary round-trips bit-for-bit through a
shared-memory segment and through a self-contained stream, allocation
failures downgrade to accounted in-band fallbacks, and segment lifetime
(lease refcount, discard, abnormal exit) never leaks ``/dev/shm``
entries.

Pipeline level: with real worker processes the report is byte-identical
to the sequential pipeline's whether segments can be allocated or not;
one pool serves a whole multi-day run and a daemon's step cadence; a
worker crash costs one shard respawn, not the pool.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import time
from contextlib import closing

import numpy as np
import pytest

from repro.chaos import ChaosKill, FaultPlan
from repro.obs import MetricsRegistry, validate_snapshot
from repro.perf import sharded, transport
from repro.perf.sharded import _ShardWorker
from repro.perf.transport import (
    decode_result,
    discard_payload,
    encode_result,
)
from repro.serve import BlameItDaemon, ScenarioSource
from repro.sim.scenario import Scenario
from repro.store import CheckpointStore

from tests.harness import (
    CASES,
    CHAOS,
    SEED,
    SMALL,
    digest,
    make_config,
    make_pipeline,
    reference,
)

needs_shm = pytest.mark.skipif(
    transport.shared_memory is None, reason="platform lacks multiprocessing.shared_memory"
)


def _shm_entries() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except FileNotFoundError:  # pragma: no cover - non-tmpfs platform
        return set()


@pytest.fixture(scope="module")
def shard_output(small_world, trained_table):
    """One real shard's span summary + snapshot (learn columns
    included)."""
    worker = _ShardWorker(
        Scenario.from_world(small_world),
        make_config(),
        SEED,
        metrics_enabled=True,
        want_learn=True,
    )
    span, snapshot = worker.run_shard((100, 113), (1, trained_table))
    assert span.row_cuts[-1] > 0 and span.learn
    return span, snapshot


def _assert_equal(got, expected) -> None:
    """Structural equality over whatever a summary holds: dataclasses
    field by field (so a new field is compared with no edit here),
    arrays exactly (dtype, shape, NaNs), sequences element-wise."""
    if dataclasses.is_dataclass(expected):
        assert type(got) is type(expected)
        for field in dataclasses.fields(expected):
            _assert_equal(getattr(got, field.name), getattr(expected, field.name))
    elif isinstance(expected, np.ndarray):
        assert isinstance(got, np.ndarray)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        equal_nan = np.issubdtype(expected.dtype, np.floating)
        assert np.array_equal(got, expected, equal_nan=equal_nan)
    elif isinstance(expected, (list, tuple)):
        assert type(got) is type(expected) and len(got) == len(expected)
        for got_item, expected_item in zip(got, expected):
            _assert_equal(got_item, expected_item)
    else:
        assert got == expected


def _assert_summaries_equal(got_list, expected_list) -> None:
    _assert_equal(list(got_list), list(expected_list))


def _refuse_allocation(*args, **kwargs):
    raise OSError("no space on /dev/shm")


def _decode(payload):
    """Decode with the transport accounting collected into a dict."""
    counts: dict[str, int] = {}
    decoded = decode_result(
        payload, lambda name, n: counts.__setitem__(name, counts.get(name, 0) + n)
    )
    return decoded, counts


class TestRoundTrip:
    @needs_shm
    def test_shm_round_trip(self, shard_output):
        span, snapshot = shard_output
        payload = encode_result(span, snapshot)
        assert payload.name in _shm_entries()
        (decoded, got_snapshot, lease), counts = _decode(payload)
        assert set(counts) == {"shm_bytes", "shm_segments"}
        assert counts["shm_segments"] == 1
        assert counts["shm_bytes"] >= sum(payload.sizes) > 0
        assert got_snapshot == snapshot
        _assert_equal(decoded, span)
        assert lease is not None and not lease.released
        lease.release()
        assert lease.released
        assert payload.name not in _shm_entries()

    def test_pickle_round_trip(self, shard_output, monkeypatch):
        """A platform without shared memory ships the whole stream in
        band — and that is not a fallback."""
        span, snapshot = shard_output
        monkeypatch.setattr(transport, "shared_memory", None)
        payload = encode_result(span, snapshot)
        assert payload.name is None and not payload.fallback
        (decoded, got_snapshot, lease), counts = _decode(payload)
        assert counts == {"pickle_bytes": len(payload.data)}
        assert got_snapshot == snapshot
        assert lease is None
        _assert_equal(decoded, span)

    @needs_shm
    def test_failed_allocation_falls_back_to_pickle(
        self, shard_output, monkeypatch
    ):
        span, snapshot = shard_output
        monkeypatch.setattr(
            transport.shared_memory, "SharedMemory", _refuse_allocation
        )
        payload = encode_result(span, snapshot)
        assert payload.name is None and payload.fallback
        monkeypatch.undo()
        (decoded, _, lease), counts = _decode(payload)
        assert counts == {"fallbacks": 1, "pickle_bytes": len(payload.data)}
        assert lease is None
        _assert_equal(decoded, span)

    @needs_shm
    def test_arbitrary_arrays_travel_unchanged(self):
        """The encoder knows no field names, so anything picklable must
        survive: an empty array, a non-contiguous one (it stays in the
        stream) and one array referenced twice (written once, decoded
        as one object)."""
        shared = np.arange(1000, dtype=np.float64)
        empty = np.empty(0, dtype=np.int32)
        strided = np.arange(64, dtype=np.int64)[::2]
        columns = np.asfortranarray(np.arange(12.0).reshape(3, 4))
        assert not strided.flags.c_contiguous
        payload = encode_result([shared, empty, strided, columns, shared], None)
        assert sorted(payload.sizes) == [0, columns.nbytes, shared.nbytes]
        (decoded, _, lease), counts = _decode(payload)
        try:
            _assert_equal(decoded, [shared, empty, strided, columns, shared])
            assert decoded[0] is decoded[4]
            assert decoded[3].flags.f_contiguous
            assert counts["shm_bytes"] < 2 * shared.nbytes
        finally:
            lease.release()

    @needs_shm
    @pytest.mark.parametrize(
        "bounds, blamed, buffers",
        [((283, 288), [True] * 3 + [False] * 2, 27), ((286, 287), [False], 14)],
        ids=["span", "one_deferred_bucket"],
    )
    def test_span_batch_columns_cross_once(
        self, small_world, trained_table, bounds, blamed, buffers
    ):
        """A span whose last two buckets are deferred (their window
        flushes after the day-boundary refresh) under online learning
        ships its sanitized rows once: the learner's views and the
        deferred buckets' batches are both cut from the one span batch
        after decoding. The segment holds the batch's 10 columns, the 4
        pair columns and, when a bucket is blamed, the blames' 13 —
        each once, by count and by bytes."""
        worker = _ShardWorker(
            Scenario.from_world(small_world), make_config(), SEED,
            want_learn=True,
        )
        span, _ = worker.run_shard(bounds, (1, trained_table), (250, 600))
        assert span.blamed == blamed

        def arrays(batch):
            fields = (getattr(batch, f.name) for f in dataclasses.fields(batch))
            return [value for value in fields if isinstance(value, np.ndarray)]

        shipped = arrays(span.rows) + [
            span.pair_codes, span.pair_users, span.new_mask, span.new_prefixes,
        ]
        if span.blames is not None:
            shipped += arrays(span.blames.batch) + arrays(span.blames)
        payload = encode_result(span, None)
        (decoded, _, lease), counts = _decode(payload)
        try:
            assert len(payload.sizes) == len(shipped) == buffers
            assert sum(payload.sizes) == sum(array.nbytes for array in shipped)
            assert counts["shm_bytes"] == transport._layout(payload.sizes)[1]
            deferred = decoded.buckets()[-1]
            assert np.shares_memory(deferred.learn.time, deferred.deferred_batch.time)
        finally:
            lease.release()

    @needs_shm
    def test_discard_payload_reclaims_segment(self, shard_output):
        span, snapshot = shard_output
        payload = encode_result(span, snapshot)
        assert payload.name in _shm_entries()
        discard_payload(payload)
        assert payload.name not in _shm_entries()
        discard_payload(payload)  # idempotent on a reclaimed segment

    @needs_shm
    def test_lease_refcount_pins_segment(self, shard_output):
        span, snapshot = shard_output
        payload = encode_result(span, snapshot)
        _, _, lease = decode_result(payload, lambda name, n: None)
        lease.retain()
        lease.release()  # one reference still held
        assert not lease.released
        assert payload.name in _shm_entries()
        lease.release()
        assert lease.released
        assert payload.name not in _shm_entries()


class TestPipelineTransport:
    """Real worker processes, with and without allocatable segments:
    byte-identity plus the accounting each side must leave behind."""

    @needs_shm
    def test_shm_workers_byte_identical_and_accounted(
        self, small_world, trained_table
    ):
        with closing(
            make_pipeline(
                Scenario.from_world(small_world), "sharded2",
                table=trained_table, metrics=MetricsRegistry(),
            )
        ) as pipeline:
            report = pipeline.run(*SMALL.span)
        assert digest(report) == reference(SMALL, small_world).digest
        stats = pipeline.transport_stats
        assert stats["shm_bytes"] > 0
        assert stats["shm_segments"] == 3  # the spans of [100, 160)
        assert stats["pickle_bytes"] == 0
        assert stats["fallbacks"] == 0
        counters = report.metrics["counters"]
        assert counters["transport.shm_bytes"] == stats["shm_bytes"]
        assert counters["transport.shm_segments"] == stats["shm_segments"]
        validate_snapshot(report.metrics)
        assert pipeline.stage_seconds["fold"] > 0.0

    @needs_shm
    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="workers inherit the patched allocator only when forked",
    )
    def test_pickle_workers_byte_identical_and_accounted(
        self, small_world, trained_table, monkeypatch
    ):
        """Every allocation fails in every (forked) worker: each shard
        arrives in band, is counted as a fallback, and the report does
        not move."""
        monkeypatch.setattr(
            transport.shared_memory, "SharedMemory", _refuse_allocation
        )
        with closing(
            make_pipeline(
                Scenario.from_world(small_world), "sharded2", table=trained_table
            )
        ) as pipeline:
            report = pipeline.run(*SMALL.span)
        assert pipeline.pools_created == 1
        assert digest(report) == reference(SMALL, small_world).digest
        stats = pipeline.transport_stats
        assert stats["fallbacks"] == 3  # the spans of [100, 160)
        assert stats["pickle_bytes"] > 0
        assert stats["shm_bytes"] == 0
        assert stats["shm_segments"] == 0

    @needs_shm
    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="workers inherit the patched encoder only when forked",
    )
    def test_allocation_fails_for_every_other_shard(
        self, small_world, trained_table, monkeypatch
    ):
        """``/dev/shm`` fills partway through a run: allocation fails for
        every other shard, chosen by the shard's first bucket so any
        worker makes the same choice (the spans start at 100, 124 and
        148). Those shards arrive in band and
        the rest through segments; the report does not move, and no
        segment outlives ``close()``."""
        encode = sharded.encode_result
        start = SMALL.span[0]

        def encode_every_other(span, snapshot):
            if (span.times[0] - start) // 24 % 2 == 0:
                return encode(span, snapshot)
            allocate = transport.shared_memory.SharedMemory
            transport.shared_memory.SharedMemory = _refuse_allocation
            try:
                return encode(span, snapshot)
            finally:
                transport.shared_memory.SharedMemory = allocate

        monkeypatch.setattr(sharded, "encode_result", encode_every_other)
        before = _shm_entries()
        with closing(
            make_pipeline(
                Scenario.from_world(small_world), "sharded2",
                table=trained_table, metrics=MetricsRegistry(),
            )
        ) as pipeline:
            report = pipeline.run(*SMALL.span)
        assert digest(report) == reference(SMALL, small_world).digest
        stats = pipeline.transport_stats
        n_shards = len(pipeline._shards(*SMALL.span))
        assert stats["fallbacks"] == 1 and stats["shm_segments"] == 2
        assert stats["fallbacks"] + stats["shm_segments"] == n_shards
        counters = report.metrics["counters"]
        assert counters["transport.fallbacks"] == stats["fallbacks"]
        assert counters["transport.shm_segments"] == stats["shm_segments"]
        leaked = {
            entry for entry in _shm_entries() - before if entry.startswith("psm_")
        }
        assert leaked == set()

    @needs_shm
    def test_learned_run_across_a_day_boundary(self, multi_day_world):
        """With the learner on, two workers cross the day-1 table
        refresh with the run's learning and generation phases traced,
        every shard back through shared memory, and no segment left
        behind (the matrix's learned cells check the report)."""
        before = _shm_entries()
        sharded = make_pipeline(
            Scenario.from_world(multi_day_world), "sharded2",
            metrics=MetricsRegistry(),
        )
        try:
            got = sharded.run(240, 340)
        finally:
            sharded.close()
        validate_snapshot(got.metrics)
        assert {"phase.learning", "phase.generation"} <= set(got.metrics["spans"])
        counters = got.metrics["counters"]
        assert counters["transport.shm_bytes"] > 0
        assert counters.get("transport.fallbacks", 0) == 0
        leaked = {
            entry for entry in _shm_entries() - before if entry.startswith("psm_")
        }
        assert leaked == set()

    def test_worker_crash_respawns_one_shard_not_the_pool(
        self, small_world, trained_table
    ):
        """With the persistent pool, an injected worker crash is
        recovered by resubmitting the one failed shard; the pool object
        survives (no second pool is built) and the report still matches
        the sequential run."""
        crash = CASES["crash"]
        with closing(
            make_pipeline(
                Scenario.from_world(small_world), "sharded2",
                table=trained_table, metrics=MetricsRegistry(),
                chaos=CHAOS[crash.chaos],
            )
        ) as pipeline:
            report = pipeline.run(*SMALL.span)
        assert digest(report) == reference(crash, small_world).digest
        assert pipeline.pools_created == 1
        counters = report.metrics["counters"]
        n_shards = 3  # the spans of [100, 160)
        assert counters["chaos.shard.crashed"] == n_shards
        assert counters["retry.shard.attempts"] == n_shards
        assert counters["retry.shard.recovered"] == n_shards
        assert counters["shard.runs"] == 2 * n_shards
        validate_snapshot(report.metrics)


#: Run in a child process: fork a sharded pipeline's two workers, have
#: them encode three payloads, write the segment names to ``argv[1]``
#: and die by SIGKILL before decoding any.
_KILLED_PARENT = textwrap.dedent(
    """
    import os, signal, sys
    import numpy as np
    from repro.net.geo import Region
    from repro.perf import transport
    from repro.perf.sharded import ShardedPipeline
    from repro.sim.scenario import Scenario, ScenarioParams, build_world

    world = build_world(
        ScenarioParams(seed=42, regions=(Region.USA,), locations_per_region=1)
    )
    pipeline = ShardedPipeline(Scenario.from_world(world), n_workers=2)
    pool = pipeline._ensure_pool()
    names = [
        pool.apply(transport.encode_result, ([np.arange(4096) + i], None)).name
        for i in range(3)
    ]
    with open(sys.argv[1], "w") as out:
        out.write(" ".join(names))
    os.kill(os.getpid(), signal.SIGKILL)
    """
)


@needs_shm
@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the workers share the parent's tracker only when forked",
)
def test_parent_killed_before_decoding_leaves_no_segment(tmp_path):
    """A parent SIGKILLed between its workers' ``encode_result`` and its
    own ``decode_result``: the segments stay registered with the
    resource tracker the workers share with it, which unlinks them once
    the workers have exited (within 10 s). Workers that unregistered
    their segments left all three behind."""
    names_file = tmp_path / "names"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    child = subprocess.run(
        [sys.executable, "-c", _KILLED_PARENT, str(names_file)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        timeout=120,
    )
    assert child.returncode == -signal.SIGKILL
    names = names_file.read_text().split()
    assert len(names) == 3
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline and set(names) & _shm_entries():
        time.sleep(0.1)
    left = set(names) & _shm_entries()
    for name in left:
        transport.shared_memory.SharedMemory(name=name).unlink()
    assert left == set()


@pytest.mark.xfail(
    strict=True,
    raises=subprocess.TimeoutExpired,
    reason="a pool worker that dies leaves its span's callbacks unfired, "
    "and the driver waits for them for ever (ROADMAP item 16)",
)
def test_worker_that_dies_ends_the_run():
    """A pool worker that exits mid-span (``os._exit`` at span 312) must
    end the run, by an error or a documented fallback, within seconds;
    unbroken, the run takes about one. The driver's ``apply_async``
    callbacks never fire for that span, so the run goes in a subprocess
    under a 5-second bound."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    child = subprocess.run(
        [sys.executable, "-c", _DEAD_SHARD_WORKER],
        env=env, capture_output=True, text=True, timeout=5,
    )
    assert child.returncode == 0, child.stderr


#: Run in a child process: a learned two-worker sharded run over day 1
#: of a two-day world, the worker of the span at bucket 312 exiting.
_DEAD_SHARD_WORKER = textwrap.dedent(
    """
    import os
    from repro.perf import sharded
    from repro.sim.scenario import Scenario, ScenarioParams, build_world

    world = build_world(ScenarioParams(seed=2026, duration_days=2))
    run_shard = sharded._ShardWorker.run_shard

    def dying(worker, bounds, *args):
        if bounds[0] == 312:
            os._exit(1)
        return run_shard(worker, bounds, *args)

    sharded._ShardWorker.run_shard = dying
    pipeline = sharded.ShardedPipeline(Scenario.from_world(world), n_workers=2)
    try:
        pipeline.run(288, 576)
    except ChildProcessError:
        pass
    finally:
        pipeline.close()
    """
)


class TestPersistentPool:
    def test_one_pool_serves_a_multi_day_run(self, multi_day_world):
        """Per-day segments reuse the pool; the old code built (and
        leaked) one pool per ``_map_shards`` call."""
        pipeline = make_pipeline(Scenario.from_world(multi_day_world), "sharded2")
        try:
            pipeline.run(100, 700)
            assert pipeline.pools_created == 1
        finally:
            pipeline.close()

    def test_one_pool_serves_daemon_steps(self, multi_day_world):
        """The daemon's bucket-at-a-time cadence must not respawn
        workers per step, and the sharded driver's report must match a
        sequential daemon's byte-for-byte."""
        start, end = 96, 320  # crosses the day-1 table refresh at 288

        def run(sharded: bool):
            pipeline = make_pipeline(
                Scenario.from_world(multi_day_world),
                "sharded2" if sharded else "sequential",
            )
            daemon = BlameItDaemon(
                pipeline, start, end, source=ScenarioSource()
            )
            try:
                return daemon.run(), pipeline
            finally:
                if sharded:
                    pipeline.close()

        got, sharded_pipeline = run(sharded=True)
        expected, _ = run(sharded=False)
        assert digest(got) == digest(expected)
        assert sharded_pipeline.pools_created == 1

    def test_no_shm_leak_after_chaos_kill(self, multi_day_world, tmp_path):
        """An aborted run (chaos kill at the day boundary) must leave
        ``/dev/shm`` exactly as it found it once the pipeline is
        closed — outstanding window leases are force-destroyed."""
        before = _shm_entries()
        store = CheckpointStore(tmp_path)
        pipeline = make_pipeline(
            Scenario.from_world(multi_day_world), "sharded2", store=store,
            chaos=FaultPlan(seed=1, kill_at_bucket=288),
        )
        try:
            with pytest.raises(ChaosKill):
                pipeline.run(100, 700)
        finally:
            pipeline.close()
            store.close()
        leaked = {
            entry for entry in _shm_entries() - before
            if entry.startswith("psm_")
        }
        assert leaked == set()
