"""Shard-result transport and persistent-pool properties.

Unit level: shared-memory and pickle payloads round-trip a shard's
summaries bit-for-bit, allocation failures downgrade to accounted
pickle fallbacks, and segment lifetime (lease refcount, discard,
abnormal exit) never leaks ``/dev/shm`` entries.

Pipeline level: both transports produce byte-identical reports against
the sequential pipeline with real worker processes; one pool serves a
whole multi-day run and a daemon's step cadence; a worker crash costs
one shard respawn, not the pool.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.chaos import ChaosKill, FaultPlan
from repro.core.config import BlameItConfig
from repro.core.pipeline import BlameItPipeline
from repro.core.thresholds import ExpectedRTTLearner
from repro.io import report_to_dict
from repro.obs import MetricsRegistry, validate_snapshot
from repro.perf import transport
from repro.perf.sharded import ShardedPipeline, _ShardRunner
from repro.perf.transport import (
    PicklePayload,
    ShmPayload,
    decode_result,
    discard_payload,
    encode_result,
    resolve_mode,
    shm_available,
)
from repro.serve import BlameItDaemon, ScenarioSource
from repro.sim.scenario import Scenario
from repro.store import CheckpointStore

needs_shm = pytest.mark.skipif(
    not shm_available(), reason="platform lacks multiprocessing.shared_memory"
)


def _config(**overrides) -> BlameItConfig:
    return BlameItConfig(
        history_days=1, background_interval_buckets=36, **overrides
    )


def _digest(report) -> str:
    data = report_to_dict(report)
    data.pop("metrics", None)
    return json.dumps(data, sort_keys=True)


def _shm_entries() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except FileNotFoundError:  # pragma: no cover - non-tmpfs platform
        return set()


@pytest.fixture(scope="module")
def trained(small_world):
    scenario = Scenario.from_world(small_world)
    learner = ExpectedRTTLearner(history_days=1)
    trainer = BlameItPipeline(scenario, config=_config(), learner=learner)
    trainer.warmup(0, 96, stride=4)
    return scenario, learner.table()


@pytest.fixture(scope="module")
def shard_output(trained):
    """One real shard's summaries + snapshot (learn columns included)."""
    scenario, table = trained
    runner = _ShardRunner(
        scenario,
        _config(),
        table,
        seed=11,
        metrics_enabled=True,
        want_learn=True,
    )
    summaries, snapshot = runner.run_shard((100, 113))
    assert any(s.n_quartets for s in summaries)
    return summaries, snapshot


def _arrays_equal(got, expected) -> bool:
    got, expected = np.asarray(got), np.asarray(expected)
    equal_nan = np.issubdtype(expected.dtype, np.floating)
    return np.array_equal(got, expected, equal_nan=equal_nan)


def _assert_batches_equal(got, expected) -> None:
    for name in transport._BATCH_ARRAYS:
        assert _arrays_equal(getattr(got, name), getattr(expected, name))
    assert got.locations == expected.locations
    assert got.middles == expected.middles
    assert got.regions == expected.regions


def _assert_summaries_equal(got_list, expected_list) -> None:
    assert len(got_list) == len(expected_list)
    for got, expected in zip(got_list, expected_list):
        assert got.time == expected.time
        assert got.n_quartets == expected.n_quartets
        assert (got.blames is None) == (expected.blames is None)
        if expected.blames is not None:
            _assert_batches_equal(got.blames.batch, expected.blames.batch)
            assert _arrays_equal(got.blames.code, expected.blames.code)
            assert _arrays_equal(
                got.blames.cloud_fraction, expected.blames.cloud_fraction
            )
            assert _arrays_equal(
                got.blames.middle_fraction, expected.blames.middle_fraction
            )
        assert _arrays_equal(got.pair_codes, expected.pair_codes)
        assert _arrays_equal(got.pair_users, expected.pair_users)
        assert _arrays_equal(got.new_mask, expected.new_mask)
        assert _arrays_equal(got.new_prefixes, expected.new_prefixes)
        assert (got.learn is None) == (expected.learn is None)
        if expected.learn is not None:
            for col_got, col_exp in zip(got.learn, expected.learn):
                assert _arrays_equal(col_got, col_exp)
        assert (got.deferred_batch is None) == (expected.deferred_batch is None)
        if expected.deferred_batch is not None:
            _assert_batches_equal(got.deferred_batch, expected.deferred_batch)


class TestRoundTrip:
    @needs_shm
    def test_shm_round_trip(self, shard_output):
        summaries, snapshot = shard_output
        payload = encode_result(summaries, snapshot, "shm")
        assert isinstance(payload, ShmPayload)
        assert payload.name in _shm_entries()
        counts: dict[str, int] = {}
        decoded, got_snapshot, lease = decode_result(
            payload, lambda name, n: counts.__setitem__(
                name, counts.get(name, 0) + n
            )
        )
        assert counts == {"shm_bytes": payload.nbytes, "shm_segments": 1}
        assert counts["shm_bytes"] > 0
        assert got_snapshot == snapshot
        _assert_summaries_equal(decoded, summaries)
        assert lease is not None and not lease.released
        lease.release()
        assert lease.released
        assert payload.name not in _shm_entries()

    def test_pickle_round_trip(self, shard_output):
        summaries, snapshot = shard_output
        payload = encode_result(summaries, snapshot, "pickle")
        assert isinstance(payload, PicklePayload) and not payload.fallback
        counts: dict[str, int] = {}
        decoded, got_snapshot, lease = decode_result(
            payload, lambda name, n: counts.__setitem__(
                name, counts.get(name, 0) + n
            )
        )
        assert counts == {"pickle_bytes": len(payload.data)}
        assert got_snapshot == snapshot
        assert lease is None
        _assert_summaries_equal(decoded, summaries)

    @needs_shm
    def test_failed_allocation_falls_back_to_pickle(
        self, shard_output, monkeypatch
    ):
        summaries, snapshot = shard_output

        def refuse(*args, **kwargs):
            raise OSError("no space on /dev/shm")

        monkeypatch.setattr(
            transport.shared_memory, "SharedMemory", refuse
        )
        payload = encode_result(summaries, snapshot, "shm")
        assert isinstance(payload, PicklePayload) and payload.fallback
        monkeypatch.undo()
        counts: dict[str, int] = {}
        decoded, _, _ = decode_result(
            payload, lambda name, n: counts.__setitem__(
                name, counts.get(name, 0) + n
            )
        )
        assert counts["fallbacks"] == 1
        assert counts["pickle_bytes"] == len(payload.data)
        _assert_summaries_equal(decoded, summaries)

    @needs_shm
    def test_discard_payload_reclaims_segment(self, shard_output):
        summaries, snapshot = shard_output
        payload = encode_result(summaries, snapshot, "shm")
        assert payload.name in _shm_entries()
        discard_payload(payload)
        assert payload.name not in _shm_entries()
        discard_payload(payload)  # idempotent on a reclaimed segment

    @needs_shm
    def test_lease_refcount_pins_segment(self, shard_output):
        summaries, snapshot = shard_output
        payload = encode_result(summaries, snapshot, "shm")
        _, _, lease = decode_result(payload, lambda name, n: None)
        lease.retain()
        lease.release()  # one reference still held
        assert not lease.released
        assert payload.name in _shm_entries()
        lease.release()
        assert lease.released
        assert payload.name not in _shm_entries()


class TestResolveMode:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv(transport.ENV_VAR, "shm")
        assert resolve_mode("pickle") == "pickle"

    def test_env_overrides_default(self, monkeypatch):
        monkeypatch.setenv(transport.ENV_VAR, "pickle")
        assert resolve_mode(None) == "pickle"

    def test_defaults_to_shm_when_available(self, monkeypatch):
        monkeypatch.delenv(transport.ENV_VAR, raising=False)
        expected = "shm" if shm_available() else "pickle"
        assert resolve_mode(None) == expected

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="transport must be one of"):
            resolve_mode("carrier-pigeon")


class TestPipelineTransport:
    """Real worker processes, both transports, byte-identity plus the
    accounting each mode must leave behind."""

    def _sequential(self, trained) -> str:
        scenario, table = trained
        return _digest(
            BlameItPipeline(
                scenario,
                config=_config(),
                fixed_table=table,
                seed=11,
                rng_per_bucket=True,
            ).run(100, 160)
        )

    def _sharded(self, trained, mode, metrics=None, chaos=None):
        scenario, table = trained
        pipeline = ShardedPipeline(
            scenario,
            config=_config(),
            fixed_table=table,
            seed=11,
            n_workers=2,
            buckets_per_shard=13,
            transport=mode,
            metrics=metrics,
            chaos=chaos,
        )
        try:
            report = pipeline.run(100, 160)
        finally:
            pipeline.close()
        return report, pipeline

    @needs_shm
    def test_shm_workers_byte_identical_and_accounted(self, trained):
        metrics = MetricsRegistry()
        report, pipeline = self._sharded(trained, "shm", metrics=metrics)
        assert _digest(report) == self._sequential(trained)
        stats = pipeline.transport_stats
        assert stats["shm_bytes"] > 0
        assert stats["shm_segments"] == 5  # ceil(60 / 13) shards
        assert stats["pickle_bytes"] == 0
        assert stats["fallbacks"] == 0
        counters = report.metrics["counters"]
        assert counters["transport.shm_bytes"] == stats["shm_bytes"]
        assert counters["transport.shm_segments"] == stats["shm_segments"]
        validate_snapshot(report.metrics)
        assert pipeline.stage_seconds["fold"] > 0.0

    def test_pickle_workers_byte_identical_and_accounted(self, trained):
        report, pipeline = self._sharded(trained, "pickle")
        assert _digest(report) == self._sequential(trained)
        stats = pipeline.transport_stats
        assert stats["pickle_bytes"] > 0
        assert stats["shm_bytes"] == 0
        assert stats["shm_segments"] == 0

    def test_worker_crash_respawns_one_shard_not_the_pool(self, trained):
        """With the persistent pool, an injected worker crash is
        recovered by resubmitting the one failed shard; the pool object
        survives (no second pool is built) and the report still matches
        the sequential run."""
        plan = FaultPlan(seed=5, shard_crash_rate=1.0, shard_crash_max=1)
        metrics = MetricsRegistry()
        report, pipeline = self._sharded(trained, None, metrics=metrics,
                                         chaos=plan)
        sequential = _digest(
            BlameItPipeline(
                trained[0],
                config=_config(),
                fixed_table=trained[1],
                seed=11,
                rng_per_bucket=True,
                chaos=plan,
            ).run(100, 160)
        )
        assert _digest(report) == sequential
        assert pipeline.pools_created == 1
        counters = report.metrics["counters"]
        n_shards = 5  # ceil(60 / 13)
        assert counters["chaos.shard.crashed"] == n_shards
        assert counters["retry.shard.attempts"] == n_shards
        assert counters["retry.shard.recovered"] == n_shards
        assert counters["shard.runs"] == 2 * n_shards
        validate_snapshot(report.metrics)


class TestPersistentPool:
    def test_one_pool_serves_a_multi_day_run(self, multi_day_world):
        """Per-day segments reuse the pool; the old code built (and
        leaked) one pool per ``_map_shards`` call."""
        scenario = Scenario.from_world(multi_day_world)
        pipeline = ShardedPipeline(
            scenario,
            config=_config(),
            seed=11,
            n_workers=2,
            buckets_per_shard=13,
        )
        try:
            pipeline.warmup(0, 96, stride=4)
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
            scenario = Scenario.from_world(multi_day_world)
            if sharded:
                pipeline = ShardedPipeline(
                    scenario,
                    config=_config(),
                    seed=11,
                    n_workers=2,
                )
            else:
                pipeline = BlameItPipeline(
                    scenario,
                    config=_config(),
                    seed=11,
                    rng_per_bucket=True,
                )
            pipeline.warmup(0, 96, stride=4)
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
        assert _digest(got) == _digest(expected)
        assert sharded_pipeline.pools_created == 1

    def test_no_shm_leak_after_chaos_kill(self, multi_day_world, tmp_path):
        """An aborted run (chaos kill at the day boundary) must leave
        ``/dev/shm`` exactly as it found it once the pipeline is
        closed — outstanding window leases are force-destroyed."""
        before = _shm_entries()
        scenario = Scenario.from_world(multi_day_world)
        store = CheckpointStore(tmp_path)
        pipeline = ShardedPipeline(
            scenario,
            config=_config(),
            seed=11,
            n_workers=2,
            buckets_per_shard=13,
            store=store,
            chaos=FaultPlan(seed=1, kill_at_bucket=288),
        )
        try:
            pipeline.warmup(0, 96, stride=4)
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
