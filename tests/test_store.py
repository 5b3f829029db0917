"""Tests for repro.store: backends, checkpoint/restore, kill+resume.

The headline property mirrors DESIGN.md §6: a run that checkpoints,
dies (chaos kill), and resumes from the store produces a report
byte-identical to an uninterrupted run. Every driver's kill/resume
cells are the matrix's (``tests/harness.py``); the ones that predate it
keep their IDs here.
"""

from __future__ import annotations

import json
import sqlite3

import numpy as np
import pytest

from repro.chaos import ChaosKill, FaultPlan
from repro.core.thresholds import ExpectedRTTLearner
from repro.sim.scenario import Scenario
from repro.store import (
    CHECKPOINT_SCHEMA_VERSION,
    CheckpointMismatchError,
    CheckpointStore,
    ColumnarBackend,
    CorruptRecordError,
    SchemaMismatchError,
    SqliteBackend,
    StoreError,
    codec,
)

from tests.harness import LEARNED, digest, make_pipeline, reference


class TestSqliteBackend:
    def test_roundtrip_and_replace(self, tmp_path):
        backend = SqliteBackend(tmp_path / "state.db")
        backend.put("a/b", {"x": 1, "y": [1, 2]}, schema="s", version=3)
        record = backend.get("a/b")
        assert record.key == "a/b"
        assert record.schema == "s"
        assert record.version == 3
        assert record.payload == {"x": 1, "y": [1, 2]}
        backend.put("a/b", {"x": 2}, schema="s", version=3)
        assert backend.get("a/b").payload == {"x": 2}
        backend.close()

    def test_get_missing_returns_none_and_delete_is_idempotent(self, tmp_path):
        backend = SqliteBackend(tmp_path / "state.db")
        assert backend.get("nope") is None
        backend.delete("nope")  # no-op, no error
        backend.close()

    def test_scan_prefix_in_key_order(self, tmp_path):
        backend = SqliteBackend(tmp_path / "state.db")
        for key in ("b/2", "a/1", "b/1", "c"):
            backend.put(key, {"k": key}, schema="s", version=1)
        assert [r.key for r in backend.scan("b/")] == ["b/1", "b/2"]
        assert [r.key for r in backend.scan()] == ["a/1", "b/1", "b/2", "c"]
        backend.close()

    def test_scan_escapes_like_wildcards(self, tmp_path):
        backend = SqliteBackend(tmp_path / "state.db")
        backend.put("a_b", {}, schema="s", version=1)
        backend.put("axb", {}, schema="s", version=1)
        assert [r.key for r in backend.scan("a_")] == ["a_b"]
        backend.close()

    def test_non_json_payload_rejected(self, tmp_path):
        backend = SqliteBackend(tmp_path / "state.db")
        with pytest.raises(StoreError):
            backend.put("k", {"bad": object()}, schema="s", version=1)
        backend.close()

    def test_corrupt_database_file_raises_store_error(self, tmp_path):
        path = tmp_path / "state.db"
        path.write_text("this is not a sqlite database, not even close")
        with pytest.raises(StoreError):
            SqliteBackend(path)

    def test_corrupt_payload_raises_corrupt_record(self, tmp_path):
        path = tmp_path / "state.db"
        backend = SqliteBackend(path)
        backend.put("k", {"x": 1}, schema="s", version=1)
        backend.close()
        conn = sqlite3.connect(path)
        conn.execute("UPDATE records SET payload = 'not json'")
        conn.commit()
        conn.close()
        backend = SqliteBackend(path)
        with pytest.raises(CorruptRecordError):
            backend.get("k")
        backend.close()


class TestColumnarBackend:
    def test_roundtrip_preserves_arrays_exactly(self, tmp_path):
        backend = ColumnarBackend(tmp_path)
        values = np.array([1.25, -3.5, 7.0e-300], dtype=np.float64)
        lengths = np.array([1, 2], dtype=np.int64)
        backend.put(
            "learner/day-0",
            {"values": values, "lengths": lengths, "meta": {"n": 2}},
            schema="learner",
            version=1,
        )
        record = backend.get("learner/day-0")
        assert record.schema == "learner"
        assert record.version == 1
        assert record.payload["meta"] == {"n": 2}
        assert record.payload["values"].dtype == np.float64
        np.testing.assert_array_equal(record.payload["values"], values)
        np.testing.assert_array_equal(record.payload["lengths"], lengths)

    def test_scan_and_delete(self, tmp_path):
        backend = ColumnarBackend(tmp_path)
        for key in ("t/b", "t/a", "other"):
            backend.put(key, {"k": key}, schema="s", version=1)
        assert [r.key for r in backend.scan("t/")] == ["t/a", "t/b"]
        backend.delete("t/a")
        assert [r.key for r in backend.scan("t/")] == ["t/b"]
        assert backend.get("t/a") is None

    def test_scan_keys_opens_no_file(self, tmp_path):
        backend = ColumnarBackend(tmp_path)
        for key in ("t/b", "t/a", "other"):
            backend.put(key, {"k": key}, schema="s", version=1)
        backend._path("t/a").write_bytes(b"truncated garbage")
        assert list(backend.scan_keys("t/")) == [("t/a", None), ("t/b", None)]

    def test_invalid_keys_rejected(self, tmp_path):
        backend = ColumnarBackend(tmp_path)
        for bad in ("", "a b", "a//b", "/lead", "trail/", "has__sep"):
            with pytest.raises(StoreError):
                backend.put(bad, {}, schema="s", version=1)

    def test_corrupt_file_raises_corrupt_record(self, tmp_path):
        backend = ColumnarBackend(tmp_path)
        backend.put("k", {"x": np.arange(3)}, schema="s", version=1)
        (tmp_path / "k.npz").write_bytes(b"truncated garbage")
        with pytest.raises(CorruptRecordError):
            backend.get("k")


def _kill(world, store, at: int) -> None:
    """Run the learned matrix case with ``store`` attached until a chaos
    kill at bucket ``at``."""
    killed = LEARNED.build(
        world, "sequential", store=store, chaos=FaultPlan(seed=1, kill_at_bucket=at)
    )
    with pytest.raises(ChaosKill):
        killed.run(*LEARNED.span)


class _CountingSqlite(SqliteBackend):
    """A sqlite backend that counts payload reads vs keys-only scans."""

    def __init__(self, path):
        super().__init__(path)
        self.get_calls = 0
        self.scan_calls = 0
        self.scan_keys_calls = 0

    def get(self, key):
        self.get_calls += 1
        return super().get(key)

    def scan(self, prefix=""):
        self.scan_calls += 1
        return super().scan(prefix)

    def scan_keys(self, prefix=""):
        self.scan_keys_calls += 1
        return super().scan_keys(prefix)


def _fabricate_checkpoint(store: CheckpointStore, time: int) -> None:
    """Write a checkpoint's records directly (save order: meta last)."""
    store._columnar.put(
        f"checkpoint/{time}/learner",
        {"meta": {"fabricated": True}},
        schema="learner-history",
        version=CHECKPOINT_SCHEMA_VERSION,
    )
    store._sqlite.put(
        f"checkpoint/{time}/state",
        {"fabricated": True},
        schema="pipeline-state",
        version=CHECKPOINT_SCHEMA_VERSION,
    )
    store._sqlite.put(
        f"checkpoint/{time}/meta",
        {
            "time": time,
            "run": [0, time + 288],
            "window_times": [],
            "has_table": False,
            "extra": {},
            "fingerprint": "fabricated",
        },
        schema="checkpoint-meta",
        version=CHECKPOINT_SCHEMA_VERSION,
    )


class TestCheckpointResume:
    """Matrix cells kept under their old IDs, and what the store
    refuses or allows on resume."""

    def test_checkpointing_run_matches_storeless_run(self, matrix_cell):
        matrix_cell()

    def test_warm_start_on_empty_store_is_cold_start(self, matrix_cell):
        matrix_cell()

    def test_sequential_kill_resume_byte_identical(self, matrix_cell):
        matrix_cell()

    def test_sharded_kill_resume_byte_identical(self, matrix_cell):
        matrix_cell()

    def test_sharded_fixed_table_run_checkpoints_and_kills(self, matrix_cell):
        matrix_cell()

    def test_mid_day_kill_resumes_from_prior_boundary(self, matrix_cell):
        matrix_cell()

    def test_restore_rejects_mismatched_schema_version(
        self, multi_day_world, tmp_path
    ):
        store = CheckpointStore(tmp_path)
        _kill(multi_day_world, store, 288)
        store.close()
        conn = sqlite3.connect(tmp_path / "state.db")
        conn.execute("UPDATE records SET version = 99")
        conn.commit()
        conn.close()
        store = CheckpointStore(tmp_path)
        with pytest.raises(SchemaMismatchError):
            LEARNED.build(
                multi_day_world, "sequential", store=store, warm_start=True
            ).run(*LEARNED.span)
        store.close()

    def test_restore_rejects_different_run_inputs(
        self, multi_day_world, tmp_path
    ):
        store = CheckpointStore(tmp_path)
        _kill(multi_day_world, store, 288)
        start, end = LEARNED.span

        def resumed(**kwargs):
            return LEARNED.build(
                multi_day_world, "sequential", store=store, warm_start=True,
                **kwargs,
            )

        # Different pipeline seed → different fingerprint.
        with pytest.raises(CheckpointMismatchError):
            resumed(seed=12).run(start, end)
        # A different start changes every bucket's position in the run.
        with pytest.raises(CheckpointMismatchError):
            resumed().run(start - 3, end)
        # A shorter horizon is refused — the checkpoint may already sit
        # past it. (A *longer* horizon is allowed; see
        # test_resume_extends_horizon.)
        with pytest.raises(CheckpointMismatchError):
            resumed().run(start, end - 3)
        store.close()

    def test_resume_extends_horizon(self, multi_day_world, tmp_path):
        """A checkpoint taken under a shorter horizon resumes into a
        longer run byte-identically: checkpointed state at bucket t only
        depends on buckets before t, never on the old ``end``."""
        store = CheckpointStore(tmp_path)
        start, end = LEARNED.span
        LEARNED.build(multi_day_world, "sequential", store=store).run(start, 352)
        assert store.latest_time() == 288
        report = LEARNED.build(
            multi_day_world, "sequential", store=store, warm_start=True
        ).run(start, end)
        store.close()
        assert digest(report) == reference(LEARNED, multi_day_world).digest

    def test_latest_time_reads_no_payloads(self, tmp_path):
        """Finding the newest checkpoint is a keys-only scan: with 50
        checkpoints in the store, ``latest_time`` deserializes zero
        record payloads (state blobs can be megabytes)."""
        store = CheckpointStore(tmp_path)
        store._sqlite.close()
        counting = _CountingSqlite(tmp_path / "state.db")
        store._sqlite = counting
        times = [288 * i for i in range(50)]
        for time in times:
            _fabricate_checkpoint(store, time)
        counting.get_calls = 0
        counting.scan_calls = 0
        counting.scan_keys_calls = 0
        assert store.latest_time() == times[-1]
        assert store.checkpoint_times() == times
        assert counting.get_calls == 0
        assert counting.scan_calls == 0
        assert counting.scan_keys_calls >= 1
        store.close()

    def test_stored_table_roundtrip(self, multi_day_world, tmp_path):
        """The table codec checkpoints use keeps values and key order
        through the columnar backend."""
        table = make_pipeline(Scenario.from_world(multi_day_world)).learner.table()
        backend = ColumnarBackend(tmp_path)
        backend.put(
            "checkpoint/0/table",
            codec.table_payload(table),
            schema="expected-rtt-table",
            version=CHECKPOINT_SCHEMA_VERSION,
        )
        loaded = codec.table_from_payload(
            backend.get("checkpoint/0/table").payload
        )
        backend.close()
        assert loaded.cloud == table.cloud
        assert loaded.middle == table.middle
        assert list(loaded.cloud) == list(table.cloud)
        assert list(loaded.middle) == list(table.middle)


class _TornDeleteSqlite(SqliteBackend):
    """A sqlite backend that dies after a fixed number of deletes."""

    def __init__(self, path, allow_deletes):
        super().__init__(path)
        self.allow_deletes = allow_deletes

    def delete(self, key):
        if self.allow_deletes is not None:
            if self.allow_deletes == 0:
                raise RuntimeError("simulated kill mid-prune")
            self.allow_deletes -= 1
        super().delete(key)


class TestPrune:
    def test_prune_keeps_newest_and_deletes_payloads(self, tmp_path):
        store = CheckpointStore(tmp_path)
        times = [288 * i for i in range(5)]
        for time in times:
            _fabricate_checkpoint(store, time)
        store.prune(keep_last=2)
        assert store.checkpoint_times() == times[-2:]
        # Pruned checkpoints lose their payload records too, not just
        # their visibility.
        assert store._sqlite.get("checkpoint/0/state") is None
        assert store._columnar.get("checkpoint/0/learner") is None
        store.close()

    def test_save_with_keep_last_prunes_automatically(
        self, small_world, trained_table, tmp_path
    ):
        store = CheckpointStore(tmp_path, keep_last=2)
        for time in (0, 288, 576):
            _fabricate_checkpoint(store, time)
        pipeline = make_pipeline(
            Scenario.from_world(small_world), table=trained_table
        )
        report = pipeline.run(0, 3)
        store.save(pipeline, 864, [], report)
        assert store.checkpoint_times() == [576, 864]
        store.close()

    def test_sharded_run_leaves_only_kept_checkpoints(
        self, multi_day_world, tmp_path
    ):
        """Worker processes get each day's table in the task message,
        not through the store: after a pruned multi-day sharded run the
        directory holds the kept checkpoint's records and nothing else
        (it used to gain one never-pruned ``table__day-N.npz`` a day)."""
        store = CheckpointStore(tmp_path, keep_last=1)
        pipeline = make_pipeline(
            Scenario.from_world(multi_day_world), "sharded2", store=store
        )
        pipeline.run(240, 700)
        pipeline.close()
        assert store.checkpoint_times() == [576]
        store.close()
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "columnar",
            "state.db",
        ]
        assert sorted(path.name for path in (tmp_path / "columnar").iterdir()) == [
            "checkpoint__576__learner.npz",
            "checkpoint__576__table.npz",
        ]

    def test_keep_last_zero_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            CheckpointStore(tmp_path, keep_last=0)
        store = CheckpointStore(tmp_path)
        with pytest.raises(ValueError):
            store.prune(0)
        store.close()

    def test_torn_prune_never_guts_a_visible_checkpoint(self, tmp_path):
        """A kill mid-prune (here: after checkpoint 0's meta delete but
        before its state delete) leaves invisible orphans, never a
        checkpoint that ``latest_time`` offers but restore cannot load."""
        store = CheckpointStore(tmp_path)
        times = [288 * i for i in range(5)]
        for time in times:
            _fabricate_checkpoint(store, time)
        store._sqlite.close()
        torn = _TornDeleteSqlite(tmp_path / "state.db", allow_deletes=1)
        store._sqlite = torn
        with pytest.raises(RuntimeError):
            store.prune(keep_last=2)
        # Checkpoint 0 is already invisible; its orphaned payload records
        # are harmless. Every still-visible checkpoint is complete.
        assert store.checkpoint_times() == times[1:]
        assert store.latest_time() == times[-1]
        assert store._sqlite.get("checkpoint/0/meta") is None
        assert store._sqlite.get("checkpoint/0/state") is not None
        for time in store.checkpoint_times():
            assert store._sqlite.get(f"checkpoint/{time}/meta") is not None
            assert store._sqlite.get(f"checkpoint/{time}/state") is not None
        # A later prune finishes the job.
        torn.allow_deletes = None
        store.prune(keep_last=2)
        assert store.checkpoint_times() == times[-2:]
        store.close()


class _UnprunedLearner(ExpectedRTTLearner):
    """The learner as every driver ran it before the day-boundary
    prune: history is never dropped."""

    def prune_before(self, day: int) -> None:
        pass


def _days_held(learner: ExpectedRTTLearner) -> set[int]:
    meta, _ = learner.state_arrays()
    return {day for _, _, day in meta["cloud_keys"] + meta["middle_keys"]}


class TestLearnerPruning:
    """`_refresh_table` drops history older than the table window."""

    def test_four_day_run_holds_one_window_and_reports_the_same(
        self, multi_day_world
    ):
        """With ``history_days=1`` a four-day run ends holding at most
        two days of reservoirs, while every day's table and the report
        equal those of a learner that kept all four."""
        start, end = 100, 4 * 288
        states = []
        for learner in (ExpectedRTTLearner(1), _UnprunedLearner(1)):
            pipeline = make_pipeline(
                Scenario.from_world(multi_day_world), learner=learner
            )
            states.append((pipeline, pipeline.begin_run(start, end)))
        for time in range(start, end):
            for pipeline, state in states:
                pipeline.step(state)
            if time % 288 == 0:  # the step just refreshed the table
                assert states[0][1].table == states[1][1].table
        (pruned, pruned_state), (unpruned, unpruned_state) = states
        assert digest(pruned.finish_run(pruned_state)) == digest(
            unpruned.finish_run(unpruned_state)
        )
        assert _days_held(unpruned.learner) == {0, 1, 2, 3}
        assert len(_days_held(pruned.learner)) <= 2

    @pytest.mark.parametrize("workers", [None, 2])
    def test_kill_resume_across_a_pruning_boundary(self, matrix_cell, workers):
        """Matrix cells kept under their old IDs: the learned case
        killed at its day-2 prune and resumed. ``workers`` is kept only
        for those IDs and is not read: ``[None]`` runs the daemon cell
        (learned-daemon-day), ``[2]`` the two-worker sharded cell."""
        matrix_cell()
