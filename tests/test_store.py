"""Tests for repro.store: the records table, checkpoint/restore,
kill+resume, and the checkpoints it refuses.

The headline property mirrors DESIGN.md §6: a run that checkpoints,
dies (chaos kill), and resumes from the store produces a report
byte-identical to an uninterrupted run. Every driver's kill/resume
cells are the matrix's (``tests/harness.py``); the ones that predate it
keep their IDs here. The other half: a checkpoint that is torn, bit-
flipped or of an older layout raises a ``StoreError`` and is never
resumed.
"""

from __future__ import annotations

import sqlite3

import numpy as np
import pytest

from repro.chaos import ChaosKill, FaultPlan
from repro.core.thresholds import ExpectedRTTLearner
from repro.serve import BlameItDaemon
from repro.sim.scenario import Scenario
from repro.store import (
    CheckpointMismatchError,
    CheckpointStore,
    CorruptRecordError,
    SchemaMismatchError,
    StoreError,
    codec,
)

from tests.harness import (
    LEARNED,
    digest,
    make_pipeline,
    reference,
    trained_table,
)
from tests.test_integration_e2e import multi_fault_scenario


def _write(store: CheckpointStore, key: str, payload: dict, arrays=None) -> None:
    """Commit one row through the store's own write path."""
    with store._transaction(f"write {key}"):
        store._put(key, payload, arrays)


def _keys(store: CheckpointStore, prefix: str = "") -> list[str]:
    return [key for (key,) in store._scan(prefix, "key")]


def _prune(store: CheckpointStore, keep_last: int) -> None:
    """The prune a save with ``keep_last`` runs, on its own."""
    with store._transaction("prune"):
        store._prune(keep_last)


def _sql(path, sql: str, params: tuple = ()) -> None:
    """Run one statement on the database at ``path`` over a plain
    sqlite3 connection of its own (an outside writer, or a fault)."""
    conn = sqlite3.connect(path)
    with conn:
        conn.execute(sql, params)
    conn.close()


def v3_store(root, layout: str) -> None:
    """Lay out a layout-v3 checkpoint directory with plain sqlite3:
    ``state.db`` with the old four-column ``records`` table, or the
    ``columnar/`` directory that held its ``.npz`` files."""
    root.mkdir(parents=True, exist_ok=True)
    if layout == "columnar":
        (root / "columnar").mkdir()
        return
    _sql(
        root / "state.db",
        "CREATE TABLE records (key TEXT PRIMARY KEY, schema TEXT NOT NULL, "
        "version INTEGER NOT NULL, payload TEXT NOT NULL)",
    )
    _sql(
        root / "state.db",
        "INSERT INTO records VALUES "
        "('checkpoint/288/meta', 'checkpoint-meta', 3, '{}')",
    )


def v4_store(root) -> None:
    """A layout-v4 store: the records table of today, under
    ``user_version`` 4 (v4 kept closed cloud and client runs in tracker
    state only)."""
    CheckpointStore(root).close()
    _sql(root / "state.db", "PRAGMA user_version = 4")


class TestSqliteBackend:
    """The records table's JSON checks, under the IDs they had when a
    separate SQLite backend held the JSON records."""

    def test_roundtrip_and_replace(self, tmp_path):
        store = CheckpointStore(tmp_path)
        _write(store, "a/b", {"x": 1, "y": [1, 2]})
        assert store._get("a/b") == ({"x": 1, "y": [1, 2]}, {})
        _write(store, "a/b", {"x": 2})
        assert store._get("a/b") == ({"x": 2}, {})
        store.close()

    def test_get_missing_returns_none_and_delete_is_idempotent(self, tmp_path):
        store = CheckpointStore(tmp_path)
        assert store._get("nope") is None
        # Deleting what is not there is a no-op, not an error.
        _prune(store, 1)
        store.truncate_archives(0)
        for time in (0, 288):
            _fabricate_checkpoint(store, time)
        store.append_archive(0, {"seq": 0})
        for _ in range(2):
            _prune(store, 1)
            store.truncate_archives(0)
        assert _keys(store) == ["checkpoint/288"]
        store.close()

    def test_scan_prefix_in_key_order(self, tmp_path):
        store = CheckpointStore(tmp_path)
        for key in ("b/2", "a/1", "b/1", "c"):
            _write(store, key, {"k": key})
        assert _keys(store, "b/") == ["b/1", "b/2"]
        assert _keys(store) == ["a/1", "b/1", "b/2", "c"]
        for seq in (2, 0, 1):
            store.append_archive(seq, {"seq": seq})
        assert [chunk["seq"] for chunk in store.archives()] == [0, 1, 2]
        assert [chunk["seq"] for chunk in store.archives(upto_seq=2)] == [0, 1]
        store.close()

    def test_scan_escapes_like_wildcards(self, tmp_path):
        store = CheckpointStore(tmp_path)
        for key in ("a_b", "axb", "a%c", "abc"):
            _write(store, key, {})
        assert _keys(store, "a_") == ["a_b"]
        assert _keys(store, "a%") == ["a%c"]
        store.close()

    def test_non_json_payload_rejected(self, tmp_path):
        store = CheckpointStore(tmp_path)
        with pytest.raises(StoreError):
            store.append_archive(0, {"bad": object()})
        assert list(store.archives()) == []
        store.close()

    def test_corrupt_database_file_raises_store_error(self, tmp_path):
        (tmp_path / "state.db").write_text(
            "this is not a sqlite database, not even close"
        )
        with pytest.raises(StoreError):
            CheckpointStore(tmp_path)

    def test_corrupt_payload_raises_corrupt_record(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.append_archive(0, {"x": 1})
        _sql(tmp_path / "state.db", "UPDATE records SET payload = 'not json'")
        with pytest.raises(CorruptRecordError):
            list(store.archives())
        store.close()


class TestColumnarBackend:
    """The array checks, under the IDs they had when a separate backend
    kept one ``.npz`` file per key. Arrays now ride in the row's BLOB."""

    def test_roundtrip_preserves_arrays_exactly(self, tmp_path):
        store = CheckpointStore(tmp_path)
        values = np.array([1.25, -3.5, 7.0e-300], dtype=np.float64)
        lengths = np.array([1, 2], dtype=np.int64)
        _write(
            store,
            "learner/day-0",
            {"meta": {"n": 2}},
            {"values": values, "lengths": lengths},
        )
        payload, arrays = store._get("learner/day-0")
        assert payload == {"meta": {"n": 2}}
        assert arrays["values"].dtype == np.float64
        assert arrays["lengths"].dtype == np.int64
        assert arrays["values"].tobytes() == values.tobytes()
        assert arrays["lengths"].tobytes() == lengths.tobytes()
        store.close()

    def test_scan_and_delete(self, tmp_path):
        store = CheckpointStore(tmp_path)
        for seq in range(3):
            store.append_archive(seq, {"seq": seq})
        store.truncate_archives(1)
        assert [chunk["seq"] for chunk in store.archives()] == [0]
        assert store._get("archive/00000001") is None
        store.close()

    def test_corrupt_file_raises_corrupt_record(self, tmp_path):
        store = CheckpointStore(tmp_path)
        _write(store, "k", {}, {"x": np.arange(3)})
        _sql(
            tmp_path / "state.db",
            "UPDATE records SET arrays = ?",
            (b"truncated garbage",),
        )
        with pytest.raises(CorruptRecordError):
            store._get("k")
        store.close()


def _kill(world, store, at: int) -> None:
    """Run the learned matrix case with ``store`` attached until a chaos
    kill at bucket ``at``."""
    killed = LEARNED.build(
        world, "sequential", store=store, chaos=FaultPlan(seed=1, kill_at_bucket=at)
    )
    with pytest.raises(ChaosKill):
        killed.run(*LEARNED.span)


def _fabricate_checkpoint(store: CheckpointStore, time: int) -> None:
    """Write a checkpoint's row directly."""
    _write(
        store,
        f"checkpoint/{time}",
        {
            "time": time,
            "run": [0, time + 288],
            "window_times": [],
            "extra": {},
            "fingerprint": "fabricated",
            "learner": {"fabricated": True},
            "table": None,
            "state": {"fabricated": True},
        },
        {"learner/values": np.arange(4.0)},
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
        """A store of another layout generation is refused when it is
        opened, before any resume reads it."""
        store = CheckpointStore(tmp_path)
        _kill(multi_day_world, store, 288)
        store.close()
        _sql(tmp_path / "state.db", "PRAGMA user_version = 99")
        with pytest.raises(SchemaMismatchError, match="layout v99"):
            CheckpointStore(tmp_path)

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
        """Finding the newest checkpoint selects keys only: with 50
        checkpoints in the store, no statement ``latest_time`` or
        ``checkpoint_times`` runs fetches a payload or BLOB."""
        store = CheckpointStore(tmp_path)
        times = [288 * i for i in range(50)]
        for time in times:
            _fabricate_checkpoint(store, time)
        statements: list[str] = []
        store._conn.set_trace_callback(statements.append)
        assert store.latest_time() == times[-1]
        assert store.checkpoint_times() == times
        store._conn.set_trace_callback(None)
        assert len(statements) == 2
        assert all(sql.startswith("SELECT key FROM records ") for sql in statements)
        store.close()

    def test_stored_table_roundtrip(self, multi_day_world, tmp_path):
        """The table codec checkpoints use keeps values and key order
        through a row's JSON and BLOB."""
        table = make_pipeline(Scenario.from_world(multi_day_world)).learner.table()
        store = CheckpointStore(tmp_path)
        _write(store, "checkpoint/0", *codec.table_payload(table))
        loaded = codec.table_from_payload(*store._get("checkpoint/0"))
        store.close()
        assert loaded.cloud == table.cloud
        assert loaded.middle == table.middle
        assert list(loaded.cloud) == list(table.cloud)
        assert list(loaded.middle) == list(table.middle)


def _abort_on(path, event: str, when: str = "1") -> None:
    """Install a trigger that aborts the statement behind ``event``
    (e.g. ``BEFORE DELETE``) on the records table when ``when`` holds:
    a kill at that point of a transaction."""
    _sql(
        path,
        f"CREATE TRIGGER kill {event} ON records WHEN {when} "
        "BEGIN SELECT RAISE(ABORT, 'simulated kill'); END",
    )


class TestClosedIssueOwner:
    """The report is the one home of a closed issue; trackers checkpoint
    their open runs only."""

    def test_checkpoint_holds_each_closed_issue_once(self, small_world, tmp_path):
        """A checkpoint at bucket 200, after cloud, client and middle
        runs have closed, holds each of them once, in its report state,
        in the order the uninterrupted run's report lists them."""
        *_, scenario = multi_fault_scenario(small_world)
        store = CheckpointStore(tmp_path)
        pipeline = make_pipeline(
            scenario, table=trained_table(small_world), store=store
        )
        report = BlameItDaemon(pipeline, 150, 230, checkpoint_every=50).run()
        assert store.checkpoint_times() == [200]
        meta, _ = store._get("checkpoint/200")
        store.close()
        state = meta["state"]
        assert set(state["tracker"]) == {"next_serial", "open"}
        assert set(state["cloud_tracker"]) == {"open"}
        assert set(state["client_tracker"]) == {"open"}
        assert "recorded_middle" not in state
        final = codec.report_state_dict(report)
        open_serials = {issue["serial"] for issue in state["tracker"]["open"]}
        for kind in ("closed_middle", "closed_cloud", "closed_client"):
            closed = state["report"][kind]
            assert closed, kind
            assert closed == final[kind][: len(closed)], kind
        serials = [issue["serial"] for issue in state["report"]["closed_middle"]]
        assert len(set(serials)) == len(serials)
        assert open_serials.isdisjoint(serials)


class TestPrune:
    def test_prune_keeps_newest_and_deletes_payloads(self, tmp_path):
        store = CheckpointStore(tmp_path)
        times = [288 * i for i in range(5)]
        for time in times:
            _fabricate_checkpoint(store, time)
        _prune(store, 2)
        assert store.checkpoint_times() == times[-2:]
        # Pruned checkpoints lose their rows, not just their visibility.
        assert sorted(_keys(store)) == ["checkpoint/1152", "checkpoint/864"]
        assert store._get("checkpoint/0") is None
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
        directory holds ``state.db`` with the kept checkpoint's row and
        nothing else (it used to gain one never-pruned table file a
        day)."""
        store = CheckpointStore(tmp_path, keep_last=1)
        pipeline = make_pipeline(
            Scenario.from_world(multi_day_world), "sharded2", store=store
        )
        pipeline.run(240, 700)
        pipeline.close()
        assert store.checkpoint_times() == [576]
        assert _keys(store) == ["checkpoint/576"]
        store.close()
        assert [path.name for path in tmp_path.iterdir()] == ["state.db"]

    def test_keep_last_zero_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            CheckpointStore(tmp_path, keep_last=0)

    def test_torn_prune_never_guts_a_visible_checkpoint(self, tmp_path):
        """A kill mid-prune (here: after checkpoint 0's delete, at
        checkpoint 288's) rolls the whole prune back: every checkpoint
        is still there and reads whole."""
        store = CheckpointStore(tmp_path)
        times = [288 * i for i in range(5)]
        for time in times:
            _fabricate_checkpoint(store, time)
        _abort_on(tmp_path / "state.db", "BEFORE DELETE", "OLD.key = 'checkpoint/288'")
        with pytest.raises(StoreError, match="simulated kill"):
            _prune(store, 2)
        assert store.checkpoint_times() == times
        for time in times:
            assert store._get(f"checkpoint/{time}")[0]["time"] == time
        # A later prune finishes the job.
        _sql(tmp_path / "state.db", "DROP TRIGGER kill")
        _prune(store, 2)
        assert store.checkpoint_times() == times[-2:]
        store.close()

    @pytest.mark.parametrize(
        "event", ["AFTER INSERT", "BEFORE DELETE"], ids=["mid-save", "mid-prune"]
    )
    def test_killed_save_leaves_the_previous_checkpoint(
        self, small_world, trained_table, tmp_path, event
    ):
        """A save killed inside its transaction — as its row goes in, or
        in the prune after it — leaves the new checkpoint invisible and
        the previous newest one loadable."""
        scenario = Scenario.from_world(small_world)
        store = CheckpointStore(tmp_path, keep_last=1)
        pipeline = make_pipeline(scenario, table=trained_table)
        report = pipeline.run(0, 3)
        store.save(pipeline, 1, [], report)
        _abort_on(tmp_path / "state.db", event)
        with pytest.raises(StoreError, match="simulated kill"):
            store.save(pipeline, 2, [], report)
        assert store.checkpoint_times() == [1]
        assert _keys(store) == ["checkpoint/1"]
        fresh = make_pipeline(scenario, table=trained_table)
        restored = store.restore(fresh, 0, 3)
        store.close()
        assert restored.time == 1
        assert restored.report.total_quartets == report.total_quartets


class TestBadCheckpoints:
    """A bit-flipped checkpoint, or a directory of an older layout,
    raises a ``StoreError`` and is never restored."""

    @pytest.mark.parametrize("layout", ["state.db", "columnar"])
    def test_v3_layout_refused_on_open(self, tmp_path, layout):
        v3_store(tmp_path, layout)
        before = sorted(path.name for path in tmp_path.iterdir())
        with pytest.raises(SchemaMismatchError, match="v3"):
            CheckpointStore(tmp_path)
        assert sorted(path.name for path in tmp_path.iterdir()) == before

    def test_v4_layout_refused_on_open(self, tmp_path):
        v4_store(tmp_path)
        with pytest.raises(
            SchemaMismatchError, match="has layout v4; this reader needs layout v5"
        ):
            CheckpointStore(tmp_path)

    def test_single_bit_flips_never_restore(self, multi_day_world, tmp_path):
        """The checkpoint fuzz: 256 seeded single-bit flips, each in the
        payload or the BLOB of a real checkpoint, and every one is
        refused by the digest before anything is restored."""
        store = CheckpointStore(tmp_path)
        _kill(multi_day_world, store, 288)
        path = tmp_path / "state.db"
        conn = sqlite3.connect(path)
        ((key, text, blob),) = conn.execute(
            "SELECT key, CAST(payload AS BLOB), arrays FROM records"
        ).fetchall()
        conn.close()
        pipeline = LEARNED.build(
            multi_day_world, "sequential", store=store, warm_start=True
        )
        update = (
            "UPDATE records SET payload = CAST(? AS TEXT), arrays = ? WHERE key = ?"
        )
        rng = np.random.default_rng(38)
        for _ in range(256):
            column = int(rng.integers(2))
            flipped = [bytearray(text), bytearray(blob)]
            bit = int(rng.integers(8 * len(flipped[column])))
            flipped[column][bit // 8] ^= 1 << (bit % 8)
            _sql(path, update, (bytes(flipped[0]), bytes(flipped[1]), key))
            with pytest.raises(CorruptRecordError):
                store.restore(pipeline, *LEARNED.span)
        _sql(path, update, (text, blob, key))
        assert store.restore(pipeline, *LEARNED.span).time == 288
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
