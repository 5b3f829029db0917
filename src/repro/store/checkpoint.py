"""Checkpoint/restore in one SQLite database.

A checkpoint captures everything the pipeline carries across a bucket
boundary: the learner's reservoir histories (byte-exact float64), the
expected-RTT table the run is currently holding, every
tracker/predictor/prober's state, the traceroute engine's RNG, and the
partial report. Restoring into a freshly constructed pipeline and
continuing the run produces a report byte-identical to the
uninterrupted one (DESIGN.md §6).

Checkpoints may land on any bucket, not just day boundaries: the held
table is persisted verbatim because mid-day it can no longer be
recomputed from the learner (``table(as_of_day=d)`` folds in day ``d``'s
partial observations, which a resumed learner has more of than the
interrupted run had when it took the snapshot).

The store is ``state.db`` with one ``records`` table. A checkpoint is
one row: its JSON payload, its arrays (learner reservoirs, held table)
as one ``np.savez`` BLOB, and a sha256 digest of key, payload and BLOB.
A save and the prune that follows it commit in one transaction, so a
kill mid-save leaves the store as it was; every read checks the digest,
so a flipped bit raises :class:`CorruptRecordError` instead of resuming
a different run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import pathlib
import sqlite3
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterator

import numpy as np

from repro.store import codec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.pipeline import BlameItPipeline, PipelineReport
    from repro.core.thresholds import ExpectedRTTTable

#: Layout generation of the store, also its ``PRAGMA user_version``.
#: Bump on any change to the table or to what a component's state_dict
#: contains; opening a store of another generation raises.
#: v2: checkpoints carry the held expected-RTT table and an ``extra``
#: meta dict, and may land on any bucket (not just day boundaries).
#: v3: checkpoints carry the probe planner's co-anomaly history
#: (:mod:`repro.core.probeplan`), so a resumed clustered run clusters
#: exactly as the uninterrupted one would.
#: v4: one digested row per checkpoint in ``state.db``; no ``columnar/``.
#: v5: closed issues live in the report state only; tracker states hold
#: open runs, and the recorded-middle serial set is gone. (A v4 report
#: state holds no closed cloud or client runs mid-run, so resuming one
#: would drop them.)
CHECKPOINT_SCHEMA_VERSION = 5

_CREATE_SQL = """
CREATE TABLE IF NOT EXISTS records (
    key TEXT PRIMARY KEY,
    payload TEXT NOT NULL,
    arrays BLOB,
    digest BLOB NOT NULL
)
"""

#: A row as :meth:`CheckpointStore._decode` takes it; the payload comes
#: back as the bytes stored, so the digest is checked before decoding.
_ROW = "key, CAST(payload AS BLOB), arrays, digest"

_CHECKPOINT = "checkpoint/"
_ARCHIVE = "archive/"


class StoreError(RuntimeError):
    """Base class for checkpoint-store failures."""


class CorruptRecordError(StoreError):
    """A stored record fails its digest check (torn or bit-flipped)."""


class SchemaMismatchError(StoreError):
    """The store was written by another layout generation. Raised
    instead of silently misreading its state."""


class CheckpointNotFoundError(StoreError):
    """The requested checkpoint does not exist."""


class CheckpointMismatchError(StoreError):
    """A checkpoint exists but belongs to a different run — its
    fingerprint (scenario + config + seeds) or run range differs."""


@dataclass(slots=True)
class RestoredRun:
    """What :meth:`CheckpointStore.restore` hands back to the pipeline.

    Attributes:
        time: The bucket the checkpoint was taken at; the run resumes
            from this bucket.
        report: The partial report up to (not including) ``time``, with
            its ``end`` already rewritten to the resuming run's horizon.
        window_times: Bucket times of the current (unflushed) probe
            window; the pipeline regenerates their batches
            deterministically from the scenario (or replays them from
            the daemon's bucket source).
        table: The expected-RTT table the interrupted run was holding,
            or None when the run saved none (a fixed or chaos-withheld
            table, which the pipeline rebuilds directly).
        extra: Caller-owned metadata stored alongside the checkpoint
            (the daemon keeps its archive cursor here).
    """

    time: int
    report: "PipelineReport"
    window_times: list[int] = field(default_factory=list)
    table: "ExpectedRTTTable | None" = None
    extra: dict = field(default_factory=dict)


def _digest(key: str, text: bytes, blob: bytes | None) -> bytes:
    """sha256 over the row's key, payload and BLOB, each length-prefixed."""
    digest = hashlib.sha256()
    for part in (key.encode(), text, blob or b""):
        digest.update(len(part).to_bytes(8, "big"))
        digest.update(part)
    return digest.digest()


def _section(arrays: dict[str, np.ndarray], name: str) -> dict[str, np.ndarray]:
    """The arrays saved under ``name/``, with that prefix dropped."""
    prefix = f"{name}/"
    return {
        key.removeprefix(prefix): value
        for key, value in arrays.items()
        if key.startswith(prefix)
    }


class CheckpointStore:
    """Checkpoint/restore for a pipeline run, rooted at a directory.

    Everything lives in ``root/state.db``.

    Args:
        root: Directory holding the store (created on demand).
        keep_last: When set, every successful :meth:`save` prunes the
            store down to the newest ``keep_last`` checkpoints — the
            retention policy a long-running daemon needs so the store
            does not grow without bound. None keeps everything.

    Raises:
        SchemaMismatchError: ``root`` holds a store of another layout
            generation (v3 and older had a ``columnar/`` directory and
            no ``user_version``).
        StoreError: ``state.db`` cannot be opened as a database.
    """

    def __init__(
        self, root: str | pathlib.Path, keep_last: int | None = None
    ) -> None:
        if keep_last is not None and keep_last < 1:
            raise ValueError(f"keep_last must be >= 1, got {keep_last}")
        self.root = pathlib.Path(root)
        self.keep_last = keep_last
        path = self.root / "state.db"
        if (self.root / "columnar").exists():
            raise SchemaMismatchError(
                f"{self.root} holds a layout-v3 checkpoint store (a "
                f"columnar/ directory); this reader needs layout "
                f"v{CHECKPOINT_SCHEMA_VERSION}"
            )
        conn = None
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            conn = sqlite3.connect(path)
            version = conn.execute("PRAGMA user_version").fetchone()[0]
            empty = conn.execute("SELECT 1 FROM sqlite_master").fetchone() is None
            if version == 0 and empty:
                conn.executescript(
                    f"BEGIN; {_CREATE_SQL}; "
                    f"PRAGMA user_version = {CHECKPOINT_SCHEMA_VERSION}; COMMIT;"
                )
                version = CHECKPOINT_SCHEMA_VERSION
        except (OSError, sqlite3.Error) as exc:
            if conn is not None:
                conn.close()
            raise StoreError(f"cannot open checkpoint store {path}: {exc}") from exc
        if version != CHECKPOINT_SCHEMA_VERSION:
            conn.close()
            found = "v3 or older" if version == 0 else f"v{version}"
            raise SchemaMismatchError(
                f"{path} has layout {found}; this reader needs layout "
                f"v{CHECKPOINT_SCHEMA_VERSION}"
            )
        self._conn = conn

    # -- checkpoints ----------------------------------------------------

    def fingerprint(self, pipeline: "BlameItPipeline") -> str:
        """Identity of a run's inputs; restore refuses a mismatch."""
        spec = (
            pipeline.config,
            pipeline.seed,
            pipeline.alert_top_k,
            pipeline.rng_per_bucket,
            pipeline.fixed_table is not None,
            pipeline.scenario.params,
        )
        return hashlib.sha256(repr(spec).encode()).hexdigest()

    def save(
        self,
        pipeline: "BlameItPipeline",
        time: int,
        window_times: list[int],
        report: "PipelineReport",
        *,
        table: "ExpectedRTTTable | None" = None,
        extra: dict | None = None,
    ) -> None:
        """Write the checkpoint for ``time``, and prune to ``keep_last``,
        in one transaction.

        Args:
            pipeline: The running pipeline whose state is snapshotted.
            time: The bucket about to be processed (resume point).
            window_times: Bucket times of the pending (unflushed) window.
            report: The partial report so far.
            table: The expected-RTT table the run is holding. Required
                for mid-day checkpoints (it cannot be recomputed there);
                callers using a ``fixed_table`` or a chaos-withheld
                table pass None — restore rebuilds those directly.
            extra: JSON-safe caller metadata returned verbatim by
                :meth:`restore` (e.g. the daemon's archive cursor).
        """
        learner_meta, learner_arrays = pipeline.learner.state_arrays()
        arrays = {f"learner/{name}": value for name, value in learner_arrays.items()}
        table_keys = None
        if table is not None:
            table_keys, table_arrays = codec.table_payload(table)
            arrays.update(
                {f"table/{name}": value for name, value in table_arrays.items()}
            )
        reverse = pipeline.reverse_baselines
        state: dict[str, Any] = {
            "engine": pipeline.engine.state_dict(),
            "baselines": pipeline.baselines.state_dict(),
            "reverse_baselines": None if reverse is None else reverse.state_dict(),
            "background": pipeline.background.state_dict(),
            "duration_predictor": pipeline.duration_predictor.state_dict(
                encode_key=codec.encode_pair_key
            ),
            "client_predictor": pipeline.client_predictor.state_dict(
                encode_key=codec.encode_pair_key
            ),
            "tracker": pipeline.tracker.state_dict(),
            "cloud_tracker": pipeline.cloud_tracker.state_dict(),
            "client_tracker": pipeline.client_tracker.state_dict(),
            "budget": pipeline.on_demand.budget.state_dict(),
            "probe_planner": pipeline.on_demand.planner.state_dict(),
            "probes_on_demand_issued": pipeline.on_demand.probes_issued,
            "report": codec.report_state_dict(report),
        }
        payload = {
            "time": time,
            "run": [report.start, report.end],
            "window_times": list(window_times),
            "extra": extra or {},
            "fingerprint": self.fingerprint(pipeline),
            "learner": learner_meta,
            "table": table_keys,
            "state": state,
        }
        with self._transaction(f"save the checkpoint at bucket {time}"):
            self._put(f"{_CHECKPOINT}{time}", payload, arrays)
            if self.keep_last is not None:
                self._prune(self.keep_last)

    def checkpoint_times(self) -> list[int]:
        """Buckets of every checkpoint, ascending. Reads keys only: no
        payload or BLOB is fetched."""
        return sorted(
            int(key.removeprefix(_CHECKPOINT))
            for (key,) in self._scan(_CHECKPOINT, "key")
        )

    def latest_time(self) -> int | None:
        """Newest checkpoint's bucket, or None if empty."""
        times = self.checkpoint_times()
        return times[-1] if times else None

    def _prune(self, keep_last: int) -> None:
        """Delete all but the newest ``keep_last`` checkpoints inside the
        caller's :meth:`_transaction`."""
        old = self.checkpoint_times()[:-keep_last]
        self._conn.executemany(
            "DELETE FROM records WHERE key = ?",
            [(f"{_CHECKPOINT}{time}",) for time in old],
        )

    def restore(
        self,
        pipeline: "BlameItPipeline",
        start: int,
        end: int,
        time: int | None = None,
    ) -> RestoredRun | None:
        """Load the checkpoint at ``time`` (default: newest) into
        ``pipeline``. Returns None when the store holds no checkpoint
        (cold start); raises on any stored-but-unusable state.

        The resuming run must share the checkpointed run's ``start`` and
        fingerprint; its ``end`` may extend *beyond* the checkpointed
        horizon — a daemon that ran ``[288, 576)`` yesterday resumes
        seamlessly into ``[288, 864)`` today. (A shorter horizon is
        refused: the checkpoint may already sit past it.)
        """
        if time is None:
            time = self.latest_time()
            if time is None:
                return None
        row = self._get(f"{_CHECKPOINT}{time}")
        if row is None:
            raise CheckpointNotFoundError(
                f"no checkpoint at bucket {time} under {self.root}"
            )
        meta, arrays = row
        ckpt_start, ckpt_end = (int(t) for t in meta["run"])
        if ckpt_start != start or end < ckpt_end:
            raise CheckpointMismatchError(
                f"checkpoint covers run [{ckpt_start}, {ckpt_end}), "
                f"cannot resume run [{start}, {end}) — start must match "
                "and the horizon may only extend"
            )
        if meta["fingerprint"] != self.fingerprint(pipeline):
            raise CheckpointMismatchError(
                "checkpoint was written by a run with a different "
                "scenario or configuration"
            )
        table = None
        if meta["table"] is not None:
            table = codec.table_from_payload(meta["table"], _section(arrays, "table"))

        pipeline.learner.restore_arrays(meta["learner"], _section(arrays, "learner"))
        payload = meta["state"]
        pipeline.engine.load_state_dict(payload["engine"])
        pipeline.baselines.load_state_dict(payload["baselines"])
        if pipeline.reverse_baselines is not None:
            if payload["reverse_baselines"] is None:
                raise CheckpointMismatchError(
                    "checkpoint lacks reverse-baseline state"
                )
            pipeline.reverse_baselines.load_state_dict(
                payload["reverse_baselines"]
            )
        pipeline.background.load_state_dict(payload["background"])
        pipeline.duration_predictor.load_state_dict(
            payload["duration_predictor"], decode_key=codec.decode_pair_key
        )
        pipeline.client_predictor.load_state_dict(
            payload["client_predictor"], decode_key=codec.decode_pair_key
        )
        pipeline.tracker.load_state_dict(payload["tracker"])
        pipeline.cloud_tracker.load_state_dict(payload["cloud_tracker"])
        pipeline.client_tracker.load_state_dict(payload["client_tracker"])
        pipeline.on_demand.budget.load_state_dict(payload["budget"])
        pipeline.on_demand.planner.load_state_dict(payload["probe_planner"])
        pipeline.on_demand.probes_issued = int(
            payload["probes_on_demand_issued"]
        )
        report = codec.report_from_state(payload["report"])
        # A horizon extension resumes the checkpointed prefix into a
        # longer run; the report's window must describe the run being
        # produced, not the one that was interrupted.
        report.end = end
        return RestoredRun(
            time=int(meta["time"]),
            report=report,
            window_times=[int(t) for t in meta["window_times"]],
            table=table,
            extra=dict(meta["extra"]),
        )

    # -- report archives ------------------------------------------------

    def append_archive(self, seq: int, payload: dict) -> None:
        """Write archive chunk ``seq`` (a ``report_state_dict`` slice of
        closed issues/verdicts the daemon evicted from memory)."""
        with self._transaction(f"write archive chunk {seq}"):
            self._put(f"{_ARCHIVE}{seq:08d}", payload)

    def archives(self, upto_seq: int | None = None) -> Iterator[dict]:
        """Archive chunk payloads in sequence order.

        Args:
            upto_seq: Yield only chunks with seq < this (the daemon
                passes its checkpointed cursor so orphan chunks written
                after the restored checkpoint are excluded).
        """
        for row in self._scan(_ARCHIVE):
            if upto_seq is not None and int(row[0].removeprefix(_ARCHIVE)) >= upto_seq:
                continue
            yield self._decode(*row)[0]

    def truncate_archives(self, from_seq: int) -> None:
        """Delete archive chunks with seq >= ``from_seq`` (orphans from
        a run killed between an archive sweep and its checkpoint)."""
        with self._transaction("truncate archives"):
            self._conn.execute(
                "DELETE FROM records WHERE key LIKE ? AND key >= ?",
                (f"{_ARCHIVE}%", f"{_ARCHIVE}{from_seq:08d}"),
            )

    def close(self) -> None:
        self._conn.close()

    # -- rows -----------------------------------------------------------

    @contextlib.contextmanager
    def _transaction(self, what: str) -> Iterator[None]:
        """One transaction: committed on success, rolled back on any
        error, so no caller can leave half a write behind."""
        try:
            with self._conn:
                yield
        except sqlite3.Error as exc:
            raise StoreError(f"cannot {what}: {exc}") from exc

    def _put(
        self, key: str, payload: dict, arrays: dict[str, np.ndarray] | None = None
    ) -> None:
        """Write (or replace) the row at ``key`` inside the caller's
        :meth:`_transaction`."""
        try:
            text = json.dumps(payload)
        except (TypeError, ValueError) as exc:
            raise StoreError(
                f"payload for {key!r} is not JSON-serializable: {exc}"
            ) from exc
        blob = None
        if arrays:
            buffer = io.BytesIO()
            np.savez(buffer, **arrays)
            blob = buffer.getvalue()
        self._conn.execute(
            "INSERT OR REPLACE INTO records VALUES (?, ?, ?, ?)",
            (key, text, blob, _digest(key, text.encode(), blob)),
        )

    def _get(self, key: str) -> tuple[dict, dict[str, np.ndarray]] | None:
        """The payload and arrays at ``key``, or None if absent."""
        rows = self._select(f"SELECT {_ROW} FROM records WHERE key = ?", (key,))
        return self._decode(*rows[0]) if rows else None

    def _scan(self, prefix: str, columns: str = _ROW) -> list[tuple]:
        """``columns`` of every row whose key starts with ``prefix``
        (matched literally), in key order."""
        pattern = (
            prefix.replace("\\", r"\\").replace("%", r"\%").replace("_", r"\_")
            + "%"
        )
        return self._select(
            f"SELECT {columns} FROM records WHERE key LIKE ? ESCAPE '\\' "
            "ORDER BY key",
            (pattern,),
        )

    def _select(self, sql: str, params: tuple) -> list[tuple]:
        try:
            return self._conn.execute(sql, params).fetchall()
        except sqlite3.Error as exc:
            raise StoreError(f"cannot read {self.root / 'state.db'}: {exc}") from exc

    @staticmethod
    def _decode(
        key: str, text: bytes, blob: bytes | None, digest: bytes
    ) -> tuple[dict, dict[str, np.ndarray]]:
        if _digest(key, text, blob) != digest:
            raise CorruptRecordError(f"record {key!r} fails its digest check")
        arrays = {}
        if blob is not None:
            with np.load(io.BytesIO(blob), allow_pickle=False) as npz:
                arrays = {name: npz[name] for name in npz.files}
        return json.loads(text), arrays
