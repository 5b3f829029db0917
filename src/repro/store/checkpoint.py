"""Checkpoint/restore over the storage backends.

A checkpoint captures everything the pipeline carries across a bucket
boundary: the learner's reservoir histories (columnar, byte-exact
float64), the expected-RTT table the run is currently holding, every
tracker/predictor/prober's state, the traceroute engine's RNG, and the
partial report. Restoring into a freshly constructed pipeline and
continuing the run produces a report byte-identical to the
uninterrupted one (DESIGN.md §6).

Checkpoints may land on any bucket, not just day boundaries: the held
table is persisted verbatim because mid-day it can no longer be
recomputed from the learner (``table(as_of_day=d)`` folds in day ``d``'s
partial observations, which a resumed learner has more of than the
interrupted run had when it took the snapshot).

Write order makes torn checkpoints invisible rather than fatal: the
small ``meta`` record is written last, and only checkpoints with a meta
record are ever offered for resume — a kill mid-save simply falls back
to the previous complete checkpoint. Pruning deletes in the opposite
order (meta first), so a kill mid-prune can only leave invisible
orphans, never a visible-but-gutted checkpoint.
"""

from __future__ import annotations

import hashlib
import pathlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterator

from repro.store import codec
from repro.store.backend import (
    CorruptRecordError,
    Record,
    SchemaMismatchError,
    StoreError,
)
from repro.store.columnar import ColumnarBackend
from repro.store.sqlite_backend import SqliteBackend

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.pipeline import BlameItPipeline, PipelineReport
    from repro.core.thresholds import ExpectedRTTTable

#: Layout generation of checkpoint records. Bump on any change to what
#: a component's state_dict contains; restore refuses other versions.
#: v2: checkpoints carry the held expected-RTT table and an ``extra``
#: meta dict, and may land on any bucket (not just day boundaries).
#: v3: checkpoints carry the probe planner's co-anomaly history
#: (:mod:`repro.core.probeplan`), so a resumed clustered run clusters
#: exactly as the uninterrupted one would.
CHECKPOINT_SCHEMA_VERSION = 3

_META_SCHEMA = "checkpoint-meta"
_STATE_SCHEMA = "pipeline-state"
_LEARNER_SCHEMA = "learner-history"
_TABLE_SCHEMA = "expected-rtt-table"
_ARCHIVE_SCHEMA = "report-archive"


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
            or None when the checkpoint predates table persistence (a
            day-boundary checkpoint can fall back to recomputing it).
        extra: Caller-owned metadata stored alongside the checkpoint
            (the daemon keeps its archive cursor here).
    """

    time: int
    report: "PipelineReport"
    window_times: list[int] = field(default_factory=list)
    table: "ExpectedRTTTable | None" = None
    extra: dict = field(default_factory=dict)


class CheckpointStore:
    """Checkpoint/restore for a pipeline run, rooted at a directory.

    Keyed state lives in ``state.db`` (sqlite); the learner's reservoir
    arrays and table snapshots live under ``columnar/`` as npz files.

    Args:
        root: Directory holding the store's files (created on demand).
        keep_last: When set, every successful :meth:`save` prunes the
            store down to the newest ``keep_last`` checkpoints — the
            retention policy a long-running daemon needs so the store
            does not grow without bound. None keeps everything.
    """

    def __init__(
        self, root: str | pathlib.Path, keep_last: int | None = None
    ) -> None:
        if keep_last is not None and keep_last < 1:
            raise ValueError(f"keep_last must be >= 1, got {keep_last}")
        self.root = pathlib.Path(root)
        self.keep_last = keep_last
        self._sqlite = SqliteBackend(self.root / "state.db")
        self._columnar = ColumnarBackend(self.root / "columnar")

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
        """Write the checkpoint for ``time`` (meta record last).

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
        self._columnar.put(
            f"checkpoint/{time}/learner",
            {"meta": learner_meta, **learner_arrays},
            schema=_LEARNER_SCHEMA,
            version=CHECKPOINT_SCHEMA_VERSION,
        )
        if table is not None:
            self._columnar.put(
                f"checkpoint/{time}/table",
                codec.table_payload(table),
                schema=_TABLE_SCHEMA,
                version=CHECKPOINT_SCHEMA_VERSION,
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
            "recorded_middle": sorted(pipeline._recorded_middle),
            "report": codec.report_state_dict(report),
        }
        self._sqlite.put(
            f"checkpoint/{time}/state",
            state,
            schema=_STATE_SCHEMA,
            version=CHECKPOINT_SCHEMA_VERSION,
        )
        self._sqlite.put(
            f"checkpoint/{time}/meta",
            {
                "time": time,
                "run": [report.start, report.end],
                "window_times": list(window_times),
                "has_table": table is not None,
                "extra": extra or {},
                "fingerprint": self.fingerprint(pipeline),
            },
            schema=_META_SCHEMA,
            version=CHECKPOINT_SCHEMA_VERSION,
        )
        if self.keep_last is not None:
            self.prune(self.keep_last)

    def checkpoint_times(self) -> list[int]:
        """Buckets of every *complete* checkpoint, ascending.

        Keys-only: answered from ``scan_keys`` without decoding any
        record payload (a checkpoint's state blob can be megabytes).
        """
        times = []
        for key, schema in self._sqlite.scan_keys("checkpoint/"):
            if schema is not None and schema != _META_SCHEMA:
                continue
            parts = key.split("/")
            if len(parts) == 3 and parts[2] == "meta":
                times.append(int(parts[1]))
        times.sort()
        return times

    def latest_time(self) -> int | None:
        """Newest *complete* checkpoint's bucket, or None if empty."""
        times = self.checkpoint_times()
        return times[-1] if times else None

    def prune(self, keep_last: int) -> None:
        """Delete all but the newest ``keep_last`` checkpoints.

        Deletion order is meta → state → learner/table — the reverse of
        the save order. Because only checkpoints with a meta record are
        ever offered for resume, a kill mid-prune leaves at worst
        invisible orphan records, never a checkpoint that
        :meth:`latest_time` would offer but :meth:`restore` cannot load.
        """
        if keep_last < 1:
            raise ValueError(f"keep_last must be >= 1, got {keep_last}")
        for time in self.checkpoint_times()[:-keep_last]:
            self._sqlite.delete(f"checkpoint/{time}/meta")
            self._sqlite.delete(f"checkpoint/{time}/state")
            self._columnar.delete(f"checkpoint/{time}/learner")
            self._columnar.delete(f"checkpoint/{time}/table")

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
        meta = self._sqlite.get(f"checkpoint/{time}/meta")
        if meta is None:
            raise CheckpointNotFoundError(
                f"no checkpoint at bucket {time} under {self.root}"
            )
        self._check(meta, _META_SCHEMA)
        ckpt_start, ckpt_end = (int(t) for t in meta.payload["run"])
        if ckpt_start != start or end < ckpt_end:
            raise CheckpointMismatchError(
                f"checkpoint covers run [{ckpt_start}, {ckpt_end}), "
                f"cannot resume run [{start}, {end}) — start must match "
                "and the horizon may only extend"
            )
        if meta.payload["fingerprint"] != self.fingerprint(pipeline):
            raise CheckpointMismatchError(
                "checkpoint was written by a run with a different "
                "scenario or configuration"
            )
        state = self._sqlite.get(f"checkpoint/{time}/state")
        learner = self._columnar.get(f"checkpoint/{time}/learner")
        if state is None or learner is None:
            raise CorruptRecordError(
                f"checkpoint at bucket {time} is incomplete"
            )
        self._check(state, _STATE_SCHEMA)
        self._check(learner, _LEARNER_SCHEMA)
        table = None
        if meta.payload.get("has_table"):
            table_record = self._columnar.get(f"checkpoint/{time}/table")
            if table_record is None:
                raise CorruptRecordError(
                    f"checkpoint at bucket {time} lacks its table record"
                )
            self._check(table_record, _TABLE_SCHEMA)
            table = codec.table_from_payload(table_record.payload)

        payload = learner.payload
        pipeline.learner.restore_arrays(
            payload["meta"],
            {name: value for name, value in payload.items() if name != "meta"},
        )
        payload = state.payload
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
        pipeline._recorded_middle = {
            int(serial) for serial in payload["recorded_middle"]
        }
        report = codec.report_from_state(payload["report"])
        # A horizon extension resumes the checkpointed prefix into a
        # longer run; the report's window must describe the run being
        # produced, not the one that was interrupted.
        report.end = end
        return RestoredRun(
            time=int(meta.payload["time"]),
            report=report,
            window_times=[int(t) for t in meta.payload["window_times"]],
            table=table,
            extra=dict(meta.payload.get("extra", {})),
        )

    # -- report archives ------------------------------------------------

    def append_archive(self, seq: int, payload: dict) -> None:
        """Write archive chunk ``seq`` (a ``report_state_dict`` slice of
        closed issues/verdicts the daemon evicted from memory)."""
        self._sqlite.put(
            f"archive/{seq:08d}",
            payload,
            schema=_ARCHIVE_SCHEMA,
            version=CHECKPOINT_SCHEMA_VERSION,
        )

    def archives(self, upto_seq: int | None = None) -> Iterator[dict]:
        """Archive chunk payloads in sequence order.

        Args:
            upto_seq: Yield only chunks with seq < this (the daemon
                passes its checkpointed cursor so orphan chunks written
                after the restored checkpoint are excluded).
        """
        for record in self._sqlite.scan("archive/"):
            self._check(record, _ARCHIVE_SCHEMA)
            if upto_seq is not None and int(record.key.split("/")[1]) >= upto_seq:
                continue
            yield record.payload

    def truncate_archives(self, from_seq: int) -> None:
        """Delete archive chunks with seq >= ``from_seq`` (orphans from
        a run killed between an archive sweep and its checkpoint)."""
        for key, schema in list(self._sqlite.scan_keys("archive/")):
            if schema is not None and schema != _ARCHIVE_SCHEMA:
                continue
            if int(key.split("/")[1]) >= from_seq:
                self._sqlite.delete(key)

    def close(self) -> None:
        self._sqlite.close()
        self._columnar.close()

    @staticmethod
    def _check(record: Record, schema: str) -> None:
        if record.schema != schema:
            raise SchemaMismatchError(
                f"record {record.key!r} has schema {record.schema!r}, "
                f"expected {schema!r}"
            )
        if record.version != CHECKPOINT_SCHEMA_VERSION:
            raise SchemaMismatchError(
                f"record {record.key!r} has schema version "
                f"{record.version}, expected {CHECKPOINT_SCHEMA_VERSION}"
            )
