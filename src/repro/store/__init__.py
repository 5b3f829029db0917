"""Checkpoint persistence for pipeline state (checkpoint and resume).

The paper's BlameIt runs continuously over months of telemetry; this
reproduction's runs were all cold starts bounded by process memory.
:class:`CheckpointStore` closes that gap for
:class:`~repro.core.pipeline.BlameItPipeline`,
:class:`~repro.perf.sharded.ShardedPipeline`, and the
:class:`~repro.serve.daemon.BlameItDaemon`: one SQLite database,
``state.db``, whose ``records`` table holds one row per checkpoint — a
JSON payload, the learner's reservoirs and the held table as one
``np.savez`` BLOB, and a sha256 digest of both. A checkpoint and the
prune after it commit in one transaction; every read checks the digest
(DESIGN.md §6). Checkpoints land at day boundaries (batch) or on the
daemon's own cadence, and a restored run's report stays byte-identical
to an uninterrupted one. ``keep_last`` prunes old checkpoints after
each save; archive rows carry closed issues a retention-bounded daemon
has evicted from memory (DESIGN.md §7). :mod:`repro.store.codec` holds
the state encoders.
"""

from repro.store.checkpoint import (
    CHECKPOINT_SCHEMA_VERSION,
    CheckpointMismatchError,
    CheckpointNotFoundError,
    CheckpointStore,
    CorruptRecordError,
    RestoredRun,
    SchemaMismatchError,
    StoreError,
)

__all__ = [
    "CHECKPOINT_SCHEMA_VERSION",
    "CheckpointMismatchError",
    "CheckpointNotFoundError",
    "CheckpointStore",
    "CorruptRecordError",
    "RestoredRun",
    "SchemaMismatchError",
    "StoreError",
]
