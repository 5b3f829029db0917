"""Pluggable persistence for pipeline state (checkpoint and resume).

The paper's BlameIt runs continuously over months of telemetry; this
reproduction's runs were all cold starts bounded by process memory. The
package closes that gap with a narrow adapter boundary —
:class:`StoreBackend`, put/get/scan over versioned, schema-tagged
records — and two implementations behind it:

* :class:`SqliteBackend` — keyed JSON state (tracker runs, issue
  history, checkpoint metadata) in a single sqlite file;
* :class:`ColumnarBackend` — NumPy-array payloads (the expected-RTT
  learner's reservoir histories, the table a checkpoint holds) as one
  ``.npz`` file per key, serializing the pipeline's columnar arrays
  as-is.

:class:`CheckpointStore` assembles the two into checkpoint/restore for
:class:`~repro.core.pipeline.BlameItPipeline`,
:class:`~repro.perf.sharded.ShardedPipeline`, and the
:class:`~repro.serve.daemon.BlameItDaemon`. Checkpoints land at day
boundaries (batch) or on the daemon's own cadence — mid-day
checkpoints persist the held expected-RTT table (schema v2) — and a
restored run's report stays byte-identical to an uninterrupted one
(DESIGN.md §6). ``keep_last`` prunes old checkpoints after each save
(a sharded run writes nothing else: workers get their tables in the
task message, not through the store); the archive records carry closed
issues a retention-bounded daemon has evicted from memory (DESIGN.md
§7).
"""

from repro.store.backend import (
    CorruptRecordError,
    Record,
    SchemaMismatchError,
    StoreBackend,
    StoreError,
)
from repro.store.checkpoint import (
    CHECKPOINT_SCHEMA_VERSION,
    CheckpointMismatchError,
    CheckpointNotFoundError,
    CheckpointStore,
    RestoredRun,
)
from repro.store.columnar import ColumnarBackend
from repro.store.sqlite_backend import SqliteBackend

__all__ = [
    "CHECKPOINT_SCHEMA_VERSION",
    "CheckpointMismatchError",
    "CheckpointNotFoundError",
    "CheckpointStore",
    "ColumnarBackend",
    "CorruptRecordError",
    "Record",
    "RestoredRun",
    "SchemaMismatchError",
    "SqliteBackend",
    "StoreBackend",
    "StoreError",
]
