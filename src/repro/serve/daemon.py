"""The streaming daemon: BlameIt as a long-running service.

:class:`BlameItDaemon` drives the pipeline's incremental step API
(:meth:`~repro.core.pipeline.BlameItPipeline.begin_run` /
:meth:`~repro.core.pipeline.BlameItPipeline.step` /
:meth:`~repro.core.pipeline.BlameItPipeline.finish_run`) one bucket at a
time: quartets arrive from a :class:`~repro.serve.source.BucketSource`,
trackers and learners update online, alerts stream to a sink the moment
their issue closes, and checkpoints land on the daemon's own cadence
(every ``checkpoint_every`` buckets) rather than only at day boundaries.

Because the daemon and the batch loop drive the *same* step function
over the same state, a daemon-fed run's final report is byte-identical
to ``pipeline.run()`` over the same window — including across a
kill→resume cycle, and including when a retention window is active:
closed issues older than ``retention_days`` are archived to the store
mid-run (bounding resident memory) and spliced back, in order, before
finalization.

Consistency across crashes hinges on two orderings. The checkpoint for
bucket ``t`` is taken *before* ``t`` is processed, and it records the
archive cursor alongside the trimmed report — so a kill between an
archive sweep and the next checkpoint leaves orphan chunks that resume
simply truncates (the restored report still holds those entries). And
the graceful-stop path checkpoints once more at the final cursor, so a
SIGTERM'd daemon resumes exactly where it left off.

Alerts go to the sink exactly once up to the last checkpoint and at
least once after it: a resumed daemon streams only the issues that close
after the checkpoint it restored (every issue in that checkpoint's
report had streamed before it was written), so a graceful stop repeats
nothing and a kill repeats only what closed between the last checkpoint
and the kill.

The daemon accepts either a :class:`~repro.core.pipeline.BlameItPipeline`
or a :class:`~repro.perf.sharded.ShardedPipeline` as its driver: the
sharded driver is a ``BlameItPipeline`` whose ``step`` takes spans from
its persistent worker pool, computed ahead up to the next day boundary
(learned table) or the horizon (fixed table). A stop or kill drops the
spans in flight, as the sequential driver drops ``RunState.ahead``;
``close()`` reclaims their shared memory. A wrapper that forwards
``begin_run``/``step``/``finish_run`` may be passed too: the daemon
reads stores, trackers and checkpoints from its ``pipeline`` attribute.
"""

from __future__ import annotations

import threading
import time as _wallclock
from typing import Callable, Sequence

from repro.chaos import ChaosKill
from repro.core.alerts import Alert
from repro.core.pipeline import (
    BlameItPipeline,
    PipelineReport,
    RunState,
    ingest_batch,
)
from repro.core.quartet import QuartetBatch
from repro.net.bgp import Timestamp
from repro.serve.source import BucketSource, ScenarioSource
from repro.sim.scenario import BUCKETS_PER_DAY
from repro.store import codec

#: Signature of an alert sink: called once per alert, as issues close.
AlertSink = Callable[[Alert], None]

#: The report's lists of closed issues, the one place each lives.
_CLOSED = ("closed_middle", "closed_cloud", "closed_client")
#: What the retention sweep archives: those lists and the probe
#: verdicts, each with the bucket its entries were last active in.
_SWEPT = (
    *((name, lambda issue: issue.last_seen) for name in _CLOSED),
    ("localized", lambda item: item.probed_at),
)


class BlameItDaemon:
    """Drive a pipeline bucket-by-bucket as a resumable service.

    Args:
        pipeline: The pipeline to drive — sequential, or a
            :class:`~repro.perf.sharded.ShardedPipeline` (whose worker
            pool then persists across every step; close it when the
            daemon is done, stopped or killed). Construct it with a
            :class:`~repro.store.checkpoint.CheckpointStore` (its
            ``store=`` argument) for checkpoint/resume and archiving,
            and with ``warm_start=True`` to resume.
        start, end: Bucket horizon ``[start, end)``. A resumed daemon
            may extend a checkpointed run's horizon.
        source: Where buckets come from; defaults to
            :class:`~repro.serve.source.ScenarioSource` (the pipeline
            generates its own buckets — the batch-equivalent mode).
        checkpoint_every: Checkpoint cadence in buckets (checkpoints
            land at buckets divisible by it); None disables cadence
            checkpoints (the graceful-stop checkpoint still fires).
        retention_days: Bound resident memory: closed issues and probe
            verdicts whose last activity is more than this many days
            behind the cursor are archived to the store and restored at
            finalization. None keeps everything in memory.
        alert_sink: Called with each :class:`~repro.core.alerts.Alert`
            as its issue closes (streaming alerts; the final report's
            top-k list is built at finalization as usual).
        kill_at: Simulate a crash: raise
            :class:`~repro.chaos.ChaosKill` immediately after the
            checkpoint opportunity at this bucket.
    """

    def __init__(
        self,
        pipeline: BlameItPipeline,
        start: Timestamp,
        end: Timestamp,
        *,
        source: "BucketSource | None" = None,
        checkpoint_every: "int | None" = None,
        retention_days: "int | None" = None,
        alert_sink: "AlertSink | None" = None,
        kill_at: "int | None" = None,
    ) -> None:
        if checkpoint_every is not None and checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        if retention_days is not None and retention_days < 1:
            raise ValueError(
                f"retention_days must be >= 1, got {retention_days}"
            )
        # The driver owns begin_run/step/finish_run; everything else the
        # daemon touches (stores, trackers, checkpoint helpers, the HTTP
        # surface) lives on the pipeline, which a forwarding wrapper
        # exposes as its ``pipeline`` attribute.
        self.driver = pipeline
        self.pipeline = getattr(pipeline, "pipeline", pipeline)
        self.start = start
        self.end = end
        self.source = source if source is not None else ScenarioSource()
        self.checkpoint_every = checkpoint_every
        self.retention_days = retention_days
        self.alert_sink = alert_sink
        self.kill_at = kill_at
        #: Peak number of closed issues/verdicts resident in memory at
        #: any point of the run (the retention test pins this).
        self.peak_tracked = 0
        self.alerts_emitted = 0
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._state: "RunState | None" = None
        self._started = _wallclock.monotonic()
        self._archive_seq = 0
        # Closed issues this process archived and has not spliced back.
        self._archived_closed = 0
        # Closed-list lengths already streamed to the alert sink, set
        # when the run opens; the archive sweep trims list fronts and
        # rebases these.
        self._seen = dict.fromkeys(_CLOSED, 0)

    # -- control ---------------------------------------------------------

    def request_stop(self) -> None:
        """Ask the run loop to stop after the current bucket (then take
        a final checkpoint). Safe to call from any thread or a signal
        handler."""
        self._stop.set()

    # -- the run ---------------------------------------------------------

    def run(self) -> "PipelineReport | None":
        """Serve buckets until the horizon, a stop request, or the
        planned kill. Returns the finalized report, or None when stopped
        before the horizon (state checkpointed for a later resume)."""
        pipeline = self.pipeline
        state = self.driver.begin_run(
            self.start, self.end, regenerate=self._replay
        )
        with self._lock:
            self._state = state
            self._archive_seq = int(state.restored_extra.get("archive_seq", 0))
            # Alerts stream after every step and a checkpoint is taken
            # before the next one, so every issue a restored report
            # holds was streamed before the process stopped.
            self._seen = {name: len(getattr(state.report, name)) for name in _CLOSED}
        if pipeline._store is not None:  # noqa: SLF001
            # Archive chunks written after the restored checkpoint are
            # orphans: their entries are still in the restored report.
            pipeline._store.truncate_archives(self._archive_seq)  # noqa: SLF001
        while state.cursor < self.end:
            if self._stop.is_set():
                self._final_checkpoint(state)
                return None
            time = state.cursor
            batch = self.source.next_batch(time)
            with self._lock:
                pipeline._refresh_table(state, time)  # noqa: SLF001
                self._maybe_checkpoint(state, time)
                self.driver.step(state, batch)
                self._stream_alerts(state)
                self._archive_old(state)
                self._note_tracked(state)
        with self._lock:
            return self._finish(state)

    def _replay(self, times: Sequence[int]) -> list[QuartetBatch]:
        """Rebuild the pending window's ingested batches after restore."""
        pipeline = self.pipeline
        raw = self.source.replay(times)
        if raw is None:
            return pipeline._regenerate_window(times)  # noqa: SLF001
        return [ingest_batch(batch, pipeline.chaos, pipeline.metrics) for batch in raw]

    def _maybe_checkpoint(self, state: RunState, time: Timestamp) -> None:
        """Cadence checkpoint (and planned kill) before processing
        ``time`` — suppressed at the entry bucket, like the batch loop's
        day-boundary checkpoints."""
        if time <= state.entry:
            return
        if self.checkpoint_every is not None and time % self.checkpoint_every == 0:
            self.pipeline.checkpoint(
                state, time, extra={"archive_seq": self._archive_seq}
            )
        if self.kill_at is not None and self.kill_at == time:
            raise ChaosKill(f"daemon kill at bucket {time}")

    def _final_checkpoint(self, state: RunState) -> None:
        """Graceful-stop checkpoint at the current cursor (any bucket —
        a checkpoint persists the held table, so mid-day is fine)."""
        if state.cursor > state.entry:
            with self._lock:
                self.pipeline.checkpoint(
                    state, state.cursor, extra={"archive_seq": self._archive_seq}
                )

    # -- streaming alerts ------------------------------------------------

    def _stream_alerts(self, state: RunState) -> None:
        """Emit an alert for every issue that closed in this bucket."""
        if self.alert_sink is None:
            return
        pipeline = self.pipeline
        report = state.report
        seen = self._seen
        new_middle = report.closed_middle[seen["closed_middle"] :]
        if new_middle:
            verdict_by_key = pipeline.best_verdicts_by_key(report.localized)
            for issue in new_middle:
                self._emit(
                    pipeline.middle_alert(issue, verdict_by_key.get(issue.key))
                )
        for name in ("closed_cloud", "closed_client"):
            for issue in getattr(report, name)[seen[name] :]:
                self._emit(pipeline.segment_alert(issue))
        self._seen = {name: len(getattr(report, name)) for name in _CLOSED}

    def _emit(self, alert: Alert) -> None:
        self.alerts_emitted += 1
        self.alert_sink(alert)

    # -- bounded-memory archiving ----------------------------------------

    def _archive_old(self, state: RunState) -> None:
        """Move closed issues/verdicts past the retention window out of
        memory into an archive chunk (order-preserving prefix sweeps)."""
        store = self.pipeline._store  # noqa: SLF001
        if self.retention_days is None or store is None:
            return
        cutoff = state.cursor - self.retention_days * BUCKETS_PER_DAY
        report = state.report
        old = {
            name: _old_prefix(getattr(report, name), last_active, cutoff)
            for name, last_active in _SWEPT
        }
        if not any(old.values()):
            return
        chunk = PipelineReport(start=report.start, end=report.end)
        for name, count in old.items():
            setattr(chunk, name, getattr(report, name)[:count])
        store.append_archive(self._archive_seq, codec.report_state_dict(chunk))
        self._archive_seq += 1
        for name, count in old.items():
            del getattr(report, name)[:count]
        for name in _CLOSED:
            self._seen[name] -= old[name]
            self._archived_closed += old[name]

    def _finish(self, state: RunState) -> PipelineReport:
        """Splice archived entries back (in order) and finalize."""
        pipeline = self.pipeline
        store = pipeline._store  # noqa: SLF001
        # Every chunk below the cursor: a resumed daemon's include those
        # the process before the kill or stop archived.
        if store is not None and self._archive_seq:
            chunks = [
                codec.report_from_state(payload)
                for payload in store.archives(upto_seq=self._archive_seq)
            ]
            for name, _ in _SWEPT:
                getattr(state.report, name)[:0] = [
                    item for chunk in chunks for item in getattr(chunk, name)
                ]
            # Resident again: /status must not count them twice.
            self._archived_closed = 0
        return self.driver.finish_run(state)

    def _note_tracked(self, state: RunState) -> None:
        report = state.report
        tracked = _closed_count(report) + len(report.localized)
        self.peak_tracked = max(self.peak_tracked, tracked)

    # -- introspection (HTTP surface) ------------------------------------

    def status(self) -> dict:
        """Cursor/uptime/issue counts — the ``/status`` endpoint."""
        with self._lock:
            state = self._state
            pipeline = self.pipeline
            cursor = state.cursor if state is not None else self.start
            open_middle = len(pipeline.tracker.open_issues)
            open_cloud = len(pipeline.cloud_tracker.open)
            open_client = len(pipeline.client_tracker.open)
            closed = self._archived_closed
            if state is not None:
                closed += _closed_count(state.report)
            return {
                "start": self.start,
                "end": self.end,
                "cursor": cursor,
                "buckets_done": cursor - self.start,
                "uptime_s": _wallclock.monotonic() - self._started,
                "open_issues": {
                    "middle": open_middle,
                    "cloud": open_cloud,
                    "client": open_client,
                },
                "closed": closed,
                "archived_chunks": self._archive_seq,
                "alerts_emitted": self.alerts_emitted,
                "peak_tracked": self.peak_tracked,
                "stopped": self._stop.is_set(),
            }

    def issues(self) -> list[dict]:
        """Live open issues, highest measured impact first — the
        ``/issues`` endpoint."""
        with self._lock:
            pipeline = self.pipeline
            rows = [
                {
                    "kind": "middle",
                    "location_id": issue.location_id,
                    "middle": list(issue.middle),
                    "first_seen": issue.first_seen,
                    "last_seen": issue.last_seen,
                    "impact": issue.total_client_time,
                    "probed": issue.probed,
                }
                for issue in pipeline.tracker.open_issues.values()
            ]
            for tracker, kind in (
                (pipeline.cloud_tracker, "cloud"),
                (pipeline.client_tracker, "client"),
            ):
                rows.extend(
                    {
                        "kind": kind,
                        "key": issue.key,
                        "location_id": issue.location_id,
                        "culprit_asn": issue.culprit_asn,
                        "first_seen": issue.first_seen,
                        "last_seen": issue.last_seen,
                        "impact": issue.impact,
                        "confidence": issue.confidence,
                    }
                    for issue in tracker.open.values()
                )
            rows.sort(key=lambda row: -row["impact"])
            return rows

    def metrics_snapshot(self) -> dict:
        """The pipeline's metrics snapshot — the ``/metrics`` endpoint."""
        with self._lock:
            metrics = self.pipeline.metrics
            return metrics.snapshot() if metrics.enabled else {}


def _closed_count(report: PipelineReport) -> int:
    """Closed issues resident in ``report``."""
    return sum(len(getattr(report, name)) for name in _CLOSED)


def _old_prefix(items: list, last_active, cutoff: int) -> int:
    """Length of the leading run of ``items`` whose activity predates
    ``cutoff``. Close order is not strictly time order, so only a prefix
    is swept — order (hence the final report) is preserved exactly."""
    count = 0
    for item in items:
        if last_active(item) >= cutoff:
            break
        count += 1
    return count
