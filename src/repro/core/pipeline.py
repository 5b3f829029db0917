"""The end-to-end BlameIt workflow (Figure 7).

Per 5-minute bucket: quartets stream in from the collector, feed the
expected-RTT learner and the client-count predictor, and register
background-probe targets; the BGP listener's churn events trigger
baseline refreshes. Generation, ingest and the passive blames run a
span of buckets per call (:func:`summarize_span`); everything else folds
one bucket at a time. Every run interval (15 minutes in production) the
passive localizer assigns coarse blames; middle issues are tracked across
buckets, scored by predicted client-time product, probed within budget,
and localized to a culprit AS by baseline comparison. Everything rolls up
into impact-prioritized alerts.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

from repro.chaos import ChaosKill, FaultPlan, inject_batch, sanitize_batch
from repro.cloud.traceroute import TracerouteEngine
from repro.core.active import (
    GAP_BUCKETS,
    IssueTracker,
    MiddleIssue,
    OnDemandProber,
    ProbeBudget,
    ProbedIssue,
)
from repro.core.alerts import Alert, AlertManager
from repro.core.background import BackgroundProber, BaselineStore, ReverseBaselineStore
from repro.core.blame import Blame, BlameResult, BlameResultBatch
from repro.core.config import BlameItConfig
from repro.core.localize import CulpritVerdict, localize_culprit
from repro.core.passive import PassiveLocalizer
from repro.core.probeplan import make_planner
from repro.core.reverse import localize_bidirectional
from repro.core.prediction import ClientCountPredictor, DurationPredictor
from repro.core.quartet import QuartetBatch
from repro.core.summary import BucketSummary, SpanSummary, summarize_buckets
from repro.core.thresholds import ExpectedRTTLearner, ExpectedRTTTable
from repro.net.asn import ASPath, middle_asns
from repro.net.bgp import Timestamp
from repro.obs import NULL_REGISTRY, MetricsRegistry
from repro.perf.batch import BatchQuartetGenerator
from repro.sim.scenario import BUCKETS_PER_DAY, Scenario

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from repro.store import CheckpointStore, RestoredRun

#: Most buckets one :func:`summarize_span` call generates and blames.
#: Spans also end at day boundaries, the run end and the chaos plan's
#: kill bucket; a daemon's kill or stop drops ``RunState.ahead`` instead.
SPAN_BUCKETS = 24

#: Tickets a report emits, the top alerts by impact; checkpoint
#: fingerprints hold it.
ALERT_TOP_K = 10


def span_stop(time: Timestamp, end: Timestamp) -> Timestamp:
    """Where a span starting at ``time`` stops: ``end``, the next day
    boundary or :data:`SPAN_BUCKETS` later, whichever comes first."""
    return min(
        end, time + SPAN_BUCKETS, (time // BUCKETS_PER_DAY + 1) * BUCKETS_PER_DAY
    )


def summarize_span(
    times: Sequence[Timestamp],
    generator: BatchQuartetGenerator | None,
    seed: int | None,
    seen: set[int],
    want_learn: bool,
    *,
    batch: QuartetBatch | None = None,
    chaos: FaultPlan | None = None,
    metrics: MetricsRegistry = NULL_REGISTRY,
    passive: PassiveLocalizer | None = None,
    table: ExpectedRTTTable | None = None,
    refresh: tuple[Timestamp, Timestamp] | None = None,
) -> SpanSummary:
    """The span kernel: one :class:`~repro.core.summary.SpanSummary` for
    the buckets of ``times``, from one generation pass, one ingest and
    one ``assign_batch`` call over the whole span.

    Every driver computes summaries here: the sequential ``step``, a
    shard worker, warm-up and the restored window's regeneration; each
    folds the per-bucket views :meth:`SpanSummary.buckets
    <repro.core.summary.SpanSummary.buckets>` cuts.

    Args:
        times: Ascending bucket times.
        generator: Draws the span's rows: each bucket from ``(seed,
            bucket)``, or from the scenario's shared stream, in bucket
            order, when ``seed`` is None.
        seen: Pair codes already summarized under the generator's
            vocabularies; updated in place (see
            :func:`~repro.core.summary.summarize_buckets`).
        want_learn: Whether the fold learns online from these buckets.
        batch: The raw quartets of a one-bucket span from an external
            source, instead of generating them (no generator is needed,
            and ``seen`` should be empty: a batch's local codes compare
            with no other batch's).
        chaos, metrics: Ingest is chaos injection (if planned), then
            sanitization, counted in ``metrics``.
        passive, table: Blame with; None defers every bucket's blames to
            the window flush.
        refresh: The run's ``(start, end)`` when the held table refreshes
            at day boundaries: a bucket whose window flushes in a later
            day than its own is deferred, for the flush to blame with
            the table current then.
    """
    if batch is None:
        rng = None if seed is None else [np.random.default_rng((seed, t)) for t in times]
        with metrics.span("phase.generation"):
            batch = generator.generate(times, rng)
    batch = ingest_batch(batch, chaos, metrics)
    cuts = np.searchsorted(batch.time, times).tolist() + [len(batch)]
    blamed = [
        passive is not None and not _defers(t, refresh, passive.config)
        for t in times
    ]
    blames = None
    if any(blamed):
        # One call over the blamed buckets' rows: the bucket is a key of
        # every aggregate.
        rows = batch
        if not all(blamed):
            rows = batch.take(np.nonzero(np.repeat(blamed, np.diff(cuts)))[0])
        blames = passive.assign_batch(rows, table)
    return summarize_buckets(times, batch, cuts, blamed, blames, seen, want_learn)


def ingest_batch(
    batch: QuartetBatch, chaos: FaultPlan | None, metrics: MetricsRegistry
) -> QuartetBatch:
    """Chaos injection (if planned), then always-on sanitization."""
    if chaos is not None:
        batch = inject_batch(chaos, batch, metrics)
    return sanitize_batch(batch, metrics)


def _defers(
    time: Timestamp,
    refresh: tuple[Timestamp, Timestamp] | None,
    config: BlameItConfig,
) -> bool:
    """Whether ``time``'s blames must wait for the flush's table: its
    window flushes in a later day. Windows are anchored at the run
    start; the last one flushes at ``end - 1``."""
    if refresh is None:
        return False
    start, end = refresh
    interval = config.run_interval_buckets
    flush = min(start + ((time - start) // interval + 1) * interval - 1, end - 1)
    return flush // BUCKETS_PER_DAY != time // BUCKETS_PER_DAY


@dataclass
class SegmentIssue:
    """A run of cloud- or client-blamed buckets for one key.

    Cloud issues are keyed by location, client issues by client AS —
    the blame at those granularities already names the faulty AS.
    """

    blame: Blame
    key: str | int
    location_id: str
    culprit_asn: int | None
    first_seen: Timestamp
    last_seen: Timestamp
    impact: float = 0.0
    votes_for: int = 0
    votes_total: int = 0
    sample_prefix: int | None = None
    probed: bool = False

    @property
    def duration(self) -> int:
        """Observed duration in buckets."""
        return self.last_seen - self.first_seen + 1

    @property
    def confidence(self) -> float:
        """Fraction of co-located blames agreeing with this category."""
        if self.votes_total == 0:
            return 0.0
        return self.votes_for / self.votes_total

    def state_dict(self) -> dict:
        """JSON-safe snapshot (checkpointing)."""
        return {
            "blame": self.blame.name,
            "key": self.key,
            "location_id": self.location_id,
            "culprit_asn": self.culprit_asn,
            "first_seen": self.first_seen,
            "last_seen": self.last_seen,
            "impact": self.impact,
            "votes_for": self.votes_for,
            "votes_total": self.votes_total,
            "sample_prefix": self.sample_prefix,
            "probed": self.probed,
        }

    @classmethod
    def from_state_dict(cls, state: dict) -> "SegmentIssue":
        """Inverse of :meth:`state_dict`."""
        key = state["key"]
        return cls(
            blame=Blame[state["blame"]],
            key=key if isinstance(key, str) else int(key),
            location_id=state["location_id"],
            culprit_asn=(
                None
                if state["culprit_asn"] is None
                else int(state["culprit_asn"])
            ),
            first_seen=int(state["first_seen"]),
            last_seen=int(state["last_seen"]),
            impact=float(state["impact"]),
            votes_for=int(state["votes_for"]),
            votes_total=int(state["votes_total"]),
            sample_prefix=(
                None
                if state["sample_prefix"] is None
                else int(state["sample_prefix"])
            ),
            probed=bool(state["probed"]),
        )


class _KeyedIssueTracker:
    """Stitches cloud/client blames into :class:`SegmentIssue` runs.

    Holds open runs only: :meth:`update` and :meth:`close_all` hand
    every run they close to the caller.
    """

    def __init__(self, blame: Blame) -> None:
        self.blame = blame
        self.open: dict[str | int, SegmentIssue] = {}

    @staticmethod
    def _key_and_culprit(
        blame: Blame, result: BlameResult, cloud_asn: int
    ) -> tuple[str | int, int]:
        quartet = result.quartet
        if blame is Blame.CLOUD:
            return quartet.location_id, cloud_asn
        return quartet.client_asn, quartet.client_asn

    def update(
        self, time: Timestamp, results: list[BlameResult], cloud_asn: int
    ) -> list[SegmentIssue]:
        """Fold one bucket's results; returns issues that just closed.

        A run ends once more than :data:`GAP_BUCKETS` buckets pass without a
        matching blame. The sweep that closes such runs comes first, so
        a fresh blame arriving after the gap (update may not have run
        for the quiet buckets in between) finds no open run and starts
        a new one.

        The sweep also runs *before* the current bucket's co-located
        vote totals are credited: an issue quiet past the gap is already
        over, and crediting it votes from a bucket it took no part in
        would dilute its confidence.
        """
        votes_total: Counter = Counter()
        for result in results:
            key, _ = self._key_and_culprit(self.blame, result, cloud_asn)
            votes_total[key] += 1
        closed_now: list[SegmentIssue] = []
        for key, issue in list(self.open.items()):
            if time - issue.last_seen > GAP_BUCKETS:
                del self.open[key]
                closed_now.append(issue)
        for result in results:
            if result.blame is not self.blame:
                continue
            key, culprit = self._key_and_culprit(self.blame, result, cloud_asn)
            issue = self.open.get(key)
            if issue is None:
                issue = SegmentIssue(
                    blame=self.blame,
                    key=key,
                    location_id=result.quartet.location_id,
                    culprit_asn=culprit,
                    first_seen=time,
                    last_seen=time,
                )
                self.open[key] = issue
            issue.last_seen = max(issue.last_seen, time)
            issue.impact += result.quartet.users
            issue.votes_for += 1
            if issue.sample_prefix is None or result.quartet.prefix24 < issue.sample_prefix:
                issue.sample_prefix = result.quartet.prefix24
                issue.location_id = result.quartet.location_id
        for key, issue in self.open.items():
            if key in votes_total:
                issue.votes_total += votes_total[key]
        return closed_now

    def close_all(self) -> list[SegmentIssue]:
        """Close every open run (end of a pipeline run); returns them."""
        remaining = list(self.open.values())
        self.open.clear()
        return remaining

    def state_dict(self) -> dict:
        """JSON-safe snapshot; ``open`` keeps its dict order."""
        return {"open": [issue.state_dict() for issue in self.open.values()]}

    def load_state_dict(self, state: dict) -> None:
        """Inverse of :meth:`state_dict`."""
        self.open = {}
        for raw in state["open"]:
            issue = SegmentIssue.from_state_dict(raw)
            self.open[issue.key] = issue


@dataclass(frozen=True, slots=True)
class LocalizedIssue:
    """An issue plus the verdict of its on-demand probe.

    ``category`` is ``"middle"`` for the standard §5 flow and
    ``"client-verify"`` for the reverse-traceroute extension's
    verification of client blames (a reverse-path middle fault makes a
    whole client AS look bad to the passive phase).
    """

    issue_key: tuple[str, ASPath]
    prefix24: int
    probed_at: Timestamp
    priority: float
    verdict: CulpritVerdict | None
    category: str = "middle"


@dataclass
class PipelineReport:
    """Everything a pipeline run produced.

    Attributes:
        start, end: Bucket range processed.
        total_quartets: Quartets seen (pre sample-gate).
        bad_quartets: Quartets that breached their region target.
        blame_counts: Overall category counts.
        blame_counts_by_day: Per-day category counts (Figure 8).
        closed_middle: Completed middle issues.
        closed_cloud, closed_client: Completed cloud/client issue runs.
            The three closed lists are the one place a closed issue
            lives: the trackers hold open runs only, and each run is
            appended here, in close order, as it closes.
        localized: Probe verdicts for middle issues.
        probes_on_demand: On-demand traceroutes issued.
        probes_background: Periodic + churn background traceroutes.
        probes_churn: The churn-triggered subset.
        probes_bootstrap: Initial baseline-sweep probes.
        alerts: Emitted top-k tickets.
        metrics: Snapshot of the run's :class:`~repro.obs.MetricsRegistry`
            (None when the pipeline ran with the default NullRegistry).
    """

    start: Timestamp
    end: Timestamp
    total_quartets: int = 0
    bad_quartets: int = 0
    blame_counts: Counter = field(default_factory=Counter)
    blame_counts_by_day: dict[int, Counter] = field(default_factory=dict)
    closed_middle: list[MiddleIssue] = field(default_factory=list)
    closed_cloud: list[SegmentIssue] = field(default_factory=list)
    closed_client: list[SegmentIssue] = field(default_factory=list)
    localized: list[LocalizedIssue] = field(default_factory=list)
    probes_on_demand: int = 0
    probes_background: int = 0
    probes_churn: int = 0
    probes_bootstrap: int = 0
    alerts: list[Alert] = field(default_factory=list)
    metrics: dict | None = None

    def blame_fractions(self) -> dict[Blame, float]:
        """Category shares among blamed quartets (sums to 1)."""
        total = sum(self.blame_counts.values())
        if total == 0:
            return {blame: 0.0 for blame in Blame}
        return {
            blame: self.blame_counts.get(blame, 0) / total for blame in Blame
        }

    def durations_by_category(self) -> dict[Blame, list[int]]:
        """Issue durations split by blame category (Figure 10)."""
        return {
            Blame.CLOUD: [issue.duration for issue in self.closed_cloud],
            Blame.MIDDLE: [issue.duration for issue in self.closed_middle],
            Blame.CLIENT: [issue.duration for issue in self.closed_client],
        }

    @property
    def probes_total(self) -> int:
        """All traceroutes the run issued."""
        return self.probes_on_demand + self.probes_background + self.probes_bootstrap


class WindowEntry(NamedTuple):
    """One pending bucket of the probe window.

    Attributes:
        time: The bucket.
        blames: Its worker-computed blames, or None when they are
            deferred to the flush.
        batch: Its sanitized quartets, when the blames are deferred.
        lease: The shared-memory lease the arrays live under (None
            unless they arrived over :mod:`repro.perf.transport`'s shm
            path); released by the flush.
    """

    time: Timestamp
    blames: BlameResultBatch | None
    batch: QuartetBatch | None
    lease: object | None = None


@dataclass
class RunState:
    """Everything an in-progress run carries between buckets.

    Produced by :meth:`BlameItPipeline.begin_run` and advanced one
    bucket at a time by :meth:`BlameItPipeline.step`; the batch
    :meth:`BlameItPipeline.run` loop and the streaming daemon
    (:mod:`repro.serve`) drive the same state through the same step,
    whichever driver computes the spans (:mod:`repro.perf.sharded`),
    which is what keeps their reports byte-identical.

    Attributes:
        report: The partial report being accumulated.
        end: Exclusive horizon bucket (the daemon may extend it on
            resume; flush cadence depends only on ``report.start``).
        entry: The bucket the run entered at (start, or the restored
            checkpoint's bucket) — checkpoints and chaos kills are
            suppressed there so a resumed run neither re-saves nor
            re-kills at the bucket it just restored from.
        cursor: The next bucket to process.
        table: The expected-RTT table currently held.
        table_dropped: Chaos withheld the table for the whole run.
        table_day: Day the held table was computed for.
        window: Pending (unflushed) probe-window entries, bucket-ordered;
            non-empty buckets only.
        restored_extra: Caller metadata from the restored checkpoint
            (empty on cold start; the daemon keeps its archive cursor
            here).
        ahead: Per-bucket views of the span the kernel computed, for
            buckets from ``cursor`` on, not folded yet, in time order
            (:meth:`~repro.core.summary.SpanSummary.buckets`; None for a
            bucket of an abandoned shard). They leave no trace in the
            pipeline's state until folded, and no checkpoint holds them.
        lease: The shared-memory lease ``ahead``'s arrays live under
            (:mod:`repro.perf.transport`), or None.
    """

    report: PipelineReport
    end: Timestamp
    entry: Timestamp
    cursor: Timestamp
    table: "ExpectedRTTTable"
    table_dropped: bool
    table_day: int
    window: list[WindowEntry] = field(default_factory=list)
    restored_extra: dict = field(default_factory=dict)
    ahead: list[BucketSummary | None] = field(default_factory=list)
    lease: object | None = None

    @property
    def window_times(self) -> list[int]:
        """Bucket times of the pending window (what a checkpoint stores)."""
        return [entry.time for entry in self.window]


class BlameItPipeline:
    """Drives the full two-phase workflow over a scenario."""

    def __init__(
        self,
        scenario: Scenario,
        config: BlameItConfig | None = None,
        learner: ExpectedRTTLearner | None = None,
        fixed_table: "ExpectedRTTTable | None" = None,
        seed: int = 1234,
        rng_per_bucket: bool = False,
        metrics: MetricsRegistry | None = None,
        chaos: FaultPlan | None = None,
        store: "CheckpointStore | None" = None,
        warm_start: bool = False,
    ) -> None:
        """
        Args:
            scenario: The world under observation (also the path oracle
                for the traceroute engine).
            config: Tunables; paper defaults when None.
            learner: Optionally pre-trained expected-RTT learner (re-use
                one across scenarios sharing a world).
            fixed_table: Use this expected-RTT table verbatim instead of
                learning (lets many scenarios over one world share a
                single training pass, e.g. the 88-incident validation).
            seed: Seed for probe measurement noise (and, with
                ``rng_per_bucket``, for quartet generation).
            rng_per_bucket: Draw each bucket's quartets from a generator
                seeded by ``(seed, bucket)`` instead of the scenario's
                shared stream. Makes bucket ``t``'s quartets independent
                of which buckets were generated before it — the property
                the sharded driver relies on to match this sequential
                pipeline byte-for-byte.
            metrics: Observability registry threaded through every phase
                (see :mod:`repro.obs`); the default NullRegistry records
                nothing at ~zero cost, and the run's report then carries
                ``metrics=None``.
            chaos: Deterministic fault plan (see :mod:`repro.chaos`).
                None — or a plan with every rate at zero — leaves every
                code path an exact no-op, byte-identical to a run
                without the parameter.
            store: Checkpoint store (see :mod:`repro.store`). When set,
                the run snapshots its state at every day boundary.
                Requires ``rng_per_bucket`` (resume regenerates the
                pending window's buckets, which only per-bucket seeding
                makes position-independent).
            warm_start: Resume from the store's newest checkpoint (cold
                start if the store is empty). Requires ``store``.
        """
        self.scenario = scenario
        self.config = config or BlameItConfig()
        self.metrics = metrics or NULL_REGISTRY
        self.chaos = chaos if chaos is not None and chaos.enabled else None
        self.fixed_table = fixed_table
        self.learner = learner or ExpectedRTTLearner(self.config.history_days)
        self.passive = PassiveLocalizer(
            self.config, scenario.world.targets, metrics=self.metrics
        )
        self.engine = TracerouteEngine(scenario, np.random.default_rng(seed))
        self.baselines = BaselineStore()
        self.reverse_baselines = (
            ReverseBaselineStore() if self.config.use_reverse_traceroutes else None
        )
        self.background = BackgroundProber(
            engine=self.engine,
            store=self.baselines,
            interval_buckets=self.config.background_interval_buckets,
            churn_triggered=self.config.churn_triggered_probes,
            reverse_store=self.reverse_baselines,
            metrics=self.metrics,
            chaos=self.chaos,
        )
        self.duration_predictor = DurationPredictor()
        self.client_predictor = ClientCountPredictor(self.config.client_history_days)
        self.tracker = IssueTracker()
        self.on_demand = OnDemandProber(
            engine=self.engine,
            duration_predictor=self.duration_predictor,
            client_predictor=self.client_predictor,
            budget=ProbeBudget(self.config.probe_budget_per_window),
            metrics=self.metrics,
            chaos=self.chaos,
            planner=make_planner(self.config),
        )
        self.cloud_tracker = _KeyedIssueTracker(Blame.CLOUD)
        self.client_tracker = _KeyedIssueTracker(Blame.CLIENT)
        self.seed = seed
        self.rng_per_bucket = rng_per_bucket
        if warm_start and store is None:
            raise ValueError("warm_start requires a checkpoint store")
        if store is not None and not rng_per_bucket:
            raise ValueError("checkpointing requires rng_per_bucket")
        self._store = store
        self.warm_start = warm_start
        # Per-scenario generator state: id(scenario) → (scenario,
        # BatchQuartetGenerator, seen pair codes). The scenario reference
        # keeps the id stable; the seen set lets the fold skip
        # register_target for pairs it already offered (re-offering
        # returns False — same outcome, no RNG either way).
        self._generators: dict[int, tuple[Scenario, object, set[int]]] = {}
        # Pair-code → ⟨location, middle⟩ decode cache, valid for the
        # vocabulary objects it was filled from (see _pair_keys).
        self._decode_vocab: tuple = (None, None)
        self._decode: dict[int, tuple[str, ASPath]] = {}

    # -- warmup ------------------------------------------------------------

    def warmup(
        self,
        start: Timestamp,
        end: Timestamp,
        stride: int = 6,
        scenario: Scenario | None = None,
    ) -> None:
        """Train the learner and predictors on historical buckets.

        Args:
            start, end: Historical bucket range (typically the 14 days
                before the measured run).
            stride: Sample every ``stride``-th bucket — medians and
                client-count averages are insensitive to subsampling.
            scenario: History source; defaults to the live scenario.
                Incident benches pass a fault-free sibling scenario so 88
                runs can share one trained learner.
        """
        generator, seen = self._generator_for(scenario or self.scenario)
        times = range(start, end, max(1, stride))
        for at in range(0, len(times), SPAN_BUCKETS):
            for summary in summarize_span(
                times[at : at + SPAN_BUCKETS], generator, None, seen, True,
                metrics=self.metrics,
            ).buckets():
                self._observe_bucket(summary, seed_new=False)

    # -- the run -------------------------------------------------------------

    def run(self, start: Timestamp, end: Timestamp) -> PipelineReport:
        """Process buckets ``[start, end)`` and report.

        A bootstrap probe sweep seeds baselines for all registered
        targets at ``start`` (production would have these from the
        steady-state background schedule).

        The one run loop, a thin driver over the incremental step API:
        ``begin_run`` cold-starts or restores, ``step`` folds one bucket
        per call (and, at the first bucket of each span, gets the span
        through :meth:`_span_ahead`), ``finish_run`` flushes and
        finalizes. Quartets stay
        :class:`~repro.core.quartet.QuartetBatch` columns end to end;
        per-row records are materialized only for the bad rows that
        survive Algorithm 1 (inside :meth:`flush_window`).

        With a checkpoint store attached, the loop snapshots its state
        at every day boundary and (under ``warm_start``) resumes from
        the newest snapshot; the resumed run's report stays
        byte-identical to an uninterrupted one (see DESIGN.md §6). The
        streaming daemon (:mod:`repro.serve`) drives the same step API
        on its own checkpoint cadence.
        """
        state = self.begin_run(start, end)
        for time in range(state.cursor, end):
            self._refresh_table(state, time)
            self._maybe_checkpoint(state, time)
            self.step(state)
        return self.finish_run(state)

    # -- the incremental step API --------------------------------------------

    def begin_run(
        self,
        start: Timestamp,
        end: Timestamp,
        regenerate=None,
    ) -> RunState:
        """Open an incremental run over ``[start, end)``.

        Cold-starts (bootstrap probe sweep, fresh table) or — with a
        store attached and ``warm_start`` — restores the newest
        checkpoint, including the pending probe window (as deferred
        entries: the flush blames them with the table it holds then,
        as it does for every bucket the sequential driver folds).

        Args:
            start, end: Bucket range; a restored run may extend a
                checkpointed horizon (``end`` beyond the stored run's).
            regenerate: Optional override rebuilding the pending
                window's *ingested* batches from their bucket times
                after a restore. Defaults to regenerating from the
                scenario; a daemon fed by an external source passes a
                replay from that source instead.
        """
        restored = self._restore_run(start, end)
        if restored is None:
            report = PipelineReport(start=start, end=end)
            self._bootstrap_baselines(start, report)
            table, table_dropped = self._starting_table()
            return RunState(
                report=report,
                end=end,
                entry=start,
                cursor=start,
                table=table,
                table_dropped=table_dropped,
                table_day=start // BUCKETS_PER_DAY,
            )
        table, table_dropped = self._resume_table(restored)
        state = RunState(
            report=restored.report,
            end=end,
            entry=restored.time,
            cursor=restored.time,
            table=table,
            table_dropped=table_dropped,
            table_day=restored.time // BUCKETS_PER_DAY,
            restored_extra=restored.extra,
        )
        times = restored.window_times
        batches = (regenerate or self._regenerate_window)(times)
        state.window = [
            WindowEntry(time, None, batch) for time, batch in zip(times, batches)
        ]
        return state

    def step(self, state: RunState, batch: QuartetBatch | None = None) -> None:
        """Fold the bucket at ``state.cursor`` and advance it.

        Args:
            state: The run opened by :meth:`begin_run`.
            batch: The bucket's raw (pre-chaos, pre-sanitize) quartets
                from an external source — a span of one, which drops
                ``state.ahead``; None generates from the scenario — the
                batch loop's path.

        A generated bucket's summary comes from ``state.ahead``; when
        that is empty, :meth:`_span_ahead` first fills it with the views
        of the span starting at this bucket. Either way the summary goes
        through :meth:`fold_bucket`. An external batch carries
        batch-local vocabularies, so its pair codes compare with no
        earlier bucket's: every pair is offered to ``register_target``,
        which knows the ones it has.
        """
        time = state.cursor
        self._refresh_table(state, time)
        lease = None
        if batch is not None:
            state.ahead = []
            (summary,) = self._summarize(
                state, [time], batch=batch, seen=set()
            ).buckets()
        else:
            if not state.ahead:
                state.ahead = self._span_ahead(state, time)
            summary, lease = state.ahead.pop(0), state.lease
            if summary is not None:
                _, seen = self._generator_for(self.scenario)
                seen.update(summary.pair_codes[summary.new_mask].tolist())
        self.fold_bucket(state, time, summary, lease)
        state.cursor = time + 1

    def _span_ahead(
        self, state: RunState, time: Timestamp
    ) -> list[BucketSummary | None]:
        """The views of the span from ``time`` to :func:`span_stop` (or
        the chaos plan's kill bucket, if nearer), computed in process.

        The one seam where drivers differ: the sharded driver overrides
        it to take spans from its worker pool (and sets
        ``state.lease``). The kernel marks new pairs in a copy of the
        seen set; :meth:`step` commits each bucket's as it folds it.
        """
        _, seen = self._generator_for(self.scenario)
        stop = self._before_kill(time, span_stop(time, state.end))
        return self._summarize(state, range(time, stop), seen=set(seen)).buckets()

    def _before_kill(self, time: Timestamp, stop: Timestamp) -> Timestamp:
        """``stop``, or the chaos plan's kill bucket if it lies between
        ``time`` and ``stop``: no span is computed past a planned kill."""
        kill = self.chaos.kill_at_bucket if self.chaos is not None else None
        return min(stop, kill) if kill is not None and kill > time else stop

    def _refresh_bounds(
        self, state: RunState
    ) -> tuple[Timestamp, Timestamp] | None:
        """The run's ``(start, end)`` when the held table refreshes at
        day boundaries (no fixed table, none withheld), else None — the
        span kernel's ``refresh``."""
        if self.fixed_table is None and not state.table_dropped:
            return state.report.start, state.end
        return None

    def _summarize(
        self,
        state: RunState,
        times: Sequence[Timestamp],
        *,
        seen: set[int],
        batch: QuartetBatch | None = None,
    ) -> SpanSummary:
        """The span kernel under this pipeline's run settings."""
        return summarize_span(
            times,
            None if batch is not None else self._generator_for(self.scenario)[0],
            self.seed if self.rng_per_bucket else None,
            seen,
            self.fixed_table is None,
            batch=batch,
            chaos=self.chaos,
            metrics=self.metrics,
            passive=self.passive,
            table=state.table,
            refresh=self._refresh_bounds(state),
        )

    def fold_bucket(
        self,
        state: RunState,
        time: Timestamp,
        summary: BucketSummary | None,
        lease=None,
    ) -> None:
        """The per-bucket kernel (Figure 7), behind every driver.

        Counters, learning, client counts and probe targets
        (:meth:`_observe_bucket`), background probing, BGP updates, the
        window append, and — every ``run_interval_buckets``, counted
        from ``report.start`` so a resumed run flushes where the
        uninterrupted one would have — :meth:`flush_window`. Buckets
        must arrive in time order; the caller advances ``state.cursor``.

        Args:
            state: The run opened by :meth:`begin_run`.
            time: The bucket.
            summary: Its summary, from the span kernel in :meth:`step`
                or in a shard worker; None when the bucket's shard was
                abandoned (the bucket still happened, its quartets are
                lost).
            lease: The shared-memory lease ``summary``'s arrays live
                under, if any; retained while the bucket waits in the
                window and released by the flush.
        """
        metrics = self.metrics
        report = state.report
        metrics.counter("pipeline.buckets").inc()
        if summary is not None:
            report.total_quartets += summary.n_quartets
            metrics.counter("pipeline.quartets").inc(summary.n_quartets)
            if summary.n_quartets:
                self._observe_bucket(summary, seed_new=True)
                if lease is not None:
                    lease.retain()
                state.window.append(
                    WindowEntry(time, summary.blames, summary.deferred_batch, lease)
                )
        self.background.run_bucket(time)
        for update in self.scenario.updates_between(time, time + 1):
            self.background.on_bgp_update(update)
        if (time + 1 - report.start) % self.config.run_interval_buckets == 0:
            self.flush_window(state, time)

    def _observe_bucket(self, summary: BucketSummary, *, seed_new: bool) -> None:
        """Learning, client counts and probe targets from one summary.

        Learning only queues the rows: the learner folds them when its
        queue fills or the next read needs them (the day-boundary table
        refresh). Order matters once: pairs are walked in
        first-occurrence row order — each seed probe draws measurement
        noise from the engine's shared RNG.
        ``register_target`` re-checks novelty, so a pair some other
        summarizer (another shard, a restored run's empty seen set) or
        a churn trigger already registered seeds nothing.
        """
        time = summary.time
        batch = summary.batch
        if summary.learn is not None:
            with self.metrics.span("phase.learning"):
                self.learner.observe_batch(summary.learn)
        keys = self._pair_keys(batch, summary.pair_codes.tolist())
        self.client_predictor.observe_bucket(
            keys, time, summary.pair_users.tolist()
        )
        prefixes = summary.new_prefixes.tolist()
        for i in np.nonzero(summary.new_mask)[0].tolist():
            location_id, middle = keys[i]
            if (
                self.background.register_target(location_id, middle, prefixes[i])
                and seed_new
            ):
                self.background.seed_target(location_id, middle, prefixes[i], time)

    def _pair_keys(
        self, batch: QuartetBatch, codes: list[int]
    ) -> list[tuple[str, ASPath]]:
        """Decode pair codes against ``batch``'s vocabularies.

        Decoded keys are shared across buckets for as long as batches
        arrive with the same vocabulary objects (a generator's, or the
        sharded driver's shared ones), so the client predictor's
        per-bucket history holds one tuple per pair rather than one per
        pair per bucket. Only the codes the cache misses are decoded;
        the lookups run at C level.
        """
        if (
            batch.locations is not self._decode_vocab[0]
            or batch.middles is not self._decode_vocab[1]
        ):
            self._decode_vocab = (batch.locations, batch.middles)
            self._decode = {}
        decode = self._decode
        for code in set(codes).difference(decode):
            decode[code] = batch.pair_key(code)
        return list(map(decode.__getitem__, codes))

    def flush_window(self, state: RunState, now: Timestamp) -> None:
        """Blame the pending window and run the active phase on it.

        Worker-computed blames are unpacked as they are; deferred
        entries are blamed here with the table held *now* — which is
        what makes a window that straddles a day-boundary refresh come
        out the same from every driver. Each entry's shared-memory
        lease is released afterwards: the materialized results are
        plain-Python records, so nothing references the segment once
        the flush returns.
        """
        entries, state.window = state.window, []
        try:
            results: list[BlameResult] = []
            with self.metrics.span("phase.passive"):
                for entry in entries:
                    if entry.blames is not None:
                        results.extend(entry.blames.to_results())
                    else:
                        results.extend(
                            self.passive.assign_batch(
                                entry.batch, state.table
                            ).to_results()
                        )
            self._process_results(now, results, state.report)
        finally:
            for entry in entries:
                if entry.lease is not None:
                    entry.lease.release()

    def finish_run(self, state: RunState) -> PipelineReport:
        """Flush the pending window, finalize, and return the report."""
        if state.window:
            self.flush_window(state, state.end - 1)
        self._finalize(state.report)
        return state.report

    def _refresh_table(self, state: RunState, time: Timestamp) -> None:
        """Refresh the held table at day boundaries (idempotent per day).

        Called both by :meth:`step` and by drivers immediately before a
        checkpoint, so the table persisted at a day-boundary save is the
        refreshed one, not the outgoing day's. The snapshot read the
        trailing ``history_days`` and days only move forward, so
        everything older is dropped here — a long-running daemon (and
        each of its checkpoints) holds one window of reservoirs, not
        every day it ever saw.
        """
        day = time // BUCKETS_PER_DAY
        if day != state.table_day and self._refresh_bounds(state) is not None:
            state.table = self.learner.table(as_of_day=day)
            state.table_day = day
            self.learner.prune_before(day - self.learner.history_days + 1)

    # -- checkpoint/resume ---------------------------------------------------

    def checkpoint(
        self, state: RunState, time: Timestamp, extra: dict | None = None
    ) -> None:
        """Save ``state`` at bucket ``time`` (before it is processed) to
        the attached store; a no-op without one. The held table is saved
        unless restore can rebuild it (fixed table, chaos-withheld
        table); ``extra`` is the caller's metadata (see
        :meth:`CheckpointStore.save <repro.store.CheckpointStore.save>`).
        """
        if self._store is None:
            return
        rebuilt = self._refresh_bounds(state) is None
        self._store.save(
            self,
            time,
            state.window_times,
            state.report,
            table=None if rebuilt else state.table,
            extra=extra,
        )

    def _restore_run(self, start: Timestamp, end: Timestamp) -> "RestoredRun | None":
        """The newest checkpoint to resume from, or None for cold start."""
        if self._store is None or not self.warm_start:
            return None
        return self._store.restore(self, start, end)

    def _resume_table(
        self, restored: "RestoredRun"
    ) -> tuple[ExpectedRTTTable, bool]:
        """The expected-RTT table as of the resume bucket.

        The checkpoint persists the held table verbatim (mid-day it
        cannot be recomputed: ``learner.table(as_of_day=d)`` folds in
        day ``d``'s partial observations, and the restored learner has
        more of them than the interrupted run had at save time). A
        day-boundary checkpoint without a table record — fixed-table and
        chaos-withheld runs, which rebuild theirs directly — falls back
        to recomputing from the learner, which at a boundary reproduces
        the exact table the interrupted run was holding.
        """
        if self.chaos is not None and self.chaos.drop_expected_table:
            self.metrics.counter("chaos.baseline.table_dropped").inc()
            return ExpectedRTTTable(), True
        if self.fixed_table is not None:
            return self.fixed_table, False
        if restored.table is not None:
            return restored.table, False
        return (
            self.learner.table(as_of_day=restored.time // BUCKETS_PER_DAY),
            False,
        )

    def _maybe_checkpoint(self, state: RunState, time: Timestamp) -> None:
        """Snapshot at day boundaries; fire a planned chaos kill.

        Skipped at the run's entry bucket: a cold start has nothing to
        save, and a resumed run must neither re-save nor re-kill at the
        very bucket it just restored from.
        """
        if time <= state.entry:
            return
        if time % BUCKETS_PER_DAY == 0:
            self.checkpoint(state, time)
        if self.chaos is not None and self.chaos.kill_at_bucket == time:
            raise ChaosKill(f"chaos kill at bucket {time}")

    def _regenerate_window(self, times: list[int]) -> list[QuartetBatch]:
        """Rebuild the pending (unflushed) window's ingested batches
        from the scenario after a restore.

        Deterministic: per-bucket RNG seeding plus identity-keyed chaos
        injection make each bucket's post-sanitize batch a pure function
        of ⟨scenario, seed, bucket⟩. Report counters are untouched — the
        checkpointed report already accounts for these buckets.
        """
        if not times:
            return []
        span = summarize_span(
            times,
            self._generator_for(self.scenario)[0],
            self.seed,
            set(),
            False,
            chaos=self.chaos,
            metrics=self.metrics,
        )
        return [summary.deferred_batch for summary in span.buckets()]

    # -- internals -----------------------------------------------------------

    def _generator_for(self, source: Scenario):
        """The cached batch generator (and seen-pair set) for a scenario."""
        entry = self._generators.get(id(source))
        if entry is None or entry[0] is not source:
            entry = (source, BatchQuartetGenerator(source), set())
            self._generators[id(source)] = entry
        return entry[1], entry[2]

    def _starting_table(self) -> tuple[ExpectedRTTTable, bool]:
        """The run's expected-RTT table, plus whether chaos withheld it.

        A withheld table models a bootstrap where the learning job's
        output is unavailable: Algorithm 1 then runs against an empty
        table and degrades to Insufficient blames (no aggregate has a
        known expected RTT) instead of crashing. The per-day refresh is
        disabled too — the table stays gone for the whole run.
        """
        if self.chaos is not None and self.chaos.drop_expected_table:
            self.metrics.counter("chaos.baseline.table_dropped").inc()
            return ExpectedRTTTable(), True
        return self.fixed_table or self.learner.table(), False

    def _bootstrap_baselines(self, start: Timestamp, report: PipelineReport) -> None:
        before = self.engine.probes_issued
        chaos = self.chaos
        for (location_id, middle), prefix in sorted(
            self.background._targets.items()  # noqa: SLF001 - same package
        ):
            probe_time = max(0, start - 1)
            if chaos is not None:
                fate = chaos.baseline_fate(location_id, prefix)
                if fate == "missing":
                    self.metrics.counter("chaos.baseline.missing").inc()
                    continue
                if fate == "stale":
                    self.metrics.counter("chaos.baseline.stale").inc()
                    probe_time = max(
                        0, probe_time - chaos.baseline_stale_age_buckets
                    )
            result = self.engine.issue(location_id, prefix, probe_time)
            if result is not None:
                self.baselines.put(result)
            if self.reverse_baselines is not None:
                reverse = self.engine.issue_reverse(
                    location_id, prefix, probe_time
                )
                if reverse is not None:
                    self.reverse_baselines.put(reverse)
        if self.reverse_baselines is not None:
            self._bootstrap_reverse_baselines(start)
        report.probes_bootstrap = self.engine.probes_issued - before

    def _bootstrap_reverse_baselines(self, start: Timestamp) -> None:
        """Seed one reverse baseline per client AS.

        Reverse paths depend only on the client AS, so one rich-client
        measurement per AS gives every later bidirectional comparison a
        baseline — regardless of which of the AS's /24s the on-demand
        probe targets.
        """
        scenario = self.scenario
        world = scenario.world
        for asn in world.population.asns:
            client = world.population.in_as(asn)[0]
            location = world.assignments[client.prefix24].primary
            reverse = self.engine.issue_reverse(
                location.location_id, client.prefix24, max(0, start - 1)
            )
            if reverse is not None:
                self.reverse_baselines.put(reverse)

    def _process_results(
        self,
        now: Timestamp,
        results: list[BlameResult],
        report: PipelineReport,
    ) -> None:
        """Fold one window's blame results through the active phase:
        tracking, budgeted probing, localization."""
        report.bad_quartets += len(results)
        metrics = self.metrics
        day = now // BUCKETS_PER_DAY
        day_counter = report.blame_counts_by_day.setdefault(day, Counter())
        by_bucket: dict[Timestamp, list[BlameResult]] = {}
        for result in results:
            report.blame_counts[result.blame] += 1
            day_counter[result.blame] += 1
            by_bucket.setdefault(result.quartet.time, []).append(result)
        open_issues: list[MiddleIssue] = []
        cloud_asn = self.scenario.world.cloud_asn
        with metrics.span("phase.tracking"):
            for time in sorted(by_bucket):
                bucket_results = by_bucket[time]
                open_issues, closed = self.tracker.update(time, bucket_results)
                self._record_closed_middle(closed, report)
                report.closed_cloud.extend(
                    self.cloud_tracker.update(time, bucket_results, cloud_asn)
                )
                report.closed_client.extend(
                    self.client_tracker.update(time, bucket_results, cloud_asn)
                )
        with metrics.span("phase.probing"):
            # Co-anomaly history first, so targets that co-occur for the
            # first time in this very window are already clusterable.
            self.on_demand.observe_anomalies(
                {
                    (r.quartet.location_id, r.quartet.middle)
                    for r in results
                    if r.blame is Blame.MIDDLE
                }
            )
            probed = self.on_demand.probe_window(now, open_issues)
        with metrics.span("phase.localization"):
            for probe in probed:
                localized = self._localize(probe)
                report.localized.append(localized)
                for member_key in probe.attributed:
                    report.localized.append(
                        dataclasses.replace(
                            localized,
                            issue_key=member_key,
                            category="cluster-attributed",
                        )
                    )
                    metrics.counter("probe.plan.attributed").inc()
                    if (
                        localized.verdict is not None
                        and localized.verdict.asn is not None
                    ):
                        metrics.counter("probe.plan.attribution_hits").inc()
            if self.reverse_baselines is not None:
                self._verify_client_issues(now, report)

    def _localize(self, probe: ProbedIssue) -> LocalizedIssue:
        """Compare the on-demand probe against pre-issue baselines.

        The newest baseline is preferred, but a baseline measured during
        an undetected fault (e.g. a churn-triggered probe racing the
        fault's onset) shows no inflation; older candidates are consulted
        and the most incriminating confident verdict wins.
        """
        verdict = None
        if probe.result is not None:
            location_id, middle = probe.issue_key
            reverse_pair = self._reverse_pair(probe)
            candidates = self.baselines.get_candidates(
                location_id, probe.prefix24, middle, before=probe.issue_first_seen
            )
            # Newest and oldest candidate; with a single baseline the two
            # slices name the same measurement, which must be consulted
            # once, not twice (each comparison costs a traceroute diff —
            # and a reverse-path diff under the extension).
            for baseline in candidates[:1] + candidates[1:][-1:]:
                if reverse_pair is not None:
                    candidate = localize_bidirectional(
                        baseline, probe.result, *reverse_pair
                    ).verdict
                else:
                    candidate = localize_culprit(baseline, probe.result)
                if verdict is None or self._verdict_rank(candidate) > self._verdict_rank(
                    verdict
                ):
                    verdict = candidate
        return LocalizedIssue(
            issue_key=probe.issue_key,
            prefix24=probe.prefix24,
            probed_at=probe.time,
            priority=probe.priority,
            verdict=verdict,
        )

    def _verify_client_issues(self, now: Timestamp, report: PipelineReport) -> None:
        """Reverse-verify open client blames (§5.1 extension).

        A fault on the client's upstream *reverse* path makes every /24
        of the client AS look bad, which the passive phase attributes to
        the client. A rich-client reverse traceroute either confirms the
        client hypothesis or exposes the reverse-middle AS actually
        responsible.
        """
        for issue in list(self.client_tracker.open.values()):
            if issue.probed or issue.sample_prefix is None:
                continue
            if not self.on_demand.budget.try_consume(issue.location_id):
                self.metrics.counter("probe.client_verify.denied").inc()
                continue
            issue.probed = True
            forward_current = self.engine.issue(
                issue.location_id, issue.sample_prefix, now
            )
            self.on_demand.probes_issued += 1
            self.metrics.counter("probe.client_verify.issued").inc()
            if forward_current is None:
                continue
            probe = ProbedIssue(
                issue_key=(issue.location_id, middle_asns(forward_current.path)),
                prefix24=issue.sample_prefix,
                time=now,
                result=forward_current,
                priority=issue.impact,
                issue_first_seen=issue.first_seen,
            )
            localized = self._localize(probe)
            report.localized.append(
                dataclasses.replace(localized, category="client-verify")
            )

    def _reverse_pair(self, probe: ProbedIssue):
        """(reverse baseline, reverse current) when the extension is on."""
        if self.reverse_baselines is None or probe.result is None:
            return None
        location_id, _ = probe.issue_key
        current = self.engine.issue_reverse(location_id, probe.prefix24, probe.time)
        if current is None:
            return None
        # Reverse baselines are location-agnostic; normalize the current
        # measurement so the per-AS comparison accepts the pair.
        current = dataclasses.replace(
            current, location_id=ReverseBaselineStore._ANY_LOCATION
        )
        baseline = self.reverse_baselines.get(
            location_id,
            probe.prefix24,
            current.path,  # reverse store keys on the full path
            before=probe.issue_first_seen,
        )
        if baseline is None:
            return None
        return baseline, current

    @staticmethod
    def _verdict_rank(verdict: CulpritVerdict) -> tuple[bool, float]:
        """Order verdicts: named culprit first, then effective increase.

        A verdict built on a mismatched (stale) baseline is discounted
        rather than disqualified: a large increase seen against an old
        baseline still outweighs a small increase against a fresh one
        (the small one is often a co-occurring secondary effect, e.g.
        client-side evening congestion).
        """
        discount = 1.0 if verdict.paths_match else 0.6
        return (verdict.asn is not None, verdict.delta_ms * discount)

    @staticmethod
    def best_verdicts_by_key(
        localized: list[LocalizedIssue],
    ) -> dict[tuple[str, ASPath], CulpritVerdict]:
        """The most trustworthy verdict per ⟨location, BGP path⟩.

        A key can accumulate several probes across an issue's flickering
        lifetime; a confident aligned-path verdict must not be shadowed
        by a later stale-baseline one.
        """
        best: dict[tuple[str, ASPath], CulpritVerdict] = {}
        for item in localized:
            verdict = item.verdict
            if verdict is None or verdict.asn is None:
                continue
            current = best.get(item.issue_key)
            if current is None or BlameItPipeline._verdict_rank(
                verdict
            ) > BlameItPipeline._verdict_rank(current):
                best[item.issue_key] = verdict
        return best

    def _record_closed_middle(
        self, closed: list[MiddleIssue], report: PipelineReport
    ) -> None:
        """Hand middle issues the tracker just closed to the report,
        and their durations to the duration predictor."""
        for issue in closed:
            report.closed_middle.append(issue)
            self.metrics.counter("tracker.middle.closed").inc()
            self.duration_predictor.observe(issue.duration, key=issue.key)

    def _finalize(self, report: PipelineReport) -> None:
        self._record_closed_middle(self.tracker.close_all(), report)
        report.closed_cloud.extend(self.cloud_tracker.close_all())
        report.closed_client.extend(self.client_tracker.close_all())
        report.probes_on_demand = self.on_demand.probes_issued
        report.probes_background = self.background.probes_total
        report.probes_churn = self.background.probes_churn
        with self.metrics.span("phase.alerting"):
            report.alerts = self._build_alerts(report)
        metrics = self.metrics
        metrics.counter("tracker.cloud.closed").inc(len(report.closed_cloud))
        metrics.counter("tracker.client.closed").inc(len(report.closed_client))
        metrics.gauge("probe.budget.denied_total").set(
            self.on_demand.budget.denied_total
        )
        if metrics.enabled:
            report.metrics = metrics.snapshot()

    @staticmethod
    def middle_alert(issue, verdict=None) -> Alert:
        """The alert for one closed middle-segment issue (verdict from
        :meth:`best_verdicts_by_key`, when active probing localized it)."""
        return Alert(
            blame=Blame.MIDDLE,
            location_id=issue.location_id,
            middle=issue.middle,
            culprit_asn=verdict.asn if verdict else None,
            first_seen=issue.first_seen,
            duration=issue.duration,
            impact=issue.total_client_time,
            confidence=1.0 if verdict and verdict.confident else 0.5,
            detail=(
                f"Middle-segment issue on {issue.location_id} via "
                f"{'-'.join(f'AS{a}' for a in issue.middle) or 'direct'}"
            ),
        )

    @staticmethod
    def segment_alert(segment_issue) -> Alert:
        """The alert for one closed cloud- or client-segment issue."""
        return Alert(
            blame=segment_issue.blame,
            location_id=segment_issue.location_id,
            middle=(),
            culprit_asn=segment_issue.culprit_asn,
            first_seen=segment_issue.first_seen,
            duration=segment_issue.duration,
            impact=segment_issue.impact,
            confidence=segment_issue.confidence,
            detail=(
                f"{segment_issue.blame} issue at key "
                f"{segment_issue.key} ({segment_issue.duration} buckets)"
            ),
        )

    def _build_alerts(self, report: PipelineReport) -> list[Alert]:
        manager = AlertManager(ALERT_TOP_K)
        verdict_by_key = self.best_verdicts_by_key(report.localized)
        for issue in report.closed_middle:
            manager.add(self.middle_alert(issue, verdict_by_key.get(issue.key)))
        for segment_issue in report.closed_cloud + report.closed_client:
            manager.add(self.segment_alert(segment_issue))
        return manager.tickets()
