"""Prioritized on-demand traceroutes for middle-segment issues (§5.3).

Middle-segment blames only identify *a set* of candidate ASes; the active
phase narrows them to one. Because probing every path continuously is
prohibitive (≈200M traceroutes/day at production scale), BlameIt:

1. tracks middle issues as ⟨cloud location, BGP path⟩ aggregates across
   consecutive buckets,
2. scores each open issue by its predicted client-time product
   (expected remaining duration × predicted impacted clients),
3. probes the top issues within a per-location budget, one traceroute per
   issue, while the issue is still ongoing.

Which issues actually receive a traceroute is delegated to a probe
planner (:mod:`repro.core.probeplan`): the default ``"paper"`` planner
reproduces §5.3 exactly, while the ``"clustered"`` planner groups
targets whose anomalies co-occur and spends one budget slot per group,
attributing the verdict back to every member.

Paper provenance: §5.3 (impact-ranked on-demand probing, per-location
budget), §5.2 (middle blames name a set of candidate ASes that active
probing must narrow).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.chaos import FaultPlan
from repro.cloud.traceroute import TracerouteEngine, TracerouteResult
from repro.core.prediction import ClientCountPredictor, DurationPredictor
from repro.core.probeplan import CoAnomalyHistory, PaperPlanner, ProbePlanner
from repro.net.addressing import Prefix24
from repro.net.asn import ASPath
from repro.net.bgp import Timestamp
from repro.obs import NULL_REGISTRY, MetricsRegistry

#: Issue identity: the aggregate the paper probes per.
IssueKey = tuple[str, ASPath]  # (location_id, middle path)

#: Buckets of silence an issue run survives: a run ends once strictly
#: more than this many buckets pass without a matching blame. Both the
#: middle tracker and the cloud/client trackers read it.
GAP_BUCKETS = 1


@dataclass
class MiddleIssue:
    """One ongoing middle-segment issue.

    Attributes:
        location_id: Serving cloud location.
        middle: The shared middle-segment AS path.
        first_seen: Bucket when the issue first appeared.
        last_seen: Most recent bucket with middle-blamed quartets.
        prefixes: Affected /24s observed so far.
        users_by_bucket: Bucket → affected client IPs in that bucket.
        probed: Whether an on-demand traceroute was already spent on it.
        serial: Unique id assigned by the tracker (stable issue identity
            even when the same ⟨location, path⟩ key recurs later).
    """

    location_id: str
    middle: ASPath
    first_seen: Timestamp
    last_seen: Timestamp
    prefixes: set[Prefix24] = field(default_factory=set)
    users_by_bucket: dict[Timestamp, int] = field(default_factory=dict)
    probed: bool = False
    serial: int = 0

    @property
    def key(self) -> IssueKey:
        """The ⟨location, BGP path⟩ identity."""
        return (self.location_id, self.middle)

    def elapsed(self, now: Timestamp) -> int:
        """Buckets since the issue started, inclusive of the current one."""
        return now - self.first_seen + 1

    @property
    def duration(self) -> int:
        """Observed duration in buckets (first to last seen, inclusive)."""
        return self.last_seen - self.first_seen + 1

    @property
    def total_client_time(self) -> float:
        """Measured client-time product accumulated so far."""
        return float(sum(self.users_by_bucket.values()))

    def representative_prefix(self) -> Prefix24:
        """A stable target /24 for traceroutes into this issue."""
        return min(self.prefixes)

    def state_dict(self) -> dict:
        """JSON-safe snapshot. ``users_by_bucket`` serializes as pairs —
        its keys are ints, which a JSON dict would silently coerce to
        strings."""
        return {
            "location_id": self.location_id,
            "middle": list(self.middle),
            "first_seen": self.first_seen,
            "last_seen": self.last_seen,
            "prefixes": sorted(self.prefixes),
            "users_by_bucket": [
                [time, users] for time, users in self.users_by_bucket.items()
            ],
            "probed": self.probed,
            "serial": self.serial,
        }

    @classmethod
    def from_state_dict(cls, state: dict) -> "MiddleIssue":
        return cls(
            location_id=state["location_id"],
            middle=tuple(int(asn) for asn in state["middle"]),
            first_seen=int(state["first_seen"]),
            last_seen=int(state["last_seen"]),
            prefixes={int(prefix) for prefix in state["prefixes"]},
            users_by_bucket={
                int(time): int(users)
                for time, users in state["users_by_bucket"]
            },
            probed=bool(state["probed"]),
            serial=int(state["serial"]),
        )


class IssueTracker:
    """Stitches per-bucket middle blames into ongoing issues.

    An issue closes when no middle-blamed quartet for its key appears for
    more than :data:`GAP_BUCKETS` consecutive buckets; its total duration
    then feeds the duration predictor's history. The tracker holds open
    issues only: :meth:`update` and :meth:`close_all` hand every issue
    they close to the caller, which owns it from then on.
    """

    def __init__(self) -> None:
        self.open_issues: dict[IssueKey, MiddleIssue] = {}
        self._next_serial = 0

    def update(
        self, time: Timestamp, groups: list[tuple[IssueKey, int, list[Prefix24]]]
    ) -> tuple[list[MiddleIssue], list[MiddleIssue]]:
        """Fold one bucket's middle-blamed rows into the issue set.

        Args:
            time: The bucket the rows belong to.
            groups: The bucket's middle-blamed rows per issue key, in
                first-occurrence row order: ``(key, users, /24s)``
                (:attr:`~repro.core.summary.BadGroups.middle`).

        Returns:
            (open issues, issues that just closed — whether swept by the
            end-of-bucket expiry or displaced by a fresh blame).
        """
        displaced: list[MiddleIssue] = []
        for key, users, prefixes in groups:
            issue = self.open_issues.get(key)
            # Strictly more than GAP_BUCKETS of silence ends a run — the
            # same condition _expire uses, so a blame recurring after the
            # gap starts a new serial instead of resurrecting a run the
            # sweep would already have closed.
            if issue is None or time - issue.last_seen > GAP_BUCKETS:
                if issue is not None:
                    displaced.append(issue)
                issue = MiddleIssue(
                    location_id=key[0],
                    middle=key[1],
                    first_seen=time,
                    last_seen=time,
                    serial=self._next_serial,
                )
                self._next_serial += 1
                self.open_issues[key] = issue
            issue.last_seen = max(issue.last_seen, time)
            issue.prefixes.update(prefixes)
            issue.users_by_bucket[time] = issue.users_by_bucket.get(time, 0) + users
        newly_closed = displaced + self._expire(time)
        return list(self.open_issues.values()), newly_closed

    def close_all(self) -> list[MiddleIssue]:
        """Close every open issue (end of a run); returns them."""
        remaining = list(self.open_issues.values())
        self.open_issues.clear()
        return remaining

    def _expire(self, now: Timestamp) -> list[MiddleIssue]:
        expired = [
            issue
            for issue in self.open_issues.values()
            if now - issue.last_seen > GAP_BUCKETS
        ]
        for issue in expired:
            del self.open_issues[issue.key]
        return expired

    def state_dict(self) -> dict:
        """JSON-safe snapshot; open issues keep their dict order (probe
        ranking ties break on key order, and the order issues are walked
        feeds engine-RNG consumption downstream)."""
        return {
            "next_serial": self._next_serial,
            "open": [issue.state_dict() for issue in self.open_issues.values()],
        }

    def load_state_dict(self, state: dict) -> None:
        """Inverse of :meth:`state_dict`; replaces all current issues."""
        self._next_serial = int(state["next_serial"])
        self.open_issues = {}
        for encoded in state["open"]:
            issue = MiddleIssue.from_state_dict(encoded)
            self.open_issues[issue.key] = issue


@dataclass
class ProbeBudget:
    """Per-location traceroute allowance per run window (§5.3).

    The paper avoids per-AS budgets and sets a larger budget per cloud
    location; here the budget refreshes every window.

    Attributes:
        denied: Denials in the *current* window (reset by
            :meth:`start_window` — the per-window denial metric).
        denied_total: Cumulative denials across every window.
    """

    per_location_per_window: int
    _used: dict[str, int] = field(default_factory=dict)
    denied: int = 0
    denied_total: int = 0

    def start_window(self) -> None:
        """Reset usage and the per-window denial count."""
        self._used.clear()
        self.denied = 0

    def try_consume(self, location_id: str) -> bool:
        """Consume one probe slot for a location if available."""
        used = self._used.get(location_id, 0)
        if used >= self.per_location_per_window:
            self.denied += 1
            self.denied_total += 1
            return False
        self._used[location_id] = used + 1
        return True

    def state_dict(self) -> dict:
        """JSON-safe snapshot (current-window usage plus denial totals)."""
        return {
            "used": [[location, count] for location, count in self._used.items()],
            "denied": self.denied,
            "denied_total": self.denied_total,
        }

    def load_state_dict(self, state: dict) -> None:
        """Inverse of :meth:`state_dict`."""
        self._used = {location: int(count) for location, count in state["used"]}
        self.denied = int(state["denied"])
        self.denied_total = int(state["denied_total"])


@dataclass(frozen=True, slots=True)
class ProbedIssue:
    """An on-demand traceroute spent on an issue.

    ``attributed`` names the other issues in the probe's planner group
    (empty outside the clustered planner): the localization verdict is
    recorded for them too, without spending further budget.
    """

    issue_key: IssueKey
    prefix24: Prefix24
    time: Timestamp
    result: TracerouteResult | None
    priority: float
    issue_first_seen: Timestamp = 0
    attributed: tuple[IssueKey, ...] = ()


class OnDemandProber:
    """Scores open issues and spends the probe budget on the biggest ones."""

    def __init__(
        self,
        engine: TracerouteEngine,
        duration_predictor: DurationPredictor,
        client_predictor: ClientCountPredictor,
        budget: ProbeBudget,
        metrics: MetricsRegistry | None = None,
        chaos: FaultPlan | None = None,
        planner: "ProbePlanner | None" = None,
    ) -> None:
        self.engine = engine
        self.duration_predictor = duration_predictor
        self.client_predictor = client_predictor
        self.budget = budget
        self.metrics = metrics or NULL_REGISTRY
        self.chaos = chaos
        self.planner = planner or PaperPlanner(CoAnomalyHistory(48))
        self.probes_issued = 0

    def observe_anomalies(self, keys) -> None:
        """Feed one probe window's middle-blamed issue keys into the
        planner's co-anomaly history (before :meth:`probe_window`, so
        same-window co-occurrence is clusterable immediately)."""
        self.planner.observe_window(keys)

    def priority(self, issue: MiddleIssue, now: Timestamp) -> float:
        """Predicted client-time product of an issue (§5.3).

        Expected remaining duration (mean residual life given observed
        elapsed time) × predicted per-bucket impacted clients.
        """
        remaining = self.duration_predictor.expected_remaining(
            issue.elapsed(now), key=issue.key
        )
        clients = self.client_predictor.predict(issue.key, now)
        return remaining * clients

    def probe_window(
        self, now: Timestamp, open_issues: list[MiddleIssue]
    ) -> list[ProbedIssue]:
        """Probe the planner's groups in rank order, within budget.

        One traceroute per planned group; an issue is probed at most once
        over its lifetime (the comparison baseline provides the "before"
        picture, so a single "during" measurement suffices). Under the
        default paper planner every group is a singleton in
        ``(-priority, key)`` order — the verbatim §5.3 flow. The
        clustered planner spends one slot per co-anomaly cluster and
        marks every member probed, saving the members' slots; a group
        whose representative is denied by the budget leaves its members
        unprobed (they stay candidates for later windows).
        """
        self.budget.start_window()
        # Priority inputs are fixed within a window, so compute each
        # issue's score once and reuse it for both the sort and the
        # reported ProbedIssue.priority.
        ranked = sorted(
            ((self.priority(issue, now), issue) for issue in open_issues
             if not issue.probed),
            key=lambda pair: (-pair[0], pair[1].key),
        )
        groups = self.planner.plan(ranked)
        plan_metrics = self.metrics if self.planner.kind == "clustered" else None
        probed: list[ProbedIssue] = []
        for group in groups:
            issue = group.representative
            if not self.budget.try_consume(issue.location_id):
                continue
            prefix = issue.representative_prefix()
            result = self._issue(issue.location_id, prefix, now)
            issue.probed = True
            attributed = []
            for member in group.attributed:
                member.probed = True
                attributed.append(member.key)
            if plan_metrics is not None:
                plan_metrics.histogram("probe.plan.cluster_size").observe(
                    len(group.members)
                )
                if attributed:
                    plan_metrics.counter("probe.plan.clusters").inc()
                    plan_metrics.counter("probe.plan.saved").inc(len(attributed))
            probed.append(
                ProbedIssue(
                    issue_key=issue.key,
                    prefix24=prefix,
                    time=now,
                    result=result,
                    priority=group.priority,
                    issue_first_seen=issue.first_seen,
                    attributed=tuple(attributed),
                )
            )
        self.metrics.counter("probe.on_demand.denied").inc(self.budget.denied)
        return probed

    def _issue(
        self, location_id: str, prefix: Prefix24, now: Timestamp
    ) -> TracerouteResult | None:
        """One on-demand traceroute, with chaos timeouts and bounded,
        budget-honoring retries.

        Without a fault plan this is exactly one ``engine.issue`` call.
        Under chaos, a timed-out attempt's measurement is discarded and
        re-tried up to ``probe_retry_attempts`` times; every retry must
        win a fresh :meth:`ProbeBudget.try_consume` slot (the caller
        consumed the first attempt's), so retries never exceed the §5.3
        per-location allowance. Backoff between attempts is
        instantaneous in simulated bucket time; each attempt re-rolls
        its fate independently. A legitimately failed traceroute (e.g. a
        withdrawn route returning None) is *not* retried — only injected
        timeouts are.
        """
        chaos = self.chaos
        attempt = 0
        while True:
            result = self.engine.issue(location_id, prefix, now)
            self.probes_issued += 1
            self.metrics.counter("probe.on_demand.issued").inc()
            if chaos is None or not chaos.probe_times_out(
                "probe.timeout.on_demand", location_id, prefix, now, attempt
            ):
                if attempt:
                    self.metrics.counter("retry.probe.recovered").inc()
                return result
            self.metrics.counter("chaos.probe.timeout").inc()
            if attempt >= chaos.probe_retry_attempts:
                self.metrics.counter("retry.probe.abandoned").inc()
                return None
            if not self.budget.try_consume(location_id):
                self.metrics.counter("retry.probe.denied").inc()
                return None
            attempt += 1
            self.metrics.counter("retry.probe.attempts").inc()
