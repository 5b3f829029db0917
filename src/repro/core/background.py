"""Optimized background traceroutes: the "before" picture (§5.4).

Localizing a middle-segment fault needs a healthy baseline to compare
against. Continuous baselines (every path every 10 minutes) would cost
~200M probes/day at production scale, so BlameIt combines:

* **infrequent periodic probes** — each ⟨location, BGP path⟩ probed on a
  fixed interval (twice a day in production), staggered across buckets;
* **churn-triggered probes** — a BGP listener event (path change or
  withdrawal at a border router) immediately re-probes the affected
  prefix, keeping baselines fresh exactly when staleness would hurt.

Figure 13 sweeps the periodic interval with churn triggers on and off:
12-hourly probing plus churn triggers keeps ~93 % localization accuracy
at 72× less probing than the always-on strawman.

Paper provenance: §5.4 (background traceroutes, churn triggers), §6.5
and Figure 13 (probing-frequency ablation and cost comparison).
"""

from __future__ import annotations

import bisect
import zlib
from dataclasses import dataclass, field
from typing import Sequence

from repro.chaos import FaultPlan
from repro.cloud.traceroute import TracerouteEngine, TracerouteResult
from repro.net.addressing import Prefix24
from repro.net.asn import ASPath, middle_asns
from repro.net.bgp import BGPUpdate, BGPUpdateKind, Timestamp
from repro.obs import NULL_REGISTRY, MetricsRegistry

#: Background target identity.
TargetKey = tuple[str, ASPath]  # (location_id, middle path)


class BaselineStore:
    """Recent background traceroutes per target, with history.

    Localization needs the picture from *before* the incident, so the
    store keeps a short history per key and lookups take a ``before``
    bound — a background probe that happened to run mid-incident must not
    replace the healthy baseline.

    Lookups first try the exact ⟨location, middle path⟩ key; if the
    current path is too new to have a baseline (e.g. a reroute that was
    never probed), they fall back to the most recent probe of the same
    ⟨location, /24⟩ — possibly over the *old* path, which is exactly the
    staleness that degrades localization accuracy in Figure 13.
    """

    #: Traceroutes retained per key. Generous enough that under dense
    #: probing schedules (the 10-minute strawman) some retained baseline
    #: still predates a multi-hour fault.
    HISTORY = 64

    def __init__(self) -> None:
        self._by_middle: dict[TargetKey, list[TracerouteResult]] = {}
        self._by_prefix: dict[tuple[str, Prefix24], list[TracerouteResult]] = {}

    def put(self, result: TracerouteResult) -> None:
        """Store a completed background traceroute."""
        middle = middle_asns(result.path)
        self._append(self._by_middle, (result.location_id, middle), result)
        self._append(self._by_prefix, (result.location_id, result.prefix24), result)

    @classmethod
    def _append(cls, store: dict, key, result: TracerouteResult) -> None:
        history = store.setdefault(key, [])
        history.append(result)
        if len(history) > cls.HISTORY:
            del history[0]

    def get(
        self,
        location_id: str,
        prefix24: Prefix24,
        middle: ASPath,
        before: Timestamp | None = None,
    ) -> TracerouteResult | None:
        """Best available baseline for a probe target.

        Args:
            location_id, prefix24, middle: The probe target.
            before: Return the latest baseline strictly older than this
                bucket (the issue's onset); None means latest overall.
        """
        exact = self._latest(self._by_middle.get((location_id, middle)), before)
        if exact is not None:
            return exact
        return self._latest(self._by_prefix.get((location_id, prefix24)), before)

    def get_candidates(
        self,
        location_id: str,
        prefix24: Prefix24,
        middle: ASPath,
        before: Timestamp | None = None,
    ) -> list[TracerouteResult]:
        """All stored baselines usable for a comparison, newest first.

        A baseline that happened to be measured *during* an undetected
        fault hides the inflation; callers compare against several
        candidates and keep the most incriminating verdict.
        """
        history = self._by_middle.get((location_id, middle))
        if not history:
            history = self._by_prefix.get((location_id, prefix24))
        if not history:
            return []
        eligible = [r for r in history if before is None or r.time < before]
        return list(reversed(eligible))

    @staticmethod
    def _latest(
        history: list[TracerouteResult] | None, before: Timestamp | None
    ) -> TracerouteResult | None:
        if not history:
            return None
        if before is None:
            return history[-1]
        for result in reversed(history):
            if result.time < before:
                return result
        return None

    def state_dict(self) -> dict:
        """JSON-safe snapshot of both indexes.

        Both are serialized verbatim (the same results appear under a
        middle key and a prefix key; sharing is not reconstructed —
        lookups never compare identities). Key and history order are
        preserved: ``_latest`` walks histories newest-first.

        Works unchanged for :class:`ReverseBaselineStore`: its keys are
        ⟨"", full path⟩ / ⟨"", prefix⟩ pairs, the same shapes.
        """
        return {
            "by_middle": [
                [[location, list(path)], [r.state_dict() for r in history]]
                for (location, path), history in self._by_middle.items()
            ],
            "by_prefix": [
                [[location, prefix], [r.state_dict() for r in history]]
                for (location, prefix), history in self._by_prefix.items()
            ],
        }

    def load_state_dict(self, state: dict) -> None:
        """Inverse of :meth:`state_dict`; replaces all current history."""
        self._by_middle = {
            (location, tuple(int(asn) for asn in path)): [
                TracerouteResult.from_state_dict(r) for r in history
            ]
            for (location, path), history in state["by_middle"]
        }
        self._by_prefix = {
            (location, int(prefix)): [
                TracerouteResult.from_state_dict(r) for r in history
            ]
            for (location, prefix), history in state["by_prefix"]
        }


class ReverseBaselineStore(BaselineStore):
    """Baselines for client-to-cloud traceroutes.

    Two differences from the forward store: lookups ignore the issuing
    location (a reverse path depends only on the client AS — there is one
    cloud AS), and path keys use the *full* reverse path rather than its
    middle — two client ASes can share a reverse middle while their
    client-hop contributions differ, which would poison comparisons.
    """

    _ANY_LOCATION = ""

    def put(self, result: TracerouteResult) -> None:
        """Store under location-agnostic, full-path keys."""
        normalized = TracerouteResult(
            location_id=self._ANY_LOCATION,
            prefix24=result.prefix24,
            time=result.time,
            path=result.path,
            cumulative_ms=result.cumulative_ms,
        )
        self._append(self._by_middle, (self._ANY_LOCATION, result.path), normalized)
        self._append(
            self._by_prefix, (self._ANY_LOCATION, result.prefix24), normalized
        )

    def get(
        self,
        location_id: str,
        prefix24: Prefix24,
        middle: ASPath,
        before: Timestamp | None = None,
    ) -> TracerouteResult | None:
        """Location-agnostic lookup; ``middle`` is the full reverse path."""
        return super().get(self._ANY_LOCATION, prefix24, middle, before)


@dataclass
class BackgroundProber:
    """Schedules periodic and churn-triggered background traceroutes.

    Targets are registered as they are observed in the passive stream
    (every ⟨location, BGP path⟩ with traffic gets a representative /24).
    """

    engine: TracerouteEngine
    store: BaselineStore
    interval_buckets: int = 144  # twice a day
    churn_triggered: bool = True
    reverse_store: BaselineStore | None = None
    probes_periodic: int = 0
    probes_churn: int = 0
    metrics: MetricsRegistry | None = None
    chaos: FaultPlan | None = None
    _targets: dict[TargetKey, Prefix24] = field(default_factory=dict)
    #: Bucket-of-interval → sorted (key, prefix) probe roster. Built at
    #: registration time so ``run_bucket`` touches only the targets that
    #: are actually due instead of hashing every target every bucket.
    _schedule: dict[int, list[tuple[TargetKey, Prefix24]]] = field(
        default_factory=dict
    )

    def __post_init__(self) -> None:
        if self.interval_buckets < 1:
            raise ValueError("interval_buckets must be >= 1")
        if self.metrics is None:
            self.metrics = NULL_REGISTRY

    def _probe(
        self, location_id: str, prefix24: Prefix24, time: Timestamp
    ) -> TracerouteResult | None:
        """One background measurement: forward, plus reverse if enabled.

        Under a fault plan the forward measurement can be lost in
        flight; a lost probe is re-tried up to ``probe_retry_attempts``
        times (background probes have no per-window budget — their cost
        ceiling is the schedule itself). An abandoned measurement simply
        leaves the existing baseline in place, exactly like a withdrawn
        route does.
        """
        result = self._issue_forward(location_id, prefix24, time)
        if result is not None:
            self.store.put(result)
        if self.reverse_store is not None:
            reverse = self.engine.issue_reverse(location_id, prefix24, time)
            if reverse is not None:
                self.reverse_store.put(reverse)
        return result

    def _issue_forward(
        self, location_id: str, prefix24: Prefix24, time: Timestamp
    ) -> TracerouteResult | None:
        chaos = self.chaos
        if chaos is None or chaos.probe_timeout_rate <= 0:
            return self.engine.issue(location_id, prefix24, time)
        attempt = 0
        while True:
            result = self.engine.issue(location_id, prefix24, time)
            if not chaos.probe_times_out(
                "probe.timeout.background", location_id, prefix24, time, attempt
            ):
                if attempt:
                    self.metrics.counter("retry.probe.background.recovered").inc()
                return result
            self.metrics.counter("chaos.probe.loss").inc()
            if attempt >= chaos.probe_retry_attempts:
                self.metrics.counter("retry.probe.background.abandoned").inc()
                return None
            attempt += 1
            self.metrics.counter("retry.probe.background.attempts").inc()

    # -- target registry -------------------------------------------------

    def register_target(
        self, location_id: str, middle: ASPath, prefix24: Prefix24
    ) -> bool:
        """Ensure a ⟨location, BGP path⟩ has a probe target.

        Returns:
            True if the target is new (the caller may want to seed its
            baseline immediately).
        """
        key = (location_id, middle)
        if key in self._targets:
            return False
        self._targets[key] = prefix24
        slot = zlib.crc32(repr(key).encode("utf-8")) % self.interval_buckets
        bisect.insort(self._schedule.setdefault(slot, []), (key, prefix24))
        return True

    # -- periodic probing --------------------------------------------------

    def run_bucket(self, time: Timestamp) -> list[TracerouteResult]:
        """Issue the periodic probes scheduled for one bucket.

        Probes run in sorted key order — the same order the previous
        full-scan implementation produced — so the traceroute engine's
        RNG consumption is unchanged.
        """
        results: list[TracerouteResult] = []
        due: Sequence[tuple[TargetKey, Prefix24]] = self._schedule.get(
            time % self.interval_buckets, ()
        )
        for key, prefix in due:
            result = self._probe(key[0], prefix, time)
            self.probes_periodic += 1
            self.metrics.counter("probe.background.periodic").inc()
            if result is not None:
                results.append(result)
        self.metrics.gauge("probe.background.targets").set(len(self._targets))
        return results

    def seed_target(
        self, location_id: str, middle: ASPath, prefix24: Prefix24, time: Timestamp
    ) -> TracerouteResult | None:
        """Probe a newly-registered target immediately.

        New paths appear when routes churn; without an immediate seed the
        first fault on the path would have no baseline at all.
        """
        result = self._probe(location_id, prefix24, time)
        self.probes_periodic += 1
        self.metrics.counter("probe.background.seed").inc()
        return result

    # -- churn triggers ------------------------------------------------------

    def on_bgp_update(self, update: BGPUpdate) -> TracerouteResult | None:
        """Handle one listener event: re-probe the affected prefix.

        Withdrawals are probed too (the paper probes on "changed ... or a
        route has been withdrawn"): the probe fails, but the old baseline
        is kept so a subsequent re-announce compares sanely.
        """
        if not self.churn_triggered:
            return None
        target = self._find_target(update)
        if target is None:
            return None
        key, prefix = target
        result = self._probe(update.location_id, prefix, update.time)
        self.probes_churn += 1
        self.metrics.counter("probe.background.churn").inc()
        if result is not None:
            if update.kind is BGPUpdateKind.ANNOUNCE and update.new_path is not None:
                # Track the target under its new middle path as well
                # (register_target keeps the periodic schedule in sync).
                self.register_target(
                    update.location_id, middle_asns(update.new_path), prefix
                )
        return result

    def _find_target(self, update: BGPUpdate) -> tuple[TargetKey, Prefix24] | None:
        """The registered target whose /24 the updated prefix covers."""
        for key, prefix in self._targets.items():
            if key[0] != update.location_id:
                continue
            if update.prefix.contains_prefix24(prefix):
                return key, prefix
        return None

    @property
    def probes_total(self) -> int:
        """All background probes issued (periodic + churn-triggered)."""
        return self.probes_periodic + self.probes_churn

    def state_dict(self) -> dict:
        """JSON-safe snapshot: counters plus the target registry in
        registration order (``_find_target`` is first-match-wins over
        that order)."""
        return {
            "probes_periodic": self.probes_periodic,
            "probes_churn": self.probes_churn,
            "targets": [
                [location, list(path), prefix]
                for (location, path), prefix in self._targets.items()
            ],
        }

    def load_state_dict(self, state: dict) -> None:
        """Inverse of :meth:`state_dict`.

        Targets are replayed through :meth:`register_target` rather than
        assigned — the per-slot schedule lists are kept bisect-sorted at
        registration time, so replay reconstructs ``_schedule`` exactly.
        """
        self.probes_periodic = int(state["probes_periodic"])
        self.probes_churn = int(state["probes_churn"])
        self._targets.clear()
        self._schedule.clear()
        for location, path, prefix in state["targets"]:
            self.register_target(
                location, tuple(int(asn) for asn in path), int(prefix)
            )
