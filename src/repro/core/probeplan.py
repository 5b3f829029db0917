"""Correlation-aware probe planning ("Less is More").

The paper's on-demand prober (§5.3) ranks open middle issues by
predicted client-time product and spends the per-location budget top
down, one traceroute per issue. *Less is More: Optimizing Probe
Selection Using Shared Latency Anomalies* observes that the budget goes
further when targets whose latency anomalies co-occur are clustered and
only one representative per cluster is probed — a shared transit fault
degrades several metros at once, and one traceroute through the shared
AS localizes all of them.

This module supplies that planning layer behind a single seam:
:class:`OnDemandProber <repro.core.active.OnDemandProber>` hands the
paper-ranked candidate list to a planner, and the planner returns probe
*groups* — a representative to spend budget on plus the members its
verdict is attributed back to.

Three planners implement ``BlameItConfig.probe_planner``:

* ``"paper"`` (default) — the §5.3 behavior: every group is a
  singleton, in impact-ranked order. Byte-identical to the pre-planner
  pipeline.
* ``"naive"`` — singletons in key order, no impact ranking; the
  ablation baseline for the accuracy-vs-budget curves in
  ``benchmarks/bench_probe_savings.py``.
* ``"clustered"`` — the Less-is-More planner described below.

Clustering invariants (the properties every caller relies on):

* **Deterministic and seed-free.** No RNG anywhere: similarity is a
  pure count over the observed co-anomaly history, greedy merging
  breaks ties on sorted issue keys, representatives and group order
  reuse the paper's ``(-priority, key)`` ordering. Sequential, sharded,
  and daemon-fed runs therefore stay byte-identical — all three feed
  the history through the same
  :meth:`~repro.core.pipeline.BlameItPipeline._process_window` fold.
* **Bounded memory.** The co-anomaly history is a ring of the last
  ``probe_history_windows`` non-empty anomaly windows (a deque with a
  maxlen); each entry holds only the middle-blamed issue keys of that
  window. Year-scale daemon runs cannot grow it.
* **Exact no-op when disabled.** Pairwise similarity is at most 1.0,
  so a ``probe_cluster_floor`` above 1.0 can never merge anything and
  the clustered planner degrades to the paper planner — same probes,
  same budget accounting, same report bytes (pinned by a regression
  test).
* **Conservative merging.** Complete linkage: two clusters merge only
  when *every* cross pair clears the similarity floor, and pairs whose
  middle paths share no AS never merge at all (a verdict can only be
  attributed across targets that could share a culprit). Singleton and
  low-confidence targets fall back to per-target probing — exactly the
  paper flow.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from repro.core.active import IssueKey, MiddleIssue
    from repro.core.config import BlameItConfig

#: Planner names accepted by ``BlameItConfig.probe_planner``.
PLANNER_KINDS = ("naive", "paper", "clustered")


def _encode_key(key: "IssueKey") -> list:
    """⟨location, AS path⟩ → JSON list (mirrors the store codec)."""
    location_id, path = key
    return [location_id, list(path)]


def _decode_key(encoded: Sequence) -> "IssueKey":
    location_id, path = encoded
    return (location_id, tuple(int(asn) for asn in path))


class CoAnomalyHistory:
    """Rolling ring of recent anomaly windows, one key-set per window.

    Fed from :class:`~repro.core.passive.PassiveLocalizer` blame
    assignments: after each probe window's passive results are folded,
    the set of middle-blamed ⟨location, BGP path⟩ keys is recorded
    (empty windows are skipped — quiet periods should not dilute the
    co-occurrence evidence). The ring holds at most ``maxlen`` windows;
    older ones fall off, bounding both memory and how long stale
    correlations linger.
    """

    def __init__(self, maxlen: int) -> None:
        if maxlen < 1:
            raise ValueError(f"maxlen must be >= 1, got {maxlen}")
        self.maxlen = maxlen
        self._windows: deque[frozenset["IssueKey"]] = deque(maxlen=maxlen)

    def observe(self, keys: Iterable["IssueKey"]) -> None:
        """Record one window's middle-blamed keys (no-op when empty)."""
        window = frozenset(keys)
        if window:
            self._windows.append(window)

    def similarity(self, a: "IssueKey", b: "IssueKey") -> float:
        """Jaccard co-occurrence of two targets over the ring.

        ``|windows with both| / |windows with either|`` — 0.0 when the
        two have never co-occurred (including an empty history), 1.0
        when they have only ever appeared together.
        """
        count_a = count_b = count_both = 0
        for window in self._windows:
            in_a = a in window
            in_b = b in window
            count_a += in_a
            count_b += in_b
            count_both += in_a and in_b
        if count_both == 0:
            return 0.0
        return count_both / (count_a + count_b - count_both)

    def state_dict(self) -> dict:
        """JSON-safe snapshot (window order preserved)."""
        return {
            "maxlen": self.maxlen,
            "windows": [
                [_encode_key(key) for key in sorted(window)]
                for window in self._windows
            ],
        }

    def load_state_dict(self, state: dict) -> None:
        """Inverse of :meth:`state_dict`; replaces the current ring."""
        self.maxlen = int(state["maxlen"])
        self._windows = deque(
            (
                frozenset(_decode_key(key) for key in window)
                for window in state["windows"]
            ),
            maxlen=self.maxlen,
        )


@dataclass(frozen=True, slots=True)
class ProbeGroup:
    """One planned probe: a representative plus attribution members.

    Attributes:
        representative: The issue the traceroute is spent on.
        priority: The representative's §5.3 client-time priority.
        members: Every issue the verdict covers (representative
            included), in ``(-priority, key)`` order.
    """

    representative: "MiddleIssue"
    priority: float
    members: tuple["MiddleIssue", ...]

    @property
    def attributed(self) -> tuple["MiddleIssue", ...]:
        """The members beyond the representative itself."""
        return tuple(m for m in self.members if m is not self.representative)


class ProbePlanner:
    """Base planner: owns the co-anomaly history, plans singletons.

    ``ranked`` is always the paper-ordered candidate list — unprobed
    open issues sorted by ``(-priority, key)`` — so the base class's
    identity plan *is* the §5.3 behavior.
    """

    kind = "paper"

    def __init__(self, history: CoAnomalyHistory) -> None:
        self.history = history

    def observe_window(self, keys: Iterable["IssueKey"]) -> None:
        """Feed one probe window's middle-blamed keys into the history."""
        self.history.observe(keys)

    def plan(
        self, ranked: Sequence[tuple[float, "MiddleIssue"]]
    ) -> list[ProbeGroup]:
        """Probe groups in budget-spend order."""
        return [
            ProbeGroup(representative=issue, priority=priority, members=(issue,))
            for priority, issue in ranked
        ]

    def state_dict(self) -> dict:
        """JSON-safe snapshot (checkpointing)."""
        return {"kind": self.kind, "history": self.history.state_dict()}

    def load_state_dict(self, state: dict) -> None:
        """Inverse of :meth:`state_dict`."""
        self.history.load_state_dict(state["history"])


class PaperPlanner(ProbePlanner):
    """§5.3 verbatim: impact-ranked singletons (the default)."""

    kind = "paper"


class NaivePlanner(ProbePlanner):
    """Unranked singletons: key order, no impact prioritization.

    The ablation the accuracy-vs-budget curves compare against — at a
    tight budget it wastes slots on low-impact issues that happen to
    sort first.
    """

    kind = "naive"

    def plan(
        self, ranked: Sequence[tuple[float, "MiddleIssue"]]
    ) -> list[ProbeGroup]:
        return [
            ProbeGroup(representative=issue, priority=priority, members=(issue,))
            for priority, issue in sorted(ranked, key=lambda pair: pair[1].key)
        ]


class ClusteredPlanner(ProbePlanner):
    """Less-is-More: cluster co-anomalous targets, probe one each.

    Greedy agglomerative clustering over the co-anomaly similarity with
    complete linkage (every cross pair must clear ``floor``), a
    shared-middle-AS gate (disjoint paths never merge), and sorted-key
    tie-breaks. Each cluster spends one budget slot on its
    highest-priority member; the probe verdict is attributed back to
    all members. Singletons — including everything when ``floor``
    exceeds 1.0 — fall back to the paper flow exactly.
    """

    kind = "clustered"

    def __init__(self, history: CoAnomalyHistory, floor: float) -> None:
        super().__init__(history)
        if floor <= 0.0:
            raise ValueError(f"floor must be > 0, got {floor}")
        self.floor = floor

    def plan(
        self, ranked: Sequence[tuple[float, "MiddleIssue"]]
    ) -> list[ProbeGroup]:
        if len(ranked) < 2:
            return super().plan(ranked)
        priority_by_key = {issue.key: priority for priority, issue in ranked}
        clusters = self._cluster([issue for _, issue in ranked])
        groups = []
        for members in clusters:
            ordered = tuple(
                sorted(
                    members,
                    key=lambda issue: (-priority_by_key[issue.key], issue.key),
                )
            )
            representative = ordered[0]
            groups.append(
                ProbeGroup(
                    representative=representative,
                    priority=priority_by_key[representative.key],
                    members=ordered,
                )
            )
        # Budget is spent in the representative's paper rank order, so a
        # floor above 1.0 (all singletons) reproduces §5.3 exactly.
        groups.sort(key=lambda g: (-g.priority, g.representative.key))
        return groups

    def _cluster(
        self, issues: list["MiddleIssue"]
    ) -> list[list["MiddleIssue"]]:
        """Greedy complete-linkage agglomeration over pairwise similarity."""
        history = self.history
        floor = self.floor
        # Pairwise similarity, gated on a shared middle AS: a verdict
        # names one AS, so attribution across disjoint paths could never
        # be correct regardless of how tightly the anomalies co-occur.
        keys = [issue.key for issue in issues]
        as_sets = [frozenset(issue.middle) for issue in issues]
        n = len(issues)
        sim: dict[tuple[int, int], float] = {}
        for i in range(n):
            for j in range(i + 1, n):
                if as_sets[i] & as_sets[j]:
                    sim[(i, j)] = history.similarity(keys[i], keys[j])
        clusters: list[list[int]] = [[i] for i in range(n)]

        def link(a: list[int], b: list[int]) -> float:
            """Complete-linkage similarity between two clusters."""
            worst = 1.0
            for i in a:
                for j in b:
                    pair = sim.get((i, j) if i < j else (j, i), 0.0)
                    if pair < worst:
                        worst = pair
                    if worst < floor:
                        return 0.0
            return worst

        while len(clusters) > 1:
            best = None
            for a in range(len(clusters)):
                for b in range(a + 1, len(clusters)):
                    score = link(clusters[a], clusters[b])
                    if score < floor:
                        continue
                    tie = (keys[min(clusters[a])], keys[min(clusters[b])])
                    if best is None or (-score, tie) < (-best[0], best[3]):
                        best = (score, a, b, tie)
            if best is None:
                break
            _, a, b, _ = best
            clusters[a] = sorted(clusters[a] + clusters[b])
            del clusters[b]
        return [[issues[i] for i in cluster] for cluster in clusters]


def make_planner(config: "BlameItConfig") -> ProbePlanner:
    """The planner named by ``config.probe_planner``, history sized by
    ``config.probe_history_windows``."""
    history = CoAnomalyHistory(config.probe_history_windows)
    if config.probe_planner == "naive":
        return NaivePlanner(history)
    if config.probe_planner == "clustered":
        return ClusteredPlanner(history, floor=config.probe_cluster_floor)
    return PaperPlanner(history)
