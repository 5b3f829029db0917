"""Always-on active probing: the coverage-complete strawman (§5.1, §6.5).

Continuous traceroutes from every cloud location to every BGP path, every
10 minutes, give perfect before/after baselines for any incident — at
~200 million probes a day at production scale, which is what makes the
approach infeasible (and a good way to trip intrusion detectors in
transit ASes). BlameIt's headline probe saving (72×) is measured against
this monitor under an identical scenario.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cloud.traceroute import TracerouteEngine, TracerouteResult
from repro.core.localize import CulpritVerdict, localize_culprit
from repro.net.addressing import Prefix24
from repro.net.asn import ASPath
from repro.net.bgp import Timestamp

TargetKey = tuple[str, ASPath]


@dataclass(frozen=True, slots=True)
class DetectedIssue:
    """A latency inflation the monitor noticed on one target."""

    key: TargetKey
    time: Timestamp
    rtt_ms: float
    verdict: CulpritVerdict


@dataclass
class ActiveOnlyMonitor:
    """Probes every registered target on a fixed short interval.

    Attributes:
        engine: Probe source (accounts every traceroute).
        interval_buckets: Probe period per target (paper strawman: 10
            minutes → 2 buckets).
        inflation_threshold_ms: End-to-end increase over the target's
            rolling baseline that counts as an issue.
    """

    engine: TracerouteEngine
    interval_buckets: int = 2
    inflation_threshold_ms: float = 20.0
    _targets: dict[TargetKey, Prefix24] = field(default_factory=dict)
    _baseline: dict[TargetKey, TracerouteResult] = field(default_factory=dict)
    detected: list[DetectedIssue] = field(default_factory=list)

    def register_target(
        self, location_id: str, middle: ASPath, prefix24: Prefix24
    ) -> None:
        """Add a ⟨location, BGP path⟩ target with a representative /24."""
        self._targets.setdefault((location_id, middle), prefix24)

    def run(self, start: Timestamp, end: Timestamp) -> list[DetectedIssue]:
        """Probe all targets over ``[start, end)`` and detect issues.

        Every target is probed whenever ``time % interval == 0``; a probe
        whose end-to-end RTT exceeds the previous *healthy* probe by the
        inflation threshold is localized against it. Healthy probes
        become the new baseline.

        Returns:
            Issues detected during the run (also kept in :attr:`detected`).
        """
        found: list[DetectedIssue] = []
        for time in range(start, end):
            if time % self.interval_buckets != 0:
                continue
            for key, prefix in sorted(self._targets.items()):
                result = self.engine.issue(key[0], prefix, time)
                if result is None:
                    continue
                baseline = self._baseline.get(key)
                if baseline is None:
                    self._baseline[key] = result
                    continue
                inflation = result.end_to_end_ms - baseline.end_to_end_ms
                if inflation >= self.inflation_threshold_ms:
                    verdict = localize_culprit(baseline, result)
                    found.append(
                        DetectedIssue(
                            key=key,
                            time=time,
                            rtt_ms=result.end_to_end_ms,
                            verdict=verdict,
                        )
                    )
                else:
                    self._baseline[key] = result
        self.detected.extend(found)
        return found

    def probes_per_day(self) -> float:
        """Steady-state probe volume per simulated day."""
        buckets_per_day = 288
        return len(self._targets) * buckets_per_day / self.interval_buckets
