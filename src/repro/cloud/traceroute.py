"""Simulated traceroutes with probe accounting.

BlameIt's active phase compares the per-AS cumulative RTTs of an
on-demand traceroute against a baseline from background traceroutes
(§5.2). The engine here produces exactly that view by querying a
:class:`PathOracle` (implemented by the scenario) for the ground-truth
path and its cumulative latencies at a point in time, then adding
measurement noise.

Every probe is counted, globally and per location. The paper's headline
efficiency results (72× fewer probes than always-on tracerouting, 20×
fewer than Trinocular) are *measured* against these counters rather than
computed analytically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Protocol

import numpy as np

from repro.net.addressing import Prefix24
from repro.net.asn import ASPath
from repro.net.bgp import Timestamp
from repro.rngstate import rng_from_state_dict, rng_state_dict


class TracerouteView(NamedTuple):
    """Ground truth for one probe: path and cumulative per-AS RTTs.

    ``cumulative_ms[i]`` is the RTT to the last hop inside ``path[i]``,
    with the final element being the RTT all the way to the client.
    """

    path: ASPath
    cumulative_ms: tuple[float, ...]


class PathOracle(Protocol):
    """What the engine needs from the world model."""

    def traceroute_view(
        self, location_id: str, prefix24: Prefix24, time: Timestamp
    ) -> TracerouteView | None:
        """Ground-truth view for a probe, or None if unreachable."""
        ...


class ReversePathOracle(PathOracle, Protocol):
    """A world model that also exposes client-to-cloud views (§5.1)."""

    def reverse_traceroute_view(
        self, location_id: str, prefix24: Prefix24, time: Timestamp
    ) -> TracerouteView | None:
        """Ground-truth reverse view, or None if unavailable."""
        ...


@dataclass(frozen=True, slots=True)
class TracerouteResult:
    """One completed traceroute.

    Attributes:
        location_id: Issuing cloud location.
        prefix24: Probed client /24.
        time: Bucket when the probe ran.
        path: Observed AS path (cloud AS first, client AS last).
        cumulative_ms: Noisy cumulative RTT at the last hop of each AS.
    """

    location_id: str
    prefix24: Prefix24
    time: Timestamp
    path: ASPath
    cumulative_ms: tuple[float, ...]

    def contribution_ms(self) -> dict[int, float]:
        """Each AS's individual latency contribution.

        The first AS (cloud) contributes its own cumulative value; each
        later AS contributes the increment over the previous hop, floored
        at zero (later hops occasionally measure lower than earlier ones;
        the paper notes this is rare at AS granularity).
        """
        contributions: dict[int, float] = {}
        previous = 0.0
        for asn, cumulative in zip(self.path, self.cumulative_ms):
            contributions[asn] = max(0.0, cumulative - previous)
            previous = cumulative
        return contributions

    @property
    def end_to_end_ms(self) -> float:
        """RTT to the final hop."""
        return self.cumulative_ms[-1]

    def state_dict(self) -> dict:
        """JSON-safe snapshot; floats round-trip exactly (repr-based)."""
        return {
            "location_id": self.location_id,
            "prefix24": self.prefix24,
            "time": self.time,
            "path": list(self.path),
            "cumulative_ms": list(self.cumulative_ms),
        }

    @classmethod
    def from_state_dict(cls, state: dict) -> "TracerouteResult":
        return cls(
            location_id=state["location_id"],
            prefix24=int(state["prefix24"]),
            time=int(state["time"]),
            path=tuple(int(asn) for asn in state["path"]),
            cumulative_ms=tuple(float(ms) for ms in state["cumulative_ms"]),
        )


class TracerouteEngine:
    """Issues simulated traceroutes and accounts for every probe."""

    def __init__(
        self,
        oracle: PathOracle,
        rng: np.random.Generator,
        hop_noise_ms: float = 0.5,
    ) -> None:
        """
        Args:
            oracle: Ground-truth provider (the scenario).
            rng: Random generator for measurement noise.
            hop_noise_ms: Std-dev of additive per-hop noise.
        """
        self.oracle = oracle
        self.rng = rng
        self.hop_noise_ms = hop_noise_ms
        self.probes_issued = 0
        self.reverse_probes_issued = 0
        self.probes_by_location: dict[str, int] = {}

    def issue(
        self, location_id: str, prefix24: Prefix24, time: Timestamp
    ) -> TracerouteResult | None:
        """Run one traceroute.

        Returns:
            The result, or None if the prefix is currently unreachable
            from this location (withdrawn route). Unreachable probes still
            count against the probe budget — packets were sent.
        """
        self.probes_issued += 1
        self.probes_by_location[location_id] = (
            self.probes_by_location.get(location_id, 0) + 1
        )
        view = self.oracle.traceroute_view(location_id, prefix24, time)
        if view is None:
            return None
        # Cumulative RTTs stay monotone: AS-level aggregation mostly
        # removes the inversion artifacts of raw traceroute.
        return self._noisy_result(location_id, prefix24, time, view)

    def issue_reverse(
        self, location_id: str, prefix24: Prefix24, time: Timestamp
    ) -> TracerouteResult | None:
        """Run one client-to-cloud traceroute via a rich client (§5.1).

        The oracle must implement :class:`ReversePathOracle`; the result's
        path starts at the client AS and ends at the cloud AS. Counted
        separately from forward probes (the cost sits on client devices,
        not cloud egress).
        """
        reverse_view = getattr(self.oracle, "reverse_traceroute_view", None)
        if reverse_view is None:
            raise TypeError("oracle does not expose reverse traceroute views")
        self.reverse_probes_issued += 1
        view = reverse_view(location_id, prefix24, time)
        if view is None:
            return None
        return self._noisy_result(location_id, prefix24, time, view)

    def _noisy_result(
        self,
        location_id: str,
        prefix24: Prefix24,
        time: Timestamp,
        view: TracerouteView,
    ) -> TracerouteResult:
        noisy = []
        previous = 0.0
        for cumulative in view.cumulative_ms:
            value = cumulative + float(self.rng.normal(0.0, self.hop_noise_ms))
            value = max(value, previous)
            noisy.append(value)
            previous = value
        return TracerouteResult(
            location_id=location_id,
            prefix24=prefix24,
            time=time,
            path=view.path,
            cumulative_ms=tuple(noisy),
        )

    def state_dict(self) -> dict:
        """JSON-safe snapshot: counters plus the exact noise-RNG state,
        so a restored engine draws the same measurement noise the
        uninterrupted run would have."""
        return {
            "probes_issued": self.probes_issued,
            "reverse_probes_issued": self.reverse_probes_issued,
            "probes_by_location": dict(self.probes_by_location),
            "rng": rng_state_dict(self.rng),
        }

    def load_state_dict(self, state: dict) -> None:
        """Inverse of :meth:`state_dict` (the oracle is not state)."""
        self.probes_issued = int(state["probes_issued"])
        self.reverse_probes_issued = int(state["reverse_probes_issued"])
        self.probes_by_location = {
            location: int(count)
            for location, count in state["probes_by_location"].items()
        }
        self.rng = rng_from_state_dict(state["rng"])
