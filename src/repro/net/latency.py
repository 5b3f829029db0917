"""Per-segment WAN latency model.

BlameIt decomposes an end-to-end RTT into three segments — cloud, middle,
client — and, within the middle, per-AS contributions. The latency model
produces exactly that decomposition for any (cloud metro, AS path, client
metro) triple:

* a small cloud-segment latency (server + intra-cloud to egress),
* per-middle-AS latencies that jointly carry the geographic propagation
  delay between the cloud and client metros plus per-AS processing,
* a client-segment (last mile) latency, larger for mobile clients.

The split of propagation across middle ASes is deterministic per path
(hash-seeded), so repeated queries — and in particular the before/after
traceroute comparisons of §5.2 — see a stable baseline.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.net.asn import ASPath
from repro.net.geo import Metro, metro_distance_km, propagation_rtt_ms


@dataclass(frozen=True, slots=True)
class PathLatency:
    """Baseline latency decomposition of one cloud-to-client path.

    Attributes:
        cloud_ms: Cloud-segment contribution (server + egress).
        middle_ms: Per-AS contributions of the middle segment, in path
            order (may be empty for a direct adjacency).
        client_ms: Client-segment (access network) contribution.
    """

    cloud_ms: float
    middle_ms: tuple[float, ...]
    client_ms: float

    @property
    def total_ms(self) -> float:
        """End-to-end baseline RTT."""
        return self.cloud_ms + sum(self.middle_ms) + self.client_ms


@dataclass(frozen=True)
class LatencyParams:
    """Knobs for the latency model.

    Attributes:
        cloud_base_ms: Mean cloud-segment latency.
        per_as_hop_ms: Mean per-middle-AS processing latency (on top of
            the propagation share).
        client_fixed_ms: Mean last-mile latency for non-mobile clients.
        client_mobile_extra_ms: Extra mean last-mile latency for mobile
            (cellular) clients.
        noise_sigma: Relative RTT noise of one sample; a quartet mean's
            noise shrinks with the square root of its sample count
            (0 disables noise).
    """

    cloud_base_ms: float = 2.0
    per_as_hop_ms: float = 1.5
    client_fixed_ms: float = 8.0
    client_mobile_extra_ms: float = 25.0
    noise_sigma: float = 0.08


def _stable_unit_weights(key: str, n: int) -> np.ndarray:
    """Deterministic positive weights summing to 1, derived from ``key``."""
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    seed = int.from_bytes(digest[:8], "big")
    rng = np.random.default_rng(seed)
    raw = rng.gamma(shape=2.0, scale=1.0, size=n) + 0.05
    return raw / raw.sum()


class LatencyModel:
    """Maps (cloud metro, AS path, client metro, mobility) to latencies.

    The model is memoryless across time: time-varying effects (faults,
    diurnal congestion) are layered on top by :mod:`repro.sim`.
    """

    def __init__(self, params: LatencyParams | None = None) -> None:
        self.params = params or LatencyParams()
        self._cache: dict[tuple[str, ASPath, str, bool], PathLatency] = {}

    def path_latency(
        self,
        cloud_metro: Metro,
        path: ASPath,
        client_metro: Metro,
        mobile: bool = False,
    ) -> PathLatency:
        """Baseline latency decomposition for a path.

        Args:
            cloud_metro: Metro of the serving cloud location.
            path: Full AS path (cloud AS first, client AS last).
            client_metro: Metro of the client prefix.
            mobile: Whether the client is on cellular connectivity.

        Returns:
            A :class:`PathLatency`; stable across calls.
        """
        key = (cloud_metro.name, path, client_metro.name, mobile)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        params = self.params
        middle_count = max(0, len(path) - 2)
        distance = metro_distance_km(cloud_metro, client_metro)
        propagation = propagation_rtt_ms(distance)

        hash_key = f"{cloud_metro.name}|{'-'.join(map(str, path))}|{client_metro.name}"
        if middle_count:
            weights = _stable_unit_weights(hash_key, middle_count)
            hop_noise = _stable_unit_weights(hash_key + "|hop", middle_count)
            middle = tuple(
                float(propagation * w + params.per_as_hop_ms * middle_count * h)
                for w, h in zip(weights, hop_noise)
            )
            client_extra = 0.0
        else:
            middle = ()
            # Direct adjacency: propagation folds into the client segment.
            client_extra = propagation

        cloud_ms = params.cloud_base_ms * (
            0.7 + 0.6 * _stable_unit_weights(hash_key + "|cloud", 2)[0]
        )
        client_ms = params.client_fixed_ms * (
            0.7 + 0.6 * _stable_unit_weights(hash_key + "|client", 2)[0]
        )
        if mobile:
            client_ms += params.client_mobile_extra_ms
        latency = PathLatency(
            cloud_ms=float(cloud_ms),
            middle_ms=middle,
            client_ms=float(client_ms + client_extra),
        )
        self._cache[key] = latency
        return latency
