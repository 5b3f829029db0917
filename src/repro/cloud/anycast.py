"""Anycast client-to-location mapping and per-location route selection.

Clients connect "to one of the nearest cloud locations", with BGP anycast
directing them (§2.1, footnote 2). We model the steady-state outcome:
each client prefix has a primary serving location (geographically nearest
in its ring) and, for a fraction of prefixes, a secondary location that a
minority of connections reach — which is what lets Algorithm 1 mark a
quartet "ambiguous" when the same /24 sees good RTT at another location.

Per-location egress selection: the cloud AS's candidate routes to a client
AS are computed once (:class:`repro.net.routing.RouteComputer`); each
location prefers candidates whose first-hop AS has presence in the
location's region (realistic hot-potato egress), then falls back to global
preference order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cloud.clients import ClientPrefix
from repro.cloud.locations import CloudLocation
from repro.net.asn import ASPath
from repro.net.geo import Metro, metro_distance_km, propagation_rtt_ms
from repro.net.routing import Route, RouteComputer
from repro.net.topology import ASTopology


@dataclass(frozen=True, slots=True)
class RingFlap:
    """An anycast ring event remapping one metro to a farther front end.

    BGP anycast occasionally re-converges so that a whole metro's
    traffic lands on the *next* ring member instead of its nearest
    (§2.1 footnote 2 — ring withdrawals during maintenance do exactly
    this). While active, every client in the metro pays the extra
    propagation to the farther location. The inflation sits on the
    *cloud* segment — the provider's own announcement moved the metro —
    even though from the client ISP's viewpoint nothing changed, which
    is precisely the misattribution trap the suite scores.

    Attributes:
        flap_id: Unique id within a scenario.
        metro_name: The remapped client metro.
        from_location_id: The metro's normal (nearest) serving location.
        to_location_id: The farther ring member absorbing the traffic.
        start: First affected bucket.
        duration: Number of affected buckets (≥ 1).
        added_ms: Extra round-trip latency of the farther front end.
    """

    flap_id: int
    metro_name: str
    from_location_id: str
    to_location_id: str
    start: int
    duration: int
    added_ms: float

    def __post_init__(self) -> None:
        if self.duration < 1:
            raise ValueError("duration must be at least one bucket")
        if self.added_ms <= 0:
            raise ValueError("added_ms must be positive")


@dataclass(frozen=True, slots=True)
class ServingAssignment:
    """Where a client prefix's connections land.

    Attributes:
        primary: Location receiving most connections.
        secondary: Optional second location receiving a minority share
            (None if the prefix is single-homed to the anycast ring).
        secondary_share: Fraction of connections hitting the secondary.
    """

    primary: CloudLocation
    secondary: CloudLocation | None
    secondary_share: float = 0.0


class AnycastMapper:
    """Maps client prefixes to serving locations and selects egress routes."""

    def __init__(
        self,
        locations: tuple[CloudLocation, ...],
        topology: ASTopology,
        route_computer: RouteComputer,
        secondary_fraction: float = 0.25,
        secondary_share: float = 0.2,
    ) -> None:
        """
        Args:
            locations: All edge locations.
            topology: The AS graph (used for region-presence checks).
            route_computer: Valley-free route computer rooted at the
                cloud AS.
            secondary_fraction: Fraction of prefixes that also reach a
                secondary location.
            secondary_share: Connection share of the secondary location.
        """
        if not locations:
            raise ValueError("need at least one cloud location")
        self.locations = locations
        self.topology = topology
        self.routes = route_computer
        self.secondary_fraction = secondary_fraction
        self.secondary_share = secondary_share
        self._path_cache: dict[tuple[str, int, frozenset[int] | None], ASPath | None] = {}

    # -- serving locations ------------------------------------------------

    def assignment_for(
        self,
        client: ClientPrefix,
        rng: np.random.Generator,
        locations: tuple[CloudLocation, ...] | None = None,
    ) -> ServingAssignment:
        """Primary (and possibly secondary) serving location for a prefix.

        The primary is the geographically nearest location; the secondary,
        when present, is the second nearest.

        Args:
            client: The prefix to place.
            rng: Drives the secondary-location coin flip.
            locations: Restrict the choice to a subset (an anycast ring's
                members, §2.1 footnote 2); all locations when None.

        Raises:
            ValueError: If an empty location subset is given.
        """
        pool = locations if locations is not None else self.locations
        if not pool:
            raise ValueError("cannot assign a client within an empty ring")
        ranked = sorted(
            pool,
            key=lambda loc: (metro_distance_km(loc.metro, client.metro), loc.location_id),
        )
        primary = ranked[0]
        secondary = None
        share = 0.0
        if len(ranked) > 1 and rng.random() < self.secondary_fraction:
            secondary = ranked[1]
            share = self.secondary_share
        return ServingAssignment(primary=primary, secondary=secondary, secondary_share=share)

    def ring_order(self, metro: Metro) -> tuple[CloudLocation, ...]:
        """All locations in the metro's anycast preference order.

        Index 0 is the metro's steady-state primary; a ring flap shifts
        the metro one position down this list.
        """
        return tuple(
            sorted(
                self.locations,
                key=lambda loc: (metro_distance_km(loc.metro, metro), loc.location_id),
            )
        )

    def plan_ring_flap(
        self,
        metro: Metro,
        flap_id: int,
        start: int,
        duration: int,
        min_added_ms: float = 12.0,
    ) -> RingFlap | None:
        """Plan a flap remapping ``metro`` to its next-farther ring member.

        The added latency is the extra round-trip propagation between the
        metro and the two front ends, floored at ``min_added_ms`` (even a
        nearby fallback adds peering-handoff and queueing latency during
        re-convergence). Returns None when the ring has a single member.
        """
        ranked = self.ring_order(metro)
        if len(ranked) < 2:
            return None
        primary, fallback = ranked[0], ranked[1]
        extra = propagation_rtt_ms(
            metro_distance_km(fallback.metro, metro)
        ) - propagation_rtt_ms(metro_distance_km(primary.metro, metro))
        return RingFlap(
            flap_id=flap_id,
            metro_name=metro.name,
            from_location_id=primary.location_id,
            to_location_id=fallback.location_id,
            start=start,
            duration=duration,
            added_ms=max(min_added_ms, float(extra)),
        )

    # -- egress route selection --------------------------------------------

    def path_for(self, location: CloudLocation, client: ClientPrefix) -> ASPath | None:
        """The AS path from ``location`` to ``client``'s prefix.

        Returns None when the prefix is unreachable (withdrawn everywhere).
        """
        key = (location.location_id, client.asn, client.announce_to)
        if key in self._path_cache:
            return self._path_cache[key]
        candidates = self.routes.candidate_routes(client.asn, client.announce_to)
        path = self._select_for_location(location, candidates)
        self._path_cache[key] = path
        return path

    def alternate_path_for(
        self, location: CloudLocation, client: ClientPrefix
    ) -> ASPath | None:
        """The next-best path (used when the current best is withdrawn)."""
        candidates = self.routes.candidate_routes(client.asn, client.announce_to)
        current = self.path_for(location, client)
        remaining = tuple(r for r in candidates if r.path != current)
        return self._select_for_location(location, remaining)

    def _select_for_location(
        self, location: CloudLocation, candidates: tuple[Route, ...]
    ) -> ASPath | None:
        """Rank candidates for one location: local first-hop wins ties."""
        if not candidates:
            return None

        def rank(route: Route) -> tuple[int, int, int, int]:
            first_hop = self.topology.as_info(route.first_hop)
            local = any(m.region is location.region for m in first_hop.metros)
            return (0 if local else 1, *route.sort_key())

        return min(candidates, key=rank).path
