"""Valley-free (Gao-Rexford) BGP route computation.

Routes honour the standard export rules:

* Routes learned from a *customer* are exported to everyone.
* Routes learned from a *peer* or a *provider* are exported only to
  customers.

Consequently a valid path is an uphill (customer→provider) segment,
at most one peer-peer link, then a downhill (provider→customer) segment.
Route selection prefers customer routes over peer routes over provider
routes, then shorter AS paths, then the lowest next-hop ASN (a
deterministic stand-in for tie-breaks like router-id).

The computer produces, per destination AS, the *candidate* routes available
to the cloud AS through each of its neighbors. Candidate sets (rather than
a single best path) matter because different cloud locations egress through
different neighbors (:mod:`repro.cloud.anycast`) and because simulating a
route withdrawal means falling back to the next candidate.
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass
from typing import Iterable

from repro.net.asn import ASPath
from repro.net.topology import ASTopology, RelationKind


class RoutePreference(enum.IntEnum):
    """Local-preference classes, lower is better."""

    CUSTOMER = 0
    PEER = 1
    PROVIDER = 2


@dataclass(frozen=True, slots=True)
class Route:
    """A route from the cloud AS to a destination AS.

    Attributes:
        path: Full AS path, cloud AS first, destination AS last.
        preference: Local preference class of the first hop.
    """

    path: ASPath
    preference: RoutePreference

    @property
    def first_hop(self) -> int:
        """The cloud's next-hop AS."""
        return self.path[1]

    def sort_key(self) -> tuple[int, int, int]:
        """Selection order: preference, then length, then next-hop ASN."""
        return (int(self.preference), len(self.path), self.path[1])

    def __str__(self) -> str:
        return " - ".join(f"AS{a}" for a in self.path)


@dataclass(frozen=True, slots=True)
class _SelectedRoute:
    """An AS's selected route towards the destination (internal)."""

    distance: int
    preference: RoutePreference
    next_hop: int  # next hop towards the destination; -1 at the destination


class RouteComputer:
    """Computes valley-free routes from a source AS over a topology.

    Results are cached per ``(destination, announce_to)`` pair, so repeated
    queries during a simulation are cheap. Call :meth:`invalidate` after
    mutating the topology.
    """

    def __init__(self, topology: ASTopology, source_asn: int) -> None:
        if source_asn not in topology:
            raise KeyError(f"source AS {source_asn} not in topology")
        self.topology = topology
        self.source_asn = source_asn
        self._cache: dict[tuple[int, frozenset[int] | None], tuple[Route, ...]] = {}
        self._selected_cache: dict[
            tuple[int, frozenset[int] | None], dict[int, _SelectedRoute]
        ] = {}

    # -- public API ----------------------------------------------------

    def candidate_routes(
        self, dest_asn: int, announce_to: Iterable[int] | None = None
    ) -> tuple[Route, ...]:
        """All routes the cloud AS can select towards ``dest_asn``.

        One route per cloud neighbor that legally exports a route, sorted
        by selection order (best first).

        Args:
            dest_asn: Destination (client) AS.
            announce_to: If given, the destination announces its prefix
                only to this subset of its neighbors (per-prefix traffic
                engineering). ``None`` means announce to all neighbors.

        Returns:
            Candidate routes, best first; empty if unreachable.
        """
        key = (dest_asn, frozenset(announce_to) if announce_to is not None else None)
        cached = self._cache.get(key)
        if cached is None:
            cached = self._compute(dest_asn, key[1])
            self._cache[key] = cached
        return cached

    def selected_path(
        self,
        from_asn: int,
        dest_asn: int,
        announce_to: Iterable[int] | None = None,
    ) -> ASPath | None:
        """The path *any* AS selects towards ``dest_asn``.

        The per-destination route computation already settles every AS's
        selected route, so asking for an arbitrary source is free after
        the first query for a destination. Used for **reverse** paths:
        the client AS's route back to the cloud is generally *not* the
        reverse of the cloud's forward route (routing asymmetry, §5.1).

        Returns:
            The full AS path from ``from_asn`` to ``dest_asn`` (both
            inclusive), or None when unreachable. ``(dest_asn,)`` when
            source and destination coincide.
        """
        if from_asn not in self.topology:
            raise KeyError(f"AS {from_asn} not in topology")
        key = (dest_asn, frozenset(announce_to) if announce_to is not None else None)
        selected = self._selected_cache.get(key)
        if selected is None:
            selected = self._selected_routes(dest_asn, key[1])
            self._selected_cache[key] = selected
        if from_asn == dest_asn:
            return (dest_asn,)
        if from_asn not in selected:
            return None
        return self._reconstruct(from_asn, dest_asn, selected)

    # -- computation ----------------------------------------------------

    def _compute(
        self, dest_asn: int, announce_to: frozenset[int] | None
    ) -> tuple[Route, ...]:
        if dest_asn not in self.topology:
            raise KeyError(f"destination AS {dest_asn} not in topology")
        selected = self._selected_routes(dest_asn, announce_to)
        routes = []
        for neighbor in self.topology.neighbors_of(self.source_asn):
            exported = self._exported_route(neighbor, selected)
            if exported is None:
                continue
            path = self._reconstruct(neighbor, dest_asn, selected)
            preference = self._preference_of(neighbor)
            routes.append(Route(path=(self.source_asn, *path), preference=preference))
        # A direct adjacency to the destination is itself a route.
        if self.topology.graph.has_edge(self.source_asn, dest_asn) and self._announced_to(
            dest_asn, self.source_asn, announce_to
        ):
            routes.append(
                Route(
                    path=(self.source_asn, dest_asn),
                    preference=self._preference_of(dest_asn),
                )
            )
        unique: dict[ASPath, Route] = {}
        for route in routes:
            unique.setdefault(route.path, route)
        return tuple(sorted(unique.values(), key=Route.sort_key))

    def _preference_of(self, neighbor: int) -> RoutePreference:
        relation = self.topology.relation(self.source_asn, neighbor)
        if relation is RelationKind.PEER_PEER:
            return RoutePreference.PEER
        if self.topology.is_provider_of(self.source_asn, neighbor):
            return RoutePreference.CUSTOMER
        return RoutePreference.PROVIDER

    @staticmethod
    def _announced_to(
        dest_asn: int, neighbor: int, announce_to: frozenset[int] | None
    ) -> bool:
        del dest_asn  # the restriction is defined relative to the destination
        return announce_to is None or neighbor in announce_to

    def _selected_routes(
        self, dest_asn: int, announce_to: frozenset[int] | None
    ) -> dict[int, _SelectedRoute]:
        """Each AS's selected route towards ``dest_asn``.

        Three phases, mirroring export rules: (1) BFS of pure downhill
        (customer) routes climbing the provider hierarchy from the
        destination; (2) peer routes = one peer link into a customer
        route; (3) Dijkstra-style relaxation of provider routes, where a
        provider exports whatever route it selected.
        """
        topo = self.topology
        customer: dict[int, _SelectedRoute] = {
            dest_asn: _SelectedRoute(0, RoutePreference.CUSTOMER, -1)
        }
        # Phase 1: customer routes. From the destination, announcements
        # travel to providers; an AS hearing the announcement from its
        # customer has a customer route.
        frontier = [dest_asn]
        while frontier:
            next_frontier: list[int] = []
            for asn in frontier:
                dist = customer[asn].distance
                providers = topo.providers_of(asn)
                for provider in providers:
                    if asn == dest_asn and not self._announced_to(
                        dest_asn, provider, announce_to
                    ):
                        continue
                    if provider not in customer:
                        customer[provider] = _SelectedRoute(
                            dist + 1, RoutePreference.CUSTOMER, asn
                        )
                        next_frontier.append(provider)
            frontier = next_frontier

        # Phase 2: peer routes. An AS with a peer holding a customer route
        # (or the destination itself as a peer) gets a peer route.
        peer: dict[int, _SelectedRoute] = {}
        for asn in topo.asns:
            if asn == dest_asn:
                continue
            best: _SelectedRoute | None = None
            for p in topo.peers_of(asn):
                if p == dest_asn and not self._announced_to(dest_asn, asn, announce_to):
                    continue
                via = customer.get(p)
                if via is None:
                    continue
                cand = _SelectedRoute(via.distance + 1, RoutePreference.PEER, p)
                if best is None or (cand.distance, cand.next_hop) < (
                    best.distance,
                    best.next_hop,
                ):
                    best = cand
            if best is not None:
                peer[asn] = best

        # Interim selection: customer beats peer.
        selected: dict[int, _SelectedRoute] = dict(peer)
        selected.update(customer)

        # Phase 3: provider routes. A provider exports its selected route
        # (of any kind) to customers. Relax with a priority queue since a
        # provider route can itself ride on another provider route.
        heap: list[tuple[int, int, int]] = []  # (distance, asn, via)
        for asn, route in selected.items():
            for cust in topo.customers_of(asn):
                if asn == dest_asn and not self._announced_to(
                    dest_asn, cust, announce_to
                ):
                    continue
                heapq.heappush(heap, (route.distance + 1, cust, asn))
        while heap:
            dist, asn, via = heapq.heappop(heap)
            current = selected.get(asn)
            if current is not None and (
                current.preference < RoutePreference.PROVIDER
                or current.distance <= dist
            ):
                continue
            selected[asn] = _SelectedRoute(dist, RoutePreference.PROVIDER, via)
            for cust in topo.customers_of(asn):
                heapq.heappush(heap, (dist + 1, cust, asn))
        return selected

    def _exported_route(
        self, neighbor: int, selected: dict[int, _SelectedRoute]
    ) -> _SelectedRoute | None:
        """The route ``neighbor`` exports to the cloud AS, or None."""
        route = selected.get(neighbor)
        if route is None:
            return None
        if self.topology.is_provider_of(neighbor, self.source_asn):
            # Our provider exports anything it selected.
            return route
        # A customer or peer exports only customer routes.
        if route.preference is RoutePreference.CUSTOMER:
            return route
        return None

    @staticmethod
    def _reconstruct(
        start: int, dest_asn: int, selected: dict[int, _SelectedRoute]
    ) -> ASPath:
        """Follow next-hop pointers from ``start`` to the destination."""
        path = [start]
        current = start
        while current != dest_asn:
            route = selected[current]
            current = route.next_hop
            path.append(current)
            if len(path) > len(selected) + 1:
                raise RuntimeError("routing loop during path reconstruction")
        return tuple(path)
