"""Tests for repro.net.routing: valley-free route computation."""

import numpy as np
import pytest

from repro.net.asn import ASTier, AutonomousSystem
from repro.net.geo import Region
from repro.net.routing import RouteComputer, RoutePreference
from repro.net.topology import (
    ASTopology,
    CLOUD_ASN,
    TopologyParams,
    generate_topology,
)


def _hand_topology() -> ASTopology:
    """cloud(1) peers t1(10); t1 sells to transit(20); transit sells to
    access(30, 31); cloud also peers transit(21) which sells to 31."""
    topo = ASTopology()
    topo.add_as(AutonomousSystem(1, "cloud", ASTier.CLOUD))
    topo.add_as(AutonomousSystem(10, "t1", ASTier.TIER1))
    topo.add_as(AutonomousSystem(20, "transitA", ASTier.TRANSIT))
    topo.add_as(AutonomousSystem(21, "transitB", ASTier.TRANSIT))
    topo.add_as(AutonomousSystem(30, "ispA", ASTier.ACCESS))
    topo.add_as(AutonomousSystem(31, "ispB", ASTier.ACCESS))
    topo.add_peering(1, 10)
    topo.add_provider_customer(10, 20)
    topo.add_provider_customer(10, 21)
    topo.add_provider_customer(20, 30)
    topo.add_provider_customer(20, 31)
    topo.add_provider_customer(21, 31)
    topo.add_peering(1, 21)
    return topo


class TestHandBuiltRoutes:
    def test_single_route_via_tier1(self):
        computer = RouteComputer(_hand_topology(), 1)
        route = computer.candidate_routes(30)[0]
        assert route is not None
        assert route.path == (1, 10, 20, 30)
        assert route.preference is RoutePreference.PEER

    def test_prefers_shorter_peer_route(self):
        computer = RouteComputer(_hand_topology(), 1)
        route = computer.candidate_routes(31)[0]
        # Direct peering with transitB gives a 3-hop route; via tier1 is 4.
        assert route.path == (1, 21, 31)

    def test_candidates_sorted_best_first(self):
        computer = RouteComputer(_hand_topology(), 1)
        candidates = computer.candidate_routes(31)
        assert len(candidates) == 2
        assert candidates[0].path == (1, 21, 31)
        assert candidates[1].path == (1, 10, 20, 31)
        assert [len(c.path) for c in candidates] == sorted(
            len(c.path) for c in candidates
        )

    def test_announce_restriction_prunes_provider(self):
        computer = RouteComputer(_hand_topology(), 1)
        # AS31 announces only to transitA (20): the direct 21-route vanishes.
        route = computer.candidate_routes(31, announce_to={20})[0]
        assert route.path == (1, 10, 20, 31)

    def test_unreachable_when_no_announcement(self):
        topo = _hand_topology()
        computer = RouteComputer(topo, 1)
        assert not computer.candidate_routes(31, announce_to=frozenset())

    def test_unknown_destination_raises(self):
        computer = RouteComputer(_hand_topology(), 1)
        with pytest.raises(KeyError):
            computer.candidate_routes(999)


def _is_valley_free(topo: ASTopology, path: tuple[int, ...]) -> bool:
    """Check the uphill / one-peer / downhill shape of a path."""
    # Phases: 0 = uphill (customer->provider), 1 = peer link used,
    # 2 = downhill (provider->customer).
    phase = 0
    for a, b in zip(path, path[1:]):
        if topo.is_provider_of(b, a):  # uphill step
            if phase != 0:
                return False
        elif topo.is_provider_of(a, b):  # downhill step
            phase = 2
        else:  # peer step
            if phase != 0:
                return False
            phase = 2
    return True


def _access_asns(generated) -> list[int]:
    return sorted(asn for asns in generated.access_asns_by_region.values() for asn in asns)


class TestGeneratedRoutes:
    @pytest.fixture(scope="class")
    def generated(self):
        params = TopologyParams(
            regions=(Region.USA, Region.EUROPE), n_tier1=4, transits_per_region=3
        )
        return generate_topology(params, np.random.default_rng(3))

    def test_all_access_ases_reachable(self, generated):
        computer = RouteComputer(generated.topology, CLOUD_ASN)
        for asn in _access_asns(generated):
            assert computer.candidate_routes(asn)

    def test_all_routes_valley_free(self, generated):
        computer = RouteComputer(generated.topology, CLOUD_ASN)
        for asn in _access_asns(generated):
            for route in computer.candidate_routes(asn):
                assert _is_valley_free(generated.topology, route.path), route.path

    def test_paths_are_simple(self, generated):
        computer = RouteComputer(generated.topology, CLOUD_ASN)
        for asn in _access_asns(generated):
            for route in computer.candidate_routes(asn):
                assert len(set(route.path)) == len(route.path)

    def test_route_endpoints(self, generated):
        computer = RouteComputer(generated.topology, CLOUD_ASN)
        for asn in _access_asns(generated)[:10]:
            route = computer.candidate_routes(asn)[0]
            assert route.path[0] == CLOUD_ASN
            assert route.path[-1] == asn

    def test_cache_stability(self, generated):
        computer = RouteComputer(generated.topology, CLOUD_ASN)
        asn = _access_asns(generated)[0]
        first = computer.candidate_routes(asn)
        second = computer.candidate_routes(asn)
        assert first is second  # cached object identity

    def test_restricted_announcement_subset_of_full(self, generated):
        """Restricting announcements can only remove candidate routes."""
        topo = generated.topology
        computer = RouteComputer(topo, CLOUD_ASN)
        for asn in _access_asns(generated)[:8]:
            providers = topo.providers_of(asn)
            if len(providers) < 2:
                continue
            full = {r.path for r in computer.candidate_routes(asn)}
            restricted = {
                r.path
                for r in computer.candidate_routes(asn, announce_to={providers[0]})
            }
            assert restricted <= full
