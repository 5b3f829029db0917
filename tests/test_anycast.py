"""Tests for repro.cloud.anycast: serving assignment and egress selection."""

import numpy as np
import pytest

from repro.cloud.anycast import AnycastMapper
from repro.cloud.clients import PopulationParams, generate_population
from repro.cloud.locations import make_locations
from repro.net.geo import Region, metro_distance_km
from repro.net.routing import RouteComputer


@pytest.fixture(scope="module")
def setup(small_topology):
    rng = np.random.default_rng(21)
    locations = make_locations((Region.USA, Region.EUROPE, Region.INDIA), 2, rng)
    population = generate_population(
        small_topology.topology, PopulationParams(), np.random.default_rng(9)
    )
    computer = RouteComputer(small_topology.topology, small_topology.cloud_asn)
    mapper = AnycastMapper(locations, small_topology.topology, computer)
    return locations, population, mapper


class TestAssignment:
    def test_primary_is_nearest(self, setup):
        locations, population, mapper = setup
        rng = np.random.default_rng(0)
        for client in list(population)[:20]:
            assignment = mapper.assignment_for(client, rng)
            best = min(
                metro_distance_km(l.metro, client.metro) for l in locations
            )
            actual = metro_distance_km(assignment.primary.metro, client.metro)
            assert actual == pytest.approx(best)

    def test_secondary_distinct_from_primary(self, setup):
        _, population, mapper = setup
        rng = np.random.default_rng(1)
        saw_secondary = False
        for client in population:
            assignment = mapper.assignment_for(client, rng)
            if assignment.secondary is not None:
                saw_secondary = True
                assert assignment.secondary != assignment.primary
                assert 0 < assignment.secondary_share < 1
        assert saw_secondary

    def test_secondary_fraction_zero_disables(self, setup, small_topology):
        locations, population, _ = setup
        computer = RouteComputer(small_topology.topology, small_topology.cloud_asn)
        mapper = AnycastMapper(
            locations, small_topology.topology, computer, secondary_fraction=0.0
        )
        rng = np.random.default_rng(2)
        for client in list(population)[:20]:
            assert mapper.assignment_for(client, rng).secondary is None


class TestEgressSelection:
    def test_path_endpoints(self, setup):
        locations, population, mapper = setup
        for client in list(population)[:20]:
            path = mapper.path_for(locations[0], client)
            assert path is not None
            assert path[-1] == client.asn

    def test_path_cached(self, setup):
        locations, population, mapper = setup
        client = population.prefixes[0]
        assert mapper.path_for(locations[0], client) is mapper.path_for(
            locations[0], client
        )

    def test_alternate_differs_from_primary(self, setup):
        locations, population, mapper = setup
        found_alternate = False
        for client in population:
            primary = mapper.path_for(locations[0], client)
            alternate = mapper.alternate_path_for(locations[0], client)
            if alternate is not None:
                found_alternate = True
                assert alternate != primary
        assert found_alternate

    def test_same_as_prefixes_share_paths(self, setup):
        """Prefixes of one AS with the same announcement scope must ride
        the same path from a given location."""
        locations, population, mapper = setup
        by_scope: dict = {}
        for client in population:
            key = (client.asn, client.announce_to)
            path = mapper.path_for(locations[0], client)
            assert by_scope.setdefault(key, path) == path
