"""Tests for repro.net.topology: graph structure and relationships."""

import dataclasses

import numpy as np
import pytest

from repro.net.asn import ASTier, AutonomousSystem
from repro.net.geo import Region
from repro.net.topology import (
    ASTopology,
    CLOUD_ASN,
    RelationKind,
    TopologyParams,
    generate_topology,
)
from repro.sim.scenario import build_world


class TestASTopology:
    def _two_as_topo(self):
        topo = ASTopology()
        topo.add_as(AutonomousSystem(1, "a", ASTier.TRANSIT))
        topo.add_as(AutonomousSystem(2, "b", ASTier.ACCESS))
        return topo

    def test_provider_customer_orientation(self):
        topo = self._two_as_topo()
        topo.add_provider_customer(1, 2)
        assert topo.is_provider_of(1, 2)
        assert not topo.is_provider_of(2, 1)
        assert topo.providers_of(2) == (1,)
        assert topo.customers_of(1) == (2,)
        assert topo.relation(1, 2) is RelationKind.PROVIDER_CUSTOMER

    def test_peering(self):
        topo = self._two_as_topo()
        topo.add_peering(1, 2)
        assert topo.peers_of(1) == (2,)
        assert topo.peers_of(2) == (1,)
        assert not topo.is_provider_of(1, 2)

    def test_duplicate_asn_rejected(self):
        topo = self._two_as_topo()
        with pytest.raises(ValueError):
            topo.add_as(AutonomousSystem(1, "dup", ASTier.ACCESS))

    def test_unknown_edge_endpoint_rejected(self):
        topo = self._two_as_topo()
        with pytest.raises(KeyError):
            topo.add_peering(1, 99)

    def test_query_after_a_mutation_sees_it(self):
        """The neighbour queries are memoized; each mutator clears the
        memo, so a query asked before an edge or an AS was added answers
        with it afterwards."""
        topo = self._two_as_topo()
        assert topo.providers_of(2) == () and topo.neighbors_of(1) == ()
        topo.add_provider_customer(1, 2)
        assert topo.providers_of(2) == (1,)
        assert topo.customers_of(1) == (2,)
        assert topo.neighbors_of(1) == (2,)
        topo.add_as(AutonomousSystem(3, "c", ASTier.TRANSIT))
        assert topo.peers_of(3) == ()
        topo.add_peering(1, 3)
        assert topo.peers_of(3) == (1,)
        assert topo.peers_of(1) == (3,)
        assert topo.neighbors_of(1) == (2, 3)
        assert topo.customers_of(1) == (2,) and topo.providers_of(1) == ()


class TestGeneratedTopology:
    def test_counts(self, small_topology):
        topo = small_topology.topology
        assert len(small_topology.tier1_asns) == 4
        assert len(topo.ases_by_tier(ASTier.TRANSIT)) == 3 * 3
        assert len(topo.ases_by_tier(ASTier.ACCESS)) == 3 * 6
        assert len(topo.ases_by_tier(ASTier.CLOUD)) == 1

    def test_cloud_peers_with_all_tier1s(self, small_topology):
        topo = small_topology.topology
        for tier1 in small_topology.tier1_asns:
            assert tier1 in topo.peers_of(CLOUD_ASN)

    def test_tier1_full_mesh(self, small_topology):
        topo = small_topology.topology
        tier1s = small_topology.tier1_asns
        for a in tier1s:
            for b in tier1s:
                if a != b:
                    assert b in topo.peers_of(a)

    def test_every_access_as_has_a_provider(self, small_topology):
        topo = small_topology.topology
        for asys in topo.ases_by_tier(ASTier.ACCESS):
            assert topo.providers_of(asys.asn)

    def test_every_transit_buys_from_tier1(self, small_topology):
        topo = small_topology.topology
        tier1s = set(small_topology.tier1_asns)
        for asys in topo.ases_by_tier(ASTier.TRANSIT):
            assert set(topo.providers_of(asys.asn)) & tier1s

    def test_access_metros_match_region(self, small_topology):
        topo = small_topology.topology
        for region, asns in small_topology.access_asns_by_region.items():
            for asn in asns:
                for metro in topo.as_info(asn).metros:
                    assert metro.region is region

    def test_deterministic_by_seed(self):
        params = TopologyParams(regions=(Region.USA,), n_tier1=3)
        a = generate_topology(params, np.random.default_rng(5))
        b = generate_topology(params, np.random.default_rng(5))
        assert a.access_asns_by_region == b.access_asns_by_region
        assert sorted(a.topology.graph.edges) == sorted(b.topology.graph.edges)

    def test_memo_leaves_the_slot_table_unchanged(self, small_params, monkeypatch):
        """A world built with the neighbour memo has the slot table of
        one built with every query answered from the graph afresh."""
        memoized = build_world(small_params).slot_table
        neighbours = ASTopology._neighbours

        def fresh(topology, asn):
            topology._memo.clear()  # noqa: SLF001
            return neighbours(topology, asn)

        monkeypatch.setattr(ASTopology, "_neighbours", fresh)
        unmemoized = build_world(small_params).slot_table
        for field in dataclasses.fields(memoized):
            got = getattr(memoized, field.name)
            expected = getattr(unmemoized, field.name)
            if isinstance(expected, np.ndarray):
                assert got.dtype == expected.dtype
                assert np.array_equal(got, expected, equal_nan=True), field.name
            else:
                assert got == expected, field.name

    def test_params_validation(self):
        with pytest.raises(ValueError):
            TopologyParams(n_tier1=0)
        with pytest.raises(ValueError):
            TopologyParams(regions=())
        with pytest.raises(ValueError):
            TopologyParams(enterprise_fraction=1.5)
