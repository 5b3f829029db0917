"""Hierarchical AS-graph generation with Gao-Rexford business relationships.

The generated topology mirrors the structure BlameIt's paths traverse in
production: one cloud AS present at every edge location, a clique of global
tier-1 carriers, regional transit providers hanging off the tier-1s, and
access (eyeball) ASes that originate client prefixes. Edges carry a
customer-provider or peer-peer relationship; route computation in
:mod:`repro.net.routing` honours the resulting valley-free export rules.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import NamedTuple

import networkx as nx
import numpy as np

from repro.net.asn import ASTier, AutonomousSystem
from repro.net.geo import Metro, Region, WORLD_METROS, metros_in_region

#: ASN reserved for the cloud provider in every generated topology.
CLOUD_ASN = 8075


class RelationKind(enum.Enum):
    """Business relationship on an inter-AS edge."""

    #: ``u`` is the provider, ``v`` is the customer (transit sold to ``v``).
    PROVIDER_CUSTOMER = "p2c"
    #: Settlement-free peering.
    PEER_PEER = "p2p"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class TopologyParams:
    """Knobs controlling topology generation.

    Attributes:
        regions: Regions to populate with transit and access ASes.
        n_tier1: Number of global tier-1 carriers (fully meshed peers).
        transits_per_region: Regional transit providers per region.
        access_per_region: Access (eyeball) ASes per region.
        enterprise_fraction: Fraction of access ASes that are enterprise
            networks (well-provisioned, daytime-active).
        cloud_peers_with_transits: Probability that the cloud AS peers
            directly with a given regional transit (mature regions get
            direct peering more often in practice; we apply it uniformly
            and let the region mix drive differences).
        multihome_fraction: Fraction of access ASes with two transit
            providers instead of one.
    """

    regions: tuple[Region, ...] = tuple(Region)
    n_tier1: int = 6
    transits_per_region: int = 4
    access_per_region: int = 12
    enterprise_fraction: float = 0.3
    cloud_peers_with_transits: float = 0.5
    multihome_fraction: float = 0.4

    def __post_init__(self) -> None:
        if self.n_tier1 < 1:
            raise ValueError("need at least one tier-1 AS")
        if not self.regions:
            raise ValueError("need at least one region")
        for name in ("enterprise_fraction", "cloud_peers_with_transits", "multihome_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")


class _Neighbours(NamedTuple):
    """One AS's direct neighbours by relation, each sorted."""

    providers: tuple[int, ...]
    customers: tuple[int, ...]
    peers: tuple[int, ...]
    all: tuple[int, ...]


class ASTopology:
    """An AS-level graph with business relationships.

    Wraps a :class:`networkx.Graph` whose nodes are ASNs and whose edges
    carry a ``relation`` attribute. For ``PROVIDER_CUSTOMER`` edges the
    provider/customer orientation is stored explicitly in the ``provider``
    edge attribute (networkx graphs are undirected).
    """

    def __init__(self) -> None:
        self.graph = nx.Graph()
        self._ases: dict[int, AutonomousSystem] = {}
        # ASN → its neighbours by relation. Route computation asks the
        # neighbour queries thousands of times per world; every mutator
        # clears the memo.
        self._memo: dict[int, _Neighbours] = {}

    # -- construction -------------------------------------------------

    def add_as(self, asys: AutonomousSystem) -> None:
        """Register an AS as a node."""
        if asys.asn in self._ases:
            raise ValueError(f"duplicate ASN {asys.asn}")
        self._ases[asys.asn] = asys
        self.graph.add_node(asys.asn)
        self._memo.clear()

    def add_provider_customer(self, provider: int, customer: int) -> None:
        """Add a transit edge where ``provider`` sells transit to ``customer``."""
        self._check_nodes(provider, customer)
        self.graph.add_edge(
            provider, customer, relation=RelationKind.PROVIDER_CUSTOMER, provider=provider
        )
        self._memo.clear()

    def add_peering(self, a: int, b: int) -> None:
        """Add a settlement-free peering edge."""
        self._check_nodes(a, b)
        self.graph.add_edge(a, b, relation=RelationKind.PEER_PEER, provider=None)
        self._memo.clear()

    def _check_nodes(self, *asns: int) -> None:
        for asn in asns:
            if asn not in self._ases:
                raise KeyError(f"unknown ASN {asn}")

    # -- queries ------------------------------------------------------

    @property
    def asns(self) -> tuple[int, ...]:
        """All ASNs, sorted."""
        return tuple(sorted(self._ases))

    def as_info(self, asn: int) -> AutonomousSystem:
        """The :class:`AutonomousSystem` record for ``asn``."""
        return self._ases[asn]

    def ases_by_tier(self, tier: ASTier) -> tuple[AutonomousSystem, ...]:
        """All ASes of a tier, in ASN order."""
        return tuple(self._ases[a] for a in self.asns if self._ases[a].tier == tier)

    def relation(self, a: int, b: int) -> RelationKind:
        """Relationship on edge (a, b).

        Raises:
            KeyError: If the edge does not exist.
        """
        return self.graph.edges[a, b]["relation"]

    def is_provider_of(self, a: int, b: int) -> bool:
        """Whether ``a`` sells transit to ``b`` over a direct edge."""
        data = self.graph.get_edge_data(a, b)
        return bool(data) and data["provider"] == a

    def providers_of(self, asn: int) -> tuple[int, ...]:
        """ASNs selling transit to ``asn``, sorted."""
        return self._neighbours(asn).providers

    def customers_of(self, asn: int) -> tuple[int, ...]:
        """ASNs buying transit from ``asn``, sorted."""
        return self._neighbours(asn).customers

    def peers_of(self, asn: int) -> tuple[int, ...]:
        """Settlement-free peers of ``asn``, sorted."""
        return self._neighbours(asn).peers

    def neighbors_of(self, asn: int) -> tuple[int, ...]:
        """All direct neighbors, sorted."""
        return self._neighbours(asn).all

    def _neighbours(self, asn: int) -> _Neighbours:
        """``asn``'s neighbours by relation, from one walk of its edges
        per state of the graph."""
        neighbours = self._memo.get(asn)
        if neighbours is None:
            providers, customers, peers = [], [], []
            for other, data in self.graph.adj[asn].items():
                if data["relation"] is RelationKind.PEER_PEER:
                    peers.append(other)
                elif data["provider"] == other:
                    providers.append(other)
                else:
                    customers.append(other)
            neighbours = self._memo[asn] = _Neighbours(
                tuple(sorted(providers)),
                tuple(sorted(customers)),
                tuple(sorted(peers)),
                tuple(sorted(self.graph.adj[asn])),
            )
        return neighbours

    def __contains__(self, asn: int) -> bool:
        return asn in self._ases


@dataclass
class GeneratedTopology:
    """Result of :func:`generate_topology`.

    Attributes:
        topology: The AS graph.
        cloud_asn: ASN of the cloud provider.
        tier1_asns: Global carriers.
        transit_asns_by_region: Regional transit ASNs keyed by region.
        access_asns_by_region: Access ASNs keyed by region.
    """

    topology: ASTopology
    cloud_asn: int
    tier1_asns: tuple[int, ...]
    transit_asns_by_region: dict[Region, tuple[int, ...]] = field(default_factory=dict)
    access_asns_by_region: dict[Region, tuple[int, ...]] = field(default_factory=dict)


def _pick_metros(
    rng: np.random.Generator, region: Region, k: int
) -> tuple[Metro, ...]:
    """Choose up to ``k`` distinct metros in a region."""
    pool = metros_in_region(region)
    if not pool:
        raise ValueError(f"no catalogue metros in region {region}")
    k = min(k, len(pool))
    idx = rng.choice(len(pool), size=k, replace=False)
    return tuple(pool[i] for i in sorted(idx))


def generate_topology(
    params: TopologyParams, rng: np.random.Generator
) -> GeneratedTopology:
    """Generate a hierarchical AS topology.

    Structure:

    * One cloud AS (:data:`CLOUD_ASN`) present in all metros of the chosen
      regions, peering with every tier-1 and with a random subset of
      regional transits.
    * ``n_tier1`` tier-1 carriers, fully meshed peers, present worldwide.
    * Per region, ``transits_per_region`` transit ASes, each a customer of
      1-2 tier-1s and peered with one other transit in the region.
    * Per region, ``access_per_region`` access ASes, each a customer of one
      or two regional transits (multi-homing per ``multihome_fraction``).

    Args:
        params: Generation knobs.
        rng: Seeded random generator; identical seeds give identical
            topologies.

    Returns:
        A :class:`GeneratedTopology` bundle.
    """
    topo = ASTopology()
    cloud_metros = tuple(m for m in WORLD_METROS if m.region in params.regions)
    topo.add_as(
        AutonomousSystem(CLOUD_ASN, "CloudNet", ASTier.CLOUD, metros=cloud_metros)
    )

    next_asn = 100
    tier1_asns: list[int] = []
    for i in range(params.n_tier1):
        asn = next_asn
        next_asn += 1
        topo.add_as(
            AutonomousSystem(asn, f"Tier1-{i}", ASTier.TIER1, metros=tuple(WORLD_METROS))
        )
        tier1_asns.append(asn)

    # Tier-1 full mesh and cloud peering with every tier-1.
    for i, a in enumerate(tier1_asns):
        for b in tier1_asns[i + 1 :]:
            topo.add_peering(a, b)
        topo.add_peering(CLOUD_ASN, a)

    transit_by_region: dict[Region, tuple[int, ...]] = {}
    access_by_region: dict[Region, tuple[int, ...]] = {}
    next_asn = 1000
    for region in params.regions:
        transits: list[int] = []
        for i in range(params.transits_per_region):
            asn = next_asn
            next_asn += 1
            metros = _pick_metros(rng, region, k=3)
            topo.add_as(
                AutonomousSystem(asn, f"{region.name}-Transit-{i}", ASTier.TRANSIT, metros)
            )
            transits.append(asn)
            n_upstreams = int(rng.integers(1, 3))
            upstreams = rng.choice(tier1_asns, size=n_upstreams, replace=False)
            for upstream in sorted(int(u) for u in upstreams):
                topo.add_provider_customer(upstream, asn)
            if rng.random() < params.cloud_peers_with_transits:
                topo.add_peering(CLOUD_ASN, asn)
        # One intra-region transit peering link to create path diversity.
        if len(transits) >= 2:
            a, b = rng.choice(transits, size=2, replace=False)
            topo.add_peering(int(a), int(b))
        transit_by_region[region] = tuple(transits)

        access: list[int] = []
        for i in range(params.access_per_region):
            asn = next_asn
            next_asn += 1
            metros = _pick_metros(rng, region, k=int(rng.integers(1, 3)))
            enterprise = rng.random() < params.enterprise_fraction
            topo.add_as(
                AutonomousSystem(
                    asn,
                    f"{region.name}-ISP-{i}",
                    ASTier.ACCESS,
                    metros,
                    enterprise=enterprise,
                )
            )
            access.append(asn)
            multihomed = rng.random() < params.multihome_fraction
            n_providers = 2 if multihomed and len(transits) >= 2 else 1
            chosen = rng.choice(transits, size=n_providers, replace=False)
            for provider in sorted(int(p) for p in chosen):
                topo.add_provider_customer(provider, asn)
        access_by_region[region] = tuple(access)

    return GeneratedTopology(
        topology=topo,
        cloud_asn=CLOUD_ASN,
        tier1_asns=tuple(tier1_asns),
        transit_asns_by_region=transit_by_region,
        access_asns_by_region=access_by_region,
    )
