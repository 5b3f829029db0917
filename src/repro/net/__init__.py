"""Internet substrate: geography, addressing, AS topology, routing, latency.

This package models the pieces of the public Internet that BlameIt's
measurements traverse: metros and propagation delay (:mod:`repro.net.geo`),
IPv4 prefixes (:mod:`repro.net.addressing`), autonomous systems and their
commercial relationships (:mod:`repro.net.asn`, :mod:`repro.net.topology`),
valley-free BGP route computation (:mod:`repro.net.routing`), routing tables
and churn events (:mod:`repro.net.bgp`), and the per-segment latency model
(:mod:`repro.net.latency`).
"""

from repro.net.addressing import BGPPrefix, Prefix24, parse_prefix24
from repro.net.asn import AutonomousSystem, ASTier
from repro.net.bgp import BGPListener, BGPTable, BGPUpdate, BGPUpdateKind, RouteEntry
from repro.net.geo import Metro, Region, haversine_km, propagation_rtt_ms
from repro.net.latency import LatencyModel, PathLatency
from repro.net.routing import RelationKind, Route, RouteComputer
from repro.net.topology import ASTopology, TopologyParams, generate_topology

__all__ = [
    "ASTier",
    "ASTopology",
    "AutonomousSystem",
    "BGPListener",
    "BGPPrefix",
    "BGPTable",
    "BGPUpdate",
    "BGPUpdateKind",
    "LatencyModel",
    "Metro",
    "PathLatency",
    "Prefix24",
    "Region",
    "RelationKind",
    "Route",
    "RouteComputer",
    "RouteEntry",
    "TopologyParams",
    "generate_topology",
    "haversine_km",
    "parse_prefix24",
    "propagation_rtt_ms",
]
