"""Cloud-provider model: edge locations, clients, anycast, probes.

Models the provider-side machinery the paper's measurements come from:
edge locations with region RTT targets (:mod:`repro.cloud.locations`), the
client /24 population (:mod:`repro.cloud.clients`), BGP-anycast client to
location mapping (:mod:`repro.cloud.anycast`), and the traceroute engine
with probe accounting (:mod:`repro.cloud.traceroute`).
"""

from repro.cloud.anycast import AnycastMapper
from repro.cloud.clients import ClientPopulation, ClientPrefix, PopulationParams
from repro.cloud.locations import CloudLocation, default_rtt_targets, make_locations
from repro.cloud.traceroute import PathOracle, TracerouteEngine, TracerouteResult

__all__ = [
    "AnycastMapper",
    "ClientPopulation",
    "ClientPrefix",
    "CloudLocation",
    "PathOracle",
    "PopulationParams",
    "TracerouteEngine",
    "TracerouteResult",
    "default_rtt_targets",
    "make_locations",
]
