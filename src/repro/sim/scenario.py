"""The simulated world: topology + cloud + clients + faults + churn.

A :class:`Scenario` is everything BlameIt observes and everything the
evaluation needs to validate it:

* the per-slot activity, paths and fault inflation from which
  :class:`repro.perf.batch.BatchQuartetGenerator` draws each bucket's
  quartet observations (the passive RTT stream),
* a :class:`repro.cloud.traceroute.PathOracle` implementation, so the
  traceroute engine sees ground-truth per-AS latencies with faults applied,
* a BGP listener log fed by generated route churn,
* a ground-truth oracle (:meth:`Scenario.true_culprit`) naming the faulty
  segment and AS for any (location, prefix, time) — the stand-in for the
  paper's manually-investigated incident reports and continuous-traceroute
  corroboration.

Worlds (:class:`World`) are immutable once built and can be shared across
scenarios that differ only in their fault schedule, which is how the
88-incident validation stays cheap. A world's per-slot facts are scanned
once, into its :class:`SlotTable`, and every scenario, traffic model and
incident builder over the world reads that one table.
"""

from __future__ import annotations

import bisect
import math
import zlib
from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.cloud.anycast import AnycastMapper, RingFlap, ServingAssignment
from repro.cloud.clients import (
    ClientPopulation,
    ClientPrefix,
    PopulationParams,
    generate_population,
)
from repro.cloud.locations import (
    CloudLocation,
    RTTTargets,
    default_rtt_targets,
    make_locations,
)
from repro.cloud.traceroute import TracerouteView
from repro.net.addressing import BGPPrefix, Prefix24
from repro.net.asn import ASPath, ASTier
from repro.net.bgp import BGPListener, BGPTable, BGPUpdate, BGPUpdateKind, Timestamp
from repro.net.geo import Metro, Region
from repro.net.latency import LatencyModel, LatencyParams, PathLatency
from repro.net.routing import RouteComputer
from repro.net.topology import GeneratedTopology, TopologyParams, generate_topology
from repro.sim.faults import Direction, Fault, FaultInjector, FaultRates, SegmentKind
from repro.sim.workload import ActivityModel, WorkloadParams, local_hour

#: Buckets per day (5-minute buckets).
BUCKETS_PER_DAY = 288

#: Ground-truth significance floor: total added latency below this is not
#: considered a "fault" by the oracle (it would not breach any target).
MIN_CULPRIT_DELTA_MS = 10.0


class Slot(NamedTuple):
    """One (client prefix, serving location) pair carrying traffic.

    Attributes:
        client: The client /24 record.
        location: Serving cloud location.
        share: Fraction of the prefix's connections landing here.
        enterprise: AS class of the client's origin AS.
    """

    client: ClientPrefix
    location: CloudLocation
    share: float
    enterprise: bool


@dataclass(frozen=True)
class ScenarioParams:
    """All knobs of a generated world + scenario.

    The defaults produce a laptop-scale world (hundreds of /24s, a dozen+
    edge locations) whose *structure* matches the paper's production
    environment; benches scale individual dimensions up or down.
    """

    seed: int = 7
    regions: tuple[Region, ...] = tuple(Region)
    locations_per_region: int = 2
    topology: TopologyParams = field(default_factory=TopologyParams)
    population: PopulationParams = field(default_factory=PopulationParams)
    latency: LatencyParams = field(default_factory=LatencyParams)
    workload: WorkloadParams = field(default_factory=WorkloadParams)
    duration_days: int = 7
    fault_rates: FaultRates = field(default_factory=FaultRates)
    churn_fraction_per_day: float = 0.25
    withdraw_fraction: float = 0.1
    secondary_fraction: float = 0.25
    secondary_share: float = 0.2
    calibrate_targets: bool = True
    evening_congestion_probability: float = 0.15
    evening_congestion_ms: tuple[float, float] = (8.0, 35.0)
    rings: int = 1
    sparse_ring_share: float = 0.3

    @property
    def horizon_buckets(self) -> int:
        """Total number of 5-minute buckets simulated."""
        return self.duration_days * BUCKETS_PER_DAY


@dataclass(frozen=True, eq=False)
class SlotTable:
    """A world's per-slot columns, one entry per ``world.slots`` element.

    Built once per world (:attr:`World.slot_table`) and shared by every
    reader: the scenarios over the world, the traffic model
    (:class:`repro.perf.batch.BatchQuartetGenerator`), the incident
    generator's index and the suite scorer. Every array is read-only.

    Each ``*_codes`` mapping is a vocabulary in first-appearance (slot)
    order, and the column of the same name holds each slot's code in it.
    ``route_codes`` keys are the ⟨location, BGP announcement⟩ pairs a
    scenario keeps a path timeline for. ``prefix_bucket`` is the /24's
    ``FaultTarget.covers_prefix`` hash bucket. A slot whose prefix is
    unreachable has a ``base_paths`` entry of None, ``middle`` -1 and a
    NaN ``base_total_ms``. ``diurnal_rows`` holds one
    ``ActivityModel.evening_weights`` row per (client metro, enterprise),
    ``congestion_shape`` one evening-congestion row per client metro.

    The table stores inputs, plus the one product the traffic model draws
    from: ``activity = diurnal * (users * rate * share)``. A reader that
    needs another product forms it itself, in its own multiplication
    order, so its floats do not move.
    """

    location_codes: dict[str, int]
    region_codes: dict[Region, int]
    metro_codes: dict[str, int]
    route_codes: dict[tuple[str, BGPPrefix], int]
    middle_codes: dict[ASPath, int]
    reverse_middle_codes: dict[ASPath, int]
    location: np.ndarray
    region: np.ndarray
    metro: np.ndarray
    route: np.ndarray
    middle: np.ndarray
    reverse_middle: np.ndarray
    diurnal_row: np.ndarray
    prefix24: np.ndarray
    prefix_bucket: np.ndarray
    mobile: np.ndarray
    users: np.ndarray
    client_asn: np.ndarray
    enterprise: np.ndarray
    share: np.ndarray
    base_paths: tuple[ASPath | None, ...]
    base_total_ms: np.ndarray
    activity: np.ndarray  # (slot, bucket of day)
    diurnal_rows: np.ndarray  # (diurnal row, bucket of day)
    congestion_shape: np.ndarray  # (metro code, bucket of day)

    def __post_init__(self) -> None:
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False

    def route_slots(self) -> list[int]:
        """Each route's first slot, in route-code order."""
        return np.unique(self.route, return_index=True)[1].tolist()

    def metro_mask(self, metro_name: str) -> np.ndarray:
        """Which slots' clients sit in ``metro_name``."""
        return self.metro == self.metro_codes.get(metro_name, -1)


def _code(vocabulary: dict, key) -> int:
    """``key``'s code in a first-appearance vocabulary, added if new."""
    return vocabulary.setdefault(key, len(vocabulary))


def _build_slot_table(world: World) -> SlotTable:
    """Scan ``world.slots`` once into a :class:`SlotTable`."""
    slots = world.slots
    location_codes: dict[str, int] = {}
    region_codes: dict[Region, int] = {}
    metro_codes: dict[str, int] = {}
    route_codes: dict[tuple[str, BGPPrefix], int] = {}
    middle_codes: dict[ASPath, int] = {}
    reverse_codes: dict[ASPath, int] = {}
    row_codes: dict[tuple[Metro, bool], int] = {}
    metros: list[Metro] = []
    reverse_by_asn: dict[int, ASPath] = {}
    base_paths: list[ASPath | None] = []
    base_total = np.full(len(slots), np.nan)
    rows: list[tuple[int, ...]] = []
    for i, slot in enumerate(slots):
        serving, client = slot.location, slot.client
        path = world.mapper.path_for(serving, client)
        base_paths.append(path)
        middle_code = -1
        if path is not None:
            middle_code = _code(middle_codes, path[1:-1])
            base_total[i] = world.latency.path_latency(
                serving.metro, path, client.metro, client.mobile
            ).total_ms
        reverse = reverse_by_asn.get(client.asn)
        if reverse is None:
            selected = world.mapper.routes.selected_path(client.asn, world.cloud_asn)
            reverse = selected[1:-1] if selected is not None else ()
            reverse_by_asn[client.asn] = reverse
        metro_code = _code(metro_codes, client.metro.name)
        if metro_code == len(metros):
            metros.append(client.metro)
        rows.append((
            _code(location_codes, serving.location_id),
            _code(region_codes, serving.region),
            metro_code,
            _code(route_codes, (serving.location_id, client.announcement)),
            middle_code,
            _code(reverse_codes, reverse),
            _code(row_codes, (client.metro, bool(slot.enterprise))),
            client.prefix24,
            zlib.crc32(client.prefix24.to_bytes(3, "big")) % 1000,
            client.mobile,
            client.users,
            client.asn,
            slot.enterprise,
        ))
    (location, region, metro, route, middle, reverse_middle, diurnal_row, prefix24,
     prefix_bucket, mobile, users, client_asn, enterprise) = (
        np.array(rows, dtype=np.int64).reshape(len(slots), 13).T.copy()
    )
    share = np.fromiter((slot.share for slot in slots), float, len(slots))
    diurnal_rows = np.array(
        [world.activity.evening_weights(m, e) for m, e in row_codes]
    ).reshape(len(row_codes), BUCKETS_PER_DAY)
    # diurnal * (users * rate * share), built in place: no second matrix.
    activity = diurnal_rows.take(diurnal_row, axis=0)
    activity *= ((users * world.activity.params.connections_per_user) * share)[:, None]
    hours = [[local_hour(m, b) for b in range(BUCKETS_PER_DAY)] for m in metros]
    shape = np.array(
        [[math.exp(-(((hour - 21.0) / 2.2) ** 2)) for hour in row] for row in hours]
    ).reshape(len(metros), BUCKETS_PER_DAY)
    return SlotTable(
        location_codes=location_codes,
        region_codes=region_codes,
        metro_codes=metro_codes,
        route_codes=route_codes,
        middle_codes=middle_codes,
        reverse_middle_codes=reverse_codes,
        location=location,
        region=region,
        metro=metro,
        route=route,
        middle=middle,
        reverse_middle=reverse_middle,
        diurnal_row=diurnal_row,
        prefix24=prefix24,
        prefix_bucket=prefix_bucket,
        mobile=mobile.astype(bool),
        users=users,
        client_asn=client_asn,
        enterprise=enterprise.astype(bool),
        share=share,
        base_paths=tuple(base_paths),
        base_total_ms=base_total,
        activity=activity,
        diurnal_rows=diurnal_rows,
        congestion_shape=shape,
    )


@dataclass
class World:
    """The static universe shared by scenarios: no faults, no churn."""

    params: ScenarioParams
    generated: GeneratedTopology
    locations: tuple[CloudLocation, ...]
    targets: RTTTargets
    population: ClientPopulation
    latency: LatencyModel
    mapper: AnycastMapper
    activity: ActivityModel
    slots: tuple[Slot, ...]
    assignments: dict[Prefix24, ServingAssignment]
    _slot_table: SlotTable | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def cloud_asn(self) -> int:
        """The cloud provider's ASN."""
        return self.generated.cloud_asn

    @property
    def slot_table(self) -> SlotTable:
        """The world's per-slot columns: built on first use, then shared."""
        if self._slot_table is None:
            self._slot_table = _build_slot_table(self)
        return self._slot_table

    def location_by_id(self, location_id: str) -> CloudLocation:
        """Look up a location record.

        Raises:
            KeyError: For an unknown id.
        """
        for location in self.locations:
            if location.location_id == location_id:
                return location
        raise KeyError(f"unknown location {location_id!r}")

    def middle_asn_pool(self) -> tuple[int, ...]:
        """Transit and tier-1 ASNs — candidates for middle faults."""
        topo = self.generated.topology
        pool = [a.asn for a in topo.ases_by_tier(ASTier.TRANSIT)]
        pool.extend(a.asn for a in topo.ases_by_tier(ASTier.TIER1))
        return tuple(sorted(pool))


def _ring_members(
    locations: tuple[CloudLocation, ...], rings: int
) -> list[tuple[CloudLocation, ...]]:
    """Location subsets per anycast ring (§2.1 footnote 2).

    Ring 0 is the default consumer ring containing every location; each
    further ring serves a specialized service from a sparser subset
    (every 2nd location for ring 1, every 4th for ring 2, …), so some
    clients of those services are served from farther away — one source
    of the same-/24-different-location diversity the ambiguity check
    relies on.
    """
    members: list[tuple[CloudLocation, ...]] = [locations]
    for ring in range(1, rings):
        stride = 2**ring
        subset = tuple(locations[i] for i in range(0, len(locations), stride))
        members.append(subset if subset else locations[:1])
    return members


def _ring_shares(rings: int, sparse_share: float) -> list[float]:
    """Traffic share per ring: the consumer ring carries the bulk."""
    if rings == 1:
        return [1.0]
    per_sparse = sparse_share / (rings - 1)
    return [1.0 - sparse_share] + [per_sparse] * (rings - 1)


def build_world(params: ScenarioParams) -> World:
    """Generate the static world for the given parameters (seeded)."""
    rng = np.random.default_rng(params.seed)
    topo_params = TopologyParams(
        regions=params.regions,
        n_tier1=params.topology.n_tier1,
        transits_per_region=params.topology.transits_per_region,
        access_per_region=params.topology.access_per_region,
        enterprise_fraction=params.topology.enterprise_fraction,
        cloud_peers_with_transits=params.topology.cloud_peers_with_transits,
        multihome_fraction=params.topology.multihome_fraction,
    )
    generated = generate_topology(topo_params, rng)
    locations = make_locations(params.regions, params.locations_per_region, rng)
    population = generate_population(generated.topology, params.population, rng)
    route_computer = RouteComputer(generated.topology, generated.cloud_asn)
    mapper = AnycastMapper(
        locations,
        generated.topology,
        route_computer,
        secondary_fraction=params.secondary_fraction,
        secondary_share=params.secondary_share,
    )
    ring_members = _ring_members(locations, max(1, params.rings))
    ring_shares = _ring_shares(max(1, params.rings), params.sparse_ring_share)
    assignments: dict[Prefix24, ServingAssignment] = {}
    slots: list[Slot] = []
    for client in population:
        enterprise = generated.topology.as_info(client.asn).enterprise
        for ring_index, ring_share in enumerate(ring_shares):
            assignment = mapper.assignment_for(
                client, rng, locations=ring_members[ring_index]
            )
            if ring_index == 0:
                assignments[client.prefix24] = assignment
            primary_share = ring_share * (1.0 - assignment.secondary_share)
            slots.append(Slot(client, assignment.primary, primary_share, enterprise))
            if assignment.secondary is not None:
                slots.append(
                    Slot(
                        client,
                        assignment.secondary,
                        ring_share * assignment.secondary_share,
                        enterprise,
                    )
                )
    latency = LatencyModel(params.latency)
    world = World(
        params=params,
        generated=generated,
        locations=locations,
        targets=default_rtt_targets(),
        population=population,
        latency=latency,
        mapper=mapper,
        activity=ActivityModel(params.workload),
        slots=tuple(slots),
        assignments=assignments,
    )
    if params.calibrate_targets:
        world.targets = _calibrate_targets(world)
    return world


#: Target margin over the worst healthy baseline, per region. The USA gets
#: a deliberately aggressive (tight) margin, reproducing the Figure 2
#: inversion where mature-infrastructure USA shows a *higher* bad-quartet
#: fraction than regions with looser targets.
_TARGET_MARGINS: dict[Region, float] = {
    Region.USA: 1.01,
    Region.EUROPE: 1.22,
    Region.INDIA: 1.30,
    Region.CHINA: 1.30,
    Region.BRAZIL: 1.30,
    Region.AUSTRALIA: 1.22,
    Region.EAST_ASIA: 1.22,
}


def _calibrate_targets(world: World) -> RTTTargets:
    """Region targets set just above the worst healthy baseline (§2.1).

    The paper's targets "are set such that no client prefix's RTT is
    consistently above the threshold"; we realize that by taking the
    maximum fault-free baseline RTT per (serving region, mobility) and
    applying the per-region margin.

    Only consumer-ring (ring 0) service counts toward calibration: a
    sparse anycast ring deliberately serves a slice of traffic from
    farther locations, and folding those detours into the targets would
    raise them so far that ordinary in-region faults never breach. The
    detoured slice instead shows up as a persistent background
    bad-fraction — Figure 2's ambient badness — which Algorithm 1's
    learned-median statistics classify as ambiguous rather than blame.
    """
    worst: dict[tuple[Region, bool], float] = {}
    for slot, baseline_ms in zip(world.slots, world.slot_table.base_total_ms.tolist()):
        assignment = world.assignments.get(slot.client.prefix24)
        if assignment is not None:
            ring0 = {assignment.primary.location_id}
            if assignment.secondary is not None:
                ring0.add(assignment.secondary.location_id)
            if slot.location.location_id not in ring0:
                continue
        if math.isnan(baseline_ms):  # unreachable prefix
            continue
        key = (slot.location.region, slot.client.mobile)
        worst[key] = max(worst.get(key, 0.0), baseline_ms)
    defaults = default_rtt_targets()
    by_region: dict[Region, tuple[float, float]] = {}
    for region in Region:
        default_fixed, default_mobile = defaults.by_region[region]
        margin = _TARGET_MARGINS.get(region, 1.15)
        fixed = worst.get((region, False))
        mobile = worst.get((region, True))
        by_region[region] = (
            fixed * margin if fixed is not None else default_fixed,
            mobile * margin if mobile is not None else default_mobile,
        )
    return RTTTargets(by_region=by_region)


@dataclass(frozen=True, slots=True)
class RerouteEvent:
    """A BGP path change at one location for one announcement.

    ``new_path`` of None represents a withdrawal (prefix unreachable from
    that location until a later event re-announces it).
    """

    time: Timestamp
    location_id: str
    announcement: BGPPrefix
    new_path: ASPath | None


@dataclass(frozen=True, slots=True)
class DemandSurge:
    """A flash-crowd / request-cloning surge in one client metro.

    While active, every slot whose client sits in ``metro_name`` sees its
    expected connection count multiplied by ``multiplier`` — more
    quartets, more users online, *no* RTT shift. A correct pipeline must
    not raise a latency issue for it; an incorrect client-count predictor
    will mispredict through the step change.
    """

    surge_id: int
    metro_name: str
    start: Timestamp
    duration: int
    multiplier: float

    def __post_init__(self) -> None:
        if self.duration < 1:
            raise ValueError("duration must be at least one bucket")
        if self.multiplier <= 0:
            raise ValueError("multiplier must be positive")

    @property
    def end(self) -> Timestamp:
        """First bucket after the surge subsides."""
        return self.start + self.duration

    def is_active(self, time: Timestamp) -> bool:
        """Whether the surge affects bucket ``time``."""
        return self.start <= time < self.end


class Scenario:
    """A world plus a fault schedule and route churn over a horizon.

    Raises:
        ValueError: When two faults share a ``fault_id`` or two surges a
            ``surge_id``.
    """

    def __init__(
        self,
        world: World,
        faults: tuple[Fault, ...],
        reroutes: tuple[RerouteEvent, ...],
        surges: tuple[DemandSurge, ...] = (),
        ring_flaps: tuple[RingFlap, ...] = (),
    ) -> None:
        # The traffic model caches each fault's slot mask by its id, so of
        # two faults sharing one it would inject only the first, while the
        # oracle applies both. Surge ids are held to the same rule.
        for kind, ids in (
            ("fault", [f.fault_id for f in faults]),
            ("surge", [s.surge_id for s in surges]),
        ):
            repeated = sorted(i for i, n in Counter(ids).items() if n > 1)
            if repeated:
                raise ValueError(f"duplicate {kind} id {repeated[0]}")
        self.world = world
        self.faults = tuple(sorted(faults, key=lambda f: (f.start, f.fault_id)))
        self.reroutes = tuple(sorted(reroutes, key=lambda r: r.time))
        self.surges = tuple(sorted(surges, key=lambda s: (s.start, s.surge_id)))
        #: Ring-flap ground truth. A flap is *realized* as a CLOUD fault
        #: scoped to the metro's prefixes (the farther front end's extra
        #: latency is the provider's doing), so flaps never touch the
        #: generation hot path; this tuple is the labelled record of why
        #: those faults exist.
        self.ring_flaps = tuple(sorted(ring_flaps, key=lambda f: (f.start, f.flap_id)))
        self.listener = BGPListener()
        self.tables: dict[str, BGPTable] = {
            loc.location_id: BGPTable(loc.location_id) for loc in world.locations
        }
        self._timelines: dict[tuple[str, BGPPrefix], tuple[list[int], list[ASPath | None]]]
        self._timelines = {}
        self._base_paths: dict[tuple[str, Prefix24], ASPath | None] = {}
        self._active_cache: tuple[Timestamp, tuple[Fault, ...]] | None = None
        self._faults_by_day: dict[int, tuple[Fault, ...]] = {}
        self._rng = np.random.default_rng(world.params.seed + 1)
        self._congestion_amp: dict[tuple[int, int], float] = {}
        self._reverse_paths: dict[int, ASPath | None] = {}
        self._return_sets: dict[tuple[int, int], frozenset[int]] = {}
        self._build_timelines()

    # -- construction -------------------------------------------------

    @classmethod
    def build(
        cls, params: ScenarioParams, faults: tuple[Fault, ...] | None = None
    ) -> "Scenario":
        """Build a world and scenario in one step.

        Args:
            params: World + scenario knobs.
            faults: Explicit fault schedule; auto-generated from
                ``params.fault_rates`` when None.
        """
        world = build_world(params)
        rng = np.random.default_rng(params.seed + 2)
        if faults is None:
            faults = cls._generate_faults(world, rng)
        reroutes = cls._generate_reroutes(world, rng)
        return cls(world, faults, reroutes)

    @classmethod
    def from_world(cls, world: World, seed_offset: int = 2) -> "Scenario":
        """A scenario over an existing world with generated faults/churn.

        Args:
            world: The shared world (its params drive fault/churn rates).
            seed_offset: Varies the fault schedule while keeping the world
                (``seed + seed_offset`` seeds the generators).
        """
        rng = np.random.default_rng(world.params.seed + seed_offset)
        faults = cls._generate_faults(world, rng)
        reroutes = cls._generate_reroutes(world, rng)
        return cls(world, faults, reroutes)

    def with_faults(self, faults: tuple[Fault, ...]) -> "Scenario":
        """A scenario sharing this world but with a different fault set."""
        return Scenario(
            self.world, faults, self.reroutes, surges=self.surges,
            ring_flaps=self.ring_flaps,
        )

    @staticmethod
    def _generate_faults(world: World, rng: np.random.Generator) -> tuple[Fault, ...]:
        evening: dict[int, np.ndarray] = {}
        topo = world.generated.topology
        for asn in world.population.asns:
            info = topo.as_info(asn)
            evening[asn] = world.activity.evening_weights(info.metros[0], info.enterprise)
        injector = FaultInjector(
            rates=world.params.fault_rates,
            location_ids=tuple(loc.location_id for loc in world.locations),
            middle_asns_pool=world.middle_asn_pool(),
            client_asns=world.population.asns,
            evening_weight=evening,
        )
        return injector.generate(world.params.horizon_buckets, rng)

    @staticmethod
    def _generate_reroutes(
        world: World, rng: np.random.Generator
    ) -> tuple[RerouteEvent, ...]:
        """Sample route churn: path flips and occasional withdrawals."""
        pairs = [
            (world.slots[i].location, world.slots[i].client)
            for i in world.slot_table.route_slots()
        ]
        if not pairs:
            return ()
        horizon = world.params.horizon_buckets
        days = horizon / BUCKETS_PER_DAY
        n_events = int(rng.poisson(world.params.churn_fraction_per_day * len(pairs) * days))
        events: list[RerouteEvent] = []
        for _ in range(n_events):
            location, client = pairs[int(rng.integers(0, len(pairs)))]
            start = int(rng.integers(0, horizon))
            base = world.mapper.path_for(location, client)
            if base is None:
                continue
            if rng.random() < world.params.withdraw_fraction:
                flipped: ASPath | None = None
            else:
                flipped = world.mapper.alternate_path_for(location, client)
                if flipped is None:
                    continue
            events.append(
                RerouteEvent(start, location.location_id, client.announcement, flipped)
            )
            # Half of the changes revert after a while.
            if rng.random() < 0.5:
                revert = start + max(1, int(rng.lognormal(3.0, 1.0)))
                if revert < horizon:
                    events.append(
                        RerouteEvent(
                            revert, location.location_id, client.announcement, base
                        )
                    )
        return tuple(events)

    def _build_timelines(self) -> None:
        """Materialize per-(location, announcement) path timelines and the
        BGP update log/tables."""
        table = self.world.slot_table
        for key, first in zip(table.route_codes, table.route_slots()):
            base = table.base_paths[first]
            self._timelines[key] = ([0], [base])
            if base is not None:
                self.listener.publish(self.tables[key[0]].install(key[1], base, 0))
        for event in self.reroutes:
            key = (event.location_id, event.announcement)
            timeline = self._timelines.get(key)
            if timeline is None:
                continue
            times, paths = timeline
            if paths[-1] == event.new_path:
                continue
            times.append(event.time)
            paths.append(event.new_path)
            table = self.tables[event.location_id]
            if event.new_path is None:
                update = table.withdraw(event.announcement, event.time)
            else:
                update = table.install(event.announcement, event.new_path, event.time)
            self.listener.publish(update)

    # -- static queries -----------------------------------------------

    @property
    def params(self) -> ScenarioParams:
        """The scenario's parameters."""
        return self.world.params

    @property
    def horizon_buckets(self) -> int:
        """Simulated horizon in 5-minute buckets."""
        return self.world.params.horizon_buckets

    def base_path(self, location_id: str, prefix24: Prefix24) -> ASPath | None:
        """The time-0 (pre-churn) AS path for a (location, prefix) pair."""
        key = (location_id, prefix24)
        if key not in self._base_paths:
            client = self.world.population.get(prefix24)
            timeline = self._timelines.get((location_id, client.announcement))
            self._base_paths[key] = timeline[1][0] if timeline else None
        return self._base_paths[key]

    def path_for(
        self, location_id: str, prefix24: Prefix24, time: Timestamp
    ) -> ASPath | None:
        """The AS path in effect at ``time`` (None if withdrawn)."""
        client = self.world.population.get(prefix24)
        timeline = self._timelines.get((location_id, client.announcement))
        if timeline is None:
            return None
        times, paths = timeline
        index = bisect.bisect_right(times, time) - 1
        return paths[index] if index >= 0 else None

    def reverse_path(self, client_asn: int) -> ASPath | None:
        """The client AS's route back to the cloud (client first).

        Internet routing is asymmetric: this is the *client's* valley-free
        selection towards the cloud AS, generally not the reverse of the
        forward path. Location-independent at AS granularity (one cloud
        AS) and unaffected by forward-table churn.
        """
        cached = self._reverse_paths.get(client_asn)
        if client_asn not in self._reverse_paths:
            cached = self.world.mapper.routes.selected_path(
                client_asn, self.world.cloud_asn
            )
            self._reverse_paths[client_asn] = cached
        return cached

    def reverse_middle(self, client_asn: int) -> ASPath:
        """Middle ASes of the client-to-cloud path (empty if unknown)."""
        path = self.reverse_path(client_asn)
        if path is None or len(path) < 2:
            return ()
        return path[1:-1]

    def _return_set_to(self, hop_asn: int, dest_asn: int) -> frozenset[int]:
        """ASes on ``hop_asn``'s selected route towards ``dest_asn``.

        A traceroute probe's reply from a hop inside ``hop_asn`` travels
        this route; a fault anywhere on it inflates that hop's measured
        RTT. Cached — return routes are static at AS granularity.
        """
        key = (hop_asn, dest_asn)
        cached = self._return_sets.get(key)
        if cached is None:
            path = self.world.mapper.routes.selected_path(hop_asn, dest_asn)
            cached = frozenset(path or ())
            self._return_sets[key] = cached
        return cached

    def _spillover_index(
        self,
        hop_asns: tuple[int, ...],
        return_dest: int,
        faulty_asn: int,
        terminal_return: frozenset[int],
    ) -> int:
        """First hop whose reply crosses ``faulty_asn``.

        ``hop_asns`` are the probed hops after the prober's own AS (so
        index 0 here maps to contribution index 1); the final hop's
        return is the path's own reverse (``terminal_return``). Returns
        the *contribution* index the inflation first appears at.
        """
        del terminal_return  # the final hop always shows the inflation:
        # the end-to-end RTT crosses the faulty AS by construction (that
        # is what made the fault apply in the first place).
        for offset, hop in enumerate(hop_asns[:-1]):
            if faulty_asn in self._return_set_to(hop, return_dest):
                return offset + 1
        return len(hop_asns)

    def baseline_latency(
        self, location_id: str, prefix24: Prefix24, time: Timestamp
    ) -> PathLatency | None:
        """Fault-free latency decomposition of the path in effect."""
        path = self.path_for(location_id, prefix24, time)
        if path is None:
            return None
        client = self.world.population.get(prefix24)
        location = self.world.location_by_id(location_id)
        return self.world.latency.path_latency(
            location.metro, path, client.metro, client.mobile
        )

    # -- evening congestion ---------------------------------------------

    def _congestion_amp_for(self, client_asn: int, day: int) -> float:
        """Peak congestion latency for a home AS on a given day.

        Drawn once per (AS, day) from a seeded hash so the effect is
        stable across queries: some evenings an access network is
        oversubscribed, most evenings it is fine. This is the structural
        source of the paper's night-time badness that BlameIt blames on
        client ISPs (§2.2).
        """
        key = (client_asn, day)
        amp = self._congestion_amp.get(key)
        if amp is None:
            seed = (self.world.params.seed * 1_000_003 + client_asn) * 10_007 + day
            rng = np.random.default_rng(seed)
            params = self.world.params
            if rng.random() < params.evening_congestion_probability:
                amp = float(rng.uniform(*params.evening_congestion_ms))
            else:
                amp = 0.0
            self._congestion_amp[key] = amp
        return amp

    def evening_congestion_ms(self, client: ClientPrefix, time: Timestamp) -> float:
        """Client-segment latency added by home-ISP evening congestion."""
        if self.world.generated.topology.as_info(client.asn).enterprise:
            return 0.0
        amp = self._congestion_amp_for(client.asn, time // BUCKETS_PER_DAY)
        if amp == 0.0:
            return 0.0
        table = self.world.slot_table
        shape = table.congestion_shape[table.metro_codes[client.metro.name]]
        return amp * float(shape[time % BUCKETS_PER_DAY])

    # -- demand surges -------------------------------------------------

    def surge_multipliers(self, time: Timestamp) -> np.ndarray | None:
        """Per-slot demand multipliers for active surges, or None.

        None (the common case — no surge active) keeps the hot path an
        exact no-op: the caller skips the multiply entirely, so scenarios
        without surges generate byte-identical telemetry to before surges
        existed.
        """
        if not self.surges:
            return None
        active = [s for s in self.surges if s.is_active(time)]
        if not active:
            return None
        table = self.world.slot_table
        multipliers = np.ones(len(table.metro))
        for surge in active:
            multipliers[table.metro_mask(surge.metro_name)] *= surge.multiplier
        return multipliers

    # -- faults -------------------------------------------------------

    def active_faults(self, time: Timestamp) -> tuple[Fault, ...]:
        """Faults active in bucket ``time`` (cached per bucket).

        Scans only the faults overlapping the bucket's day (a small
        per-day index built on demand) instead of the full schedule.
        """
        if self._active_cache is not None and self._active_cache[0] == time:
            return self._active_cache[1]
        active = tuple(
            f for f in self._day_faults(time // BUCKETS_PER_DAY) if f.is_active(time)
        )
        self._active_cache = (time, active)
        return active

    def faults_between(self, start: Timestamp, end: Timestamp) -> tuple[Fault, ...]:
        """Faults active in some bucket of ``[start, end)``, in schedule
        order (the order :meth:`active_faults` lists them in)."""
        day = start // BUCKETS_PER_DAY
        candidates = (
            self._day_faults(day)
            if (end - 1) // BUCKETS_PER_DAY == day
            else self.faults
        )
        return tuple(f for f in candidates if f.start < end and f.end > start)

    def _day_faults(self, day: int) -> tuple[Fault, ...]:
        """The faults overlapping one day (a small index built on demand)."""
        day_faults = self._faults_by_day.get(day)
        if day_faults is None:
            day_start = day * BUCKETS_PER_DAY
            day_faults = tuple(
                f
                for f in self.faults
                if f.start < day_start + BUCKETS_PER_DAY and f.end > day_start
            )
            self._faults_by_day[day] = day_faults
        return day_faults

    def segment_deltas(
        self,
        location_id: str,
        path: ASPath,
        client: ClientPrefix,
        time: Timestamp,
    ) -> tuple[float, dict[int, float], float, dict[int, float]]:
        """Latency added by active faults and evening congestion.

        Returns:
            (cloud delta, per-forward-middle-AS deltas, client delta,
            per-reverse-middle-AS deltas). Reverse deltas inflate the
            round trip but sit on the client-to-cloud path.
        """
        cloud_delta = 0.0
        middle_deltas: dict[int, float] = {}
        reverse_deltas: dict[int, float] = {}
        client_delta = self.evening_congestion_ms(client, time)
        reverse_middle = self.reverse_middle(client.asn)
        for fault in self.active_faults(time):
            if not fault.applies_to(
                location_id, path, client.prefix24, client.asn, reverse_middle
            ):
                continue
            target = fault.target
            if target.kind is SegmentKind.CLOUD:
                cloud_delta += fault.added_ms
            elif target.kind is SegmentKind.MIDDLE:
                store = (
                    reverse_deltas
                    if target.direction is Direction.REVERSE
                    else middle_deltas
                )
                store[target.asn] = store.get(target.asn, 0.0) + fault.added_ms
            else:
                client_delta += fault.added_ms
        return cloud_delta, middle_deltas, client_delta, reverse_deltas

    def true_rtt_ms(
        self, location_id: str, prefix24: Prefix24, time: Timestamp
    ) -> float | None:
        """Ground-truth path RTT including fault inflation (no noise)."""
        baseline = self.baseline_latency(location_id, prefix24, time)
        if baseline is None:
            return None
        path = self.path_for(location_id, prefix24, time)
        client = self.world.population.get(prefix24)
        cloud_d, middle_d, client_d, reverse_d = self.segment_deltas(
            location_id, path, client, time
        )
        return (
            baseline.total_ms
            + cloud_d
            + sum(middle_d.values())
            + client_d
            + sum(reverse_d.values())
        )

    # -- PathOracle ---------------------------------------------------

    def traceroute_view(
        self, location_id: str, prefix24: Prefix24, time: Timestamp
    ) -> TracerouteView | None:
        """Ground-truth traceroute: path + cumulative per-AS RTTs."""
        path = self.path_for(location_id, prefix24, time)
        if path is None:
            return None
        baseline = self.baseline_latency(location_id, prefix24, time)
        client = self.world.population.get(prefix24)
        cloud_d, middle_d, client_d, reverse_d = self.segment_deltas(
            location_id, path, client, time
        )
        contributions = [baseline.cloud_ms + cloud_d]
        for asn, ms in zip(path[1:-1], baseline.middle_ms):
            contributions.append(ms + middle_d.get(asn, 0.0))
        contributions.append(baseline.client_ms + client_d)
        # A reverse-path fault inflates every probed hop whose *reply*
        # crosses the faulty AS; the forward traceroute therefore shows
        # the increase at the first such hop — generally not the faulty
        # AS's own position (§5.1 asymmetry).
        if reverse_d:
            terminal = frozenset(self.reverse_path(client.asn) or ())
            for faulty_asn, delta in reverse_d.items():
                index = self._spillover_index(
                    path[1:], self.world.cloud_asn, faulty_asn, terminal
                )
                contributions[index] += delta
        cumulative = []
        running = 0.0
        for value in contributions:
            running += value
            cumulative.append(running)
        return TracerouteView(path=path, cumulative_ms=tuple(cumulative))

    def reverse_traceroute_view(
        self, location_id: str, prefix24: Prefix24, time: Timestamp
    ) -> TracerouteView | None:
        """Ground-truth *reverse* traceroute: client-to-cloud per-AS RTTs.

        The path starts at the client AS and ends at the cloud AS;
        reverse-direction middle faults show up at the faulty AS, while
        forward-direction middle faults appear undifferentiated at the
        first reverse middle hop (the mirror image of the forward view).
        """
        forward = self.path_for(location_id, prefix24, time)
        if forward is None:
            return None
        client = self.world.population.get(prefix24)
        reverse = self.reverse_path(client.asn)
        if reverse is None or len(reverse) < 2:
            return None
        location = self.world.location_by_id(location_id)
        # Latency decomposition of the reverse path, computed in the
        # model's cloud-first orientation and then mirrored.
        oriented = tuple(reversed(reverse))
        latency = self.world.latency.path_latency(
            location.metro, oriented, client.metro, client.mobile
        )
        cloud_d, middle_d, client_d, reverse_d = self.segment_deltas(
            location_id, forward, client, time
        )
        reverse_middle = reverse[1:-1]
        contributions = [latency.client_ms + client_d]
        for asn, ms in zip(reverse_middle, tuple(reversed(latency.middle_ms))):
            contributions.append(ms + reverse_d.get(asn, 0.0))
        contributions.append(latency.cloud_ms + cloud_d)
        # Mirror image: forward-path faults show up at the first reverse
        # hop whose reply (towards the client) crosses the faulty AS.
        if middle_d:
            terminal = frozenset(forward)
            for faulty_asn, delta in middle_d.items():
                index = self._spillover_index(
                    reverse[1:], client.asn, faulty_asn, terminal
                )
                contributions[index] += delta
        cumulative = []
        running = 0.0
        for value in contributions:
            running += value
            cumulative.append(running)
        return TracerouteView(path=reverse, cumulative_ms=tuple(cumulative))

    # -- ground truth -------------------------------------------------

    def true_culprit(
        self, location_id: str, prefix24: Prefix24, time: Timestamp
    ) -> tuple[SegmentKind, int] | None:
        """The segment and AS responsible for latency inflation, if any.

        Considers both fault-injected deltas and path-change inflation
        (a reroute onto a longer path counts as a middle-segment issue,
        attributed to the new middle AS with the largest contribution
        increase). Returns None when total inflation is below
        :data:`MIN_CULPRIT_DELTA_MS`.
        """
        path = self.path_for(location_id, prefix24, time)
        if path is None:
            return None
        client = self.world.population.get(prefix24)
        cloud_d, middle_d, client_d, reverse_d = self.segment_deltas(
            location_id, path, client, time
        )
        middle_total = sum(middle_d.values())
        reverse_total = sum(reverse_d.values())

        # Path-change inflation relative to the pre-churn path.
        shift_ms = 0.0
        shift_asn: int | None = None
        base = self.base_path(location_id, prefix24)
        if base is not None and base != path:
            location = self.world.location_by_id(location_id)
            now = self.world.latency.path_latency(
                location.metro, path, client.metro, client.mobile
            )
            before = self.world.latency.path_latency(
                location.metro, base, client.metro, client.mobile
            )
            shift_ms = max(0.0, now.total_ms - before.total_ms)
            if shift_ms > 0 and len(path) > 2:
                old_contrib = dict(zip(base[1:-1], before.middle_ms))
                increases = {
                    asn: ms - old_contrib.get(asn, 0.0)
                    for asn, ms in zip(path[1:-1], now.middle_ms)
                }
                shift_asn = max(increases, key=lambda a: (increases[a], -a))

        candidates: list[tuple[float, SegmentKind, int]] = []
        if cloud_d > 0:
            candidates.append((cloud_d, SegmentKind.CLOUD, self.world.cloud_asn))
        if middle_total > 0:
            worst = max(middle_d, key=lambda a: (middle_d[a], -a))
            candidates.append((middle_total, SegmentKind.MIDDLE, worst))
        if reverse_total > 0:
            worst_reverse = max(reverse_d, key=lambda a: (reverse_d[a], -a))
            candidates.append((reverse_total, SegmentKind.MIDDLE, worst_reverse))
        if shift_ms > 0 and shift_asn is not None:
            candidates.append((shift_ms, SegmentKind.MIDDLE, shift_asn))
        if client_d > 0:
            candidates.append((client_d, SegmentKind.CLIENT, client.asn))
        if not candidates:
            return None
        added, kind, asn = max(candidates, key=lambda c: c[0])
        if added < MIN_CULPRIT_DELTA_MS:
            return None
        return (kind, asn)

    # -- convenience ----------------------------------------------------

    def updates_between(self, start: Timestamp, end: Timestamp) -> tuple[BGPUpdate, ...]:
        """BGP updates logged in ``[start, end)`` excluding the initial
        table fill at bucket 0 (those are installs, not churn)."""
        return tuple(
            u
            for u in self.listener.updates_between(start, end)
            if not (u.time == 0 and u.kind is BGPUpdateKind.ANNOUNCE and u.old_path is None)
        )
