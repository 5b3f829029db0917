"""Labelled incident generation, modelled on the paper's §6.3 case studies.

The paper validates BlameIt against 88 production incidents whose root
cause was established by network engineers. We reproduce the validation
with generated incidents drawn from five archetypes, each a direct
analogue of a §6.3 case study:

* ``CLOUD_MAINTENANCE`` — "Maintenance in Brazil": internal routing issue
  at one location inflates the cloud segment for days.
* ``PEERING_FAULT`` — "Peering fault": changes inside a peering AS inflate
  many paths across a wide client footprint.
* ``CLOUD_OVERLOAD`` — "Cloud overload in Australia": server CPU overload
  inflates RTTs at one location; the same BGP paths to *other* locations
  stay healthy (Insight-2).
* ``TRAFFIC_SHIFT`` — "Traffic shift from East Asia to US West coast":
  a BGP change reroutes clients onto a poorly-provisioned path; the
  middle segment carries the inflation.
* ``CLIENT_ISP`` — "Client ISP issues in Italy": unannounced maintenance
  inside the client's ISP.

Beyond the paper's case studies, four *adversarial* families stress
blame segmentation under messy, overlapping failures (ROADMAP item 4):

* ``CORRELATED_TRANSIT`` — one shared transit AS degrades several metros
  in the same window; the correct blame is the shared segment, and
  mitigation-aware ranking should pool the member issues' benefit.
* ``ANYCAST_FLAP`` — an anycast ring event remaps a whole metro to a
  farther front end mid-bucket; the inflation is the provider's doing
  (CloudSegment), not the client ISP's, even though only that metro
  moved.
* ``INTER_REGION_PEERING`` — a peering path between two provider regions
  degrades, hitting only cross-region traffic (CloudCast's cross-cloud
  connectivity structure).
* ``FLASH_CROWD`` — a request-cloning surge multiplies a metro's
  connection counts with *no* RTT shift; the pipeline must not raise a
  latency issue, but the client-count predictor is stressed through the
  step change.

Paper-era batches stay byte-compatible: :func:`generate_incidents`
defaults to the five §6.3 families, and each incident draws from its own
spawned RNG substream so adding families (or changing one builder) never
perturbs the draws of another incident in the batch.

Incident onsets are drawn from the affected clients' local busy hours —
real investigations concern issues that hurt active users, and an
incident with no traffic produces only "insufficient" labels. Targets
are chosen so the incident is *diagnosable in principle* (enough affected
quartets, a learned baseline for the affected path), which is also true
of every incident that reaches a manual investigation.

The diagnosability filters weight each slot by its chance of clearing
the 10-sample quartet gate in a bucket. ``_WorldIndex.gate_weights(t)``
turns the world's per-slot columns (its ``SlotTable``, scanned once per
world) into that chance for every slot at once, cached by bucket for the
index's lifetime: one :func:`generate_incidents` call, or one
scenario-suite build, which shares an index across its batches. The
gate vector forms its own product from the table's inputs, in the
scalar order. Each filter is then a masked sum
over the vector, added in slot order so the totals — and the incidents
they select — are bit-identical to a per-slot loop.

Each :class:`IncidentSpec` records the ground-truth blamed segment and
culprit AS; the validation harness checks BlameIt's output against them.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from repro.cloud.anycast import RingFlap
from repro.net.asn import middle_asns
from repro.net.bgp import Timestamp
from repro.net.geo import Metro
from repro.sim.faults import Fault, FaultTarget, SegmentKind
from repro.sim.scenario import DemandSurge, RerouteEvent, SlotTable, World
from repro.sim.workload import BUCKETS_PER_DAY, local_hour, weekend_factor

#: Local-hour window considered "busy" for incident onsets.
_BUSY_HOURS = (9.0, 21.0)

#: Incident magnitudes must clear calibrated badness targets from any
#: healthy baseline in the region (see §2.1 target calibration).
_MAGNITUDE_RANGE = (60.0, 140.0)


class IncidentArchetype(enum.Enum):
    """The five §6.3 case-study shapes plus four adversarial families."""

    CLOUD_MAINTENANCE = "cloud_maintenance"
    PEERING_FAULT = "peering_fault"
    CLOUD_OVERLOAD = "cloud_overload"
    TRAFFIC_SHIFT = "traffic_shift"
    CLIENT_ISP = "client_isp"
    CORRELATED_TRANSIT = "correlated_transit"
    ANYCAST_FLAP = "anycast_flap"
    INTER_REGION_PEERING = "inter_region_peering"
    FLASH_CROWD = "flash_crowd"

    def __str__(self) -> str:
        return self.value


#: The paper-era §6.3 case-study families — the default rotation, so
#: batches generated before the adversarial families existed reproduce.
PAPER_ARCHETYPES: tuple[IncidentArchetype, ...] = (
    IncidentArchetype.CLOUD_MAINTENANCE,
    IncidentArchetype.PEERING_FAULT,
    IncidentArchetype.CLOUD_OVERLOAD,
    IncidentArchetype.TRAFFIC_SHIFT,
    IncidentArchetype.CLIENT_ISP,
)

#: The adversarial families added on top of the paper's case studies.
ADVERSARIAL_ARCHETYPES: tuple[IncidentArchetype, ...] = (
    IncidentArchetype.CORRELATED_TRANSIT,
    IncidentArchetype.ANYCAST_FLAP,
    IncidentArchetype.INTER_REGION_PEERING,
    IncidentArchetype.FLASH_CROWD,
)


@dataclass(frozen=True)
class IncidentSpec:
    """One labelled incident.

    Attributes:
        incident_id: Index within the generated batch.
        archetype: Case-study shape.
        faults: Fault schedule realizing the incident.
        reroutes: Route churn that is part of the incident (traffic shift).
        start: First affected bucket.
        duration: Length in buckets.
        expected_segment: Ground-truth blamed segment, or None when the
            incident must *not* produce a latency issue (flash crowd).
        expected_culprit_asn: Ground-truth faulty AS (None with a None
            segment).
        description: Human-readable summary (appears in alert tickets).
        surges: Demand surges that are part of the incident (flash crowd).
        ring_flaps: Anycast ring events behind the incident's faults.
        affected_location_ids: Locations the incident degrades — the
            pooling scope for mitigation-aware ranking of correlated
            failures (empty when single-location or not applicable).
    """

    incident_id: int
    archetype: IncidentArchetype
    faults: tuple[Fault, ...]
    reroutes: tuple[RerouteEvent, ...]
    start: Timestamp
    duration: int
    expected_segment: SegmentKind | None
    expected_culprit_asn: int | None
    description: str
    surges: tuple[DemandSurge, ...] = ()
    ring_flaps: tuple[RingFlap, ...] = ()
    affected_location_ids: tuple[str, ...] = ()


@dataclass
class _WorldIndex:
    """Precomputed target pools plus the gate-vector cache (internal).

    The per-slot columns are the world's :class:`SlotTable`;
    :meth:`gate_weights` turns them into every slot's chance of clearing
    the quartet sample gate at one bucket. An index lives for one
    generation call (or one suite build), and its bucket cache with it.
    """

    locations: list[str]
    client_asns: list[int]
    middle_ranked: list[int]  # usable middle ASes, highest usage first
    middle_metro: dict[int, Metro]
    location_middle_counts: dict[tuple[str, tuple], int]
    middle_counts: dict[tuple, int]
    location_totals: dict[str, int]
    middle_locations: dict[int, tuple[str, ...]]  # locations reached via AS
    cross_region_middles: dict[tuple, int]  # cross-region slots per middle
    metro_location_counts: dict[tuple[str, str], int]  # (location, metro)
    table: SlotTable
    rate: float  # connections per user
    _gates: dict[int, np.ndarray] = field(default_factory=dict, repr=False)

    def gate_weights(self, time: Timestamp) -> np.ndarray:
        """Every slot's P(Poisson(expected connections) ≥ 10) at ``time``.

        Bit-identical to evaluating
        ``ActivityModel.expected_connections(...) * slot.share`` and the
        Poisson tail slot by slot: the same factors multiplied in the
        same order, ``((users * rate * diurnal) * weekend) * share``, the
        diurnal factor read from the same ``evening_weights`` table.
        Cached per bucket for the index's lifetime.
        """
        weights = self._gates.get(time)
        if weights is None:
            table = self.table
            diurnal = table.diurnal_rows[table.diurnal_row, time % BUCKETS_PER_DAY]
            weekend = np.where(
                table.enterprise,
                weekend_factor(time, True),
                weekend_factor(time, False),
            )
            expected = (((table.users * self.rate) * diurnal) * weekend) * table.share
            weights = _gate_pass_probabilities(expected)
            self._gates[time] = weights
        return weights


def _index_world(world: World) -> _WorldIndex:
    """Scan slot paths once and build every pool the builders need.

    Both middle- and client-fault targets are filtered by *share*: a
    diagnosable fault must not dominate a coarser aggregate, or
    hierarchical elimination would (correctly, per Insight-2) stop at the
    coarser level. A middle AS carrying ≥ half of a location's paths
    looks like a location problem; a client AS producing ≥ half of its
    middle group's quartets looks like a path problem.

    The scan reads each slot's base path from the world's slot table,
    which also holds the per-slot columns the gate vector needs.
    """
    table = world.slot_table
    usage: dict[int, int] = {}
    middle_metro: dict[int, Metro] = {}
    per_location_total: dict[str, int] = {}
    per_location_as: dict[tuple[str, int], int] = {}
    per_location_client: dict[tuple[str, int], int] = {}
    location_middle_counts: dict[tuple[str, tuple], int] = {}
    middle_counts: dict[tuple, int] = {}
    middle_client_counts: dict[tuple[tuple, int], int] = {}
    location_slots: dict[str, int] = {}
    middle_location_sets: dict[int, set[str]] = {}
    cross_region_middles: dict[tuple, int] = {}
    metro_location_counts: dict[tuple[str, str], int] = {}
    for slot, path in zip(world.slots, table.base_paths):
        location_id = slot.location.location_id
        location_slots[location_id] = location_slots.get(location_id, 0) + 1
        if path is None:
            continue
        middle = middle_asns(path)
        per_location_total[location_id] = per_location_total.get(location_id, 0) + 1
        metro_location_counts[(location_id, slot.client.metro.name)] = (
            metro_location_counts.get((location_id, slot.client.metro.name), 0) + 1
        )
        if slot.location.region is not slot.client.metro.region:
            cross_region_middles[middle] = cross_region_middles.get(middle, 0) + 1
        per_location_client[(location_id, slot.client.asn)] = (
            per_location_client.get((location_id, slot.client.asn), 0) + 1
        )
        location_middle_counts[(location_id, middle)] = (
            location_middle_counts.get((location_id, middle), 0) + 1
        )
        middle_counts[middle] = middle_counts.get(middle, 0) + 1
        middle_client_counts[(middle, slot.client.asn)] = (
            middle_client_counts.get((middle, slot.client.asn), 0) + 1
        )
        for asn in middle:
            usage[asn] = usage.get(asn, 0) + 1
            per_location_as[(location_id, asn)] = (
                per_location_as.get((location_id, asn), 0) + 1
            )
            middle_metro.setdefault(asn, slot.client.metro)
            middle_location_sets.setdefault(asn, set()).add(location_id)

    def max_location_share(counts: dict[tuple[str, int], int], asn: int) -> float:
        shares = [
            counts.get((loc, asn), 0) / total
            for loc, total in per_location_total.items()
            if total > 0
        ]
        return max(shares) if shares else 0.0

    def max_middle_share(asn: int) -> float:
        shares = [
            middle_client_counts.get((middle, asn), 0) / total
            for middle, total in middle_counts.items()
            if total > 0
        ]
        return max(shares) if shares else 0.0

    def biggest_group(asn: int) -> int:
        return max(
            (total for middle, total in middle_counts.items() if asn in middle),
            default=0,
        )

    usable_middle = [
        asn
        for asn in usage
        if max_location_share(per_location_as, asn) <= 0.5 and biggest_group(asn) >= 10
    ]
    usable_middle.sort(key=lambda a: (-usage[a], a))
    if not usable_middle:  # degenerate tiny world: least-dominant ASes
        usable_middle = sorted(
            usage, key=lambda a: (max_location_share(per_location_as, a), -usage[a], a)
        )

    def client_ok(asn: int) -> bool:
        return (
            max_location_share(per_location_client, asn) <= 0.5
            and max_middle_share(asn) <= 0.5
        )

    all_clients = sorted(
        world.population.asns,
        key=lambda asn: (-len(world.population.in_as(asn)), asn),
    )
    usable_clients = [asn for asn in all_clients if client_ok(asn)]
    if not usable_clients:
        usable_clients = all_clients
    return _WorldIndex(
        locations=sorted(location_slots, key=lambda k: (-location_slots[k], k)),
        client_asns=usable_clients,
        middle_ranked=usable_middle,
        middle_metro=middle_metro,
        location_middle_counts=location_middle_counts,
        middle_counts=middle_counts,
        location_totals=per_location_total,
        middle_locations={
            asn: tuple(sorted(locs)) for asn, locs in middle_location_sets.items()
        },
        cross_region_middles=cross_region_middles,
        metro_location_counts=metro_location_counts,
        table=table,
        rate=world.activity.params.connections_per_user,
    )


def _gate_pass_probabilities(expected: np.ndarray, gate: int = 10) -> np.ndarray:
    """P(Poisson(expected) >= gate) per slot: the chance of clearing the
    sample gate.

    The nine-term recurrence runs elementwise, in the scalar order. ``exp``
    comes from :func:`math.exp`, not ``np.exp``, whose SIMD kernels may
    differ in the last bit on some hosts.
    """
    probs = (expected > 4 * gate).astype(float)
    mid = (expected > 0) & (expected <= 4 * gate)
    values = expected[mid]
    term = np.fromiter(map(math.exp, (-values).tolist()), float, values.size)
    cdf = term
    for k in range(1, gate):
        term = term * (values / k)
        cdf = cdf + term
    probs[mid] = np.maximum(0.0, 1.0 - cdf)
    return probs


def _ordered_sum(values: np.ndarray) -> np.ndarray:
    """Row sums over the last axis, added left to right in slot order.

    ``np.sum`` adds pairwise and builtin ``sum`` compensates (CPython ≥
    3.12); either can move the last bit of a total that a filter then
    compares against its threshold. The last cumulative sum is the plain
    left-to-right total, and zeroed slots leave it unchanged
    (``x + 0.0 == x``), so callers mask by zeroing.
    """
    return np.cumsum(values, axis=-1)[..., -1]


def _active_weights(index: _WorldIndex, time: Timestamp) -> np.ndarray:
    """Gate weights with the slots at or below 1 % zeroed out."""
    weights = index.gate_weights(time)
    return np.where(weights > 0.01, weights, 0.0)


def _gated_share_ok(
    index: _WorldIndex,
    scoped_middle: tuple,
    start: Timestamp,
    duration: int,
    threshold: float = 0.4,
) -> bool:
    """Whether the scoped group stays a minority of active traffic.

    Static slot shares can mislead: at night the *active* population
    shrinks and a 40 % group can become 90 % of what a location still
    sees, tripping the cloud step (a fault on ≥ 60 % of a location's
    gated quartets is legitimately indistinguishable from a location
    problem under τ = 0.8 with median thresholds). This weights each
    slot by its probability of clearing the 10-sample quartet gate
    across the incident window; slots at or below 1 % are left out.
    """
    table = index.table
    at_location = table.location == np.arange(len(table.location_codes))[:, None]
    in_scope = at_location & (table.middle == table.middle_codes[scoped_middle])
    masks = np.stack([at_location, in_scope])
    for time in range(start, start + duration, 4):
        active, scoped = _ordered_sum(
            np.where(masks, _active_weights(index, time), 0.0)
        )
        busy = active > 0
        if np.any(scoped[busy] / active[busy] > threshold):
            return False
    return True


def _busy_start(
    metro: Metro,
    rng: np.random.Generator,
    start_range: tuple[int, int],
) -> Timestamp:
    """A start bucket within the metro's local busy hours."""
    lo, hi = _BUSY_HOURS
    candidates = [
        bucket
        for bucket in range(start_range[0], start_range[1])
        if lo <= local_hour(metro, bucket) <= hi
    ]
    if not candidates:
        return int(rng.integers(start_range[0], start_range[1]))
    return int(candidates[int(rng.integers(0, len(candidates)))])


def _location_active_enough(
    index: _WorldIndex,
    location_id: str,
    start: Timestamp,
    duration: int,
    min_gated: float = 8.0,
) -> bool:
    """Whether a location carries enough gated quartets to be diagnosed.

    A cloud fault at a PoP with ≤ 5 measurable prefixes can only ever
    yield "insufficient" (Algorithm 1's aggregate gate); such incidents
    never reach a diagnosable state and are not generated.
    """
    table = index.table
    at_location = table.location == table.location_codes[location_id]
    return all(
        _ordered_sum(np.where(at_location, index.gate_weights(time), 0.0))
        >= min_gated
        for time in range(start, start + duration, 6)
    )


def _pick_cloud_target(
    world: World,
    index: _WorldIndex,
    incident_id: int,
    start_range: tuple[int, int],
    duration: int,
    rng: np.random.Generator,
) -> tuple[str, Timestamp]:
    """A (location, busy start) pair with enough diagnosable traffic."""
    n = len(index.locations)
    for offset in range(n):
        location_id = index.locations[(incident_id + offset) % n]
        metro = world.location_by_id(location_id).metro
        start = _busy_start(metro, rng, start_range)
        if _location_active_enough(index, location_id, start, duration):
            return location_id, start
    # Degenerate world: fall back to the busiest location.
    location_id = index.locations[0]
    return location_id, _busy_start(
        world.location_by_id(location_id).metro, rng, start_range
    )


def generate_incidents(
    world: World,
    count: int,
    rng: np.random.Generator,
    start_range: tuple[int, int] | None = None,
    families: tuple[IncidentArchetype, ...] | None = None,
    first_id: int = 0,
) -> tuple[IncidentSpec, ...]:
    """Generate ``count`` labelled incidents over the world.

    Families rotate round-robin so a batch of 88 covers every requested
    shape. Each incident draws from its own spawned RNG substream, so
    incident ``k``'s bytes depend only on (seed, ``k``, its family) —
    changing the family list or one builder never perturbs the other
    incidents in the batch.

    Args:
        world: The shared static world.
        count: Number of incidents (the paper validates 88).
        rng: Seeded generator.
        start_range: Bucket range for incident onsets; defaults to
            leaving room for the longest incident before the horizon.
        families: Archetypes to rotate through; the paper's five §6.3
            case-study shapes when None.
        first_id: Id of the first incident — suites combining several
            batches over one world keep incident (and so fault) ids
            globally unique this way.

    Returns:
        The incident specs, ids ``first_id..first_id+count-1``.
    """
    return _generate(
        world, _index_world(world), count, rng, start_range, families, first_id
    )


def _generate(
    world: World,
    index: _WorldIndex,
    count: int,
    rng: np.random.Generator,
    start_range: tuple[int, int] | None = None,
    families: tuple[IncidentArchetype, ...] | None = None,
    first_id: int = 0,
) -> tuple[IncidentSpec, ...]:
    """:func:`generate_incidents` over a prebuilt index of ``world``.

    Callers generating several batches over one world (the scenario
    suite) share one index, and with it the per-bucket gate weights.
    """
    horizon = world.params.horizon_buckets
    if start_range is None:
        start_range = (12, max(13, horizon - 72))
    if families is None:
        families = PAPER_ARCHETYPES
    if not families:
        raise ValueError("families must name at least one archetype")
    specs: list[IncidentSpec] = []
    streams = rng.spawn(count) if count else []
    for offset in range(count):
        archetype = families[offset % len(families)]
        builder = _BUILDERS[archetype]
        specs.append(
            builder(world, index, first_id + offset, start_range, streams[offset])
        )
    return tuple(specs)


def _magnitude(rng: np.random.Generator) -> float:
    return float(rng.uniform(*_MAGNITUDE_RANGE))


def _build_cloud_maintenance(
    world: World,
    index: _WorldIndex,
    incident_id: int,
    start_range: tuple[int, int],
    rng: np.random.Generator,
) -> IncidentSpec:
    duration = int(rng.integers(24, 48))  # maintenance issues linger
    location_id, start = _pick_cloud_target(
        world, index, incident_id, start_range, duration, rng
    )
    added = _magnitude(rng)
    fault = Fault(
        fault_id=incident_id,
        target=FaultTarget(kind=SegmentKind.CLOUD, location_id=location_id),
        start=start,
        duration=duration,
        added_ms=added,
    )
    return IncidentSpec(
        incident_id=incident_id,
        archetype=IncidentArchetype.CLOUD_MAINTENANCE,
        faults=(fault,),
        reroutes=(),
        start=start,
        duration=fault.duration,
        expected_segment=SegmentKind.CLOUD,
        expected_culprit_asn=world.cloud_asn,
        description=(
            f"Unfinished maintenance at {location_id}: internal routing adds "
            f"{added:.0f}ms to every client of the location"
        ),
    )


def _build_peering_fault(
    world: World,
    index: _WorldIndex,
    incident_id: int,
    start_range: tuple[int, int],
    rng: np.random.Generator,
) -> IncidentSpec:
    asn = index.middle_ranked[incident_id % len(index.middle_ranked)]
    metro = index.middle_metro.get(asn)
    start = (
        _busy_start(metro, rng, start_range)
        if metro is not None
        else int(rng.integers(*start_range))
    )
    added = _magnitude(rng)
    fault = Fault(
        fault_id=incident_id,
        target=FaultTarget(kind=SegmentKind.MIDDLE, asn=asn),
        start=start,
        duration=int(rng.integers(6, 48)),
        added_ms=added,
    )
    return IncidentSpec(
        incident_id=incident_id,
        archetype=IncidentArchetype.PEERING_FAULT,
        faults=(fault,),
        reroutes=(),
        start=start,
        duration=fault.duration,
        expected_segment=SegmentKind.MIDDLE,
        expected_culprit_asn=asn,
        description=(
            f"Path changes inside peering AS{asn} add {added:.0f}ms on every "
            f"path through it"
        ),
    )


def _build_cloud_overload(
    world: World,
    index: _WorldIndex,
    incident_id: int,
    start_range: tuple[int, int],
    rng: np.random.Generator,
) -> IncidentSpec:
    duration = int(rng.integers(6, 18))  # overloads get mitigated quickly
    location_id, start = _pick_cloud_target(
        world, index, incident_id + 1, start_range, duration, rng
    )
    added = _magnitude(rng)
    fault = Fault(
        fault_id=incident_id,
        target=FaultTarget(kind=SegmentKind.CLOUD, location_id=location_id),
        start=start,
        duration=duration,
        added_ms=added,
    )
    return IncidentSpec(
        incident_id=incident_id,
        archetype=IncidentArchetype.CLOUD_OVERLOAD,
        faults=(fault,),
        reroutes=(),
        start=start,
        duration=fault.duration,
        expected_segment=SegmentKind.CLOUD,
        expected_culprit_asn=world.cloud_asn,
        description=(
            f"Server CPU overload at {location_id} raises handshake RTTs by "
            f"{added:.0f}ms; same BGP paths to other locations stay healthy"
        ),
    )


def _build_traffic_shift(
    world: World,
    index: _WorldIndex,
    incident_id: int,
    start_range: tuple[int, int],
    rng: np.random.Generator,
) -> IncidentSpec:
    """A reroute pushes clients onto an alternate path whose transit is
    poorly provisioned for the shifted traffic.

    The alternate path's middle must already carry healthy traffic (≥ 3
    slots at the same location, ≥ 6 overall) so that expected RTTs and
    probe baselines exist for it — otherwise BlameIt would correctly
    report "insufficient", which is not what the §6.3 case study shows.
    """
    order = rng.permutation(len(world.slots))
    for slot_index in order:
        slot = world.slots[int(slot_index)]
        location_id = slot.location.location_id
        base = world.mapper.path_for(slot.location, slot.client)
        alternate = world.mapper.alternate_path_for(slot.location, slot.client)
        if base is None or alternate is None:
            continue
        scoped_middle = middle_asns(alternate)
        if not scoped_middle:
            continue
        local_count = index.location_middle_counts.get((location_id, scoped_middle), 0)
        if local_count < 4 or index.middle_counts.get(scoped_middle, 0) < 16:
            continue
        # The group must not dominate any location, or the scoped fault
        # would (correctly) read as a cloud-location problem. The culprit
        # AS itself must also pass the peering-target share filter —
        # blaming a tier-1 that fronts most of a location's paths is
        # indistinguishable from a location problem.
        if any(
            index.location_middle_counts.get((loc, scoped_middle), 0) / total > 0.4
            for loc, total in index.location_totals.items()
            if total > 0
        ):
            continue
        if scoped_middle[0] not in index.middle_ranked:
            continue
        culprit = scoped_middle[0]
        added = _magnitude(rng)
        # The affected group spans the location's whole client footprint;
        # the serving metro is the best single proxy for its busy hours.
        start = _busy_start(slot.location.metro, rng, start_range)
        duration = int(rng.integers(6, 36))
        if not _gated_share_ok(index, scoped_middle, start, duration):
            continue
        reroute_on = RerouteEvent(
            start, location_id, slot.client.announcement, alternate
        )
        reroute_off = RerouteEvent(
            start + duration, location_id, slot.client.announcement, base
        )
        fault = Fault(
            fault_id=incident_id,
            target=FaultTarget(
                kind=SegmentKind.MIDDLE, asn=culprit, path_scope=scoped_middle
            ),
            start=start,
            duration=duration,
            added_ms=added,
        )
        return IncidentSpec(
            incident_id=incident_id,
            archetype=IncidentArchetype.TRAFFIC_SHIFT,
            faults=(fault,),
            reroutes=(reroute_on, reroute_off),
            start=start,
            duration=duration,
            expected_segment=SegmentKind.MIDDLE,
            expected_culprit_asn=culprit,
            description=(
                f"BGP announcement side-effect shifts {slot.client.announcement} "
                f"onto a path via AS{culprit}, which lacks capacity for the "
                f"shifted traffic (+{added:.0f}ms)"
            ),
        )
    # No suitable shift target (degenerate world) — fall back to a plain
    # middle fault so the batch stays full.
    return _build_peering_fault(world, index, incident_id, start_range, rng)


def _build_client_isp(
    world: World,
    index: _WorldIndex,
    incident_id: int,
    start_range: tuple[int, int],
    rng: np.random.Generator,
) -> IncidentSpec:
    asn = index.client_asns[incident_id % len(index.client_asns)]
    info = world.generated.topology.as_info(asn)
    start = _busy_start(info.metros[0], rng, start_range)
    added = float(rng.uniform(80.0, 160.0))  # the Italy incident: 9ms -> 161ms
    fault = Fault(
        fault_id=incident_id,
        target=FaultTarget(kind=SegmentKind.CLIENT, asn=asn),
        start=start,
        duration=int(rng.integers(6, 48)),
        added_ms=added,
    )
    return IncidentSpec(
        incident_id=incident_id,
        archetype=IncidentArchetype.CLIENT_ISP,
        faults=(fault,),
        reroutes=(),
        start=start,
        duration=fault.duration,
        expected_segment=SegmentKind.CLIENT,
        expected_culprit_asn=asn,
        description=(
            f"Unannounced maintenance inside client ISP AS{asn} adds "
            f"{added:.0f}ms on the access segment"
        ),
    )


def _build_correlated_transit(
    world: World,
    index: _WorldIndex,
    incident_id: int,
    start_range: tuple[int, int],
    rng: np.random.Generator,
) -> IncidentSpec:
    """One shared transit AS degrades every metro routed through it.

    A single unscoped middle fault whose AS fronts paths into several
    locations — the members present as simultaneous per-location issues,
    but the correct blame (and the correct mitigation) is the shared
    segment. ``affected_location_ids`` records the pooling scope for
    mitigation-aware ranking.
    """
    candidates = [
        asn
        for asn in index.middle_ranked
        if len(index.middle_locations.get(asn, ())) >= 2
    ]
    if not candidates:
        return _build_peering_fault(world, index, incident_id, start_range, rng)

    def span(asn: int) -> tuple[int, int]:
        locations = index.middle_locations[asn]
        regions = {world.location_by_id(loc).region for loc in locations}
        return (len(regions), len(locations))

    candidates.sort(key=lambda a: (-span(a)[0], -span(a)[1], a))
    asn = candidates[incident_id % len(candidates)]
    locations = index.middle_locations[asn]
    metro = index.middle_metro.get(asn)
    start = (
        _busy_start(metro, rng, start_range)
        if metro is not None
        else int(rng.integers(*start_range))
    )
    duration = int(rng.integers(18, 60))  # backbone repairs take a while
    added = _magnitude(rng)
    fault = Fault(
        fault_id=incident_id,
        target=FaultTarget(kind=SegmentKind.MIDDLE, asn=asn),
        start=start,
        duration=duration,
        added_ms=added,
    )
    return IncidentSpec(
        incident_id=incident_id,
        archetype=IncidentArchetype.CORRELATED_TRANSIT,
        faults=(fault,),
        reroutes=(),
        start=start,
        duration=duration,
        expected_segment=SegmentKind.MIDDLE,
        expected_culprit_asn=asn,
        description=(
            f"Backbone congestion inside shared transit AS{asn} adds "
            f"{added:.0f}ms to every path through it, degrading "
            f"{len(locations)} locations at once"
        ),
        affected_location_ids=locations,
    )


def _gated_metro_dominates(
    index: _WorldIndex,
    location_id: str,
    metro_name: str,
    start: Timestamp,
    duration: int,
    min_share: float = 0.6,
) -> bool:
    """Whether the metro carries most of the location's *gated* traffic.

    The inverse of :func:`_gated_share_ok`: a metro-scoped cloud fault
    only trips Algorithm 1's cloud step if the metro's quartets dominate
    what the location measures during the window. Static slot shares
    undercount this — during the metro's busy hours, clients in other
    timezones are asleep.
    """
    table = index.table
    at_location = table.location == table.location_codes[location_id]
    in_metro = at_location & table.metro_mask(metro_name)
    masks = np.stack([at_location, in_metro])
    for time in range(start, start + duration, 2):
        active, scoped = _ordered_sum(
            np.where(masks, _active_weights(index, time), 0.0)
        )
        if active <= 0 or scoped / active < min_share:
            return False
    return True


def _build_anycast_flap(
    world: World,
    index: _WorldIndex,
    incident_id: int,
    start_range: tuple[int, int],
    rng: np.random.Generator,
) -> IncidentSpec:
    """An anycast ring event remaps a whole metro to a farther front end.

    Realized as a CLOUD fault at the metro's normal serving location,
    scoped to the metro's prefixes — the provider's announcement moved
    the metro, so the inflation belongs to the cloud segment even though
    from each client ISP's viewpoint nothing changed. The metro must
    dominate its location's gated traffic during the window so the
    location aggregate actually turns bad (a minority-metro flap
    legitimately falls through Algorithm 1's cloud step).
    """
    pairs = sorted(
        (
            (count / index.location_totals[loc], loc, metro_name)
            for (loc, metro_name), count in index.metro_location_counts.items()
            if index.location_totals.get(loc, 0) > 0
            and count / index.location_totals[loc] >= 0.25
        ),
        key=lambda p: (-p[0], p[1], p[2]),
    )
    metros_by_name = {c.metro.name: c.metro for c in world.population}
    duration = int(rng.integers(4, 14))  # re-convergence is quick
    added = _magnitude(rng)
    for offset in range(len(pairs)):
        _, location_id, metro_name = pairs[(incident_id + offset) % len(pairs)]
        metro = metros_by_name.get(metro_name)
        if metro is None:
            continue
        prefixes = frozenset(
            c.prefix24 for c in world.population if c.metro.name == metro_name
        )
        if len(prefixes) < 3:
            continue
        # The feasible window (metro dominates AND the location carries
        # enough gated quartets AND a farther ring member exists) can be
        # a handful of buckets on sparse-ring worlds, so a single busy
        # hour draw routinely misses it. Sweep forward from the draw,
        # wrapping across the range, and take the first feasible start.
        drawn = _busy_start(metro, rng, start_range)
        lo, hi = start_range
        span = max(1, hi - lo)
        start = None
        flap = None
        for step in range(0, span, 2):
            candidate = lo + (drawn - lo + step) % span
            if not _gated_metro_dominates(
                index, location_id, metro_name, candidate, duration
            ):
                continue
            if not _location_active_enough(index, location_id, candidate, duration):
                continue
            planned = world.mapper.plan_ring_flap(
                metro, incident_id, candidate, duration, min_added_ms=added
            )
            if planned is None or planned.from_location_id != location_id:
                continue
            start, flap = candidate, planned
            break
        if start is None or flap is None:
            continue
        fault = Fault(
            fault_id=incident_id,
            target=FaultTarget(
                kind=SegmentKind.CLOUD, location_id=location_id, prefixes=prefixes
            ),
            start=start,
            duration=duration,
            added_ms=flap.added_ms,
        )
        return IncidentSpec(
            incident_id=incident_id,
            archetype=IncidentArchetype.ANYCAST_FLAP,
            faults=(fault,),
            reroutes=(),
            start=start,
            duration=duration,
            expected_segment=SegmentKind.CLOUD,
            expected_culprit_asn=world.cloud_asn,
            description=(
                f"Anycast ring flap remaps {metro_name} from "
                f"{flap.from_location_id} to {flap.to_location_id} "
                f"(+{flap.added_ms:.0f}ms for the whole metro)"
            ),
            ring_flaps=(flap,),
            affected_location_ids=(location_id,),
        )
    # Degenerate world (single location / scattered metros): the nearest
    # cloud-shaped incident keeps the batch full.
    return _build_cloud_maintenance(world, index, incident_id, start_range, rng)


def _scope_window_diagnosable(
    index: _WorldIndex,
    scope_slots: list[np.ndarray],
    start: Timestamp,
    duration: int,
    min_gated: float = 4.5,
) -> bool:
    """Whether a path scope can actually be blamed during the window.

    A path-scoped fault turns every quartet in its ⟨location, path⟩
    group bad, but Algorithm 1 skips groups with fewer than
    ``min_aggregate_quartets`` gated quartets in a bucket. Require one
    serving location to keep its *expected* gated weight near the bar at
    every sampled bucket; realization noise around an expectation of
    ~4.5 clears the 5-quartet floor in roughly half the buckets, which
    is plenty for the middle verdict to fire during the window.

    ``scope_slots`` holds one ascending slot-index array per serving
    location of the scope.
    """
    return any(
        all(
            _ordered_sum(index.gate_weights(time)[slots]) >= min_gated
            for time in range(start, start + duration, 6)
        )
        for slots in scope_slots
    )


def _scope_slots(index: _WorldIndex, middle: tuple) -> list[np.ndarray]:
    """Slot indices on ``middle``, one ascending array per serving location."""
    table = index.table
    slots = np.flatnonzero(table.middle == table.middle_codes[middle])
    locations = table.location[slots]
    return [slots[locations == code] for code in np.unique(locations)]


def _build_inter_region_peering(
    world: World,
    index: _WorldIndex,
    incident_id: int,
    start_range: tuple[int, int],
    rng: np.random.Generator,
) -> IncidentSpec:
    """A peering path between two provider regions degrades.

    CloudCast's structure: inter-region connectivity rides specific
    peering paths, so a degradation there hits *only* cross-region
    traffic — clients served in-region over the same ASes stay healthy.
    Realized as path-scoped middle faults on qualifying middle paths
    through the culprit AS (≥ 80 % cross-region traffic, enough slots
    for a learned baseline). Cross-region groups are thin (sparse-ring
    and secondary slots), so the start sweeps forward from a busy-hour
    draw until at least one scope stays above the aggregate gate for the
    whole window — otherwise the verdict would be "insufficient".
    """
    usable = set(index.middle_ranked)
    qualified: dict[int, list[tuple]] = {}
    for middle, cross in index.cross_region_middles.items():
        total = index.middle_counts.get(middle, 0)
        if total >= 8 and cross / total >= 0.8:
            for asn in middle:
                if asn in usable:
                    qualified.setdefault(asn, []).append(middle)
    candidates = sorted(
        qualified,
        key=lambda a: (-sum(index.middle_counts[m] for m in qualified[a]), a),
    )
    if not candidates:
        return _build_peering_fault(world, index, incident_id, start_range, rng)
    lo, hi = start_range
    span = max(1, hi - lo)
    chosen = None
    for pick in range(len(candidates)):
        asn = candidates[(incident_id + pick) % len(candidates)]
        scopes = sorted(
            qualified[asn], key=lambda m: (-index.middle_counts[m], m)
        )[:4]
        scope_slots = {scope: _scope_slots(index, scope) for scope in scopes}
        metro = index.middle_metro.get(asn)
        drawn = (
            _busy_start(metro, rng, start_range)
            if metro is not None
            else int(rng.integers(*start_range))
        )
        # Short enough to fit inside the cross-region groups' daily
        # activity peak — a multi-hour window would inevitably dip
        # below the aggregate gate.
        duration = int(rng.integers(6, 18))
        for step in range(0, span, 4):
            start = lo + (drawn - lo + step) % span
            usable_scopes = tuple(
                scope
                for scope in scopes
                if _scope_window_diagnosable(
                    index, scope_slots[scope], start, duration
                )
            )
            if usable_scopes:
                chosen = (asn, usable_scopes, start, duration)
                break
        if chosen is not None:
            break
    if chosen is None:
        return _build_peering_fault(world, index, incident_id, start_range, rng)
    asn, scopes, start, duration = chosen
    added = _magnitude(rng)
    faults = tuple(
        Fault(
            fault_id=incident_id + 1000 * j,
            target=FaultTarget(
                kind=SegmentKind.MIDDLE, asn=asn, path_scope=scope
            ),
            start=start,
            duration=duration,
            added_ms=added,
        )
        for j, scope in enumerate(scopes)
    )
    locations = tuple(
        sorted(
            {
                loc
                for (loc, middle) in index.location_middle_counts
                if middle in set(scopes)
            }
        )
    )
    return IncidentSpec(
        incident_id=incident_id,
        archetype=IncidentArchetype.INTER_REGION_PEERING,
        faults=faults,
        reroutes=(),
        start=start,
        duration=duration,
        expected_segment=SegmentKind.MIDDLE,
        expected_culprit_asn=asn,
        description=(
            f"Inter-region peering degradation: AS{asn} adds {added:.0f}ms "
            f"on {len(scopes)} cross-region path(s); in-region traffic "
            f"through the same AS stays healthy"
        ),
        affected_location_ids=locations,
    )


def _build_flash_crowd(
    world: World,
    index: _WorldIndex,
    incident_id: int,
    start_range: tuple[int, int],
    rng: np.random.Generator,
) -> IncidentSpec:
    """A request-cloning surge multiplies a metro's demand, RTTs unchanged.

    No fault: connection counts jump, latency does not. The labelled
    expectation is *negative* — the pipeline must not raise a latency
    issue attributable to the surge — while the client-count predictor
    absorbs a step change several times its history.
    """
    del index  # the surge targets a metro, not a fault pool
    counts: dict[str, int] = {}
    metros_by_name: dict[str, Metro] = {}
    for client in world.population:
        counts[client.metro.name] = counts.get(client.metro.name, 0) + 1
        metros_by_name.setdefault(client.metro.name, client.metro)
    ranked = sorted(counts, key=lambda name: (-counts[name], name))
    metro_name = ranked[incident_id % len(ranked)]
    metro = metros_by_name[metro_name]
    start = _busy_start(metro, rng, start_range)
    duration = int(rng.integers(6, 24))
    multiplier = float(rng.uniform(2.5, 6.0))
    surge = DemandSurge(
        surge_id=incident_id,
        metro_name=metro_name,
        start=start,
        duration=duration,
        multiplier=multiplier,
    )
    return IncidentSpec(
        incident_id=incident_id,
        archetype=IncidentArchetype.FLASH_CROWD,
        faults=(),
        reroutes=(),
        start=start,
        duration=duration,
        expected_segment=None,
        expected_culprit_asn=None,
        description=(
            f"Flash crowd in {metro_name}: request cloning multiplies "
            f"connection volume ×{multiplier:.1f} with no RTT shift"
        ),
        surges=(surge,),
    )


_BUILDERS = {
    IncidentArchetype.CLOUD_MAINTENANCE: _build_cloud_maintenance,
    IncidentArchetype.PEERING_FAULT: _build_peering_fault,
    IncidentArchetype.CLOUD_OVERLOAD: _build_cloud_overload,
    IncidentArchetype.TRAFFIC_SHIFT: _build_traffic_shift,
    IncidentArchetype.CLIENT_ISP: _build_client_isp,
    IncidentArchetype.CORRELATED_TRANSIT: _build_correlated_transit,
    IncidentArchetype.ANYCAST_FLAP: _build_anycast_flap,
    IncidentArchetype.INTER_REGION_PEERING: _build_inter_region_peering,
    IncidentArchetype.FLASH_CROWD: _build_flash_crowd,
}
