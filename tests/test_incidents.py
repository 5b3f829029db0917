"""Tests for repro.sim.incidents: labelled incident generation."""

import dataclasses
import math

import numpy as np
import pytest

from repro.net.asn import middle_asns
from repro.sim.faults import SegmentKind
from repro.sim.incidents import (
    ADVERSARIAL_ARCHETYPES,
    PAPER_ARCHETYPES,
    IncidentArchetype,
    _gated_metro_dominates,
    _gated_share_ok,
    _index_world,
    _location_active_enough,
    _scope_slots,
    _scope_window_diagnosable,
    generate_incidents,
)
from repro.sim.scenario import build_world
from repro.sim.workload import local_hour


@pytest.fixture(scope="module")
def specs(small_world):
    return generate_incidents(small_world, 15, np.random.default_rng(3))


class TestGenerateIncidents:
    def test_count_and_ids(self, specs):
        assert len(specs) == 15
        assert [s.incident_id for s in specs] == list(range(15))

    def test_archetypes_round_robin(self, specs):
        archetypes = [s.archetype for s in specs]
        # Defaults rotate through the paper-era families only; the
        # adversarial families are opt-in via ``families=``.
        assert set(archetypes) == set(PAPER_ARCHETYPES)
        assert archetypes[0] == archetypes[5] == archetypes[10]

    def test_families_parameter_selects_adversarial(self, suite_world):
        specs = generate_incidents(
            suite_world,
            len(ADVERSARIAL_ARCHETYPES),
            np.random.default_rng(3),
            families=ADVERSARIAL_ARCHETYPES,
        )
        # Builders may fall back to a paper-era shape on degenerate
        # worlds; the ringed suite world is rich enough that none should.
        assert {s.archetype for s in specs} == set(ADVERSARIAL_ARCHETYPES)

    def test_all_archetypes_covered(self):
        assert set(PAPER_ARCHETYPES) | set(ADVERSARIAL_ARCHETYPES) == set(
            IncidentArchetype
        )

    def test_expected_segment_consistent_with_archetype(self, specs):
        expectations = {
            IncidentArchetype.CLOUD_MAINTENANCE: SegmentKind.CLOUD,
            IncidentArchetype.CLOUD_OVERLOAD: SegmentKind.CLOUD,
            IncidentArchetype.PEERING_FAULT: SegmentKind.MIDDLE,
            IncidentArchetype.TRAFFIC_SHIFT: SegmentKind.MIDDLE,
            IncidentArchetype.CLIENT_ISP: SegmentKind.CLIENT,
        }
        for spec in specs:
            assert spec.expected_segment is expectations[spec.archetype]

    def test_cloud_incidents_blame_cloud_asn(self, specs, small_world):
        for spec in specs:
            if spec.expected_segment is SegmentKind.CLOUD:
                assert spec.expected_culprit_asn == small_world.cloud_asn

    def test_faults_within_horizon(self, specs, small_world):
        for spec in specs:
            for fault in spec.faults:
                assert 0 <= fault.start < small_world.params.horizon_buckets

    def test_realize_ground_truth(self, specs, small_world):
        """The realized scenario's oracle must agree with the label for at
        least one affected path during the incident."""
        for spec in specs[:5]:
            scenario = spec.realize(small_world)
            time = spec.start + 1
            hits = 0
            for slot in small_world.slots:
                truth = scenario.true_culprit(
                    slot.location.location_id, slot.client.prefix24, time
                )
                if truth == (spec.expected_segment, spec.expected_culprit_asn):
                    hits += 1
            assert hits > 0, spec.description

    def test_busy_hour_starts(self, specs, small_world):
        """Cloud incidents start during the location's local busy hours."""
        for spec in specs:
            if spec.archetype is not IncidentArchetype.CLOUD_MAINTENANCE:
                continue
            location_id = spec.faults[0].target.location_id
            metro = small_world.location_by_id(location_id).metro
            hour = local_hour(metro, spec.start)
            assert 9.0 <= hour <= 21.0

    def test_traffic_shift_has_reroutes(self, specs):
        for spec in specs:
            if spec.archetype is IncidentArchetype.TRAFFIC_SHIFT:
                # Either a real shift (2 reroutes) or the documented
                # fallback to a plain middle fault (0 reroutes).
                assert len(spec.reroutes) in (0, 2)

    def test_deterministic(self, small_world):
        a = generate_incidents(small_world, 8, np.random.default_rng(5))
        b = generate_incidents(small_world, 8, np.random.default_rng(5))
        assert [(s.archetype, s.start, s.duration) for s in a] == [
            (s.archetype, s.start, s.duration) for s in b
        ]


# -- the gate vector against the scalar code it replaced --------------------


def gate_pass_probability(expected: float, gate: int = 10) -> float:
    """P(Poisson(expected) >= gate), slot by slot (the scalar formula)."""
    if expected <= 0:
        return 0.0
    if expected > 4 * gate:
        return 1.0
    term = math.exp(-expected)
    cdf = term
    for k in range(1, gate):
        term *= expected / k
        cdf += term
    return max(0.0, 1.0 - cdf)


class ScalarGates:
    """The four per-slot diagnosability loops, kept as the oracle.

    The arithmetic is the scalar code's; only each slot's weight is
    memoised per bucket (and its middle path computed once) so the grids
    stay cheap. Sums run left to right with ``+=``: builtin ``sum``
    compensates on CPython >= 3.12.
    """

    def __init__(self, world, users=None):
        self.world = world
        self.users = users or {}
        self.middles = []
        for slot in world.slots:
            path = world.mapper.path_for(slot.location, slot.client)
            self.middles.append(None if path is None else middle_asns(path))
        self._weights = {}

    def weights(self, time):
        if time not in self._weights:
            activity = self.world.activity
            self._weights[time] = [
                gate_pass_probability(
                    activity.expected_connections(
                        self.users.get(k, slot.client.users),
                        slot.client.metro, slot.enterprise, time,
                    )
                    * slot.share
                )
                for k, slot in enumerate(self.world.slots)
            ]
        return self._weights[time]

    def location_sum(self, location_id, time):
        weight = 0.0
        for slot, w in zip(self.world.slots, self.weights(time)):
            if slot.location.location_id == location_id:
                weight += w
        return weight

    def share_ratios(self, scoped_middle, time):
        active, scoped = {}, {}
        for k, slot in enumerate(self.world.slots):
            weight = self.weights(time)[k]
            if weight <= 0.01:
                continue
            location_id = slot.location.location_id
            active[location_id] = active.get(location_id, 0.0) + weight
            if self.middles[k] == scoped_middle:
                scoped[location_id] = scoped.get(location_id, 0.0) + weight
        return [
            scoped.get(location_id, 0.0) / count
            for location_id, count in active.items()
            if count > 0
        ]

    def metro_sums(self, location_id, metro_name, time):
        active = scoped = 0.0
        for slot, weight in zip(self.world.slots, self.weights(time)):
            if slot.location.location_id != location_id or weight <= 0.01:
                continue
            active += weight
            if slot.client.metro.name == metro_name:
                scoped += weight
        return active, scoped

    def scope_slots(self, scoped_middle):
        by_location = {}
        for k, slot in enumerate(self.world.slots):
            if self.middles[k] == scoped_middle:
                by_location.setdefault(slot.location.location_id, []).append(k)
        return by_location

    def scope_sum(self, slots, time):
        weight = 0.0
        for k in slots:
            weight += self.weights(time)[k]
        return weight

    # The four filters, loop for loop.

    def gated_share_ok(self, scoped_middle, start, duration, threshold=0.4):
        return not any(
            ratio > threshold
            for time in range(start, start + duration, 4)
            for ratio in self.share_ratios(scoped_middle, time)
        )

    def location_active_enough(self, location_id, start, duration, min_gated=8.0):
        return all(
            self.location_sum(location_id, time) >= min_gated
            for time in range(start, start + duration, 6)
        )

    def gated_metro_dominates(
        self, location_id, metro_name, start, duration, min_share=0.6
    ):
        for time in range(start, start + duration, 2):
            active, scoped = self.metro_sums(location_id, metro_name, time)
            if active <= 0 or scoped / active < min_share:
                return False
        return True

    def scope_window_diagnosable(self, scope_slots, start, duration, min_gated=4.5):
        return any(
            all(
                self.scope_sum(slots, time) >= min_gated
                for time in range(start, start + duration, 6)
            )
            for slots in scope_slots.values()
        )


#: Day edges, the last bucket of day 4 and the first weekend bucket.
GATE_BUCKETS = (0, 1, 143, 287, 288, 1439, 1440)


@pytest.fixture(scope="module", params=["suite", "week"])
def gate_world(request, suite_params):
    """The suite world, and the same shape over seven days, so weekend
    buckets fall inside the horizon."""
    if request.param == "suite":
        return build_world(suite_params)
    return build_world(dataclasses.replace(suite_params, duration_days=7))


@pytest.fixture(scope="module")
def gates(gate_world):
    return _index_world(gate_world), ScalarGates(gate_world)


def _starts(world):
    horizon = world.params.horizon_buckets
    return range(0, horizon, horizon // 12 + 1)


DURATIONS = (1, 4, 13)


class TestGateWeights:
    @pytest.mark.parametrize("time", GATE_BUCKETS)
    def test_gate_vector_is_the_scalar_formula(self, gates, time):
        index, scalar = gates
        assert np.array_equal(index.gate_weights(time), scalar.weights(time))

    def test_gate_vector_covers_idle_and_saturated_slots(self, gate_world):
        """Slots with expected == 0 (the 0.0 shortcut) and expected > 40
        (the 1.0 shortcut) next to ordinary ones."""
        index = _index_world(gate_world)
        users = {0: 0, 1: 100_000, 2: 1}
        columns = index.table.users.copy()
        for k, value in users.items():
            columns[k] = value
        table = dataclasses.replace(index.table, users=columns)
        index = dataclasses.replace(index, table=table, _gates={})
        scalar = ScalarGates(gate_world, users=users)
        for time in GATE_BUCKETS:
            weights = index.gate_weights(time)
            assert weights[0] == 0.0 and weights[1] == 1.0
            assert np.array_equal(weights, scalar.weights(time))

    def test_gate_vector_is_cached_per_bucket(self, gates):
        index, _ = gates
        assert index.gate_weights(143) is index.gate_weights(143)

    def test_location_active_enough_matches_scalar(self, gate_world, gates):
        index, scalar = gates
        for location_id in index.table.location_codes:
            for start in _starts(gate_world):
                for duration in DURATIONS:
                    assert _location_active_enough(
                        index, location_id, start, duration
                    ) == scalar.location_active_enough(location_id, start, duration)

    def test_gated_metro_dominates_matches_scalar(self, gate_world, gates):
        index, scalar = gates
        for location_id in index.table.location_codes:
            for metro_name in index.table.metro_codes:
                for start in _starts(gate_world):
                    for duration in DURATIONS:
                        assert _gated_metro_dominates(
                            index, location_id, metro_name, start, duration
                        ) == scalar.gated_metro_dominates(
                            location_id, metro_name, start, duration
                        )

    def test_gated_share_ok_matches_scalar(self, gate_world, gates):
        index, scalar = gates
        for middle in index.table.middle_codes:
            for start in _starts(gate_world):
                for duration in DURATIONS:
                    assert _gated_share_ok(
                        index, middle, start, duration
                    ) == scalar.gated_share_ok(middle, start, duration)

    def test_scope_window_diagnosable_matches_scalar(self, gate_world, gates):
        index, scalar = gates
        for middle in index.table.middle_codes:
            vector_slots = _scope_slots(index, middle)
            scalar_slots = scalar.scope_slots(middle)
            assert sorted(s.tolist() for s in vector_slots) == sorted(
                scalar_slots.values()
            )
            for start in _starts(gate_world):
                for duration in DURATIONS:
                    assert _scope_window_diagnosable(
                        index, vector_slots, start, duration
                    ) == scalar.scope_window_diagnosable(scalar_slots, start, duration)

    # Thresholds set to the scalar totals themselves: a filter whose sum
    # or ratio is off by one ulp flips one of each pair.

    @pytest.mark.parametrize("time", GATE_BUCKETS)
    def test_location_sums_exact_at_threshold(self, gates, time):
        index, scalar = gates
        for location_id in index.table.location_codes:
            total = scalar.location_sum(location_id, time)
            assert _location_active_enough(index, location_id, time, 1, total)
            assert not _location_active_enough(
                index, location_id, time, 1, np.nextafter(total, np.inf)
            )

    @pytest.mark.parametrize("time", GATE_BUCKETS)
    def test_metro_shares_exact_at_threshold(self, gates, time):
        index, scalar = gates
        for location_id in index.table.location_codes:
            for metro_name in index.table.metro_codes:
                active, scoped = scalar.metro_sums(location_id, metro_name, time)
                if active <= 0:
                    continue
                share = scoped / active
                assert _gated_metro_dominates(
                    index, location_id, metro_name, time, 1, share
                )
                assert not _gated_metro_dominates(
                    index, location_id, metro_name, time, 1,
                    np.nextafter(share, np.inf),
                )

    @pytest.mark.parametrize("time", GATE_BUCKETS)
    def test_middle_shares_exact_at_threshold(self, gates, time):
        index, scalar = gates
        for middle in index.table.middle_codes:
            ratio = max(scalar.share_ratios(middle, time))
            assert _gated_share_ok(index, middle, time, 1, ratio)
            assert not _gated_share_ok(
                index, middle, time, 1, np.nextafter(ratio, -np.inf)
            )

    @pytest.mark.parametrize("time", GATE_BUCKETS)
    def test_scope_sums_exact_at_threshold(self, gates, time):
        index, scalar = gates
        for middle in index.table.middle_codes:
            for slots in _scope_slots(index, middle):
                total = scalar.scope_sum(slots.tolist(), time)
                assert _scope_window_diagnosable(index, [slots], time, 1, total)
                assert not _scope_window_diagnosable(
                    index, [slots], time, 1, np.nextafter(total, np.inf)
                )
