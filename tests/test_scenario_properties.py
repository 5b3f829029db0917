"""Property-based invariants of the scenario's ground truth.

These are the contracts every consumer (quartets, traceroutes, oracle)
relies on; hypothesis drives fault shape, magnitude, timing and target.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.net.asn import middle_asns
from repro.perf.batch import BatchQuartetGenerator
from repro.sim.faults import Direction, Fault, FaultTarget, SegmentKind
from repro.sim.scenario import Scenario


def _slot_with_middle(world):
    return next(
        s
        for s in world.slots
        if len(middle_asns(world.mapper.path_for(s.location, s.client) or (0, 0))) >= 1
    )


_MAGNITUDE = st.floats(min_value=15.0, max_value=200.0)
_START = st.integers(min_value=0, max_value=200)
_DURATION = st.integers(min_value=1, max_value=60)
_KINDS = st.sampled_from(["cloud", "cloud-partial", "middle", "client", "reverse"])


def _build_fault(world, scenario, kind, start, duration, added):
    slot = _slot_with_middle(world)
    path = world.mapper.path_for(slot.location, slot.client)
    if kind == "cloud":
        target = FaultTarget(
            kind=SegmentKind.CLOUD, location_id=slot.location.location_id
        )
    elif kind == "cloud-partial":
        target = FaultTarget(
            kind=SegmentKind.CLOUD,
            location_id=slot.location.location_id,
            affected_fraction=0.5,
        )
    elif kind == "middle":
        target = FaultTarget(kind=SegmentKind.MIDDLE, asn=middle_asns(path)[0])
    elif kind == "client":
        target = FaultTarget(kind=SegmentKind.CLIENT, asn=slot.client.asn)
    else:  # reverse
        reverse_middle = scenario.reverse_middle(slot.client.asn)
        if not reverse_middle:
            target = FaultTarget(kind=SegmentKind.CLIENT, asn=slot.client.asn)
        else:
            target = FaultTarget(
                kind=SegmentKind.MIDDLE,
                asn=reverse_middle[0],
                direction=Direction.REVERSE,
            )
    return slot, Fault(
        fault_id=0, target=target, start=start, duration=duration, added_ms=added
    )


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(kind=_KINDS, start=_START, duration=_DURATION, added=_MAGNITUDE)
def test_traceroute_total_equals_true_rtt(
    small_world, kind, start, duration, added
):
    """The forward traceroute's end-to-end value IS the path RTT,
    whatever faults are active."""
    probe = Scenario(small_world, (), ())
    slot, fault = _build_fault(small_world, probe, kind, start, duration, added)
    scenario = Scenario(small_world, (fault,), ())
    for time in (max(0, start - 1), start, start + duration // 2, start + duration):
        view = scenario.traceroute_view(
            slot.location.location_id, slot.client.prefix24, time
        )
        rtt = scenario.true_rtt_ms(
            slot.location.location_id, slot.client.prefix24, time
        )
        assert view.cumulative_ms[-1] == pytest.approx(rtt)
        assert list(view.cumulative_ms) == sorted(view.cumulative_ms)
        assert all(v >= 0 for v in view.cumulative_ms)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(kind=_KINDS, start=_START, duration=_DURATION, added=_MAGNITUDE)
def test_fault_window_is_exact(small_world, kind, start, duration, added):
    """RTT is inflated during [start, start+duration) and only then."""
    probe = Scenario(small_world, (), ())
    slot, fault = _build_fault(small_world, probe, kind, start, duration, added)
    scenario = Scenario(small_world, (fault,), ())
    healthy = Scenario(small_world, (), ())
    loc = slot.location.location_id
    prefix = slot.client.prefix24
    if kind == "cloud-partial" and not fault.target.covers_prefix(prefix):
        return  # this /24 is outside the partial fault's hash subset
    during = scenario.true_rtt_ms(loc, prefix, start)
    clean_during = healthy.true_rtt_ms(loc, prefix, start)
    assert during == pytest.approx(clean_during + added)
    after = scenario.true_rtt_ms(loc, prefix, start + duration)
    clean_after = healthy.true_rtt_ms(loc, prefix, start + duration)
    assert after == pytest.approx(clean_after)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(kind=_KINDS, start=_START, duration=_DURATION)
def test_oracle_names_the_injected_fault(small_world, kind, start, duration):
    """With one large fault active, the oracle names its target."""
    added = 80.0
    probe = Scenario(small_world, (), ())
    slot, fault = _build_fault(small_world, probe, kind, start, duration, added)
    scenario = Scenario(small_world, (fault,), ())
    loc = slot.location.location_id
    prefix = slot.client.prefix24
    if kind == "cloud-partial" and not fault.target.covers_prefix(prefix):
        return
    truth = scenario.true_culprit(loc, prefix, start)
    assert truth is not None
    segment, asn = truth
    if kind in ("cloud", "cloud-partial"):
        assert (segment, asn) == (SegmentKind.CLOUD, small_world.cloud_asn)
    elif kind == "client":
        assert (segment, asn) == (SegmentKind.CLIENT, slot.client.asn)
    else:
        assert segment is SegmentKind.MIDDLE
        assert asn == fault.target.asn


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    time=st.integers(min_value=0, max_value=287),
)
def test_quartet_generation_invariants(small_scenario, small_world, seed, time):
    """Quartets are well-formed for any bucket and RNG stream."""
    quartets = BatchQuartetGenerator(small_scenario).generate_quartets(
        time, np.random.default_rng(seed)
    )
    prefixes = {p.prefix24 for p in small_world.population}
    for quartet in quartets:
        assert quartet.time == time
        assert quartet.prefix24 in prefixes
        assert quartet.n_samples >= 1
        assert quartet.mean_rtt_ms >= 1.0
        client = small_world.population.get(quartet.prefix24)
        assert quartet.client_asn == client.asn
        assert quartet.mobile == client.mobile
        assert quartet.users == client.users
