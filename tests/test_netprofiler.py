"""Tests for the NetProfiler-style baseline."""

import numpy as np
import pytest

from repro.baselines.netprofiler import LEVELS, NetProfilerDiagnosis
from repro.net.asn import middle_asns
from repro.perf.batch import BatchQuartetGenerator
from repro.sim.faults import Fault, FaultTarget, SegmentKind
from repro.sim.scenario import Scenario


def _gate(quartets):
    """Apply the 10-sample quartet gate (same input BlameIt sees)."""
    return [q for q in quartets if q.n_samples >= 10]


def _bad_set(scenario, quartets):
    targets = scenario.world.targets
    return {
        q.prefix24
        for q in quartets
        if q.mean_rtt_ms >= targets.target_ms(q.region, q.mobile)
    }


@pytest.fixture(scope="module")
def diagnosis(small_world):
    return NetProfilerDiagnosis(small_world.population)


class TestNetProfiler:
    def test_client_fault_blamed_at_as_level(self, small_world, diagnosis):
        asn = small_world.population.asns[0]
        fault = Fault(
            fault_id=0,
            target=FaultTarget(kind=SegmentKind.CLIENT, asn=asn),
            start=150,
            duration=10,
            added_ms=90.0,
        )
        scenario = Scenario(small_world, (fault,), ())
        quartets = _gate(
            BatchQuartetGenerator(scenario).generate_quartets(
                155, np.random.default_rng(0)
            )
        )
        blamed = diagnosis.diagnose(quartets, _bad_set(scenario, quartets))
        # The faulty AS (or a sub-group of it) is blamed.
        keys = {(d.level, d.key) for d in blamed}
        client_groups = {
            ("as", asn),
            *{
                ("announcement", p.announcement)
                for p in small_world.population.in_as(asn)
            },
            *{("prefix24", p.prefix24) for p in small_world.population.in_as(asn)},
        }
        assert keys & client_groups

    def test_smallest_group_preferred(self, small_world, diagnosis):
        """A single-prefix fault is blamed on the prefix, not its AS."""
        client = small_world.population.prefixes[0]
        fault = Fault(
            fault_id=0,
            target=FaultTarget(
                kind=SegmentKind.CLIENT,
                asn=client.asn,
                prefixes=frozenset({client.prefix24}),
            ),
            start=150,
            duration=10,
            added_ms=90.0,
        )
        scenario = Scenario(small_world, (fault,), ())
        quartets = _gate(
            BatchQuartetGenerator(scenario).generate_quartets(
                155, np.random.default_rng(1)
            )
        )
        blamed = diagnosis.diagnose(quartets, _bad_set(scenario, quartets))
        as_level = [d for d in blamed if d.level == "as" and d.key == client.asn]
        assert not as_level, "one bad prefix must not taint the whole AS"

    def test_middle_fault_smears_over_client_attributes(self, small_world, diagnosis):
        """The structural weakness vs. BlameIt: a middle fault has no
        client-side attribute, so NetProfiler blames several client
        groups (or none) instead of the shared path."""
        slot = next(
            s
            for s in small_world.slots
            if middle_asns(small_world.mapper.path_for(s.location, s.client) or (0, 0))
        )
        culprit = middle_asns(
            small_world.mapper.path_for(slot.location, slot.client)
        )[0]
        fault = Fault(
            fault_id=0,
            target=FaultTarget(kind=SegmentKind.MIDDLE, asn=culprit),
            start=150,
            duration=10,
            added_ms=90.0,
        )
        scenario = Scenario(small_world, (fault,), ())
        quartets = _gate(
            BatchQuartetGenerator(scenario).generate_quartets(
                155, np.random.default_rng(2)
            )
        )
        blamed = diagnosis.diagnose(quartets, _bad_set(scenario, quartets))
        # Whatever it blames, no diagnosis can name the middle AS.
        assert all(d.key != culprit for d in blamed)

    def test_healthy_window_no_blame(self, small_world, diagnosis):
        scenario = Scenario(small_world, (), ())
        quartets = _gate(
            BatchQuartetGenerator(scenario).generate_quartets(
                155, np.random.default_rng(3)
            )
        )
        blamed = diagnosis.diagnose(quartets, _bad_set(scenario, quartets))
        # At most stray congestion groups; no large-scale blame.
        assert len(blamed) <= 3

    def test_levels_order(self):
        assert LEVELS[0] == "prefix24"
        assert LEVELS[-1] == "location"

    def test_threshold_validation(self, small_world):
        with pytest.raises(ValueError):
            NetProfilerDiagnosis(small_world.population, bad_threshold=0.0)
