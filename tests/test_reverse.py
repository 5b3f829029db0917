"""Tests for the §5.1 reverse-traceroute extension."""

import numpy as np
import pytest

from repro.cloud.traceroute import TracerouteEngine, TracerouteResult
from repro.core.config import BlameItConfig
from repro.core.pipeline import BlameItPipeline
from repro.core.reverse import localize_bidirectional
from repro.net.asn import middle_asns
from repro.sim.faults import Direction, Fault, FaultTarget, SegmentKind
from repro.sim.scenario import Scenario


def _trace(cumulative, path, loc="edge-A", prefix=1, time=0):
    return TracerouteResult(
        location_id=loc,
        prefix24=prefix,
        time=time,
        path=path,
        cumulative_ms=tuple(float(x) for x in cumulative),
    )


class TestLocalizeBidirectional:
    FWD_PATH = (1, 10, 20, 30)
    REV_PATH = (30, 21, 11, 1)

    def test_forward_fault_stays_forward(self):
        """A genuine forward fault: forward names it; in the reverse view
        the inflation spills onto the terminal (cloud) hop, whose flat
        forward contribution refutes that hypothesis."""
        fwd_base = _trace((4, 6, 8, 9), self.FWD_PATH)
        fwd_cur = _trace((4, 6, 58, 59), self.FWD_PATH, time=5)  # AS20 +50
        rev_base = _trace((1, 3, 5, 9), self.REV_PATH)
        rev_cur = _trace((1, 3, 5, 59), self.REV_PATH, time=5)  # spill at AS1
        outcome = localize_bidirectional(fwd_base, fwd_cur, rev_base, rev_cur)
        assert outcome.verdict.asn == 20
        assert outcome.direction == "forward"
        assert outcome.reverse.asn == 1  # the refuted spillover hypothesis

    def test_reverse_fault_disambiguated(self):
        """A reverse-only fault: the forward view shows the inflation on
        the client hop (whose reply crosses the faulty AS); the client's
        flat reverse contribution refutes that, and the reverse
        measurement names the real culprit."""
        fwd_base = _trace((4, 6, 8, 9), self.FWD_PATH)
        fwd_cur = _trace((4, 6, 8, 59), self.FWD_PATH, time=5)  # spill at 30
        rev_base = _trace((1, 3, 5, 9), self.REV_PATH)
        rev_cur = _trace((1, 3, 55, 59), self.REV_PATH, time=5)  # AS11 +50
        outcome = localize_bidirectional(fwd_base, fwd_cur, rev_base, rev_cur)
        assert outcome.verdict.asn == 11
        assert outcome.direction == "reverse"
        # The forward-only verdict would have been wrong:
        assert outcome.forward.asn == 30

    def test_missing_reverse_falls_back(self):
        fwd_base = _trace((4, 6, 8, 9), self.FWD_PATH)
        fwd_cur = _trace((4, 6, 58, 59), self.FWD_PATH, time=5)
        outcome = localize_bidirectional(fwd_base, fwd_cur, None, None)
        assert outcome.verdict.asn == 20
        assert outcome.reverse is None

    def test_no_delta_anywhere(self):
        fwd_base = _trace((4, 6, 8, 9), self.FWD_PATH)
        fwd_cur = _trace((4, 6, 8, 9.5), self.FWD_PATH, time=5)
        rev_base = _trace((1, 3, 5, 9), self.REV_PATH)
        rev_cur = _trace((1, 3, 5, 9.5), self.REV_PATH, time=5)
        outcome = localize_bidirectional(fwd_base, fwd_cur, rev_base, rev_cur)
        assert outcome.verdict.asn is None


class TestScenarioReverse:
    def test_reverse_path_endpoints(self, small_scenario, small_world):
        for asn in small_world.population.asns:
            path = small_scenario.reverse_path(asn)
            assert path is not None
            assert path[0] == asn
            assert path[-1] == small_world.cloud_asn

    def test_reverse_fault_inflates_rtt(self, small_world):
        scenario = Scenario(small_world, (), ())
        slot = next(
            s
            for s in small_world.slots
            if len(scenario.reverse_middle(s.client.asn)) >= 1
        )
        culprit = scenario.reverse_middle(slot.client.asn)[0]
        fault = Fault(
            fault_id=0,
            target=FaultTarget(
                kind=SegmentKind.MIDDLE, asn=culprit, direction=Direction.REVERSE
            ),
            start=100,
            duration=10,
            added_ms=50.0,
        )
        faulty = Scenario(small_world, (fault,), ())
        loc = slot.location.location_id
        prefix = slot.client.prefix24
        clean_rtt = scenario.true_rtt_ms(loc, prefix, 105)
        fault_rtt = faulty.true_rtt_ms(loc, prefix, 105)
        assert fault_rtt == pytest.approx(clean_rtt + 50.0)
        assert faulty.true_culprit(loc, prefix, 105) == (SegmentKind.MIDDLE, culprit)

    def test_forward_view_spillover_at_first_crossing_hop(self, small_world):
        """A reverse fault shows up in the forward view at the first hop
        whose *reply path* crosses the faulty AS — never earlier, always
        by the final hop."""
        scenario = Scenario(small_world, (), ())
        checked = 0
        for slot in small_world.slots:
            reverse_only = sorted(
                set(scenario.reverse_middle(slot.client.asn))
                - set(
                    middle_asns(
                        small_world.mapper.path_for(slot.location, slot.client)
                        or (0, 0)
                    )
                )
            )
            if not reverse_only:
                continue
            culprit = reverse_only[0]
            fault = Fault(
                fault_id=0,
                target=FaultTarget(
                    kind=SegmentKind.MIDDLE, asn=culprit, direction=Direction.REVERSE
                ),
                start=100,
                duration=10,
                added_ms=50.0,
            )
            faulty = Scenario(small_world, (fault,), ())
            loc = slot.location.location_id
            prefix = slot.client.prefix24
            clean = scenario.traceroute_view(loc, prefix, 105)
            view = faulty.traceroute_view(loc, prefix, 105)
            deltas = [
                f - c for f, c in zip(view.cumulative_ms, clean.cumulative_ms)
            ]
            # Cloud hop never inflated; the full inflation arrives once
            # and persists to the end-to-end measurement.
            assert deltas[0] == pytest.approx(0.0, abs=1e-9)
            assert deltas[-1] == pytest.approx(50.0)
            first = next(i for i, d in enumerate(deltas) if d > 1.0)
            # The inflation appears exactly where the hop's reply first
            # crosses the culprit.
            hop_asn = view.path[first]
            reply = faulty._return_set_to(hop_asn, small_world.cloud_asn)
            if first < len(view.path) - 1:
                assert culprit in reply
            checked += 1
            if checked >= 3:
                break
        assert checked > 0

    def test_reverse_view_names_the_right_hop(self, small_world):
        scenario = Scenario(small_world, (), ())
        slot = next(
            s
            for s in small_world.slots
            if len(scenario.reverse_middle(s.client.asn)) >= 1
        )
        culprit = scenario.reverse_middle(slot.client.asn)[0]
        fault = Fault(
            fault_id=0,
            target=FaultTarget(
                kind=SegmentKind.MIDDLE, asn=culprit, direction=Direction.REVERSE
            ),
            start=100,
            duration=10,
            added_ms=50.0,
        )
        faulty = Scenario(small_world, (fault,), ())
        loc = slot.location.location_id
        prefix = slot.client.prefix24
        clean = scenario.reverse_traceroute_view(loc, prefix, 105)
        view = faulty.reverse_traceroute_view(loc, prefix, 105)
        position = view.path.index(culprit)
        delta_at = view.cumulative_ms[position] - clean.cumulative_ms[position]
        delta_before = (
            view.cumulative_ms[position - 1] - clean.cumulative_ms[position - 1]
        )
        assert delta_at == pytest.approx(50.0)
        assert delta_before == pytest.approx(0.0, abs=1e-9)


class TestEngineReverse:
    def test_issue_reverse_counts_separately(self, small_scenario):
        engine = TracerouteEngine(small_scenario, np.random.default_rng(0))
        slot = small_scenario.world.slots[0]
        result = engine.issue_reverse(
            slot.location.location_id, slot.client.prefix24, 100
        )
        assert result is not None
        assert result.path[0] == slot.client.asn
        assert result.path[-1] == small_scenario.world.cloud_asn
        assert engine.reverse_probes_issued == 1
        assert engine.probes_issued == 0

    def test_plain_oracle_rejected(self):
        class _NoReverse:
            def traceroute_view(self, location_id, prefix24, time):
                return None

        engine = TracerouteEngine(_NoReverse(), np.random.default_rng(0))
        with pytest.raises(TypeError):
            engine.issue_reverse("edge-A", 1, 0)


class TestPipelineReverse:
    def test_reverse_fault_localized_with_extension(self, small_world):
        """End to end: a reverse-only fault is correctly localized with
        the extension on, while the forward-only run cannot see it on the
        affected group's forward path (it blames a forward hop there)."""
        probe = Scenario(small_world, (), ())
        slot = next(
            s
            for s in small_world.slots
            if (
                set(probe.reverse_middle(s.client.asn))
                - set(
                    middle_asns(
                        small_world.mapper.path_for(s.location, s.client) or (0, 0)
                    )
                )
            )
        )
        forward_path = small_world.mapper.path_for(slot.location, slot.client)
        forward_middle = middle_asns(forward_path)
        reverse_only = sorted(
            set(probe.reverse_middle(slot.client.asn)) - set(forward_middle)
        )[0]
        fault = Fault(
            fault_id=0,
            target=FaultTarget(
                kind=SegmentKind.MIDDLE, asn=reverse_only, direction=Direction.REVERSE
            ),
            start=170,
            duration=16,
            added_ms=90.0,
        )
        scenario = Scenario(small_world, (fault,), ())
        affected_key = (slot.location.location_id, forward_middle)

        def run(use_reverse: bool):
            config = BlameItConfig(
                history_days=1, use_reverse_traceroutes=use_reverse
            )
            pipeline = BlameItPipeline(scenario, config=config)
            pipeline.warmup(0, 144, stride=3)
            report = pipeline.run(150, 200)
            return {
                item.issue_key: item.verdict.asn
                for item in report.localized
                if item.verdict and item.verdict.asn
            }

        with_extension = run(True)
        assert reverse_only in with_extension.values()
        without_extension = run(False)
        # On the affected forward group, the forward-only verdict cannot
        # name the reverse-only AS — it is not on that forward path.
        if affected_key in without_extension:
            assert without_extension[affected_key] != reverse_only
            # The misattribution lands somewhere on the forward path
            # (often the client hop, whose reply crosses the culprit).
            assert without_extension[affected_key] in forward_path
