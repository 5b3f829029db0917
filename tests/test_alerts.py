"""Tests for repro.core.alerts: ranking and routing."""

import pytest

from repro.core.alerts import Alert, AlertManager, Team
from repro.core.blame import Blame


def _alert(blame=Blame.MIDDLE, impact=100.0, first_seen=0, loc="edge-A") -> Alert:
    return Alert(
        blame=blame,
        location_id=loc,
        middle=(10,),
        culprit_asn=10,
        first_seen=first_seen,
        duration=5,
        impact=impact,
        confidence=0.9,
        detail="test alert",
    )


class TestRouting:
    def test_segment_to_team(self):
        assert _alert(Blame.CLOUD).team is Team.CLOUD_INFRA
        assert _alert(Blame.MIDDLE).team is Team.NETWORKING
        assert _alert(Blame.CLIENT).team is Team.CLIENT_COMMS
        assert _alert(Blame.AMBIGUOUS).team is None


class TestManager:
    def test_top_k_by_impact(self):
        manager = AlertManager(top_k=2)
        manager.add(_alert(impact=10))
        manager.add(_alert(impact=1000))
        manager.add(_alert(impact=100))
        tickets = manager.tickets()
        assert len(tickets) == 2
        assert [t.impact for t in tickets] == [1000, 100]

    def test_tie_break_by_onset(self):
        manager = AlertManager(top_k=1)
        manager.add(_alert(impact=50, first_seen=9))
        manager.add(_alert(impact=50, first_seen=2))
        assert manager.tickets()[0].first_seen == 2

    def test_tickets_for_team(self):
        manager = AlertManager(top_k=10)
        manager.add(_alert(Blame.CLOUD, impact=5))
        manager.add(_alert(Blame.MIDDLE, impact=50))
        teams = [alert.team for alert in manager.tickets()]
        assert len(teams) == 2
        assert set(teams) == {Team.NETWORKING, Team.CLOUD_INFRA}

    def test_validation(self):
        with pytest.raises(ValueError):
            AlertManager(top_k=0)
