"""Tests for repro.net.bgp: tables, updates, the listener."""

from repro.net.addressing import BGPPrefix, parse_prefix24
from repro.net.bgp import BGPListener, BGPTable, BGPUpdateKind


def _prefix(text: str = "10.0.0") -> BGPPrefix:
    return BGPPrefix(network=parse_prefix24(text) << 8, length=24)


class TestBGPTable:
    def test_install_new_route_emits_announce(self):
        table = BGPTable("edge-X")
        update = table.install(_prefix(), (1, 10, 30), time=5)
        assert update is not None
        assert update.kind is BGPUpdateKind.ANNOUNCE
        assert update.old_path is None
        assert update.new_path == (1, 10, 30)
        assert update.time == 5

    def test_reinstall_same_path_is_noop(self):
        table = BGPTable("edge-X")
        table.install(_prefix(), (1, 10, 30), time=0)
        assert table.install(_prefix(), (1, 10, 30), time=1) is None

    def test_path_change_carries_old_path(self):
        table = BGPTable("edge-X")
        table.install(_prefix(), (1, 10, 30), time=0)
        update = table.install(_prefix(), (1, 11, 30), time=2)
        assert update.old_path == (1, 10, 30)
        assert update.new_path == (1, 11, 30)

    def test_withdraw(self):
        table = BGPTable("edge-X")
        table.install(_prefix(), (1, 10, 30), time=0)
        update = table.withdraw(_prefix(), time=3)
        assert update.kind is BGPUpdateKind.WITHDRAW
        assert update.new_path is None
        assert table.withdraw(_prefix(), time=4) is None  # the route is gone

    def test_withdraw_absent_is_noop(self):
        table = BGPTable("edge-X")
        assert table.withdraw(_prefix(), time=0) is None


class TestBGPListener:
    def test_publish_and_log(self):
        listener = BGPListener()
        table = BGPTable("edge-X")
        listener.publish(table.install(_prefix(), (1, 30), 1))
        listener.publish(None)  # ignored
        assert len(listener.log) == 1

    def test_updates_between(self):
        listener = BGPListener()
        table = BGPTable("edge-X")
        listener.publish(table.install(_prefix("10.0.0"), (1, 30), 1))
        listener.publish(table.install(_prefix("10.0.1"), (1, 30), 5))
        listener.publish(table.withdraw(_prefix("10.0.0"), 9))
        assert len(listener.updates_between(0, 5)) == 1
        assert len(listener.updates_between(5, 10)) == 2
