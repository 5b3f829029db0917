"""BGP tables, update events, and the IBGP-style listener.

The paper's background-probe optimization (§5.4) triggers traceroutes when
"the AS level path to a client prefix has changed at a border router or a
route has been withdrawn", learned from a BGP listener connected to all
border routers over IBGP. Here each cloud location owns a
:class:`BGPTable`; the simulation installs and withdraws routes as the
scenario evolves, and a :class:`BGPListener` logs the resulting
:class:`BGPUpdate` events for the background probe manager to query.
"""

from __future__ import annotations

import bisect
import enum
from dataclasses import dataclass, field

from repro.net.addressing import BGPPrefix
from repro.net.asn import ASPath

#: Discrete simulation time: index of a 5-minute bucket.
Timestamp = int


class BGPUpdateKind(enum.Enum):
    """What happened to a route at a border router."""

    ANNOUNCE = "announce"  # new route or path change
    WITHDRAW = "withdraw"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True, slots=True)
class RouteEntry:
    """A route installed at one cloud location.

    Attributes:
        prefix: The announced client prefix.
        as_path: Full AS path, cloud AS first, origin (client) AS last.
        installed_at: Bucket when the entry was installed.
    """

    prefix: BGPPrefix
    as_path: ASPath
    installed_at: Timestamp


@dataclass(frozen=True, slots=True)
class BGPUpdate:
    """A route change event observed by the listener.

    Attributes:
        location_id: Cloud location whose border router saw the change.
        prefix: Affected prefix.
        kind: Announce (new/changed path) or withdraw.
        old_path: Previous AS path (None for a fresh announce).
        new_path: New AS path (None for a withdraw).
        time: Bucket when the change happened.
    """

    location_id: str
    prefix: BGPPrefix
    kind: BGPUpdateKind
    old_path: ASPath | None
    new_path: ASPath | None
    time: Timestamp


class BGPTable:
    """The routing table of one cloud location's border router."""

    def __init__(self, location_id: str) -> None:
        self.location_id = location_id
        self._routes: dict[BGPPrefix, RouteEntry] = {}

    def install(
        self, prefix: BGPPrefix, as_path: ASPath, time: Timestamp
    ) -> BGPUpdate | None:
        """Install or replace the route for a prefix.

        Returns:
            A :class:`BGPUpdate` if the path actually changed, else None.
        """
        old = self._routes.get(prefix)
        if old is not None and old.as_path == as_path:
            return None
        self._routes[prefix] = RouteEntry(prefix, as_path, time)
        return BGPUpdate(
            location_id=self.location_id,
            prefix=prefix,
            kind=BGPUpdateKind.ANNOUNCE,
            old_path=old.as_path if old else None,
            new_path=as_path,
            time=time,
        )

    def withdraw(self, prefix: BGPPrefix, time: Timestamp) -> BGPUpdate | None:
        """Withdraw the route for a prefix.

        Returns:
            A :class:`BGPUpdate` if a route existed, else None.
        """
        old = self._routes.pop(prefix, None)
        if old is None:
            return None
        return BGPUpdate(
            location_id=self.location_id,
            prefix=prefix,
            kind=BGPUpdateKind.WITHDRAW,
            old_path=old.as_path,
            new_path=None,
            time=time,
        )


@dataclass
class BGPListener:
    """Keeps a time-ordered log of BGP update events.

    The listener is the integration point between the routing substrate
    and BlameIt's background-probe manager: the manager reads each
    bucket's updates and issues a traceroute to each prefix whose path
    changed (§5.4).
    """

    log: list[BGPUpdate] = field(default_factory=list)
    #: Whether ``log`` is non-decreasing in time (the normal case:
    #: scenarios publish installs then reroutes in time order), enabling
    #: bisected range queries. A single out-of-order publish clears it.
    _log_sorted: bool = True

    def publish(self, update: BGPUpdate | None) -> None:
        """Record an update. ``None`` is ignored."""
        if update is None:
            return
        if self._log_sorted and self.log and update.time < self.log[-1].time:
            self._log_sorted = False
        self.log.append(update)

    def updates_between(self, start: Timestamp, end: Timestamp) -> tuple[BGPUpdate, ...]:
        """Logged updates with ``start <= time < end``."""
        log = self.log
        if self._log_sorted:
            lo = bisect.bisect_left(log, start, key=lambda u: u.time)
            hi = bisect.bisect_left(log, end, lo=lo, key=lambda u: u.time)
            return tuple(log[lo:hi])
        return tuple(u for u in log if start <= u.time < end)
