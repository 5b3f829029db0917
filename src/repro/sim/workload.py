"""Client activity model: diurnal, weekly, and population-driven load.

Figure 3 of the paper shows (a) a clear diurnal pattern in badness, with
nights *worse* than work hours — attributed to home-ISP connections after
work — and (b) different weekly shapes per ISP, with enterprise networks
flattening out on weekends. The activity model reproduces the load side
of this: enterprise ASes peak during local office hours and go quiet on
weekends; home/cellular ASes peak in the local evening every day.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.net.bgp import Timestamp
from repro.net.geo import Metro

#: 5-minute buckets per day and per hour.
BUCKETS_PER_DAY = 288
BUCKETS_PER_HOUR = 12


def local_hour(metro: Metro, time: Timestamp) -> float:
    """Local wall-clock hour (0..24) at a metro for a bucket.

    The timezone is approximated from longitude (15° per hour), which is
    accurate enough for diurnal-shape purposes.
    """
    utc_hour = (time % BUCKETS_PER_DAY) / BUCKETS_PER_HOUR
    offset = metro.lon / 15.0
    return (utc_hour + offset) % 24.0


def day_index(time: Timestamp) -> int:
    """Zero-based day number of a bucket. Days 5 and 6 of each week are
    the weekend (the simulation starts on a Monday)."""
    return time // BUCKETS_PER_DAY


def is_weekend(time: Timestamp) -> bool:
    """Whether the bucket falls on a weekend day."""
    return day_index(time) % 7 >= 5


def diurnal_factor(hour: float, enterprise: bool) -> float:
    """Relative activity at a local hour for an AS class.

    Enterprise: bell around 13:00 local (office hours). Home/cellular:
    evening peak around 21:00 with a smaller morning shoulder.
    """
    if enterprise:
        return 0.25 + 1.3 * math.exp(-(((hour - 13.0) / 3.5) ** 2))
    evening = 1.1 * math.exp(-(((hour - 21.0) / 3.0) ** 2))
    morning = 0.35 * math.exp(-(((hour - 8.0) / 2.0) ** 2))
    return 0.35 + evening + morning


def weekend_factor(time: Timestamp, enterprise: bool) -> float:
    """Weekend load multiplier: offices empty, homes fill."""
    if not is_weekend(time):
        return 1.0
    return 0.35 if enterprise else 1.15


@dataclass(frozen=True)
class WorkloadParams:
    """Knobs for the activity model.

    Attributes:
        connections_per_user: Expected TCP connections per active user per
            5-minute bucket at unit diurnal factor. The default keeps the
            paper's property that quartets "typically still have many
            tens of RTT samples" during active hours.
    """

    connections_per_user: float = 1.0

    def __post_init__(self) -> None:
        if self.connections_per_user <= 0:
            raise ValueError("connections_per_user must be positive")


class ActivityModel:
    """Expected connection counts per (client prefix, bucket)."""

    def __init__(self, params: WorkloadParams | None = None) -> None:
        self.params = params or WorkloadParams()
        self._evening: dict[tuple[Metro, bool], np.ndarray] = {}

    def expected_connections(
        self, users: int, metro: Metro, enterprise: bool, time: Timestamp
    ) -> float:
        """Expected connections from a /24 in one bucket.

        Args:
            users: Active users in the /24.
            metro: Client metro (drives local time).
            enterprise: AS class.
            time: Bucket index.
        """
        hour = local_hour(metro, time)
        return (
            users
            * self.params.connections_per_user
            * diurnal_factor(hour, enterprise)
            * weekend_factor(time, enterprise)
        )

    def evening_weights(self, metro: Metro, enterprise: bool) -> np.ndarray:
        """Relative per-bucket weights across one day for fault-start bias.

        Home ISP issues cluster in the local evening (§2.2 speculation,
        confirmed by BlameIt's night-time client blames); enterprise
        issues track office hours.

        Entry ``b`` is the ``diurnal_factor`` that
        :meth:`expected_connections` applies at any bucket ``t`` with
        ``t % BUCKETS_PER_DAY == b``. Memoised per (metro, enterprise), so
        every scenario over a world shares one table per pair; the array
        is read-only.
        """
        key = (metro, bool(enterprise))
        weights = self._evening.get(key)
        if weights is None:
            weights = np.empty(BUCKETS_PER_DAY)
            for bucket in range(BUCKETS_PER_DAY):
                weights[bucket] = diurnal_factor(local_hour(metro, bucket), enterprise)
            weights.flags.writeable = False
            self._evening[key] = weights
        return weights
