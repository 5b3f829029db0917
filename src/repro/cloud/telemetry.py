"""Passive RTT telemetry: samples, the collector, and storage quirks.

This is the "RTT Collector Stream" of Figure 7. Two production details
from §6.1 are modelled because they shaped BlameIt's deployment:

* Originally, client IPs and RTTs arrived in *separate* streams joined by
  request id once a day; BlameIt's deployment added the client IP to the
  RTT stream. :func:`join_request_streams` implements the legacy join so
  the cost it imposes can be measured.
* RTT tuples land in a few hundred *storage buckets* created afresh each
  hour, with no temporal ordering inside the hour, so a 15-minute read
  must scan every bucket filled so far that hour.
  :class:`HourlyBucketStore` reproduces this access pattern.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from repro.net.addressing import Prefix24
from repro.net.bgp import Timestamp

#: Number of 5-minute buckets in one hour / one day.
BUCKETS_PER_HOUR = 12
BUCKETS_PER_DAY = 288


class RTTSample(NamedTuple):
    """One TCP-handshake RTT measurement.

    Attributes:
        time: 5-minute bucket index.
        prefix24: Client /24 key.
        location_id: Serving cloud location.
        mobile: Client device/connectivity class.
        rtt_ms: Handshake RTT in milliseconds.
    """

    time: Timestamp
    prefix24: Prefix24
    location_id: str
    mobile: bool
    rtt_ms: float


class RTTCollector:
    """Accumulates RTT samples and serves per-bucket slices."""

    def __init__(self) -> None:
        self._by_bucket: dict[Timestamp, list[RTTSample]] = {}
        self.total_samples = 0

    def add(self, sample: RTTSample) -> None:
        """Record one sample."""
        self._by_bucket.setdefault(sample.time, []).append(sample)
        self.total_samples += 1

    def add_all(self, samples: Iterable[RTTSample]) -> None:
        """Record a batch of samples."""
        for sample in samples:
            self.add(sample)

    def samples_at(self, time: Timestamp) -> tuple[RTTSample, ...]:
        """All samples in one 5-minute bucket."""
        return tuple(self._by_bucket.get(time, ()))

    def buckets(self) -> tuple[Timestamp, ...]:
        """Bucket indexes holding data, sorted."""
        return tuple(sorted(self._by_bucket))


def join_request_streams(
    ip_stream: Iterable[tuple[int, Prefix24]],
    rtt_stream: Iterable[tuple[int, Timestamp, str, bool, float]],
) -> Iterator[RTTSample]:
    """Join the legacy client-IP and RTT streams on request id (§6.1).

    Args:
        ip_stream: ``(request_id, prefix24)`` records.
        rtt_stream: ``(request_id, time, location_id, mobile, rtt_ms)``
            records.

    Yields:
        Joined :class:`RTTSample` values, in RTT-stream order. Records
        missing their counterpart are dropped, as the production join does.
    """
    ip_by_request = dict(ip_stream)
    for request_id, time, location_id, mobile, rtt_ms in rtt_stream:
        prefix24 = ip_by_request.get(request_id)
        if prefix24 is None:
            continue
        yield RTTSample(time, prefix24, location_id, mobile, rtt_ms)


@dataclass
class HourlyBucketStore:
    """Storage-bucket layout that loses temporal ordering within the hour.

    Every hour, ``buckets_per_hour`` fresh buckets are created and each
    tuple is written to a uniformly random one. Reading the last 15
    minutes therefore requires scanning *all* buckets of the hour and
    filtering by timestamp — the §6.1 quirk that made BlameIt's 15-minute
    cadence read an hour of data. :attr:`tuples_scanned` counts the cost.
    """

    buckets_per_hour: int = 200
    rng: np.random.Generator = field(default_factory=lambda: np.random.default_rng(0))
    tuples_scanned: int = 0
    _hours: dict[int, list[list[RTTSample]]] = field(default_factory=dict)

    def write(self, sample: RTTSample) -> None:
        """Append a sample to a random bucket of its hour."""
        hour = sample.time // BUCKETS_PER_HOUR
        buckets = self._hours.setdefault(
            hour, [[] for _ in range(self.buckets_per_hour)]
        )
        buckets[int(self.rng.integers(0, self.buckets_per_hour))].append(sample)

    def read_window(self, start: Timestamp, end: Timestamp) -> list[RTTSample]:
        """All samples with ``start <= time < end``.

        Scans every storage bucket of every touched hour; the scan size is
        recorded in :attr:`tuples_scanned` so tests and benches can verify
        the read amplification the paper complains about.
        """
        if end <= start:
            raise ValueError("end must be greater than start")
        result: list[RTTSample] = []
        for hour in range(start // BUCKETS_PER_HOUR, (end - 1) // BUCKETS_PER_HOUR + 1):
            for bucket in self._hours.get(hour, ()):
                self.tuples_scanned += len(bucket)
                result.extend(s for s in bucket if start <= s.time < end)
        result.sort(key=lambda s: (s.time, s.prefix24, s.location_id))
        return result
