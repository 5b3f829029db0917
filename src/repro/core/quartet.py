"""Quartets: BlameIt's unit of passive measurement.

A quartet is the 4-tuple ⟨client IP-/24, cloud location, mobile or
non-mobile device, 5-minute time bucket⟩ (§2.1). All RTT samples falling
into the same quartet are averaged; a quartet needs at least
``min_samples`` (10 in the paper) RTTs before its average is trusted.

The :class:`Quartet` record also carries the context Algorithm 1 and the
active phase need alongside the key: the middle-segment BGP path, the
client AS, the client-region, and the active-user count of the /24.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from repro.net.addressing import Prefix24
from repro.net.asn import ASPath
from repro.net.bgp import Timestamp
from repro.net.geo import Region

#: Minimum RTT samples for a trustworthy quartet average (§2.1).
DEFAULT_MIN_SAMPLES = 10

#: Bit width reserved for the middle-path index inside a pair code (the
#: ⟨location, middle⟩ composite key the columnar hot path groups by).
PAIR_SHIFT = 32


class Quartet(NamedTuple):
    """An aggregated quartet observation.

    Attributes:
        time: 5-minute bucket index.
        prefix24: Client /24 key.
        location_id: Serving cloud location.
        mobile: Device/connectivity class.
        mean_rtt_ms: Average handshake RTT of the samples.
        n_samples: Number of RTT samples aggregated.
        users: Distinct active client IPs in the /24 (impact weighting).
        client_asn: Origin AS of the /24.
        middle: Middle-segment AS path (BGP path) at observation time.
        region: Region whose badness target applies.
    """

    time: Timestamp
    prefix24: Prefix24
    location_id: str
    mobile: bool
    mean_rtt_ms: float
    n_samples: int
    users: int
    client_asn: int
    middle: ASPath
    region: Region


@dataclass(slots=True)
class QuartetBatch:
    """A columnar (structure-of-arrays) batch of quartets.

    The vectorized passive phase and the sharded driver operate on
    columns instead of :class:`Quartet` objects: every per-quartet field
    is a NumPy array, and the low-cardinality fields (cloud location,
    middle BGP path, region) are integer codes into small vocabularies.
    Row ``i`` of every column describes the same quartet, in the same
    order the scalar path would see them.

    Attributes:
        time: Bucket index per quartet (int64).
        prefix24: Client /24 keys (int64).
        mobile: Connectivity class (bool).
        mean_rtt_ms: Average handshake RTT (float64).
        n_samples: RTT samples aggregated (int64).
        users: Active client IPs in the /24 (int64).
        client_asn: Origin AS (int64).
        location_index: Codes into :attr:`locations` (int64).
        locations: Location-id vocabulary.
        middle_index: Codes into :attr:`middles` (int64).
        middles: Middle-segment AS-path vocabulary.
        region_index: Codes into :attr:`regions` (int64).
        regions: Region vocabulary.
    """

    time: np.ndarray
    prefix24: np.ndarray
    mobile: np.ndarray
    mean_rtt_ms: np.ndarray
    n_samples: np.ndarray
    users: np.ndarray
    client_asn: np.ndarray
    location_index: np.ndarray
    locations: tuple[str, ...]
    middle_index: np.ndarray
    middles: tuple[ASPath, ...]
    region_index: np.ndarray
    regions: tuple[Region, ...]
    _rows: tuple[Quartet, ...] | None = field(default=None, repr=False)

    def __len__(self) -> int:
        return len(self.mean_rtt_ms)

    @classmethod
    def from_quartets(cls, quartets: Sequence[Quartet]) -> "QuartetBatch":
        """Transpose a list of quartets into columns (order-preserving)."""
        n = len(quartets)
        time = np.empty(n, dtype=np.int64)
        prefix24 = np.empty(n, dtype=np.int64)
        mobile = np.empty(n, dtype=bool)
        mean_rtt = np.empty(n, dtype=np.float64)
        n_samples = np.empty(n, dtype=np.int64)
        users = np.empty(n, dtype=np.int64)
        client_asn = np.empty(n, dtype=np.int64)
        location_index = np.empty(n, dtype=np.int64)
        middle_index = np.empty(n, dtype=np.int64)
        region_index = np.empty(n, dtype=np.int64)
        loc_codes: dict[str, int] = {}
        mid_codes: dict[ASPath, int] = {}
        reg_codes: dict[Region, int] = {}
        for i, q in enumerate(quartets):
            time[i] = q.time
            prefix24[i] = q.prefix24
            mobile[i] = q.mobile
            mean_rtt[i] = q.mean_rtt_ms
            n_samples[i] = q.n_samples
            users[i] = q.users
            client_asn[i] = q.client_asn
            location_index[i] = loc_codes.setdefault(q.location_id, len(loc_codes))
            middle_index[i] = mid_codes.setdefault(q.middle, len(mid_codes))
            region_index[i] = reg_codes.setdefault(q.region, len(reg_codes))
        return cls(
            time=time,
            prefix24=prefix24,
            mobile=mobile,
            mean_rtt_ms=mean_rtt,
            n_samples=n_samples,
            users=users,
            client_asn=client_asn,
            location_index=location_index,
            locations=tuple(loc_codes),
            middle_index=middle_index,
            middles=tuple(mid_codes),
            region_index=region_index,
            regions=tuple(reg_codes),
            _rows=tuple(quartets),
        )

    def row(self, i: int) -> Quartet:
        """The ``i``-th quartet as a :class:`Quartet` record.

        Returns the original object when the batch was built with
        :meth:`from_quartets`; otherwise materializes an equal record
        from the columns.
        """
        if self._rows is not None:
            return self._rows[i]
        return Quartet(
            time=int(self.time[i]),
            prefix24=int(self.prefix24[i]),
            location_id=self.locations[self.location_index[i]],
            mobile=bool(self.mobile[i]),
            mean_rtt_ms=float(self.mean_rtt_ms[i]),
            n_samples=int(self.n_samples[i]),
            users=int(self.users[i]),
            client_asn=int(self.client_asn[i]),
            middle=self.middles[self.middle_index[i]],
            region=self.regions[self.region_index[i]],
        )

    def to_quartets(self) -> list[Quartet]:
        """Materialize every row (mainly for tests and interop)."""
        return [self.row(i) for i in range(len(self))]

    def take(self, indices: "np.ndarray | slice") -> "QuartetBatch":
        """A new batch holding ``indices``' rows (vocabularies shared);
        a slice gives views of the columns, not copies.

        Row objects cached by :meth:`from_quartets` are carried over so
        :meth:`row` keeps returning the original records.
        """
        rows = self._rows
        if rows is not None:
            rows = (
                rows[indices]
                if isinstance(indices, slice)
                else tuple(rows[int(i)] for i in indices)
            )
        return QuartetBatch(
            time=self.time[indices],
            prefix24=self.prefix24[indices],
            mobile=self.mobile[indices],
            mean_rtt_ms=self.mean_rtt_ms[indices],
            n_samples=self.n_samples[indices],
            users=self.users[indices],
            client_asn=self.client_asn[indices],
            location_index=self.location_index[indices],
            locations=self.locations,
            middle_index=self.middle_index[indices],
            middles=self.middles,
            region_index=self.region_index[indices],
            regions=self.regions,
            _rows=rows,
        )

    def pair_codes(self) -> np.ndarray:
        """Composite ⟨location, middle⟩ integer codes, one per row.

        Codes are comparable across batches only while both batches share
        append-only vocabularies (true for batches produced by one
        :class:`~repro.perf.batch.BatchQuartetGenerator`).
        """
        return (self.location_index << PAIR_SHIFT) | self.middle_index

    def pair_key(self, code: int) -> tuple[str, ASPath]:
        """Decode a :meth:`pair_codes` value into ``(location_id, middle)``."""
        return (
            self.locations[code >> PAIR_SHIFT],
            self.middles[code & ((1 << PAIR_SHIFT) - 1)],
        )
