"""The traffic model: columnar quartet batches from a scenario.

:class:`BatchQuartetGenerator` is the only place quartets are generated.
It precomputes per-slot static columns (location/prefix/AS/region codes,
baseline path latency, congestion shapes, per-fault slot masks) once,
and — for slots whose BGP path churns — flattens the per-slot path
timeline into segment arrays tracked by a monotonic pointer, so per
bucket only array arithmetic runs.

Per bucket it draws ``rng.poisson`` over the slot activity vector (the
connection counts), then ``rng.standard_normal`` over the active slots
(the sampling noise, shrinking with the count), and adds latency in a
fixed order: baseline, evening congestion, then faults in schedule
order. Given the same generator state the output is therefore a pure
function of the scenario; ``tests/golden/substrate_v1.json`` pins it,
and the sharded driver relies on it for byte-identical blame counts.
"""

from __future__ import annotations

import bisect
import zlib

import numpy as np

from repro.core.quartet import Quartet, QuartetBatch
from repro.net.asn import ASPath
from repro.net.bgp import Timestamp
from repro.net.geo import Region
from repro.sim.faults import Direction, Fault, SegmentKind
from repro.sim.scenario import BUCKETS_PER_DAY, Scenario
from repro.sim.workload import is_weekend

#: Sentinel "never changes" end time for a timeline's last segment.
_NEVER = np.iinfo(np.int64).max

#: Floor for a quartet's mean RTT (ms): sampling noise never drives a
#: mean below one physical millisecond.
MIN_MEAN_RTT_MS = 1.0


class BatchQuartetGenerator:
    """Generates every bucket's quartets as one :class:`QuartetBatch`."""

    def __init__(self, scenario: Scenario) -> None:
        self.scenario = scenario
        scenario._ensure_fast_tables()  # noqa: SLF001 - perf layer is a friend
        world = scenario.world
        slots = world.slots
        n = len(slots)

        self._locations: list[str] = []
        loc_codes: dict[str, int] = {}
        self._middles: list[ASPath] = []
        self._middle_codes: dict[ASPath, int] = {}
        regions: list[Region] = []
        reg_codes: dict[Region, int] = {}

        self.loc_idx = np.empty(n, dtype=np.int64)
        self.region_idx = np.empty(n, dtype=np.int64)
        self.prefix24 = np.empty(n, dtype=np.int64)
        self.mobile = np.empty(n, dtype=bool)
        self.users = np.empty(n, dtype=np.int64)
        self.client_asn = np.empty(n, dtype=np.int64)
        self.enterprise = np.asarray(scenario._enterprise_flags)  # noqa: SLF001
        # Static-path columns; churn slots use the segment arrays below.
        self.static = np.zeros(n, dtype=bool)
        self.static_valid = np.zeros(n, dtype=bool)
        self.static_total = np.full(n, np.nan)
        self.static_middle_idx = np.zeros(n, dtype=np.int64)

        metro_codes: dict[str, int] = {}
        slot_metro = np.empty(n, dtype=np.int64)
        metros = []
        for i, slot in enumerate(slots):
            client = slot.client
            self.loc_idx[i] = loc_codes.setdefault(
                slot.location.location_id, len(loc_codes)
            )
            if len(self._locations) < len(loc_codes):
                self._locations.append(slot.location.location_id)
            self.region_idx[i] = reg_codes.setdefault(
                slot.location.region, len(reg_codes)
            )
            if len(regions) < len(reg_codes):
                regions.append(slot.location.region)
            self.prefix24[i] = client.prefix24
            self.mobile[i] = client.mobile
            self.users[i] = client.users
            self.client_asn[i] = client.asn
            if client.metro.name not in metro_codes:
                metro_codes[client.metro.name] = len(metro_codes)
                metros.append(client.metro)
            slot_metro[i] = metro_codes[client.metro.name]
            timeline = scenario._slot_timelines[i]  # noqa: SLF001
            if timeline is not None and len(timeline[0]) == 1:
                self.static[i] = True
                path = timeline[1][0]
                if path is not None:
                    self.static_valid[i] = True
                    self.static_total[i] = world.latency.path_latency(
                        slot.location.metro, path, client.metro, client.mobile
                    ).total_ms
                    self.static_middle_idx[i] = self._middle_code(path[1:-1])
        self._regions = tuple(regions)
        self._build_churn_segments()

        # Evening-congestion shape per (metro, bucket-of-day); the amp is
        # per (client AS, day) and resolved lazily below.
        self._shape_matrix = np.zeros((len(metros), BUCKETS_PER_DAY))
        for code, metro in enumerate(metros):
            self._shape_matrix[code] = scenario._congestion_shape_for(  # noqa: SLF001
                metro
            )
        self._slot_metro = slot_metro
        self._home_asns = sorted(
            {int(a) for a in self.client_asn[~self.enterprise]}
        )
        self._slots_by_asn: dict[int, np.ndarray] = {
            asn: np.nonzero((self.client_asn == asn) & ~self.enterprise)[0]
            for asn in self._home_asns
        }
        self._amp_cache: dict[int, np.ndarray] = {}
        self._fault_masks: dict[int, np.ndarray] = {}
        self._fault_seg_applies: dict[int, np.ndarray] = {}
        # Vectorized fault-applicability tables, built lazily on the
        # first fault (fault-free scenarios never pay for them).
        self._fault_tables_built = False
        self._mid_member: dict[int, np.ndarray] = {}
        self._rev_member: dict[int, np.ndarray] = {}
        # Frozen vocab views shared by every produced batch. The vocabs
        # are fully populated in __init__, so the same tuple objects can
        # back every batch — downstream caches key on tuple identity,
        # and one pickle of a shard output serializes each vocab once.
        self._locations_tuple: tuple[str, ...] = tuple(self._locations)
        self._middles_tuple: tuple[ASPath, ...] = tuple(self._middles)

    # -- vocab helpers -------------------------------------------------

    def _vocab_tuples(self) -> tuple[tuple[str, ...], tuple[ASPath, ...]]:
        """Identity-stable vocab tuples, refreshed only if a vocab grew."""
        if len(self._locations_tuple) != len(self._locations):
            self._locations_tuple = tuple(self._locations)
        if len(self._middles_tuple) != len(self._middles):
            self._middles_tuple = tuple(self._middles)
        return self._locations_tuple, self._middles_tuple

    def _middle_code(self, middle: ASPath) -> int:
        code = self._middle_codes.get(middle)
        if code is None:
            code = len(self._middles)
            self._middle_codes[middle] = code
            self._middles.append(middle)
        return code

    # -- churn timelines as flat segment arrays ------------------------

    def _build_churn_segments(self) -> None:
        """Flatten churn-slot path timelines into flat segment arrays.

        Segment ``offset[k] + j`` is churn slot ``k``'s ``j``-th timeline
        entry; per bucket a pointer array indexes each slot's live
        segment, advanced monotonically (and rebuilt on a time jump
        backwards), so lookups are plain gathers.
        """
        scenario = self.scenario
        world = scenario.world
        churn = np.nonzero(~self.static)[0]
        self._churn_slots = churn
        self._churn_index = np.full(len(self.static), -1, dtype=np.int64)
        self._churn_index[churn] = np.arange(len(churn))
        self._churn_times: list[list[int]] = []
        self._churn_paths: list[list[ASPath | None]] = []
        offsets = np.zeros(len(churn), dtype=np.int64)
        totals: list[float] = []
        valids: list[bool] = []
        middles: list[int] = []
        ends: list[int] = []
        for k, i in enumerate(churn.tolist()):
            offsets[k] = len(totals)
            slot = world.slots[int(i)]
            timeline = scenario._slot_timelines[int(i)]  # noqa: SLF001
            times = list(timeline[0]) if timeline is not None else [0]
            paths = list(timeline[1]) if timeline is not None else [None]
            self._churn_times.append(times)
            self._churn_paths.append(paths)
            for j, path in enumerate(paths):
                ends.append(times[j + 1] if j + 1 < len(times) else _NEVER)
                if path is None:
                    totals.append(np.nan)
                    valids.append(False)
                    middles.append(0)
                else:
                    totals.append(
                        world.latency.path_latency(
                            slot.location.metro,
                            path,
                            slot.client.metro,
                            slot.client.mobile,
                        ).total_ms
                    )
                    valids.append(True)
                    middles.append(self._middle_code(path[1:-1]))
        self._seg_offsets = offsets
        self._seg_total = np.array(totals)
        self._seg_valid = np.array(valids, dtype=bool)
        self._seg_middle = np.array(middles, dtype=np.int64)
        self._seg_end = np.array(ends, dtype=np.int64)
        self._ptr = offsets.copy()
        self._ptr_time: int | None = None

    def _position_pointers(self, time: Timestamp) -> None:
        """Point every churn slot's segment pointer at bucket ``time``."""
        if len(self._ptr) == 0:
            return
        if self._ptr_time is None or time < self._ptr_time:
            for k, times in enumerate(self._churn_times):
                self._ptr[k] = self._seg_offsets[k] + max(
                    0, bisect.bisect_right(times, time) - 1
                )
        else:
            while True:
                behind = self._seg_end[self._ptr] <= time
                if not behind.any():
                    break
                self._ptr[behind] += 1
        self._ptr_time = time

    # -- per-day / per-fault caches ------------------------------------

    def _amps_for_day(self, day: int) -> np.ndarray:
        """Per-slot evening-congestion amplitude for one day."""
        amps = self._amp_cache.get(day)
        if amps is None:
            amps = np.zeros(len(self.loc_idx))
            for asn in self._home_asns:
                amp = self.scenario._congestion_amp_for(asn, day)  # noqa: SLF001
                if amp:
                    amps[self._slots_by_asn[asn]] = amp
            if len(self._amp_cache) > 4:
                self._amp_cache.clear()
            self._amp_cache[day] = amps
        return amps

    def _ensure_fault_tables(self) -> None:
        """Per-slot/per-segment code arrays backing `_applies_vec`.

        Everything :meth:`Fault.applies_to` branches on becomes a small
        integer column: location code, CRC bucket of the /24 (the
        ``covers_prefix`` hash), client AS, middle-path code, and a code
        into a reverse-middle vocabulary (-1 where the slot has none).
        Per fault the answer is then vocabulary-sized Python work plus
        NumPy gathers instead of a per-segment interpreted loop.
        """
        if self._fault_tables_built:
            return
        scenario = self.scenario
        n_slots = len(self.loc_idx)
        n_segments = len(self._seg_total)
        counts = np.diff(np.append(self._seg_offsets, n_segments))
        self._seg_slot = np.repeat(self._churn_slots, counts)
        self._slot_pfx_bucket = np.fromiter(
            (
                zlib.crc32(int(p).to_bytes(3, "big")) % 1000
                for p in self.prefix24.tolist()
            ),
            dtype=np.int64,
            count=n_slots,
        )
        self._loc_code_map = {
            loc: code for code, loc in enumerate(self._locations)
        }
        rev_codes: dict[ASPath, int] = {}
        rev_paths: list[ASPath] = []
        slot_rev = np.full(n_slots, -1, dtype=np.int64)
        for i in range(n_slots):
            reverse = scenario._slot_reverse_middle[i]  # noqa: SLF001
            if reverse is not None:
                code = rev_codes.get(reverse)
                if code is None:
                    code = rev_codes.setdefault(reverse, len(rev_codes))
                    rev_paths.append(reverse)
                slot_rev[i] = code
        self._rev_codes = rev_codes
        self._rev_paths = rev_paths
        self._slot_rev_code = slot_rev
        self._fault_tables_built = True

    def _member_of(
        self, cache: dict[int, np.ndarray], vocab: list[ASPath], asn: int
    ) -> np.ndarray:
        """Per-vocabulary-entry membership of ``asn`` (cached per AS)."""
        member = cache.get(asn)
        if member is None or len(member) != len(vocab):
            member = np.fromiter(
                (asn in path for path in vocab), dtype=bool, count=len(vocab)
            )
            cache[asn] = member
        return member

    def _applies_vec(
        self,
        fault: Fault,
        loc_code: np.ndarray,
        pfx_bucket: np.ndarray,
        prefix24: np.ndarray,
        client_asn: np.ndarray,
        mid_code: np.ndarray,
        rev_code: np.ndarray,
    ) -> np.ndarray:
        """Vectorized :meth:`Fault.applies_to` over parallel code arrays."""
        target = fault.target
        if target.kind is SegmentKind.CLOUD:
            code = self._loc_code_map.get(target.location_id, -1)
            mask = loc_code == code
            if target.affected_fraction < 1.0:
                mask = mask & (pfx_bucket < target.affected_fraction * 1000)
            if target.prefixes is not None:
                mask = mask & np.isin(
                    prefix24,
                    np.fromiter(
                        target.prefixes, dtype=np.int64, count=len(target.prefixes)
                    ),
                )
            return mask
        if target.kind is SegmentKind.MIDDLE:
            if target.direction is Direction.REVERSE:
                if not self._rev_paths:
                    return np.zeros(len(loc_code), dtype=bool)
                member = self._member_of(
                    self._rev_member, self._rev_paths, target.asn
                )
                mask = (rev_code >= 0) & member[np.maximum(rev_code, 0)]
                if target.path_scope is not None:
                    scope = self._rev_codes.get(target.path_scope, -1)
                    mask = mask & (rev_code == scope)
                return mask
            if not self._middles:
                return np.zeros(len(loc_code), dtype=bool)
            member = self._member_of(self._mid_member, self._middles, target.asn)
            mask = member[mid_code]
            if target.path_scope is not None:
                scope = self._middle_codes.get(target.path_scope, -1)
                mask = mask & (mid_code == scope)
            return mask
        # CLIENT
        mask = client_asn == target.asn
        if target.prefixes is not None:
            mask = mask & np.isin(
                prefix24,
                np.fromiter(
                    target.prefixes, dtype=np.int64, count=len(target.prefixes)
                ),
            )
        return mask

    def _fault_mask(self, fault: Fault) -> np.ndarray:
        """Which static slots the fault applies to (the static path makes
        the answer time-independent; churn slots use the per-segment
        table)."""
        mask = self._fault_masks.get(fault.fault_id)
        if mask is None:
            self._ensure_fault_tables()
            mask = (
                self._applies_vec(
                    fault,
                    self.loc_idx,
                    self._slot_pfx_bucket,
                    self.prefix24,
                    self.client_asn,
                    self.static_middle_idx,
                    self._slot_rev_code,
                )
                & self.static_valid
            )
            self._fault_masks[fault.fault_id] = mask
        return mask

    def _fault_segments(self, fault: Fault) -> np.ndarray:
        """Per churn *segment*, whether the fault applies to its path."""
        applies = self._fault_seg_applies.get(fault.fault_id)
        if applies is None:
            self._ensure_fault_tables()
            s = self._seg_slot
            applies = (
                self._applies_vec(
                    fault,
                    self.loc_idx[s],
                    self._slot_pfx_bucket[s],
                    self.prefix24[s],
                    self.client_asn[s],
                    self._seg_middle,
                    self._slot_rev_code[s],
                )
                & self._seg_valid
            )
            self._fault_seg_applies[fault.fault_id] = applies
        return applies

    # -- generation ----------------------------------------------------

    def generate(
        self, time: Timestamp, rng: np.random.Generator | None = None
    ) -> QuartetBatch:
        """Columnar quartets for one bucket.

        Args:
            time: Bucket index.
            rng: Generator; when None uses the scenario's shared stream,
                so the result depends on every earlier shared-stream call
                on the same scenario (from any of its generators).
        """
        scenario = self.scenario
        rng = rng or scenario._rng  # noqa: SLF001
        bucket_of_day = time % BUCKETS_PER_DAY
        expected = scenario._activity_matrix[:, bucket_of_day].copy()  # noqa: SLF001
        if is_weekend(time):
            expected *= np.where(self.enterprise, 0.35, 1.15)
        surge = scenario.surge_multipliers(time)
        if surge is not None:
            expected *= surge
        counts = rng.poisson(expected)
        active = np.nonzero(counts)[0]
        noise = rng.standard_normal(len(active))

        valid = self.static_valid[active]
        totals = self.static_total[active].copy()
        middle_idx = self.static_middle_idx[active].copy()

        # Splice in the churn slots' current-segment baselines.
        churn_rows = np.nonzero(~self.static[active])[0]
        if len(churn_rows):
            self._position_pointers(time)
            ptr = self._ptr[self._churn_index[active[churn_rows]]]
            totals[churn_rows] = self._seg_total[ptr]
            valid[churn_rows] = self._seg_valid[ptr]
            middle_idx[churn_rows] = self._seg_middle[ptr]
        else:
            ptr = np.empty(0, dtype=np.int64)

        # Evening congestion for non-enterprise clients (one add; the
        # same value as ``Scenario.evening_congestion_ms``).
        amps = self._amps_for_day(time // BUCKETS_PER_DAY)
        shape = self._shape_matrix[self._slot_metro[active], bucket_of_day]
        congestion = amps[active] * shape
        congestion[self.enterprise[active]] = 0.0
        totals = totals + congestion

        # Fault inflation, one add per fault in schedule order.
        for fault in scenario.active_faults(time):
            applies = self._fault_mask(fault)[active]
            if len(churn_rows):
                applies[churn_rows] = self._fault_segments(fault)[ptr]
            if applies.any():
                totals[applies] = totals[applies] + fault.added_ms

        counts_active = counts[active]
        sigma = scenario.world.params.latency.noise_sigma
        mean = totals * (1.0 + sigma * noise / np.sqrt(counts_active))
        mean = np.maximum(MIN_MEAN_RTT_MS, mean)

        keep = np.nonzero(valid)[0]
        slots_kept = active[keep]
        locations, middles = self._vocab_tuples()
        return QuartetBatch(
            time=np.full(len(keep), time, dtype=np.int64),
            prefix24=self.prefix24[slots_kept],
            mobile=self.mobile[slots_kept],
            mean_rtt_ms=mean[keep],
            n_samples=counts_active[keep].astype(np.int64),
            users=self.users[slots_kept],
            client_asn=self.client_asn[slots_kept],
            location_index=self.loc_idx[slots_kept],
            locations=locations,
            middle_index=middle_idx[keep],
            middles=middles,
            region_index=self.region_idx[slots_kept],
            regions=self._regions,
        )

    def generate_quartets(
        self, time: Timestamp, rng: np.random.Generator | None = None
    ) -> list[Quartet]:
        """Row-wise view of :meth:`generate` (figures, tests, interop)."""
        return self.generate(time, rng).to_quartets()
