"""The traffic model: columnar quartet batches from a scenario.

:class:`BatchQuartetGenerator` is the only place quartets are generated.
Its static per-slot columns (location/region/metro codes, prefix, AS,
baseline path latency, activity, congestion shapes) are the world's
:class:`repro.sim.scenario.SlotTable`, scanned once per world and shared
by every generator over it. The generator adds only what its scenario
owns: which slots' BGP paths churn — their path timelines flattened into
one sorted segment-key array — the per-fault slot masks, the surge
multipliers and the per-day congestion amplitudes, so per bucket only
array arithmetic runs.

One call generates one bucket or a span of them. Per bucket, in bucket
order, it draws ``rng.poisson`` over the slot activity vector (the
connection counts), then ``rng.standard_normal`` over the active slots
(the sampling noise, shrinking with the count). Everything after the
draws runs once over the whole span's rows: latency is added in a fixed
order — baseline, evening congestion, then faults in schedule order,
each where its ``[start, end)`` holds the row's bucket. A span's batch
is therefore row for row the concatenation of its buckets' one-bucket
batches, and given the same generator states the output is a pure
function of the scenario; ``tests/golden/substrate_v1.json`` pins it,
and the sharded driver relies on it for byte-identical blame counts.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.quartet import Quartet, QuartetBatch
from repro.net.asn import ASPath
from repro.net.bgp import Timestamp
from repro.sim.faults import Direction, Fault, SegmentKind
from repro.sim.scenario import BUCKETS_PER_DAY, Scenario
from repro.sim.workload import is_weekend

#: Sentinel "never changes" end time for a timeline's last segment.
_NEVER = np.iinfo(np.int64).max

#: Segment keys are ``churn slot * _SEG_SHIFT + segment end``; bucket
#: times (and clamped ends) stay below it.
_SEG_SHIFT = 1 << 40

#: Floor for a quartet's mean RTT (ms): sampling noise never drives a
#: mean below one physical millisecond.
MIN_MEAN_RTT_MS = 1.0


def _in_prefixes(prefix24: np.ndarray, prefixes: frozenset[int]) -> np.ndarray:
    """Which entries of ``prefix24`` a fault's prefix scope lists."""
    return np.isin(prefix24, np.fromiter(prefixes, dtype=np.int64, count=len(prefixes)))


class BatchQuartetGenerator:
    """Generates every bucket's quartets as one :class:`QuartetBatch`."""

    def __init__(self, scenario: Scenario) -> None:
        self.scenario = scenario
        table = self.table = scenario.world.slot_table
        timelines = scenario._timelines  # noqa: SLF001 - perf layer is a friend
        churned = {
            table.route_codes[key]: timeline
            for key, timeline in timelines.items()
            if len(timeline[0]) > 1
        }
        # Slots whose BGP path never changes read the table's base path;
        # churn slots use the segment arrays built below.
        self.static = ~np.isin(table.route, list(churned))
        self.static_valid = self.static & (table.middle >= 0)
        # The middle vocabulary lists the static slots' middles in slot
        # order, then each churn segment's: re-code the table's codes.
        world_codes = table.middle[self.static_valid]
        codes, first = np.unique(world_codes, return_index=True)
        in_order = codes[np.argsort(first)]
        middles = tuple(table.middle_codes)
        self._middles: list[ASPath] = [middles[code] for code in in_order.tolist()]
        self._middle_codes = {middle: k for k, middle in enumerate(self._middles)}
        recode = np.zeros(len(middles), dtype=np.int64)
        recode[in_order] = np.arange(len(in_order))
        self.static_middle_idx = np.zeros(len(self.static), dtype=np.int64)
        self.static_middle_idx[self.static_valid] = recode[world_codes]
        self._build_churn_segments(churned)

        self._home_asns = sorted(
            {int(a) for a in table.client_asn[~table.enterprise]}
        )
        self._slots_by_asn: dict[int, np.ndarray] = {
            asn: np.nonzero((table.client_asn == asn) & ~table.enterprise)[0]
            for asn in self._home_asns
        }
        self._weekend = np.where(table.enterprise, 0.35, 1.15)
        # Row-major (metro, bucket-of-day) shapes, read by flat index.
        self._shape_flat = np.ravel(table.congestion_shape)
        self._amp_cache: dict[int, np.ndarray] = {}
        self._fault_masks: dict[int, np.ndarray] = {}
        self._fault_seg_applies: dict[int, np.ndarray] = {}
        self._mid_member: dict[int, np.ndarray] = {}
        self._rev_member: dict[int, np.ndarray] = {}
        self._reverse_middles = tuple(table.reverse_middle_codes)
        # Frozen vocab views shared by every produced batch: downstream
        # caches key on tuple identity, and one pickle of a shard output
        # serializes each vocab once.
        self._locations = tuple(table.location_codes)
        self._regions = tuple(table.region_codes)
        self._middles_tuple: tuple[ASPath, ...] = tuple(self._middles)

    def _middle_code(self, middle: ASPath) -> int:
        code = self._middle_codes.get(middle)
        if code is None:
            code = len(self._middles)
            self._middle_codes[middle] = code
            self._middles.append(middle)
        return code

    # -- churn timelines as flat segment arrays ------------------------

    def _build_churn_segments(self, churned: dict[int, tuple]) -> None:
        """Flatten churn-slot path timelines into flat segment arrays.

        Segment ``offset[k] + j`` is churn slot ``k``'s ``j``-th timeline
        entry. Its key, ``k * _SEG_SHIFT + end``, sorts slot by slot and
        by end within a slot, so the live segment of slot ``k`` at bucket
        ``t`` is the count of keys ``<= k * _SEG_SHIFT + t`` — one
        ``searchsorted`` for any mix of slots and buckets
        (:meth:`_live_segments`).
        """
        world = self.scenario.world
        churn = np.nonzero(~self.static)[0]
        self._churn_index = np.full(len(self.static), -1, dtype=np.int64)
        self._churn_index[churn] = np.arange(len(churn))
        offsets = np.zeros(len(churn), dtype=np.int64)
        totals: list[float] = []
        valids: list[bool] = []
        middles: list[int] = []
        ends: list[int] = []
        for k, i in enumerate(churn.tolist()):
            offsets[k] = len(totals)
            slot = world.slots[i]
            times, paths = churned[int(self.table.route[i])]
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
        per_slot = np.diff(np.append(offsets, len(totals)))
        self._seg_slot = np.repeat(churn, per_slot)
        self._seg_total = np.array(totals)
        self._seg_valid = np.array(valids, dtype=bool)
        self._seg_middle = np.array(middles, dtype=np.int64)
        self._seg_key = np.repeat(
            np.arange(len(churn), dtype=np.int64), per_slot
        ) * _SEG_SHIFT + np.minimum(np.array(ends, dtype=np.int64), _SEG_SHIFT - 1)

    def _live_segments(self, slots: np.ndarray, times: np.ndarray) -> np.ndarray:
        """The live segment of each churn slot ``slots[i]`` at bucket
        ``times[i]``: the timeline entry with the latest start at or
        before the bucket (the first entry before the timeline starts)."""
        return np.searchsorted(
            self._seg_key,
            self._churn_index[slots] * _SEG_SHIFT + times,
            side="right",
        )

    # -- per-day / per-fault caches ------------------------------------

    def _amps_for_day(self, day: int) -> np.ndarray:
        """Per-slot evening-congestion amplitude for one day."""
        amps = self._amp_cache.get(day)
        if amps is None:
            amps = np.zeros(len(self.static))
            for asn in self._home_asns:
                amp = self.scenario._congestion_amp_for(asn, day)  # noqa: SLF001
                if amp:
                    amps[self._slots_by_asn[asn]] = amp
            if len(self._amp_cache) > 4:
                self._amp_cache.clear()
            self._amp_cache[day] = amps
        return amps

    def _member_of(
        self, cache: dict[int, np.ndarray], vocab: Sequence[ASPath], asn: int
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
        self, fault: Fault, slots: np.ndarray | slice, mid_code: np.ndarray
    ) -> np.ndarray:
        """Vectorized :meth:`Fault.applies_to` over table rows ``slots``
        whose forward middles have codes ``mid_code``.

        Everything ``applies_to`` branches on is a small integer column:
        location code, CRC bucket of the /24 (the ``covers_prefix`` hash),
        client AS, middle-path code and reverse-middle code. Per fault the
        answer is then vocabulary-sized Python work plus NumPy gathers.
        """
        table = self.table
        target = fault.target
        if target.kind is SegmentKind.CLOUD:
            code = table.location_codes.get(target.location_id, -1)
            mask = table.location[slots] == code
            if target.affected_fraction < 1.0:
                mask = mask & (
                    table.prefix_bucket[slots] < target.affected_fraction * 1000
                )
            if target.prefixes is not None:
                mask = mask & _in_prefixes(table.prefix24[slots], target.prefixes)
            return mask
        if target.kind is SegmentKind.MIDDLE:
            if target.direction is Direction.REVERSE:
                rev_code = table.reverse_middle[slots]
                if not self._reverse_middles:
                    return np.zeros(len(rev_code), dtype=bool)
                member = self._member_of(
                    self._rev_member, self._reverse_middles, target.asn
                )
                mask = member[rev_code]
                if target.path_scope is not None:
                    scope = table.reverse_middle_codes.get(target.path_scope, -1)
                    mask = mask & (rev_code == scope)
                return mask
            if not self._middles:
                return np.zeros(len(mid_code), dtype=bool)
            member = self._member_of(self._mid_member, self._middles, target.asn)
            mask = member[mid_code]
            if target.path_scope is not None:
                scope = self._middle_codes.get(target.path_scope, -1)
                mask = mask & (mid_code == scope)
            return mask
        # CLIENT
        mask = table.client_asn[slots] == target.asn
        if target.prefixes is not None:
            mask = mask & _in_prefixes(table.prefix24[slots], target.prefixes)
        return mask

    def _fault_mask(self, fault: Fault) -> np.ndarray:
        """Which static slots the fault applies to (the static path makes
        the answer time-independent; churn slots use the per-segment
        table)."""
        mask = self._fault_masks.get(fault.fault_id)
        if mask is None:
            mask = (
                self._applies_vec(fault, slice(None), self.static_middle_idx)
                & self.static_valid
            )
            self._fault_masks[fault.fault_id] = mask
        return mask

    def _fault_segments(self, fault: Fault) -> np.ndarray:
        """Per churn *segment*, whether the fault applies to its path."""
        applies = self._fault_seg_applies.get(fault.fault_id)
        if applies is None:
            applies = (
                self._applies_vec(fault, self._seg_slot, self._seg_middle)
                & self._seg_valid
            )
            self._fault_seg_applies[fault.fault_id] = applies
        return applies

    # -- generation ----------------------------------------------------

    def generate(
        self,
        time: Timestamp | Sequence[Timestamp],
        rng: np.random.Generator | Sequence[np.random.Generator] | None = None,
    ) -> QuartetBatch:
        """Columnar quartets for one bucket, or for a span of buckets.

        Args:
            time: A bucket index, or ascending bucket indices. A span's
                rows come bucket by bucket, each bucket's exactly as a
                one-bucket call would produce them.
            rng: One generator every bucket draws from in turn — None
                uses the scenario's shared stream, so the result depends
                on every earlier shared-stream call on the same scenario
                (from any of its generators) — or one generator per
                bucket.
        """
        scenario = self.scenario
        table = self.table
        times = [time] if isinstance(time, (int, np.integer)) else [int(t) for t in time]
        if rng is None or isinstance(rng, np.random.Generator):
            rngs = [rng or scenario._rng] * len(times)  # noqa: SLF001
        else:
            rngs = list(rng)
        # The draws: per bucket, in bucket order.
        actives, counts, noises = [], [], []
        for t, draw in zip(times, rngs):
            expected = table.activity[:, t % BUCKETS_PER_DAY].copy()
            if is_weekend(t):
                expected *= self._weekend
            surge = scenario.surge_multipliers(t)
            if surge is not None:
                expected *= surge
            bucket_counts = draw.poisson(expected)
            active = np.nonzero(bucket_counts)[0]
            actives.append(active)
            counts.append(bucket_counts[active])
            noises.append(draw.standard_normal(len(active)))
        active = np.concatenate(actives)
        counts_active = np.concatenate(counts)
        noise = np.concatenate(noises)
        lengths = [len(a) for a in actives]
        row_time = np.repeat(np.array(times, dtype=np.int64), lengths)

        # Everything below runs once over the span's rows.
        valid = self.static_valid[active]
        totals = table.base_total_ms[active]
        middle_idx = self.static_middle_idx[active]

        # Splice in the churn slots' live-segment baselines.
        churn_rows = np.nonzero(~self.static[active])[0]
        if len(churn_rows):
            ptr = self._live_segments(active[churn_rows], row_time[churn_rows])
            totals[churn_rows] = self._seg_total[ptr]
            valid[churn_rows] = self._seg_valid[ptr]
            middle_idx[churn_rows] = self._seg_middle[ptr]

        # Evening congestion for non-enterprise clients (one add; the
        # same value as ``Scenario.evening_congestion_ms``).
        days, day_of = np.unique(
            np.array(times) // BUCKETS_PER_DAY, return_inverse=True
        )
        by_day = np.stack([self._amps_for_day(int(day)) for day in days])
        amps = by_day[np.repeat(day_of, lengths), active]
        shape = self._shape_flat[
            table.metro[active] * table.congestion_shape.shape[1]
            + row_time % BUCKETS_PER_DAY
        ]
        congestion = amps * shape
        congestion[table.enterprise[active]] = 0.0
        totals = totals + congestion

        # Fault inflation, one add per fault in schedule order, on the
        # rows of the buckets it is active in.
        for fault in scenario.faults_between(times[0], times[-1] + 1):
            applies = self._fault_mask(fault)[active]
            if len(churn_rows):
                applies[churn_rows] = self._fault_segments(fault)[ptr]
            applies &= (row_time >= fault.start) & (row_time < fault.end)
            if applies.any():
                totals[applies] = totals[applies] + fault.added_ms

        sigma = scenario.world.params.latency.noise_sigma
        mean = totals * (1.0 + sigma * noise / np.sqrt(counts_active))
        mean = np.maximum(MIN_MEAN_RTT_MS, mean)

        keep = np.nonzero(valid)[0]
        slots_kept = active[keep]
        return QuartetBatch(
            time=row_time[keep],
            prefix24=table.prefix24[slots_kept],
            mobile=table.mobile[slots_kept],
            mean_rtt_ms=mean[keep],
            n_samples=counts_active[keep].astype(np.int64),
            users=table.users[slots_kept],
            client_asn=table.client_asn[slots_kept],
            location_index=table.location[slots_kept],
            locations=self._locations,
            middle_index=middle_idx[keep],
            middles=self._middles_tuple,
            region_index=table.region[slots_kept],
            regions=self._regions,
        )

    def generate_quartets(
        self, time: Timestamp, rng: np.random.Generator | None = None
    ) -> list[Quartet]:
        """Row-wise view of :meth:`generate` (figures, tests, interop)."""
        return self.generate(time, rng).to_quartets()
