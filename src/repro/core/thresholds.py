"""Learning expected RTTs per cloud location and per BGP path (§4.3).

Algorithm 1's bad-fractions are computed against *learned* expected RTTs —
the median of the last 14 days of values — rather than the badness
targets. The §4.3 worked example shows why: with a 50 ms target and a
fault that moves RTTs from [35, 45] to [40, 70], only a third of quartets
breach the raw target (τ = 0.8 never fires), while all of them exceed the
learned 40 ms median. With medians and τ = 0.8, the test asks whether the
distribution shifted left by ~30 %.

Expected RTTs are learned separately for mobile and non-mobile clients,
per cloud location and per middle-segment BGP path.
"""

from __future__ import annotations

import bisect
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.core.quartet import Quartet, QuartetBatch
from repro.net.asn import ASPath
from repro.rngstate import rng_from_state_dict, rng_state_dict

#: Per-key per-day reservoir size; medians are insensitive to subsampling.
_RESERVOIR_SIZE = 256

#: Buckets per day.
_BUCKETS_PER_DAY = 288

CloudKey = tuple[str, bool]  # (location_id, mobile)
MiddleKey = tuple[ASPath, bool]  # (middle path, mobile)


class _Lane:
    """Every ⟨key, day⟩ reservoir of one key space, as columns.

    Row ``r`` is a fixed-size uniform sample of one value stream:
    ``seen[r]`` counts the stream, the first ``min(seen[r], 256)``
    columns are live, and ``rngs[r]`` is the reservoir's own replacement
    stream. ``rows`` maps ⟨key, day⟩ to its row; rows are handed out in
    creation order, so dict order, row order and checkpoint order are
    one order.
    """

    __slots__ = ("rows", "values", "seen", "rngs")

    def __init__(self) -> None:
        self.reset((), np.empty((0, _RESERVOIR_SIZE)), (), ())

    def reset(self, keys, values: np.ndarray, seen, rngs) -> None:
        """Replace every reservoir; row ``r`` is ``keys[r]``'s."""
        self.rows: dict[tuple, int] = {key: row for row, key in enumerate(keys)}
        self.values = values
        self.seen = np.array(seen, dtype=np.int64)
        self.rngs: list[np.random.Generator] = list(rngs)

    def lengths(self) -> np.ndarray:
        """Live columns per row, in row order."""
        return np.minimum(self.seen[: len(self.rngs)], _RESERVOIR_SIZE)

    def new_row(self, key: tuple, seed: int) -> int:
        """Open an empty reservoir, doubling the columns when full."""
        row = len(self.rngs)
        if row == len(self.seen):
            grown = np.empty((max(8, 2 * row), _RESERVOIR_SIZE))
            grown[:row] = self.values
            self.values = grown
            pad = np.zeros(len(grown) - row, dtype=np.int64)
            self.seen = np.concatenate((self.seen, pad))
        self.rows[key] = row
        self.rngs.append(np.random.default_rng(seed))
        return row

    def add(self, row: int, value: float) -> None:
        """Fold one value: the per-value reference :meth:`fold` equals."""
        seen = self.seen.item(row) + 1
        self.seen[row] = seen
        if seen <= _RESERVOIR_SIZE:
            self.values[row, seen - 1] = value
        elif (index := int(self.rngs[row].integers(0, seen))) < _RESERVOIR_SIZE:
            self.values[row, index] = value

    def fold(
        self,
        rows: np.ndarray,
        starts: np.ndarray,
        counts: np.ndarray,
        values: np.ndarray,
    ) -> None:
        """Fold ``values[starts[g]:starts[g] + counts[g]]`` into
        ``rows[g]`` for every group ``g`` (rows distinct, groups
        contiguous), byte-identical to :meth:`add` per value.

        The fill phase draws nothing and lands lane-wide in one
        assignment. Past it, value ``i`` of a stream draws
        ``integers(0, seen + i + 1)``; one array-``high`` call per
        reservoir consumes its bit generator exactly as those scalar
        calls would (``test_array_high_integers_match_scalar_stream``).
        """
        of_row = np.repeat(rows, counts)
        rank = np.arange(len(values)) - np.repeat(starts, counts)
        highs = self.seen[of_row] + rank + 1  # each stream's running count
        filling = highs <= _RESERVOIR_SIZE
        self.values[of_row[filling], highs[filling] - 1] = values[filling]
        begins = starts + np.clip(_RESERVOIR_SIZE - self.seen[rows], 0, counts)
        ends = starts + counts
        drawing = begins < ends
        draws = np.full(len(values), _RESERVOIR_SIZE)
        for row, begin, end in zip(
            rows[drawing].tolist(), begins[drawing].tolist(), ends[drawing].tolist()
        ):
            draws[begin:end] = self.rngs[row].integers(0, highs[begin:end])
        self.seen[rows] += counts
        # A later value overwrites an earlier one drawn onto the same
        # slot; fancy assignment leaves the winner among duplicate
        # indices unspecified, so keep each slot's last hit explicitly.
        hits = np.nonzero(draws < _RESERVOIR_SIZE)[0]
        slots = of_row[hits] * _RESERVOIR_SIZE + draws[hits]
        _, last = np.unique(slots[::-1], return_index=True)
        hits = hits[hits.size - 1 - last]
        self.values[of_row[hits], draws[hits]] = values[hits]


@dataclass(frozen=True)
class ExpectedRTTTable:
    """Snapshot of learned expected RTTs.

    Attributes:
        cloud: ``(location_id, mobile)`` → median RTT over the window.
        middle: ``(middle path, mobile)`` → median RTT over the window.
    """

    cloud: dict[CloudKey, float] = field(default_factory=dict)
    middle: dict[MiddleKey, float] = field(default_factory=dict)

    def expected_cloud(self, location_id: str, mobile: bool) -> float | None:
        """Learned expected RTT of a cloud location, or None if unknown."""
        return self.cloud.get((location_id, mobile))

    def expected_middle(self, middle: ASPath, mobile: bool) -> float | None:
        """Learned expected RTT of a BGP path, or None if unknown."""
        return self.middle.get((middle, mobile))


class DistributionShiftDetector:
    """KS-style distribution comparison — the alternative §4.3 mentions.

    "While we considered other approaches like comparing the RTT
    distributions, our simple approach works well in practice." This
    class implements the considered alternative so the trade-off can be
    measured (see ``bench_ablation_shift_detector.py``): it keeps a
    reference RTT sample per key and flags a window whose empirical
    distribution sits above the reference by more than a threshold in
    Kolmogorov-Smirnov distance *in the bad direction* (one-sided).

    It is more sensitive to small shifts than the median test but needs
    a full sample per decision (not one number), is costlier per check,
    and flags benign reshapings of the distribution — the practical
    reasons the paper's deployed system uses medians.
    """

    def __init__(self, ks_threshold: float = 0.3) -> None:
        if not 0.0 < ks_threshold <= 1.0:
            raise ValueError("ks_threshold must be in (0, 1]")
        self.ks_threshold = ks_threshold
        self._reference: dict[tuple, deque[float]] = {}

    def observe_reference(self, key: tuple, rtt_ms: float) -> None:
        """Add one healthy-period RTT to a key's reference sample."""
        sample = self._reference.get(key)
        if sample is None:
            sample = self._reference[key] = deque(maxlen=4 * _RESERVOIR_SIZE)
        sample.append(rtt_ms)

    def shifted(self, key: tuple, window: list[float]) -> bool | None:
        """Whether ``window`` shifted upward vs the key's reference.

        Returns None when the key has no reference or the window is
        empty (no decision possible).
        """
        reference = self._reference.get(key)
        if not reference or not window:
            return None
        reference_sorted = sorted(reference)
        window_sorted = sorted(window)
        # One-sided KS: sup_x ( F_ref(x) - F_window(x) ), positive when
        # the window's mass moved to higher RTTs.
        grid = reference_sorted + window_sorted
        n_ref = len(reference_sorted)
        n_win = len(window_sorted)
        best = 0.0
        for x in grid:
            f_ref = bisect.bisect_right(reference_sorted, x) / n_ref
            f_win = bisect.bisect_right(window_sorted, x) / n_win
            best = max(best, f_ref - f_win)
        return best >= self.ks_threshold

    def reference_size(self, key: tuple) -> int:
        """Number of reference RTTs held for a key."""
        return len(self._reference.get(key, ()))


def _live(lengths: np.ndarray) -> np.ndarray:
    """Mask of a lane matrix's live cells: row ``r``'s first ``lengths[r]``."""
    return np.arange(_RESERVOIR_SIZE) < lengths[:, None]


class ExpectedRTTLearner:
    """Rolling 14-day median learner fed by quartet observations.

    Usage: call :meth:`observe` for every quartet (training and live);
    call :meth:`table` to snapshot the current medians, which reads only
    the trailing ``history_days``. Older history stays until
    :meth:`prune_before` drops it — the pipeline calls that at every
    day-boundary table refresh.
    """

    def __init__(self, history_days: int = 14) -> None:
        if history_days < 1:
            raise ValueError("history_days must be >= 1")
        self.history_days = history_days
        self._cloud = _Lane()  # ⟨(location_id, mobile), day⟩ reservoirs
        self._middle = _Lane()  # ⟨(middle path, mobile), day⟩ reservoirs
        self._seed = 0

    def observe(self, quartet: Quartet) -> None:
        """Fold one quartet's mean RTT into the history."""
        day = quartet.time // _BUCKETS_PER_DAY
        rtt = quartet.mean_rtt_ms
        cloud_key = ((quartet.location_id, quartet.mobile), day)
        middle_key = ((quartet.middle, quartet.mobile), day)
        self._cloud.add(self._row(self._cloud, cloud_key), rtt)
        self._middle.add(self._row(self._middle, middle_key), rtt)

    def observe_all(self, quartets: list[Quartet]) -> None:
        """Fold a batch of quartets."""
        for quartet in quartets:
            self.observe(quartet)

    def observe_batch(self, batch: QuartetBatch) -> None:
        """Columnar :meth:`observe_all`: fold a batch without row objects.

        Byte-identical to observing the batch's rows in order — see
        :meth:`observe_columns` for how the grouping preserves reservoir
        semantics (value order, RNG streams, and seed allocation).
        """
        self.observe_columns(
            batch.time,
            batch.mobile,
            batch.mean_rtt_ms,
            batch.location_index,
            batch.locations,
            batch.middle_index,
            batch.middles,
        )

    def observe_columns(
        self,
        time: np.ndarray,
        mobile: np.ndarray,
        mean_rtt_ms: np.ndarray,
        location_index: np.ndarray,
        locations: tuple[str, ...],
        middle_index: np.ndarray,
        middles: tuple[ASPath, ...],
    ) -> None:
        """Fold raw quartet columns into the history.

        Groups rows by ⟨key, day⟩ with one integer-code sort per lane
        (cloud, middle) instead of two dict lookups per row. Equivalence
        with the scalar loop holds because (a) each group's values keep
        original row order (stable sort), so every reservoir sees the
        same value stream; (b) each reservoir owns its RNG, so the order
        in which existing reservoirs are folded is free; and (c) only
        *new* reservoirs share anything — the seed counter — so they
        alone are ordered: first-occurrence row order, the cloud lane
        before the middle lane within a row, exactly as the scalar loop
        allocates them.
        """
        n = len(mean_rtt_ms)
        if n == 0:
            return
        day = time // _BUCKETS_PER_DAY
        day0 = int(day.min())
        day_span = int(day.max()) - day0 + 1
        day_off = day - day0
        lanes = (
            (self._cloud, (location_index * 2 + mobile) * day_span + day_off, locations),
            (self._middle, (middle_index * 2 + mobile) * day_span + day_off, middles),
        )
        folds = []
        fresh: list[tuple[int, int, int, tuple]] = []
        for lane_no, (lane, codes, vocab) in enumerate(lanes):
            order = np.argsort(codes, kind="stable")
            sorted_codes = codes[order]
            starts = np.concatenate(([0], np.nonzero(np.diff(sorted_codes))[0] + 1))
            rows = []
            for group, code in enumerate(sorted_codes[starts].tolist()):
                pair_code, d = divmod(code, day_span)
                vocab_idx, is_mobile = divmod(pair_code, 2)
                key = ((vocab[vocab_idx], bool(is_mobile)), d + day0)
                row = lane.rows.get(key, -1)
                if row < 0:
                    fresh.append((int(order[starts[group]]), lane_no, group, key))
                rows.append(row)
            folds.append((lane, rows, starts, mean_rtt_ms[order]))
        fresh.sort()
        for _, lane_no, group, key in fresh:
            lane, rows = folds[lane_no][:2]
            self._seed += 1
            rows[group] = lane.new_row(key, self._seed)
        for lane, rows, starts, values in folds:
            lane.fold(np.array(rows), starts, np.diff(starts, append=n), values)

    def table(self, as_of_day: int | None = None) -> ExpectedRTTTable:
        """Snapshot medians over the trailing window.

        Args:
            as_of_day: Window end (exclusive is ``as_of_day + 1``); when
                None, uses all observed history.
        """
        return ExpectedRTTTable(
            cloud=self._medians(self._cloud, as_of_day),
            middle=self._medians(self._middle, as_of_day),
        )

    def prune_before(self, day: int) -> None:
        """Discard per-day reservoirs older than ``day``."""
        for lane in (self._cloud, self._middle):
            kept = {key: row for key, row in lane.rows.items() if key[1] >= day}
            if len(kept) < len(lane.rows):
                rows = list(kept.values())
                rngs = [lane.rngs[row] for row in rows]
                lane.reset(kept, lane.values[rows], lane.seen[rows], rngs)

    def state_arrays(self) -> tuple[dict, dict[str, np.ndarray]]:
        """The learner's full state as (JSON-safe meta, NumPy arrays).

        Built for the columnar store backend: reservoir values — the
        bulk of the state — are the live part of each lane's matrix,
        row after row in one float64 array; per-reservoir bookkeeping
        (encoded ⟨key, day⟩, seen count, RNG state) rides in the meta
        dict, index-aligned with the ``*_lengths`` array. Rows are in
        creation order — :meth:`restore_arrays` rebuilds the lanes in
        that exact order, since iteration order feeds byte-identity
        downstream.
        """
        meta: dict = {"history_days": self.history_days, "seed": self._seed}
        arrays: dict[str, np.ndarray] = {}
        for name, lane in (("cloud", self._cloud), ("middle", self._middle)):
            lengths = lane.lengths()
            meta[f"{name}_keys"] = [
                [key if isinstance(key, str) else list(key), bool(mobile), int(day)]
                for (key, mobile), day in lane.rows
            ]
            meta[f"{name}_seen"] = lane.seen[: len(lengths)].tolist()
            meta[f"{name}_rng"] = [rng_state_dict(rng) for rng in lane.rngs]
            arrays[f"{name}_values"] = lane.values[: len(lengths)][_live(lengths)]
            arrays[f"{name}_lengths"] = lengths
        return meta, arrays

    def restore_arrays(self, meta: dict, arrays: dict) -> None:
        """Inverse of :meth:`state_arrays`; replaces all current state."""
        self.history_days = int(meta["history_days"])
        self._seed = int(meta["seed"])
        for name, lane in (("cloud", self._cloud), ("middle", self._middle)):
            lengths = np.asarray(arrays[f"{name}_lengths"], dtype=np.int64)
            seen = np.asarray(meta[f"{name}_seen"], dtype=np.int64)
            if not np.array_equal(lengths, np.minimum(seen, _RESERVOIR_SIZE)):
                raise ValueError(f"{name} reservoir lengths disagree with seen counts")
            values = np.empty((len(lengths), _RESERVOIR_SIZE))
            values[_live(lengths)] = arrays[f"{name}_values"]
            keys = []
            for raw, mobile, day in meta[f"{name}_keys"]:
                key = raw if isinstance(raw, str) else tuple(int(a) for a in raw)
                keys.append(((key, bool(mobile)), int(day)))
            rngs = [rng_from_state_dict(rng) for rng in meta[f"{name}_rng"]]
            lane.reset(keys, values, seen, rngs)

    def _row(self, lane: _Lane, key: tuple) -> int:
        row = lane.rows.get(key)
        if row is None:
            self._seed += 1
            row = lane.new_row(key, self._seed)
        return row

    def _medians(self, lane: _Lane, as_of_day: int | None) -> dict:
        grouped: dict[tuple, list[np.ndarray]] = {}
        filled = lane.lengths().tolist()
        for (key, day), row in lane.rows.items():
            if as_of_day is not None and not (
                as_of_day - self.history_days < day <= as_of_day
            ):
                continue
            grouped.setdefault(key, []).append(lane.values[row, : filled[row]])
        return {
            key: float(np.median(np.concatenate(chunks)))
            for key, chunks in grouped.items()
        }
