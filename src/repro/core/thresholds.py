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
from typing import TYPE_CHECKING

import numpy as np

from repro.core.quartet import Quartet, QuartetBatch
from repro.net.asn import ASPath
from repro.rngstate import rng_from_state_dict

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.summary import LearnColumns

#: Per-key per-day reservoir size; medians are insensitive to subsampling.
_RESERVOIR_SIZE = 256

#: Buckets per day.
_BUCKETS_PER_DAY = 288

#: Largest bound a reservoir draw serves: NumPy's 32-bit Lemire path.
_MAX_HIGH = 2**32

#: Queued rows at which the learner folds without being read.
_FOLD_ROWS = 8192

CloudKey = tuple[str, bool]  # (location_id, mobile)
MiddleKey = tuple[ASPath, bool]  # (middle path, mobile)


class _Lane:
    """Every ⟨key, day⟩ reservoir of one key space, as columns.

    Row ``r`` is a fixed-size uniform sample of one value stream:
    ``seen[r]`` counts the stream, the first ``min(seen[r], 256)``
    columns are live, and the reservoir's own replacement stream is the
    PCG64 ``bitgens[r]`` plus its spare 32-bit half-word, which lives
    here rather than in the bit generator: ``has_uint32[r]`` (0 or 1)
    says whether ``uinteger[r]`` is pending. The four together are
    exactly the state ``default_rng(seed)`` would carry after the same
    ``integers`` calls (:meth:`rng_states`). ``rows`` maps ⟨key, day⟩ to
    its row; rows are handed out in creation order, so dict order, row
    order and checkpoint order are one order.
    """

    __slots__ = ("rows", "values", "seen", "has_uint32", "uinteger", "bitgens")

    def __init__(self) -> None:
        self.reset((), np.empty((0, _RESERVOIR_SIZE)), (), (), (), ())

    def reset(self, keys, values: np.ndarray, seen, bitgens, has_uint32, uinteger):
        """Replace every reservoir; row ``r`` is ``keys[r]``'s."""
        self.rows: dict[tuple, int] = {key: row for row, key in enumerate(keys)}
        self.values = values
        self.seen = np.array(seen, dtype=np.int64)
        self.has_uint32 = np.array(has_uint32, dtype=np.int64)
        self.uinteger = np.array(uinteger, dtype=np.uint32)
        self.bitgens: list[np.random.PCG64] = list(bitgens)

    def lengths(self) -> np.ndarray:
        """Live columns per row, in row order."""
        return np.minimum(self.seen[: len(self.bitgens)], _RESERVOIR_SIZE)

    def new_row(self, key: tuple, seed: int) -> int:
        """Open an empty reservoir, doubling the columns when full."""
        row = len(self.bitgens)
        if row == len(self.seen):
            grown = np.empty((max(8, 2 * row), _RESERVOIR_SIZE))
            grown[:row] = self.values
            self.values = grown
            pad = len(grown) - row
            self.seen = np.concatenate((self.seen, np.zeros(pad, dtype=np.int64)))
            self.has_uint32 = np.concatenate(
                (self.has_uint32, np.zeros(pad, dtype=np.int64))
            )
            self.uinteger = np.concatenate(
                (self.uinteger, np.zeros(pad, dtype=np.uint32))
            )
        self.rows[key] = row
        self.bitgens.append(np.random.PCG64(seed))  # default_rng(seed)'s
        return row

    def take(self, rows: list[int]) -> tuple:
        """Rows ``rows`` as :meth:`reset` arguments after the keys."""
        return (
            self.values[rows],
            self.seen[rows],
            [self.bitgens[row] for row in rows],
            self.has_uint32[rows],
            self.uinteger[rows],
        )

    def rng_states(self) -> list[dict]:
        """Each row's stream as ``repro.rngstate.rng_state_dict`` writes
        the equivalent ``Generator``: the bit generator's state with the
        lane's half-word columns in place of its unused own."""
        return [
            {
                "bit_generator": state["bit_generator"],
                "state": state["state"],
                "has_uint32": has,
                "uinteger": spare,
            }
            for state, has, spare in zip(
                (bitgen.state for bitgen in self.bitgens),
                self.has_uint32.tolist(),
                self.uinteger.tolist(),
            )
        ]

    def draw(self, rows: np.ndarray, counts: np.ndarray, highs: np.ndarray):
        """Draw ``counts[i]`` values from row ``rows[i]``'s stream (rows
        distinct): the ``j``-th equals ``integers(0, high)`` for the
        ``j``-th of that row's ``highs``, the rows' chunks concatenated
        in order, and each stream ends where those scalar calls leave it.

        For ``1 < high <= 2**32`` NumPy maps one 32-bit half-word ``u``
        to ``(u * high) >> 32`` (Lemire's method), rejecting ``u`` while
        ``(u * high) mod 2**32 < (2**32 - high) mod high``. PCG64 yields
        a spare half-word first, then the low and the high half of each
        64-bit output. So every row's supply is its spare plus just
        enough raw words for its draws, one ``random_raw`` call each,
        and the whole fold maps in one array pass. A row with a rejected
        draw redoes its draws from the same supply in a scalar loop that
        pulls further words (:meth:`_redraw`); at real ``seen`` counts
        rejections are a few in a million. A lane's bounds are running
        counts past the fill, so never below 257; one above ``2**32``
        raises ``ValueError``, since NumPy would switch methods there.
        """
        if not len(highs):
            return np.empty(0, dtype=np.int64)
        if int(highs.max()) > _MAX_HIGH:
            raise ValueError(f"reservoir draw bound above {_MAX_HIGH}")
        has = self.has_uint32[rows]
        held = has == 1
        words = (counts - has + 1) // 2
        raw = [
            self.bitgens[row].random_raw(n)
            for row, n in zip(rows.tolist(), words.tolist())
            if n
        ]
        # Little-endian order puts each word's low half first.
        halves = np.concatenate(raw or [np.empty(0, np.uint64)])
        halves = halves.astype("<u8", copy=False).view("<u4")
        sizes = has + 2 * words
        ends = np.cumsum(sizes)
        begins = ends - sizes
        supply = np.empty(int(ends[-1]), dtype=np.uint64)
        fresh = np.ones(len(supply), dtype=bool)
        fresh[begins[held]] = False
        supply[fresh] = halves
        supply[~fresh] = self.uinteger[rows[held]]
        draw_ends = np.cumsum(counts)
        at = np.arange(len(highs)) + np.repeat(begins - draw_ends + counts, counts)
        high = highs.astype(np.uint64)
        scaled = supply[at] * high
        drawn = (scaled >> 32).astype(np.int64)
        self.has_uint32[rows] = sizes - counts
        self.uinteger[rows] = supply[ends - 1]
        rejected = (scaled & 0xFFFFFFFF) < (_MAX_HIGH - high) % high
        if rejected.any():
            redo = np.searchsorted(draw_ends, np.nonzero(rejected)[0], "right")
            for i in np.unique(redo).tolist():
                lo, hi = draw_ends[i] - counts[i], draw_ends[i]
                drawn[lo:hi] = self._redraw(
                    int(rows[i]),
                    supply[begins[i] : ends[i]].tolist(),
                    highs[lo:hi].tolist(),
                )
        return drawn

    def _redraw(self, row: int, supply: list[int], highs: list[int]) -> list[int]:
        """:meth:`draw` for one row, one value at a time, from the start
        of its supply, pulling a raw word whenever the supply runs out."""
        drawn = []
        used = 0
        for high in highs:
            threshold = (_MAX_HIGH - high) % high
            while True:
                if used == len(supply):
                    word = int(self.bitgens[row].random_raw())
                    supply += (word & 0xFFFFFFFF, word >> 32)
                scaled = supply[used] * high
                used += 1
                if scaled & 0xFFFFFFFF >= threshold:
                    break
            drawn.append(scaled >> 32)
        self.has_uint32[row] = len(supply) - used
        self.uinteger[row] = supply[-1]
        return drawn

    def add(self, row: int, value: float) -> None:
        """Fold one value: the per-value reference :meth:`fold` equals."""
        seen = self.seen.item(row) + 1
        self.seen[row] = seen
        if seen <= _RESERVOIR_SIZE:
            self.values[row, seen - 1] = value
            return
        index = self.draw(np.array([row]), np.array([1]), np.array([seen])).item()
        if index < _RESERVOIR_SIZE:
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
        assignment. Past it, value ``i`` of a stream is kept at slot
        ``integers(0, seen + i + 1)`` if that is below 256; one
        :meth:`draw` pass serves every touched reservoir.
        """
        of_row = np.repeat(rows, counts)
        rank = np.arange(len(values)) - np.repeat(starts, counts)
        highs = self.seen[of_row] + rank + 1  # each stream's running count
        filling = highs <= _RESERVOIR_SIZE
        self.values[of_row[filling], highs[filling] - 1] = values[filling]
        draw_counts = counts - np.clip(_RESERVOIR_SIZE - self.seen[rows], 0, counts)
        drawing = np.nonzero(~filling)[0]  # each touched stream's tail
        touched = draw_counts > 0
        draws = self.draw(rows[touched], draw_counts[touched], highs[drawing])
        self.seen[rows] += counts
        # A later value overwrites an earlier one drawn onto the same
        # slot; fancy assignment leaves the winner among duplicate
        # indices unspecified, so keep each slot's last hit explicitly.
        kept = draws < _RESERVOIR_SIZE
        hits, slots = drawing[kept], draws[kept]
        cells = of_row[hits] * _RESERVOIR_SIZE + slots
        _, last = np.unique(cells[::-1], return_index=True)
        last = hits.size - 1 - last
        self.values[of_row[hits[last]], slots[last]] = values[hits[last]]


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


def _live(lengths: np.ndarray) -> np.ndarray:
    """Mask of a lane matrix's live cells: row ``r``'s first ``lengths[r]``."""
    return np.arange(_RESERVOIR_SIZE) < lengths[:, None]


def _lane_state(name: str, meta: dict, arrays: dict) -> tuple:
    """Lane ``name`` of a ``state_arrays()`` payload as :meth:`_Lane.reset`
    arguments; ``ValueError`` if the payload contradicts itself."""
    raw_keys, seen, rngs = (meta[f"{name}_{part}"] for part in ("keys", "seen", "rng"))
    lengths = np.asarray(arrays[f"{name}_lengths"], dtype=np.int64)
    if not len(raw_keys) == len(seen) == len(rngs) == len(lengths):
        raise ValueError(
            f"{name} lane: {len(raw_keys)} keys, {len(seen)} seen counts,"
            f" {len(rngs)} RNG states and {len(lengths)} lengths"
        )
    seen = np.asarray(seen, dtype=np.int64)
    if not np.array_equal(lengths, np.minimum(seen, _RESERVOIR_SIZE)):
        raise ValueError(f"{name} lane: reservoir lengths disagree with seen counts")
    keys = [
        ((key if isinstance(key, str) else tuple(map(int, key)), bool(mobile)), int(day))
        for key, mobile, day in raw_keys
    ]
    if len(set(keys)) < len(keys):
        raise ValueError(f"{name} lane repeats a ⟨key, day⟩")
    has = np.array([rng["has_uint32"] for rng in rngs], dtype=np.int64)
    spare = np.array([rng["uinteger"] for rng in rngs], dtype=np.int64)
    if not (np.isin(has, (0, 1)).all() and np.all((spare >= 0) & (spare < _MAX_HIGH))):
        raise ValueError(
            f"{name} lane: has_uint32 must be 0 or 1 and uinteger a 32-bit word"
        )
    values = np.empty((len(lengths), _RESERVOIR_SIZE))
    values[_live(lengths)] = arrays[f"{name}_values"]
    bitgens = [rng_from_state_dict(rng).bit_generator for rng in rngs]
    return keys, values, seen, bitgens, has, spare


def _merge_codes(
    codes: tuple[np.ndarray, ...], vocabs: tuple[tuple, ...]
) -> tuple[np.ndarray, tuple]:
    """Segments' codes against one vocabulary: their shared tuple if
    every segment carries the same one, else a merged first-seen
    vocabulary keyed by value."""
    if all(vocab is vocabs[0] for vocab in vocabs):
        return np.concatenate(codes), vocabs[0]
    merged: dict = {}
    recoded = []
    for segment, vocab in zip(codes, vocabs):
        to_merged = [merged.setdefault(value, len(merged)) for value in vocab]
        recoded.append(np.array(to_merged, dtype=np.int64)[segment])
    return np.concatenate(recoded), tuple(merged)


class ExpectedRTTLearner:
    """Rolling 14-day median learner fed by quartet observations.

    Usage: hand it every quartet (training and live) through
    :meth:`observe_batch`; call :meth:`table` to snapshot the current
    medians, which reads only the trailing ``history_days``. Older
    history stays until :meth:`prune_before` drops it — the pipeline
    calls that at every day-boundary table refresh.

    Observations queue and fold into the reservoirs in one pass once
    ``_FOLD_ROWS`` rows wait, or before anything reads the learner
    (:meth:`table`, :meth:`prune_before`, :meth:`state_arrays`, the
    per-row :meth:`observe`); the state every read sees is the one a
    fold per call would have left.
    """

    def __init__(self, history_days: int = 14) -> None:
        if history_days < 1:
            raise ValueError("history_days must be >= 1")
        self.history_days = history_days
        self._cloud = _Lane()  # ⟨(location_id, mobile), day⟩ reservoirs
        self._middle = _Lane()  # ⟨(middle path, mobile), day⟩ reservoirs
        self._seed = 0
        self._queue: list[tuple] = []  # observe_columns arguments, copied
        self._queued = 0  # rows in the queue

    def observe(self, quartet: Quartet) -> None:
        """Fold one quartet's mean RTT into the history, after the queue."""
        self._fold()
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

    def observe_batch(self, batch: QuartetBatch | LearnColumns) -> None:
        """Columnar :meth:`observe_all`: fold a batch without row objects.

        ``batch`` is a :class:`QuartetBatch` or a bucket summary's
        :class:`~repro.core.summary.LearnColumns` — the same columns.

        Byte-identical to observing the batch's rows in order — see
        :meth:`_fold_columns` for how the grouping preserves reservoir
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
        """Queue raw quartet columns for the history; fold the queue
        once it holds ``_FOLD_ROWS`` rows.

        The columns are copied: callers may hand in views of buffers
        they release or reuse (the sharded parent's shared memory).
        """
        if len(mean_rtt_ms) == 0:
            return
        self._queue.append(
            (
                np.array(time),
                np.array(mobile),
                np.array(mean_rtt_ms),
                np.array(location_index),
                locations,
                np.array(middle_index),
                middles,
            )
        )
        self._queued += len(mean_rtt_ms)
        if self._queued >= _FOLD_ROWS:
            self._fold()

    def _fold(self) -> None:
        """Fold every queued segment in one :meth:`_fold_columns` pass.

        Equal to folding the segments one by one, in order: their
        concatenation keeps every ⟨key, day⟩'s values in arrival order,
        draws split into any calls leave each stream where per-segment
        draws would, and first-occurrence row order over the
        concatenation is the order per-segment folds seed new rows in.
        """
        if not self._queue:
            return
        queue, self._queue, self._queued = self._queue, [], 0
        time, mobile, rtt, loc_idx, locations, mid_idx, middles = zip(*queue)
        loc_codes, location_vocab = _merge_codes(loc_idx, locations)
        mid_codes, middle_vocab = _merge_codes(mid_idx, middles)
        self._fold_columns(
            np.concatenate(time),
            np.concatenate(mobile),
            np.concatenate(rtt),
            loc_codes,
            location_vocab,
            mid_codes,
            middle_vocab,
        )

    def _fold_columns(
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
            pair_code, day_code = np.divmod(sorted_codes[starts], day_span)
            vocab_idx, is_mobile = np.divmod(pair_code, 2)
            keys = [
                ((vocab[v], m), d)
                for v, m, d in zip(
                    vocab_idx.tolist(),
                    is_mobile.astype(bool).tolist(),
                    (day_code + day0).tolist(),
                )
            ]
            rows = [lane.rows.get(key, -1) for key in keys]
            fresh.extend(
                (int(order[starts[group]]), lane_no, group, keys[group])
                for group, row in enumerate(rows)
                if row < 0
            )
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
        self._fold()
        return ExpectedRTTTable(
            cloud=self._medians(self._cloud, as_of_day),
            middle=self._medians(self._middle, as_of_day),
        )

    def prune_before(self, day: int) -> None:
        """Discard per-day reservoirs older than ``day``."""
        self._fold()
        for lane in (self._cloud, self._middle):
            kept = {key: row for key, row in lane.rows.items() if key[1] >= day}
            if len(kept) < len(lane.rows):
                lane.reset(kept, *lane.take(list(kept.values())))

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
        self._fold()
        meta: dict = {"history_days": self.history_days, "seed": self._seed}
        arrays: dict[str, np.ndarray] = {}
        for name, lane in (("cloud", self._cloud), ("middle", self._middle)):
            lengths = lane.lengths()
            meta[f"{name}_keys"] = [
                [key if isinstance(key, str) else list(key), bool(mobile), int(day)]
                for (key, mobile), day in lane.rows
            ]
            meta[f"{name}_seen"] = lane.seen[: len(lengths)].tolist()
            meta[f"{name}_rng"] = lane.rng_states()
            arrays[f"{name}_values"] = lane.values[: len(lengths)][_live(lengths)]
            arrays[f"{name}_lengths"] = lengths
        return meta, arrays

    def restore_arrays(self, meta: dict, arrays: dict) -> None:
        """Inverse of :meth:`state_arrays`; replaces all current state,
        queued observations included.

        A payload that contradicts itself raises ``ValueError`` naming
        the lane or field, and leaves the learner as it was.
        """
        restored = [
            (lane, _lane_state(name, meta, arrays))
            for name, lane in (("cloud", self._cloud), ("middle", self._middle))
        ]
        history_days = int(meta["history_days"])
        if history_days < 1:
            raise ValueError(f"history_days must be >= 1, not {history_days}")
        seed = int(meta["seed"])
        held = sum(len(state[0]) for _, state in restored)
        if seed < held:
            # The counter has issued a seed to every reservoir held.
            raise ValueError(f"seed {seed} is below the {held} reservoirs held")
        self.history_days = history_days
        self._seed = seed
        self._queue, self._queued = [], 0
        for lane, state in restored:
            lane.reset(*state)

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
