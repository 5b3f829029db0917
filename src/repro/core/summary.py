"""The span kernel's output, and the per-bucket views the fold takes.

The span kernel (:func:`repro.core.pipeline.summarize_span`) returns one
:class:`SpanSummary` per span of buckets, whoever runs it: the
sequential ``step`` or a shard worker (:mod:`repro.perf.sharded`, which
ships it over :mod:`repro.perf.transport`). Its columns are span-wide;
cuts split them per bucket. :meth:`SpanSummary.buckets` cuts the
per-bucket :class:`BucketSummary` views that
:meth:`BlameItPipeline.fold_bucket
<repro.core.pipeline.BlameItPipeline.fold_bucket>` takes, where they are
folded. The fold's per-span pre-pass hands ``buckets`` the span's
decoded pair keys and its bad rows grouped per tracker key
(:func:`group_bad_rows`), so the trackers fold keys, not rows.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.core.blame import BLAME_BY_CODE, Blame, BlameResultBatch
from repro.core.quartet import QuartetBatch
from repro.net.asn import ASPath
from repro.net.bgp import Timestamp

#: Decision-chain codes (:data:`~repro.core.blame.BLAME_BY_CODE`) of the
#: categories a tracker follows.
_CLOUD, _MIDDLE, _CLIENT = 1, 3, 5

#: Decodes pair codes against a batch's vocabularies (the pipeline's
#: cached :meth:`~repro.core.pipeline.BlameItPipeline._pair_keys`).
PairKeys = Callable[[QuartetBatch, list[int]], list[tuple[str, ASPath]]]


class LearnColumns(NamedTuple):
    """Post-sanitize learner input: the columns
    :meth:`~repro.core.thresholds.ExpectedRTTLearner.observe_batch`
    reads from a :class:`QuartetBatch`, with their vocabularies."""

    time: np.ndarray
    mobile: np.ndarray
    mean_rtt_ms: np.ndarray
    location_index: np.ndarray
    locations: tuple
    middle_index: np.ndarray
    middles: tuple


class KeyGroups(NamedTuple):
    """One bucket's bad rows grouped by a keyed tracker's key: the
    location for cloud blames, the client AS for client blames.

    Attributes:
        blamed: One entry per key with rows of the tracker's category,
            in first-occurrence row order: ``(key, rows, users, minimum
            /24, location of the first row with that /24)``.
        votes: Bad rows of any category per key.
    """

    blamed: list[tuple[str | int, int, int, int, str]]
    votes: dict[str | int, int]


class BadGroups(NamedTuple):
    """One bucket's bad rows, grouped per tracker key.

    What the trackers and the window tally fold instead of per-row
    records: every list is in first-occurrence row order, which is the
    order issues are created and counters gain keys in.

    Attributes:
        time: The bucket.
        rows: Its bad rows.
        blames: ``(category, rows)`` per blame category.
        middle: ``(⟨location, middle⟩ key, users, /24s)`` per middle-
            blamed pair; the /24 list keeps duplicates.
        cloud, client: The keyed trackers' groups.
    """

    time: Timestamp
    rows: int
    blames: list[tuple[Blame, int]]
    middle: list[tuple[tuple[str, ASPath], int, list[int]]]
    cloud: KeyGroups
    client: KeyGroups


def group_bad_rows(
    blames: BlameResultBatch, cuts: Sequence[int], pair_keys: PairKeys
) -> list[BadGroups | None]:
    """Group consecutive buckets' bad rows per tracker key.

    One pass over the rows as lists. A NumPy grouping costs a few dozen
    calls per span: three times this pass on the daemon's spans of one
    bucket and a handful of bad rows, half of it on dense spans.

    Args:
        blames: The buckets' bad rows, bucket after bucket.
        cuts: Row offsets, one more than the buckets: bucket ``i`` is
            rows ``cuts[i]:cuts[i + 1]``.
        pair_keys: Decodes the middle groups' pair codes.

    Returns:
        Per bucket its groups, or None when it has no bad row.
    """
    if not len(blames):
        return [None] * (len(cuts) - 1)
    batch = blames.batch
    locations = batch.locations
    times = batch.time.tolist()
    code_column = blames.code.tolist()
    location_column = batch.location_index.tolist()
    asn_column = batch.client_asn.tolist()
    columns = (
        code_column,
        batch.pair_codes().tolist(),
        location_column,
        asn_column,
        batch.users.tolist(),
        batch.prefix24.tolist(),
    )
    grouped: list[BadGroups | None] = []
    for lo, hi in zip(cuts, cuts[1:]):
        if lo == hi:
            grouped.append(None)
            continue
        # Counting runs at C level and keeps first-occurrence order.
        by_code = Counter(code_column[lo:hi])
        at_location = Counter(location_column[lo:hi])
        in_as = Counter(asn_column[lo:hi])
        middle: dict[int, list] = {}
        cloud: dict[int, list] = {}
        client: dict[int, list] = {}
        for code, pair, location, asn, n_users, prefix in zip(
            *(column[lo:hi] for column in columns)
        ):
            if code == _MIDDLE:
                group = middle.get(pair)
                if group is None:
                    middle[pair] = [n_users, [prefix]]
                else:
                    group[0] += n_users
                    group[1].append(prefix)
            elif code == _CLOUD or code == _CLIENT:
                groups, key = (cloud, location) if code == _CLOUD else (client, asn)
                group = groups.get(key)
                if group is None:
                    groups[key] = [1, n_users, prefix, location]
                else:
                    group[0] += 1
                    group[1] += n_users
                    # Strictly smaller: a tie keeps the first row's location.
                    if prefix < group[2]:
                        group[2] = prefix
                        group[3] = location
        # Codes 0 and 2 are both Insufficient; the category takes the
        # place of whichever came first.
        by_blame: dict[Blame, int] = {}
        for code, n in by_code.items():
            blame = BLAME_BY_CODE[code]
            by_blame[blame] = by_blame.get(blame, 0) + n
        grouped.append(
            BadGroups(
                time=times[lo],
                rows=hi - lo,
                blames=list(by_blame.items()),
                middle=[
                    (key, users, prefixes)
                    for key, (users, prefixes) in zip(
                        pair_keys(batch, list(middle)), middle.values()
                    )
                ],
                cloud=KeyGroups(
                    [
                        (locations[key], n, users, prefix, locations[location])
                        for key, (n, users, prefix, location) in cloud.items()
                    ],
                    {locations[key]: n for key, n in at_location.items()},
                ),
                client=KeyGroups(
                    [
                        (key, n, users, prefix, locations[location])
                        for key, (n, users, prefix, location) in client.items()
                    ],
                    in_as,
                ),
            )
        )
    return grouped


@dataclass(slots=True)
class BucketSummary:
    """Everything the fold kernel needs from one ingested bucket.

    Per-path user counts and new probe targets travel as composite-code
    arrays. Pair codes index the vocabularies of the span's batch, so
    they decode correctly whether those vocabularies are a generator's
    shared ones or an external batch's local ones.

    A view: every array is a slice of its :class:`SpanSummary`'s
    columns. Over the shared-memory transport those are zero-copy views
    into the shard's segment; the fold's consumers all materialize what
    they keep (``.tolist()`` products, grouped bad rows) before the
    segment is released.

    Attributes:
        time: Bucket index.
        n_quartets: Post-sanitize quartet count (pre sample-gate).
        pair_codes: Unique ⟨location, middle⟩ composite codes, in
            first-occurrence row order — the order the fold observes
            client counts and (crucially, for engine-RNG parity) seeds
            new targets.
        pair_users: Active-user sums aligned with ``pair_codes``.
        new_mask: Pairs the summarizer had not seen before this bucket,
            aligned with ``pair_codes``; the fold offers only these to
            ``register_target`` (which re-checks novelty itself).
        new_prefixes: Each pair's first-row /24 this bucket, aligned with
            ``pair_codes`` (the fold reads it where ``new_mask`` is set).
        learn: The bucket's post-sanitize learner columns when the fold
            learns online (no ``fixed_table``), else None.
        deferred_batch: The full sanitized batch when the bucket's blame
            assignment is deferred to the window flush: when its window
            flushes after a day-boundary table refresh, and for buckets
            summarized with no table (warm-up, a restored window). None
            when the span kernel blamed it.
        keys: ``pair_codes`` decoded to ⟨location, middle⟩ keys, a slice
            of the span's, which the fold's pre-pass
            (:meth:`SpanSummary.buckets`) decodes in one call.
        bad: The bucket's bad rows grouped per tracker key by that
            pre-pass; None when it has none or is deferred.
    """

    time: Timestamp
    n_quartets: int
    pair_codes: np.ndarray
    pair_users: np.ndarray
    new_mask: np.ndarray
    new_prefixes: np.ndarray
    keys: list[tuple[str, ASPath]]
    learn: LearnColumns | None = None
    deferred_batch: QuartetBatch | None = None
    bad: BadGroups | None = None


@dataclass(slots=True)
class SpanSummary:
    """What the span kernel returns for a span of buckets: span-wide
    columns, and the cuts that split them per bucket.

    Bucket ``i`` is rows ``row_cuts[i]:row_cuts[i + 1]``, pairs
    ``pair_cuts[i]:pair_cuts[i + 1]`` and bad rows
    ``bad_cuts[i]:bad_cuts[i + 1]`` (empty for a deferred bucket). The
    fold takes the per-bucket views :meth:`buckets` cuts.

    Attributes:
        times: The span's bucket indices, ascending.
        row_cuts: Each bucket's row offset in the span's sanitized rows,
            one more than ``times``: they cut ``rows``, and their
            differences are the buckets' quartet counts.
        rows: The span's sanitized rows, as far as the fold needs them:
            the whole batch when a bucket is deferred (its rows travel
            instead of blames), else the learner's columns when the
            fold learns online, else None. Learner views and deferred
            batches are both cut from this one object, so each column
            is shipped once.
        learn: Whether the fold learns online from these buckets.
        blamed: Per bucket, whether its verdicts are in ``blames``
            (False: deferred to the window flush).
        blames: The blamed buckets' bad rows and verdicts, bucket after
            bucket; None when every bucket is deferred.
        bad_cuts: Offsets into ``blames``, one more than ``times``.
        pair_codes, pair_users, new_mask, new_prefixes: Every bucket's
            :class:`BucketSummary` pair columns, bucket after bucket.
        pair_cuts: Offsets into the pair columns, one more than
            ``times``.
    """

    times: list[Timestamp]
    row_cuts: list[int]
    rows: QuartetBatch | LearnColumns | None
    learn: bool
    blamed: list[bool]
    blames: BlameResultBatch | None
    bad_cuts: list[int]
    pair_codes: np.ndarray
    pair_users: np.ndarray
    new_mask: np.ndarray
    new_prefixes: np.ndarray
    pair_cuts: list[int]

    def buckets(self, pair_keys: PairKeys) -> list[BucketSummary]:
        """One :class:`BucketSummary` view per bucket, in time order.

        This is the fold's pre-pass: the work of the span's fold that no
        fold state changes, done once for the whole span. It decodes the
        span's pair keys with ``pair_keys`` in one call and groups its
        bad rows per tracker key (:func:`group_bad_rows`), and each view
        carries its bucket's share of both.
        """
        rows, cuts = self.rows, self.row_cuts
        vocabularies = self.blames.batch if self.blames is not None else rows
        keys = pair_keys(vocabularies, self.pair_codes.tolist())
        bad = None
        if self.blames is not None:
            bad = group_bad_rows(self.blames, self.bad_cuts, pair_keys)
        summaries = []
        for i, time in enumerate(self.times):
            lo, hi = cuts[i], cuts[i + 1]
            a, b = self.pair_cuts[i], self.pair_cuts[i + 1]
            learn = deferred = None
            if self.learn:
                learn = LearnColumns(
                    rows.time[lo:hi],
                    rows.mobile[lo:hi],
                    rows.mean_rtt_ms[lo:hi],
                    rows.location_index[lo:hi],
                    rows.locations,
                    rows.middle_index[lo:hi],
                    rows.middles,
                )
            if not self.blamed[i]:
                deferred = rows.take(slice(lo, hi))
            summaries.append(
                BucketSummary(
                    time=time,
                    n_quartets=hi - lo,
                    pair_codes=self.pair_codes[a:b],
                    pair_users=self.pair_users[a:b],
                    new_mask=self.new_mask[a:b],
                    new_prefixes=self.new_prefixes[a:b],
                    learn=learn,
                    deferred_batch=deferred,
                    keys=keys[a:b],
                    bad=None if bad is None else bad[i],
                )
            )
        return summaries

    def share_vocabularies(self, held: dict[tuple, tuple]) -> None:
        """Swap in ``held``'s tuple for every vocabulary equal to one it
        holds, and hold the others, in place.

        A decoded span brings fresh vocabulary tuples; sharing one
        object per vocabulary across spans keeps the fold's
        identity-keyed caches hitting (pair-key decoding, the learner's
        shared-vocabulary fold, the localizer's lookups).
        """
        batches = [self.blames.batch] if self.blames is not None else []
        if isinstance(self.rows, QuartetBatch):
            batches.append(self.rows)
        elif self.rows is not None:
            self.rows = self.rows._replace(
                locations=held.setdefault(self.rows.locations, self.rows.locations),
                middles=held.setdefault(self.rows.middles, self.rows.middles),
            )
        for batch in batches:
            batch.locations = held.setdefault(batch.locations, batch.locations)
            batch.middles = held.setdefault(batch.middles, batch.middles)
            batch.regions = held.setdefault(batch.regions, batch.regions)


def summarize_buckets(
    times: Sequence[Timestamp],
    batch: QuartetBatch,
    cuts: Sequence[int],
    blamed: Sequence[bool],
    blames: BlameResultBatch | None,
    seen_pairs: set[int],
    want_learn: bool,
) -> SpanSummary:
    """Compress ingested buckets into one :class:`SpanSummary`.

    Args:
        times: Bucket indices.
        batch: The buckets' sanitized quartets, bucket after bucket:
            bucket ``i`` is rows ``cuts[i]:cuts[i + 1]``.
        cuts: Row offsets, one more than ``times``.
        blamed: Per bucket, whether ``blames`` holds its verdicts; a
            bucket that is not is deferred to the window flush (the
            summary then carries its rows).
        blames: The blamed buckets' passive verdicts, bucket after
            bucket; None when no bucket is blamed.
        seen_pairs: Pair codes already summarized under the same
            vocabularies; updated in place, so a pair is new in the
            first of these buckets it appears in. Purely an optimization
            — pass an empty set when codes are not comparable with any
            earlier batch's (external batches).
        want_learn: Whether the fold learns online from these buckets.
    """
    codes = batch.pair_codes()
    # One grouping over the span: key ⟨bucket, pair⟩, pairs of a bucket
    # in first-occurrence row order.
    key = (batch.time - times[0]) * (int(codes.max(initial=0)) + 1) + codes
    _, first_idx, inverse = np.unique(key, return_index=True, return_inverse=True)
    order = np.argsort(first_idx, kind="stable")
    first = first_idx[order]
    pair_codes = codes[first]
    pair_users = np.bincount(inverse, weights=batch.users).astype(np.int64)[order]
    pair_cuts = np.searchsorted(batch.time[first], times).tolist() + [len(first)]
    # New: not seen before, so in the first bucket of the span it
    # appears in (``add`` returns None: the ``and`` records the pair).
    new_mask = np.fromiter(
        (
            code not in seen_pairs and not seen_pairs.add(code)
            for code in pair_codes.tolist()
        ),
        dtype=bool,
        count=len(pair_codes),
    )
    rows = None
    if not all(blamed):
        rows = batch
    elif want_learn:
        rows = LearnColumns(
            batch.time,
            batch.mobile,
            batch.mean_rtt_ms,
            batch.location_index,
            batch.locations,
            batch.middle_index,
            batch.middles,
        )
    if blames is None:
        bad_cuts = [0] * (len(times) + 1)
    else:
        bad_cuts = np.searchsorted(blames.batch.time, times).tolist() + [len(blames)]
    return SpanSummary(
        times=list(times),
        row_cuts=list(cuts),
        rows=rows,
        learn=want_learn,
        blamed=list(blamed),
        blames=blames,
        bad_cuts=bad_cuts,
        pair_codes=pair_codes,
        pair_users=pair_users,
        new_mask=new_mask,
        new_prefixes=batch.prefix24[first],
        pair_cuts=pair_cuts,
    )
