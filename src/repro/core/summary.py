"""The per-bucket summary every driver hands to the fold kernel.

:meth:`BlameItPipeline.fold_bucket <repro.core.pipeline.BlameItPipeline.fold_bucket>`
takes one :class:`BucketSummary` per bucket, whoever computed it: the
span kernel (:func:`repro.core.pipeline.summarize_span`) run by the
sequential ``step`` or by a shard worker (:mod:`repro.perf.sharded`,
shipped over :mod:`repro.perf.transport`).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.core.blame import BlameResultBatch
from repro.core.quartet import QuartetBatch
from repro.net.bgp import Timestamp


class LearnColumns(NamedTuple):
    """One bucket's post-sanitize learner input: the columns
    :meth:`~repro.core.thresholds.ExpectedRTTLearner.observe_batch`
    reads from a :class:`QuartetBatch`, with their vocabularies."""

    time: np.ndarray
    mobile: np.ndarray
    mean_rtt_ms: np.ndarray
    location_index: np.ndarray
    locations: tuple
    middle_index: np.ndarray
    middles: tuple


@dataclass(slots=True)
class BucketSummary:
    """Everything the fold kernel needs from one ingested bucket.

    Entirely columnar: blame results travel as a
    :class:`~repro.core.blame.BlameResultBatch` (bad rows stay NumPy
    columns until the flush materializes records for the trackers),
    per-path user counts and new probe targets as composite-code arrays.
    Pair codes index the vocabularies of the summary's own batch
    (``blames.batch`` or ``deferred_batch``), so they decode correctly
    whether those vocabularies are a generator's shared ones or an
    external batch's local ones.

    Over the shared-memory transport every array attribute is a
    zero-copy view into the shard's segment; the fold's consumers all
    materialize what they keep (``.tolist()`` products, per-row records)
    before the segment is released.

    Attributes:
        time: Bucket index.
        n_quartets: Post-sanitize quartet count (pre sample-gate).
        blames: The bucket's passive verdicts, columnar — or None when
            the bucket's blame assignment is deferred to the window
            flush (``deferred_batch`` then carries the batch): when the
            bucket's window flushes after a day-boundary table refresh,
            and for buckets summarized with no table (warm-up, a
            restored window).
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
        deferred_batch: The full sanitized batch, carried instead of
            blames for deferred buckets (see ``blames``).
    """

    time: Timestamp
    n_quartets: int
    blames: BlameResultBatch | None
    pair_codes: np.ndarray
    pair_users: np.ndarray
    new_mask: np.ndarray
    new_prefixes: np.ndarray
    learn: LearnColumns | None = None
    deferred_batch: QuartetBatch | None = None

    @property
    def batch(self) -> QuartetBatch:
        """The batch whose vocabularies decode ``pair_codes``."""
        return self.blames.batch if self.blames is not None else self.deferred_batch


def summarize_buckets(
    times: Sequence[Timestamp],
    batch: QuartetBatch,
    cuts: Sequence[int],
    blames: Sequence[BlameResultBatch | None],
    seen_pairs: set[int],
    want_learn: bool,
) -> list[BucketSummary]:
    """Compress ingested buckets into one :class:`BucketSummary` each.

    Args:
        times: Bucket indices.
        batch: The buckets' sanitized quartets, bucket after bucket:
            bucket ``i`` is rows ``cuts[i]:cuts[i + 1]``.
        cuts: Row offsets, one more than ``times``.
        blames: Each bucket's passive verdicts, or None to defer them to
            the window flush (the summary then carries the bucket's
            rows itself).
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
    new_prefixes = batch.prefix24[first]
    summaries = []
    for i, time in enumerate(times):
        lo, hi = cuts[i], cuts[i + 1]
        a, b = pair_cuts[i], pair_cuts[i + 1]
        learn = None
        if want_learn:
            learn = LearnColumns(
                batch.time[lo:hi],
                batch.mobile[lo:hi],
                batch.mean_rtt_ms[lo:hi],
                batch.location_index[lo:hi],
                batch.locations,
                batch.middle_index[lo:hi],
                batch.middles,
            )
        summaries.append(
            BucketSummary(
                time=time,
                n_quartets=hi - lo,
                blames=blames[i],
                pair_codes=pair_codes[a:b],
                pair_users=pair_users[a:b],
                new_mask=new_mask[a:b],
                new_prefixes=new_prefixes[a:b],
                learn=learn,
                deferred_batch=(
                    batch.take(slice(lo, hi)) if blames[i] is None else None
                ),
            )
        )
    return summaries
