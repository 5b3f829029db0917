"""The per-bucket summary every driver hands to the fold kernel.

:meth:`BlameItPipeline.fold_bucket <repro.core.pipeline.BlameItPipeline.fold_bucket>`
takes one :class:`BucketSummary` per bucket, whoever computed it: the
sequential ``step`` (inline, from a generated or an external batch) or a
shard worker (:mod:`repro.perf.sharded`, shipped over
:mod:`repro.perf.transport`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.blame import BlameResultBatch
from repro.core.quartet import QuartetBatch
from repro.net.bgp import Timestamp


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
            flush (``deferred_batch`` then carries the batch): always in
            the sequential driver, and in a shard worker when the
            bucket's window flushes after a day-boundary table refresh.
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
        learn: Post-sanitize learner columns ``(time, mobile,
            mean_rtt_ms, location_index, middle_index)`` when the fold
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
    learn: tuple[np.ndarray, ...] | None = None
    deferred_batch: QuartetBatch | None = None

    @property
    def batch(self) -> QuartetBatch:
        """The batch whose vocabularies decode ``pair_codes``."""
        return self.blames.batch if self.blames is not None else self.deferred_batch


def summarize_bucket(
    time: Timestamp,
    batch: QuartetBatch,
    blames: BlameResultBatch | None,
    seen_pairs: set[int],
    want_learn: bool,
) -> BucketSummary:
    """Compress one ingested bucket into its :class:`BucketSummary`.

    Args:
        time: Bucket index.
        batch: The bucket's sanitized quartets.
        blames: Its passive verdicts, or None to defer them to the
            window flush (the summary then carries ``batch`` itself).
        seen_pairs: Pair codes already summarized under the same
            vocabularies; updated in place. Purely an optimization —
            pass an empty set when codes are not comparable with any
            earlier batch's (external batches).
        want_learn: Whether the fold learns online from this bucket.
    """
    codes = batch.pair_codes()
    unique, first_idx, inverse = np.unique(
        codes, return_index=True, return_inverse=True
    )
    order = np.argsort(first_idx, kind="stable")
    pair_codes = unique[order]
    pair_users = np.bincount(inverse, weights=batch.users).astype(np.int64)[order]
    new_mask = np.fromiter(
        (code not in seen_pairs for code in pair_codes.tolist()),
        dtype=bool,
        count=len(pair_codes),
    )
    seen_pairs.update(pair_codes[new_mask].tolist())
    learn = None
    if want_learn:
        learn = (
            batch.time,
            batch.mobile,
            batch.mean_rtt_ms,
            batch.location_index,
            batch.middle_index,
        )
    return BucketSummary(
        time=time,
        n_quartets=len(batch),
        blames=blames,
        pair_codes=pair_codes,
        pair_users=pair_users,
        new_mask=new_mask,
        new_prefixes=batch.prefix24[first_idx[order]],
        learn=learn,
        deferred_batch=batch if blames is None else None,
    )
