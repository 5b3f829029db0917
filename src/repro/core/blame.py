"""Blame categories and results of Algorithm 1."""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.core.quartet import Quartet, QuartetBatch


class Blame(enum.Enum):
    """Output categories of the passive phase (Algorithm 1)."""

    CLOUD = "cloud"
    MIDDLE = "middle"
    CLIENT = "client"
    AMBIGUOUS = "ambiguous"
    INSUFFICIENT = "insufficient"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True, slots=True)
class BlameResult:
    """Coarse blame assigned to one bad quartet.

    Attributes:
        quartet: The bad quartet being explained.
        blame: Assigned category.
        cloud_bad_fraction: Fraction of the location's quartets above its
            expected RTT (diagnostic detail for tickets).
        middle_bad_fraction: Same for the quartet's BGP path, when it was
            evaluated (None when assignment stopped at the cloud step).
    """

    quartet: Quartet
    blame: Blame
    cloud_bad_fraction: float | None = None
    middle_bad_fraction: float | None = None


#: Decision-chain codes used by the vectorized passive phase: 0/2 are the
#: insufficient exits (before/after the middle step), 1 cloud, 3 middle,
#: 4 ambiguous, 5 client. Codes ≤ 1 stop before the middle aggregate is
#: consulted, so their results never carry a middle fraction.
BLAME_BY_CODE: tuple[Blame, ...] = (
    Blame.INSUFFICIENT,
    Blame.CLOUD,
    Blame.INSUFFICIENT,
    Blame.MIDDLE,
    Blame.AMBIGUOUS,
    Blame.CLIENT,
)


@dataclass(slots=True)
class BlameResultBatch:
    """Columnar blame results for the bad quartets of one bucket (or of
    a span of buckets, as one ``assign_batch`` call returns them).

    The array twin of ``list[BlameResult]``: row ``i`` of every column
    describes the same bad quartet, in the order the scalar chain would
    have emitted it. This is what the vectorized passive phase produces
    and what sharded workers ship to the fold process, which groups its
    rows per tracker key (:func:`repro.core.summary.group_bad_rows`);
    :meth:`to_results` materializes per-row :class:`BlameResult`
    records for the reference and the analyses that read them.

    Attributes:
        batch: The bad quartets (a row-subset of the bucket's batch).
        code: Decision-chain code per row (indexes :data:`BLAME_BY_CODE`).
        cloud_fraction: Cloud bad-fraction per row; NaN encodes None.
        middle_fraction: Middle bad-fraction per row; NaN encodes None
            (always NaN for codes ≤ 1, which stop before the middle step).
    """

    batch: QuartetBatch
    code: np.ndarray
    cloud_fraction: np.ndarray
    middle_fraction: np.ndarray

    def __len__(self) -> int:
        return len(self.code)

    def to_results(self) -> list[BlameResult]:
        """Materialize per-row :class:`BlameResult` records (same order)."""
        batch = self.batch
        codes = self.code.tolist()
        clouds = self.cloud_fraction.tolist()
        middles = self.middle_fraction.tolist()
        results: list[BlameResult] = []
        for i, c in enumerate(codes):
            cloud = clouds[i]
            middle = middles[i]
            results.append(
                BlameResult(
                    batch.row(i),
                    BLAME_BY_CODE[c],
                    None if cloud != cloud else cloud,  # NaN → None
                    None if middle != middle else middle,
                )
            )
        return results

    @classmethod
    def empty(cls, batch: QuartetBatch) -> "BlameResultBatch":
        """A zero-row result batch sharing ``batch``'s vocabularies."""
        none = np.empty(0, dtype=np.int64)
        return cls(
            batch=batch.take(none),
            code=none,
            cloud_fraction=np.empty(0, dtype=np.float64),
            middle_fraction=np.empty(0, dtype=np.float64),
        )
