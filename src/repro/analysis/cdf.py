"""Empirical distribution utilities used throughout the evaluation."""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np


class ECDF:
    """Empirical cumulative distribution function.

    Built once from a sample; evaluation, quantiles, and fixed-grid
    summaries (for rendering paper-style CDF plots as text) are O(log n).
    """

    def __init__(self, values: Iterable[float]) -> None:
        data = np.asarray(sorted(float(v) for v in values))
        if data.size == 0:
            raise ValueError("ECDF needs at least one value")
        self._values = data

    @property
    def n(self) -> int:
        """Sample size."""
        return int(self._values.size)

    def __call__(self, x: float) -> float:
        """P(X <= x)."""
        return float(np.searchsorted(self._values, x, side="right")) / self.n

    def quantile(self, q: float) -> float:
        """The q-th quantile (0 < q <= 1), inverse of the ECDF.

        Raises:
            ValueError: If q is outside (0, 1].
        """
        if not 0.0 < q <= 1.0:
            raise ValueError(f"quantile must be in (0, 1], got {q}")
        index = int(np.ceil(q * self.n)) - 1
        return float(self._values[max(0, index)])

    def summary(self, grid: Sequence[float]) -> list[tuple[float, float]]:
        """(x, F(x)) pairs over a fixed grid — a text-renderable CDF."""
        return [(float(x), self(x)) for x in grid]

    @property
    def min(self) -> float:
        """Smallest sample value."""
        return float(self._values[0])

    @property
    def max(self) -> float:
        """Largest sample value."""
        return float(self._values[-1])

    def mean(self) -> float:
        """Sample mean."""
        return float(self._values.mean())


def ks_two_sample(a: Iterable[float], b: Iterable[float]) -> float:
    """Two-sample Kolmogorov-Smirnov statistic (sup-norm of ECDF gap).

    The §2.1 sanity check: randomly split a quartet's RTT samples in two;
    a small statistic supports "one distribution". Returns the statistic
    only (no p-value); thresholding is the caller's concern.

    Raises:
        ValueError: If either sample is empty.
    """
    sample_a = np.asarray(sorted(float(v) for v in a))
    sample_b = np.asarray(sorted(float(v) for v in b))
    if sample_a.size == 0 or sample_b.size == 0:
        raise ValueError("both samples must be non-empty")
    grid = np.concatenate([sample_a, sample_b])
    cdf_a = np.searchsorted(sample_a, grid, side="right") / sample_a.size
    cdf_b = np.searchsorted(sample_b, grid, side="right") / sample_b.size
    return float(np.abs(cdf_a - cdf_b).max())
