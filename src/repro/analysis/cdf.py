"""Empirical CDFs for the figure benches and the text CDF renderer."""

from __future__ import annotations

from typing import Iterable

import numpy as np


class ECDF:
    """Empirical cumulative distribution function.

    Built once from a sample; each evaluation is O(log n).
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
