"""Tests for repro.analysis.cdf: the ECDF."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.cdf import ECDF

_SAMPLES = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=200
)


class TestECDF:
    def test_basic_evaluation(self):
        ecdf = ECDF([1.0, 2.0, 3.0, 4.0])
        assert ecdf(0.5) == 0.0
        assert ecdf(1.0) == 0.25
        assert ecdf(2.5) == 0.5
        assert ecdf(4.0) == 1.0
        assert ecdf(100.0) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ECDF([])

    def test_stats(self):
        ecdf = ECDF([3.0, 1.0, 2.0])
        assert ecdf.n == 3

    @given(values=_SAMPLES)
    def test_monotone_between_zero_and_one(self, values):
        ecdf = ECDF(values)
        grid = sorted(set(values))
        evaluations = [ecdf(x) for x in grid]
        assert all(0.0 <= v <= 1.0 for v in evaluations)
        assert all(a <= b for a, b in zip(evaluations, evaluations[1:]))
        assert evaluations[-1] == 1.0
