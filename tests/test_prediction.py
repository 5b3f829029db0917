"""Tests for repro.core.prediction: duration and client-count predictors."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.prediction import ClientCountPredictor, DurationPredictor


def _observe_all(predictor: DurationPredictor, durations, key=None) -> None:
    for duration in durations:
        predictor.observe(duration, key)


class TestDurationPredictor:
    def test_prior_on_cold_start(self):
        predictor = DurationPredictor(prior_mean_buckets=4.0)
        assert predictor.expected_remaining(0) == pytest.approx(4.0)

    def test_mean_residual_life(self):
        predictor = DurationPredictor()
        _observe_all(predictor, [2, 4, 10])
        # Given elapsed 3: survivors {4, 10}; E[D|D>3] = 7 → remaining 4.
        assert predictor.expected_remaining(3) == pytest.approx(4.0)

    def test_long_tail_raises_expectation(self):
        """The §5.3 property: having lasted longer predicts lasting longer
        under a long-tailed distribution."""
        predictor = DurationPredictor()
        durations = [1] * 60 + [3] * 20 + [12] * 12 + [100] * 8
        _observe_all(predictor, durations)
        short = predictor.expected_remaining(0)
        longer = predictor.expected_remaining(10)
        assert longer > short

    def test_per_key_history_preferred(self):
        predictor = DurationPredictor(min_key_history=2)
        _observe_all(predictor, [1, 1, 1, 1, 1])  # global: fleeting
        _observe_all(predictor, [50, 60], key="slow-path")
        slow = predictor.expected_remaining(0, key="slow-path")
        unseen = predictor.expected_remaining(0, key="unseen")
        assert slow > 40  # per-key history wins
        assert unseen < slow  # unseen keys see the (diluted) global pool

    def test_sparse_key_falls_back_to_global(self):
        predictor = DurationPredictor(min_key_history=5)
        _observe_all(predictor, [1, 1, 1, 1])
        predictor.observe(100, key="rare")
        assert predictor.expected_remaining(0, key="rare") < 50

    def test_validation(self):
        predictor = DurationPredictor()
        with pytest.raises(ValueError):
            predictor.observe(0)
        with pytest.raises(ValueError):
            predictor.expected_remaining(-1)
        with pytest.raises(ValueError):
            DurationPredictor(min_key_history=0)
        with pytest.raises(ValueError):
            DurationPredictor(prior_mean_buckets=0)

    @given(
        durations=st.lists(st.integers(min_value=1, max_value=200), min_size=1),
        elapsed=st.integers(min_value=0, max_value=100),
    )
    def test_remaining_nonnegative(self, durations, elapsed):
        predictor = DurationPredictor()
        _observe_all(predictor, durations)
        assert predictor.expected_remaining(elapsed) > 0

    @given(
        durations=st.lists(st.integers(min_value=1, max_value=200), min_size=1),
        elapsed=st.integers(min_value=0, max_value=250),
    )
    def test_fast_path_matches_list_scans(self, durations, elapsed):
        """The sorted-array/prefix-sum query equals the O(n) reference.

        The reference below is the pre-optimization list-scan
        implementation, inlined; the int64 suffix sums are exact, so the
        resulting floats must match bit-for-bit, not approximately.
        """
        predictor = DurationPredictor()
        _observe_all(predictor, durations)

        survivors = [d for d in durations if d > elapsed]
        if survivors:
            expected_remaining = sum(survivors) / len(survivors) - elapsed
        else:
            expected_remaining = predictor.prior_mean_buckets
        assert predictor.expected_remaining(elapsed) == expected_remaining

    def test_interleaved_queries_and_observes(self):
        """The per-pool stats cache must refresh as pools grow."""
        predictor = DurationPredictor()
        _observe_all(predictor, [5, 5, 5])
        assert predictor.expected_remaining(0) == pytest.approx(5.0)
        _observe_all(predictor, [11, 11, 11])
        assert predictor.expected_remaining(0) == pytest.approx(8.0)
        _observe_all(predictor, [9] * 10, key="k")
        assert predictor.expected_remaining(0, key="k") == pytest.approx(9.0)


class TestClientCountPredictor:
    def test_same_window_previous_days(self):
        predictor = ClientCountPredictor(history_days=3)
        time = 5 * 288 + 100
        predictor.observe("path", time - 288, 90)
        predictor.observe("path", time - 2 * 288, 110)
        predictor.observe("path", time - 3 * 288, 100)
        assert predictor.predict("path", time) == pytest.approx(100.0)

    def test_window_specificity(self):
        """Counts from other windows of the day are ignored."""
        predictor = ClientCountPredictor()
        time = 5 * 288 + 100
        predictor.observe("path", time - 288 + 7, 1_000_000)
        predictor.observe("path", time - 288, 50)
        assert predictor.predict("path", time) == pytest.approx(50.0)

    def test_falls_back_to_recent(self):
        predictor = ClientCountPredictor()
        predictor.observe("path", 10, 42)
        assert predictor.predict("path", 500) == pytest.approx(42.0)

    def test_unseen_key_zero(self):
        assert ClientCountPredictor().predict("nope", 100) == 0.0

    def test_history_days_limit(self):
        predictor = ClientCountPredictor(history_days=1)
        time = 5 * 288
        predictor.observe("path", time - 288, 10)
        predictor.observe("path", time - 2 * 288, 1000)  # beyond window
        assert predictor.predict("path", time) == pytest.approx(10.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ClientCountPredictor(history_days=0)
        with pytest.raises(ValueError):
            ClientCountPredictor().observe("k", 0, -1)

    def test_observe_bucket_matches_scalar(self):
        """Bulk per-bucket observes leave identical predictable state."""
        scalar = ClientCountPredictor(history_days=2)
        bulk = ClientCountPredictor(history_days=2)
        keys = [f"path-{i}" for i in range(5)]
        for time in range(0, 6 * 288, 288 // 4):
            counts = [(time + i * 7) % 50 for i in range(len(keys))]
            for key, count in zip(keys, counts):
                scalar.observe(key, time, count)
            bulk.observe_bucket(list(keys), time, counts)
        for key in keys + ["never-seen"]:
            for query in range(5 * 288, 6 * 288, 53):
                assert bulk.predict(key, query) == scalar.predict(key, query)

    def test_observe_bucket_validation(self):
        predictor = ClientCountPredictor()
        with pytest.raises(ValueError):
            predictor.observe_bucket(["a", "b"], 0, [3, -1])
        # Empty bucket is a no-op: it must not advance the eviction day.
        predictor.observe("k", 0, 7)
        predictor.observe_bucket([], 400 * 288, [])
        assert predictor.predict("k", 100) == pytest.approx(7.0)

    def test_bounded_memory(self):
        """Retained history is O(keys × history_days), not O(total days).

        The regression this pins down: counts used to accumulate for the
        whole run, so a month-scale simulation held every bucket it ever
        saw. Steady-state bucket count must not grow between day 10 and
        day 40 of continuous observation.
        """
        predictor = ClientCountPredictor(history_days=3)
        keys = ["p1", "p2"]

        def run_until(day_end, start=0):
            for time in range(start, day_end * 288, 3):
                predictor.observe_bucket(list(keys), time, [1, 2])

        run_until(10)
        buckets_at_10 = len(predictor._buckets)
        run_until(40, start=10 * 288)
        assert len(predictor._buckets) == buckets_at_10
        # history_days + 1 days retained (one day of eviction slack),
        # plus the current day being filled.
        assert len(predictor._buckets) <= (3 + 2) * 288 / 3 + 1
        # Predictions over the readable window are unaffected.
        assert predictor.predict("p2", 40 * 288 - 3) == pytest.approx(2.0)
