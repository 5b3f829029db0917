"""Tests for repro.sim.workload: diurnal/weekly activity shapes."""

import numpy as np
import pytest

from repro.net.geo import WORLD_METROS
from repro.sim.workload import (
    ActivityModel,
    BUCKETS_PER_DAY,
    WorkloadParams,
    day_index,
    diurnal_factor,
    is_weekend,
    local_hour,
    weekend_factor,
)

METROS = {m.name: m for m in WORLD_METROS}


class TestLocalTime:
    def test_utc_metro(self):
        greenwich_like = METROS["London"]  # lon ≈ 0 (slightly west)
        midnight = local_hour(greenwich_like, 0)
        assert min(midnight, 24.0 - midnight) < 0.1  # ~00:00, may wrap
        assert local_hour(greenwich_like, 144) == pytest.approx(12.0, abs=0.1)

    def test_offset_east(self):
        tokyo = METROS["Tokyo"]  # lon ≈ 139.65 → +9.3h
        assert local_hour(tokyo, 0) == pytest.approx(139.65 / 15, abs=0.01)

    def test_wraps_24(self):
        tokyo = METROS["Tokyo"]
        for bucket in range(0, BUCKETS_PER_DAY, 7):
            assert 0.0 <= local_hour(tokyo, bucket) < 24.0

    def test_day_index_and_weekend(self):
        assert day_index(0) == 0
        assert day_index(BUCKETS_PER_DAY) == 1
        assert not is_weekend(0)  # Monday
        assert is_weekend(5 * BUCKETS_PER_DAY)  # Saturday
        assert is_weekend(6 * BUCKETS_PER_DAY)  # Sunday
        assert not is_weekend(7 * BUCKETS_PER_DAY)  # next Monday


class TestDiurnalShape:
    def test_enterprise_peaks_midday(self):
        assert diurnal_factor(13.0, enterprise=True) > diurnal_factor(
            21.0, enterprise=True
        )
        assert diurnal_factor(13.0, enterprise=True) > diurnal_factor(
            3.0, enterprise=True
        )

    def test_home_peaks_evening(self):
        assert diurnal_factor(21.0, enterprise=False) > diurnal_factor(
            13.0, enterprise=False
        )
        assert diurnal_factor(21.0, enterprise=False) > diurnal_factor(
            3.0, enterprise=False
        )

    def test_always_positive(self):
        for hour in np.linspace(0, 24, 49):
            assert diurnal_factor(float(hour), True) > 0
            assert diurnal_factor(float(hour), False) > 0

    def test_weekend_factor(self):
        saturday = 5 * BUCKETS_PER_DAY
        assert weekend_factor(saturday, enterprise=True) < 1.0
        assert weekend_factor(saturday, enterprise=False) > 1.0
        assert weekend_factor(0, enterprise=True) == 1.0


class TestActivityModel:
    def test_expected_scales_with_users(self):
        model = ActivityModel()
        metro = METROS["Chicago"]
        small = model.expected_connections(10, metro, False, 150)
        large = model.expected_connections(100, metro, False, 150)
        assert large == pytest.approx(10 * small)

    def test_evening_weights_shape(self):
        model = ActivityModel()
        metro = METROS["Madrid"]
        weights = model.evening_weights(metro, enterprise=False)
        assert weights.shape == (BUCKETS_PER_DAY,)
        assert (weights > 0).all()
        # The peak bucket must fall in the local evening.
        peak_hour = local_hour(metro, int(weights.argmax()))
        assert 19.0 <= peak_hour <= 23.0

    def test_params_validation(self):
        with pytest.raises(ValueError):
            WorkloadParams(connections_per_user=0.0)
