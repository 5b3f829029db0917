"""Tests for repro.net.geo: distances, propagation, the metro catalogue."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net.geo import (
    FIBER_KM_PER_MS,
    PATH_STRETCH,
    Metro,
    Region,
    WORLD_METROS,
    haversine_km,
    metro_distance_km,
    metros_in_region,
    propagation_rtt_ms,
)

_LAT = st.floats(min_value=-90, max_value=90, allow_nan=False)
_LON = st.floats(min_value=-180, max_value=180, allow_nan=False)

METROS = {m.name: m for m in WORLD_METROS}


class TestHaversine:
    def test_zero_distance_same_point(self):
        assert haversine_km(47.6, -122.3, 47.6, -122.3) == pytest.approx(0.0)

    def test_known_distance_seattle_london(self):
        seattle = METROS["Seattle"]
        london = METROS["London"]
        distance = metro_distance_km(seattle, london)
        assert 7600 < distance < 7900  # great-circle ~7740 km

    def test_antipodal_is_half_circumference(self):
        distance = haversine_km(0, 0, 0, 180)
        assert distance == pytest.approx(math.pi * 6371.0, rel=1e-6)

    @given(lat1=_LAT, lon1=_LON, lat2=_LAT, lon2=_LON)
    def test_symmetry(self, lat1, lon1, lat2, lon2):
        forward = haversine_km(lat1, lon1, lat2, lon2)
        backward = haversine_km(lat2, lon2, lat1, lon1)
        assert forward == pytest.approx(backward, abs=1e-9)

    @given(lat1=_LAT, lon1=_LON, lat2=_LAT, lon2=_LON)
    def test_bounded_by_half_circumference(self, lat1, lon1, lat2, lon2):
        distance = haversine_km(lat1, lon1, lat2, lon2)
        assert 0.0 <= distance <= math.pi * 6371.0 + 1e-6


class TestPropagation:
    def test_zero_distance_zero_rtt(self):
        assert propagation_rtt_ms(0.0) == 0.0

    def test_scaling_with_distance(self):
        assert propagation_rtt_ms(2000) == pytest.approx(
            2 * 2000 * PATH_STRETCH / FIBER_KM_PER_MS
        )

    def test_custom_stretch(self):
        assert propagation_rtt_ms(1000, stretch=1.0) == pytest.approx(10.0)

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            propagation_rtt_ms(-1.0)

    def test_transatlantic_rtt_plausible(self):
        # NY <-> London should land in the 55-75 ms ballpark.
        ny = METROS["New York"]
        london = METROS["London"]
        rtt = propagation_rtt_ms(metro_distance_km(ny, london))
        assert 50 < rtt < 110


class TestCatalogue:
    def test_every_region_has_metros(self):
        for region in Region:
            assert metros_in_region(region), f"no metros for {region}"

    def test_metro_names_unique(self):
        names = [m.name for m in WORLD_METROS]
        assert len(names) == len(set(names))

    def test_metros_in_region_filter(self):
        for metro in metros_in_region(Region.BRAZIL):
            assert metro.region is Region.BRAZIL

    def test_metro_str(self):
        metro = Metro("Testville", Region.USA, 1.0, 2.0)
        assert "Testville" in str(metro)
        assert "USA" in str(metro)
