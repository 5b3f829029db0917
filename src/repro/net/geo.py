"""Geography: regions, metros, and speed-of-light propagation delay.

The paper sets region-specific RTT badness thresholds and reports results
split by cloud region (Figures 2 and 9). This module provides the region
taxonomy, a catalogue of world metros with coordinates, and the physics
used by the latency model: great-circle distance and fiber propagation RTT.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

#: Speed of light in fiber, km/ms (approximately 2/3 of c).
FIBER_KM_PER_MS = 200.0

#: Real fiber paths are not great circles; they detour through conduits and
#: landing stations. Empirical studies put the inflation around 1.5-2x.
PATH_STRETCH = 1.7


class Region(enum.Enum):
    """Cloud regions used for badness thresholds and reporting.

    These mirror the regions the paper reports on in Figures 2 and 9
    (USA, Europe, India, China, Brazil, Australia, East Asia).
    """

    USA = "USA"
    EUROPE = "Europe"
    INDIA = "India"
    CHINA = "China"
    BRAZIL = "Brazil"
    AUSTRALIA = "Australia"
    EAST_ASIA = "East Asia"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True, slots=True)
class Metro:
    """A metropolitan area where clients and/or cloud edges are located.

    Attributes:
        name: Human-readable metro name (unique within a scenario).
        region: The :class:`Region` the metro belongs to.
        lat: Latitude in degrees.
        lon: Longitude in degrees.
    """

    name: str
    region: Region
    lat: float
    lon: float

    def __str__(self) -> str:
        return f"{self.name} ({self.region})"


def haversine_km(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance between two points, in kilometres."""
    radius_km = 6371.0
    phi1, phi2 = math.radians(lat1), math.radians(lat2)
    dphi = math.radians(lat2 - lat1)
    dlam = math.radians(lon2 - lon1)
    a = math.sin(dphi / 2) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2) ** 2
    return 2 * radius_km * math.asin(min(1.0, math.sqrt(a)))


def metro_distance_km(a: Metro, b: Metro) -> float:
    """Great-circle distance between two metros, in kilometres."""
    return haversine_km(a.lat, a.lon, b.lat, b.lon)


def propagation_rtt_ms(distance_km: float, stretch: float = PATH_STRETCH) -> float:
    """Round-trip fiber propagation delay for a geographic distance.

    Args:
        distance_km: One-way great-circle distance.
        stretch: Multiplier accounting for fiber paths deviating from the
            great circle (default :data:`PATH_STRETCH`).

    Returns:
        RTT in milliseconds contributed by propagation alone.
    """
    if distance_km < 0:
        raise ValueError(f"distance must be non-negative, got {distance_km}")
    return 2.0 * distance_km * stretch / FIBER_KM_PER_MS


#: Catalogue of world metros used by the default scenarios. Coordinates are
#: approximate city centres; precision beyond ~10km is irrelevant at WAN
#: latency scales.
WORLD_METROS: tuple[Metro, ...] = (
    # USA
    Metro("Seattle", Region.USA, 47.61, -122.33),
    Metro("San Jose", Region.USA, 37.34, -121.89),
    Metro("Los Angeles", Region.USA, 34.05, -118.24),
    Metro("Dallas", Region.USA, 32.78, -96.80),
    Metro("Chicago", Region.USA, 41.88, -87.63),
    Metro("Ashburn", Region.USA, 39.04, -77.49),
    Metro("New York", Region.USA, 40.71, -74.01),
    Metro("Atlanta", Region.USA, 33.75, -84.39),
    Metro("Miami", Region.USA, 25.76, -80.19),
    Metro("Denver", Region.USA, 39.74, -104.99),
    # Europe
    Metro("London", Region.EUROPE, 51.51, -0.13),
    Metro("Amsterdam", Region.EUROPE, 52.37, 4.90),
    Metro("Frankfurt", Region.EUROPE, 50.11, 8.68),
    Metro("Paris", Region.EUROPE, 48.86, 2.35),
    Metro("Madrid", Region.EUROPE, 40.42, -3.70),
    Metro("Milan", Region.EUROPE, 45.46, 9.19),
    Metro("Stockholm", Region.EUROPE, 59.33, 18.07),
    Metro("Warsaw", Region.EUROPE, 52.23, 21.01),
    # India
    Metro("Mumbai", Region.INDIA, 19.08, 72.88),
    Metro("Chennai", Region.INDIA, 13.08, 80.27),
    Metro("Delhi", Region.INDIA, 28.61, 77.21),
    Metro("Hyderabad", Region.INDIA, 17.39, 78.49),
    # China
    Metro("Beijing", Region.CHINA, 39.90, 116.41),
    Metro("Shanghai", Region.CHINA, 31.23, 121.47),
    Metro("Guangzhou", Region.CHINA, 23.13, 113.26),
    # Brazil
    Metro("Sao Paulo", Region.BRAZIL, -23.55, -46.63),
    Metro("Rio de Janeiro", Region.BRAZIL, -22.91, -43.17),
    Metro("Fortaleza", Region.BRAZIL, -3.73, -38.52),
    # Australia
    Metro("Sydney", Region.AUSTRALIA, -33.87, 151.21),
    Metro("Melbourne", Region.AUSTRALIA, -37.81, 144.96),
    Metro("Perth", Region.AUSTRALIA, -31.95, 115.86),
    # East Asia
    Metro("Tokyo", Region.EAST_ASIA, 35.68, 139.65),
    Metro("Osaka", Region.EAST_ASIA, 34.69, 135.50),
    Metro("Seoul", Region.EAST_ASIA, 37.57, 126.98),
    Metro("Singapore", Region.EAST_ASIA, 1.35, 103.82),
    Metro("Hong Kong", Region.EAST_ASIA, 22.32, 114.17),
)


def metros_in_region(region: Region) -> tuple[Metro, ...]:
    """All catalogue metros in ``region``."""
    return tuple(m for m in WORLD_METROS if m.region == region)
