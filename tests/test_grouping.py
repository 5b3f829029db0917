"""Tests for repro.core.grouping: middle-segment grouping strategies."""

import pytest

from repro.core.grouping import (
    GroupingStrategy,
    group_key,
    sharing_counts,
)
from repro.core.quartet import Quartet
from repro.net.geo import Region


def _quartet(prefix=1, middle=(10, 20), asn=65000, loc="edge-A") -> Quartet:
    return Quartet(
        time=0,
        prefix24=prefix,
        location_id=loc,
        mobile=False,
        mean_rtt_ms=40.0,
        n_samples=15,
        users=10,
        client_asn=asn,
        middle=middle,
        region=Region.USA,
    )


class TestGroupKey:
    def test_bgp_path_pools_across_origins(self):
        a = group_key(GroupingStrategy.BGP_PATH, _quartet(asn=65000))
        b = group_key(GroupingStrategy.BGP_PATH, _quartet(asn=65001))
        assert a == b

    def test_bgp_atom_separates_origins(self):
        a = group_key(GroupingStrategy.BGP_ATOM, _quartet(asn=65000))
        b = group_key(GroupingStrategy.BGP_ATOM, _quartet(asn=65001))
        assert a != b

    def test_bgp_prefix_needs_announcement(self):
        with pytest.raises(ValueError):
            group_key(GroupingStrategy.BGP_PREFIX, _quartet())
        key = group_key(GroupingStrategy.BGP_PREFIX, _quartet(), announcement="10/22")
        assert key == ("edge-A", "10/22")

    def test_as_metro_needs_metro(self):
        with pytest.raises(ValueError):
            group_key(GroupingStrategy.AS_METRO, _quartet())
        key = group_key(GroupingStrategy.AS_METRO, _quartet(), metro_name="Chicago")
        assert key == (65000, "Chicago")

    def test_locations_separate_paths(self):
        a = group_key(GroupingStrategy.BGP_PATH, _quartet(loc="edge-A"))
        b = group_key(GroupingStrategy.BGP_PATH, _quartet(loc="edge-B"))
        assert a != b


class TestSharingCounts:
    def test_granularity_ordering(self):
        """Coarser grouping → more sharers (the Figure 6 ordering)."""
        quartets = [
            _quartet(prefix=1, middle=(10, 20), asn=65000),
            _quartet(prefix=2, middle=(10, 20), asn=65000),
            _quartet(prefix=3, middle=(10, 20), asn=65001),
            _quartet(prefix=4, middle=(10, 21), asn=65002),
        ]
        announcements = {1: "A", 2: "B", 3: "C", 4: "D"}
        path_keys = {
            q.prefix24: group_key(GroupingStrategy.BGP_PATH, q) for q in quartets
        }
        atom_keys = {
            q.prefix24: group_key(GroupingStrategy.BGP_ATOM, q) for q in quartets
        }
        prefix_keys = {
            q.prefix24: group_key(
                GroupingStrategy.BGP_PREFIX, q, announcement=announcements[q.prefix24]
            )
            for q in quartets
        }
        path_share = sharing_counts(path_keys)
        atom_share = sharing_counts(atom_keys)
        prefix_share = sharing_counts(prefix_keys)
        for prefix in (1, 2, 3, 4):
            assert prefix_share[prefix] <= atom_share[prefix] <= path_share[prefix]
        assert path_share[1] == 2  # prefixes 2 and 3 share its middle
        assert atom_share[1] == 1  # only prefix 2 shares middle + origin

    def test_singleton(self):
        counts = sharing_counts({1: "k"})
        assert counts == {1: 0}
