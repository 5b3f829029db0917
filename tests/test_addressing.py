"""Tests for repro.net.addressing: /24 keys and BGP prefixes."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net.addressing import (
    BGPPrefix,
    Prefix24Allocator,
    parse_prefix24,
    prefix24_network_address,
)

_P24 = st.integers(min_value=0, max_value=(1 << 24) - 1)


class TestParseFormat:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("1.2.3", (1 << 16) | (2 << 8) | 3),
            ("1.2.3.0/24", (1 << 16) | (2 << 8) | 3),
            ("1.2.3.77", (1 << 16) | (2 << 8) | 3),
            ("0.0.0", 0),
            ("255.255.255", (1 << 24) - 1),
        ],
    )
    def test_parse(self, text, expected):
        assert parse_prefix24(text) == expected

    @pytest.mark.parametrize("bad", ["1.2", "1.2.3.4.5", "300.1.2", "a.b.c"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_prefix24(bad)

    @given(prefix=_P24)
    def test_roundtrip(self, prefix):
        assert parse_prefix24(str(BGPPrefix(network=prefix << 8, length=24))) == prefix

    @given(prefix=_P24)
    def test_network_address(self, prefix):
        assert prefix24_network_address(prefix) == prefix << 8


class TestBGPPrefix:
    def test_contains_own_prefix24s(self):
        block = BGPPrefix(network=parse_prefix24("10.0.0") << 8, length=22)
        members = list(block.prefix24s())
        assert len(members) == 4 == block.prefix24_count()
        for member in members:
            assert block.contains_prefix24(member)

    def test_does_not_contain_neighbors(self):
        block = BGPPrefix(network=parse_prefix24("10.0.4") << 8, length=22)
        assert not block.contains_prefix24(parse_prefix24("10.0.3"))
        assert not block.contains_prefix24(parse_prefix24("10.0.8"))

    def test_rejects_host_bits(self):
        with pytest.raises(ValueError):
            BGPPrefix(network=(parse_prefix24("10.0.1") << 8), length=22)

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            BGPPrefix(network=0, length=4)
        with pytest.raises(ValueError):
            BGPPrefix(network=0, length=25)

    def test_str(self):
        block = BGPPrefix(network=parse_prefix24("10.1.0") << 8, length=20)
        assert str(block) == "10.1.0.0/20"

    @given(prefix=_P24)
    def test_slash24_is_singleton(self, prefix):
        block = BGPPrefix(network=prefix << 8, length=24)
        assert list(block.prefix24s()) == [prefix]


class TestAllocator:
    def test_no_overlap(self):
        allocator = Prefix24Allocator()
        seen: set[int] = set()
        for length in (24, 22, 20, 24, 22):
            block = allocator.allocate_block(length)
            members = set(block.prefix24s())
            assert not members & seen
            seen |= members

    def test_alignment(self):
        allocator = Prefix24Allocator()
        allocator.allocate_block(24)
        block = allocator.allocate_block(20)
        # A /20's network must be aligned to 16 consecutive /24s.
        assert (block.network >> 8) % 16 == 0

    def test_exhaustion(self):
        allocator = Prefix24Allocator(start=(1 << 24) - 4)
        with pytest.raises(RuntimeError):
            allocator.allocate_block(8)
