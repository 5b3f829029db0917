"""IPv4 addressing: /24 client prefixes and coarser BGP-announced prefixes.

The paper aggregates clients at the /24 granularity ("IP-/24") and groups
them under BGP-announced prefixes which can be coarser (/8../24). A /24 is
represented internally as the integer ``ip >> 8`` (its upper 24 bits), which
is compact, hashable, and fast to bucket. BGP prefixes are classic
(network, length) pairs with containment arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

#: Type alias: a /24 prefix encoded as the integer value of its top 24 bits.
Prefix24 = int

_MAX_PREFIX24 = (1 << 24) - 1


def parse_prefix24(dotted: str) -> Prefix24:
    """Parse ``"a.b.c"`` or ``"a.b.c.0/24"`` or ``"a.b.c.d"`` into a /24 key.

    The host byte, if present, is discarded.

    Raises:
        ValueError: If the string is not a valid IPv4 /24 spec.
    """
    spec = dotted.split("/")[0]
    parts = spec.split(".")
    if len(parts) == 4:
        parts = parts[:3]
    if len(parts) != 3:
        raise ValueError(f"not a /24 spec: {dotted!r}")
    octets = []
    for part in parts:
        value = int(part)
        if not 0 <= value <= 255:
            raise ValueError(f"octet out of range in {dotted!r}")
        octets.append(value)
    return (octets[0] << 16) | (octets[1] << 8) | octets[2]


def prefix24_network_address(prefix: Prefix24) -> int:
    """The 32-bit network address of a /24 key."""
    return prefix << 8


@dataclass(frozen=True, slots=True, order=True)
class BGPPrefix:
    """A BGP-announced IPv4 prefix.

    Attributes:
        network: 32-bit network address (host bits zero).
        length: Prefix length, 8..24. BlameIt never needs longer-than-/24
            announcements because its measurement unit is the /24.
    """

    network: int
    length: int

    def __post_init__(self) -> None:
        if not 8 <= self.length <= 24:
            raise ValueError(f"prefix length must be in [8, 24], got {self.length}")
        mask = self.mask
        if self.network & ~mask & 0xFFFFFFFF:
            raise ValueError("network has host bits set")

    @property
    def mask(self) -> int:
        """32-bit netmask."""
        return (0xFFFFFFFF << (32 - self.length)) & 0xFFFFFFFF

    def contains_prefix24(self, prefix: Prefix24) -> bool:
        """Whether the /24 ``prefix`` is covered by this announcement."""
        return (prefix24_network_address(prefix) & self.mask) == self.network

    def prefix24_count(self) -> int:
        """Number of /24 blocks covered by this announcement."""
        return 1 << (24 - self.length)

    def prefix24s(self) -> Iterator[Prefix24]:
        """Iterate over every /24 key covered by this announcement."""
        first = self.network >> 8
        yield from range(first, first + self.prefix24_count())

    def __str__(self) -> str:
        return (
            f"{(self.network >> 24) & 0xFF}.{(self.network >> 16) & 0xFF}."
            f"{(self.network >> 8) & 0xFF}.{self.network & 0xFF}/{self.length}"
        )


class Prefix24Allocator:
    """Hands out non-overlapping /24 blocks, grouped into BGP prefixes.

    Scenario generation needs each client AS to own address space announced
    as a handful of BGP prefixes of varying size (the paper notes large IP
    blocks often have *fewer* active clients than small ones). The allocator
    walks the unicast space deterministically so scenarios are reproducible.
    """

    def __init__(self, start: Prefix24 = parse_prefix24("11.0.0")) -> None:
        self._next = start

    def allocate_block(self, length: int) -> BGPPrefix:
        """Allocate the next aligned BGP prefix of the given length.

        Args:
            length: Prefix length in [8, 24].

        Returns:
            A :class:`BGPPrefix` whose /24s have never been handed out.
        """
        count = 1 << (24 - length)
        aligned = (self._next + count - 1) & ~(count - 1)
        if aligned + count > _MAX_PREFIX24:
            raise RuntimeError("address space exhausted")
        self._next = aligned + count
        return BGPPrefix(network=aligned << 8, length=length)
