"""Middle-segment grouping strategies (§4.2, Figure 6, Figure 11).

BlameIt groups clients by **BGP path** — the set of middle ASes between
cloud and client — after rejecting three alternatives:

* ⟨AS, Metro⟩ (prior practice): too coarse; only ~47 % of such groups see
  a single consistent path, so healthy and faulty paths get mixed.
* BGP prefix: fine-grained but starves aggregates of RTT samples.
* BGP atom (middle path + origin AS): in between, still fewer samples
  than the BGP path.

Figure 6 compares the grouping granularities by the number of other /24s
sharing the same group; :func:`sharing_counts` computes exactly that.
"""

from __future__ import annotations

import enum
from typing import Hashable

from repro.core.quartet import Quartet


class GroupingStrategy(enum.Enum):
    """How quartets are pooled into "same middle segment" groups."""

    BGP_PATH = "bgp-path"  # middle ASes only (BlameIt's choice)
    BGP_ATOM = "bgp-atom"  # middle ASes + origin AS
    BGP_PREFIX = "bgp-prefix"  # the exact BGP announcement
    AS_METRO = "as-metro"  # client AS + metro (prior practice)

    def __str__(self) -> str:
        return self.value


def group_key(
    strategy: GroupingStrategy,
    quartet: Quartet,
    announcement: Hashable | None = None,
    metro_name: str | None = None,
) -> Hashable:
    """The grouping key of a quartet under a strategy.

    ``BGP_PREFIX`` needs the covering announcement and ``AS_METRO`` the
    client metro; both come from the client-population context and must be
    passed by the caller.

    Raises:
        ValueError: If required context for the strategy is missing.
    """
    if strategy is GroupingStrategy.BGP_PATH:
        return (quartet.location_id, quartet.middle)
    if strategy is GroupingStrategy.BGP_ATOM:
        return (quartet.location_id, quartet.middle, quartet.client_asn)
    if strategy is GroupingStrategy.BGP_PREFIX:
        if announcement is None:
            raise ValueError("BGP_PREFIX grouping needs the announcement")
        return (quartet.location_id, announcement)
    if metro_name is None:
        raise ValueError("AS_METRO grouping needs the client metro")
    return (quartet.client_asn, metro_name)


def sharing_counts(
    keys_by_prefix: dict[int, Hashable],
) -> dict[int, int]:
    """For each /24, how many *other* /24s share its group key.

    Args:
        keys_by_prefix: Map from /24 key to its group key (computed by the
            caller via :func:`group_key` for the strategy under study).

    Returns:
        Map from /24 key to the count of other /24s in the same group —
        the quantity Figure 6 plots the CDF of.
    """
    group_sizes: dict[Hashable, int] = {}
    for key in keys_by_prefix.values():
        group_sizes[key] = group_sizes.get(key, 0) + 1
    return {
        prefix: group_sizes[key] - 1 for prefix, key in keys_by_prefix.items()
    }
