"""⟨AS, Metro⟩ middle-segment grouping: the prior-practice baseline.

Earlier systems aggregate clients by origin AS and metro area (§4.2 cites
[25]). The paper rejects this for BlameIt because only ~47 % of
⟨AS, Metro⟩ groups see a single consistent BGP path — the rest mix paths
with different health, diluting bad fractions and misdirecting blame.
Figure 11 shows the corroboration-ratio penalty.

Rather than fork the localizer, this module *re-keys* quartet batches:
the middle vocabulary is replaced by synthetic ``(client ASN, metro id)``
pairs, so the unchanged Algorithm 1 machinery (including expected-RTT
learning) operates at the coarser granularity.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.cloud.clients import ClientPopulation
from repro.core.quartet import QuartetBatch
from repro.net.geo import WORLD_METROS

#: Stable metro-name → small-int mapping for synthetic group keys.
_METRO_IDS = {metro.name: index for index, metro in enumerate(WORLD_METROS)}


def as_metro_key(client_asn: int, metro_name: str) -> tuple[int, int]:
    """The synthetic middle key for an ⟨AS, Metro⟩ group.

    Encoded as a tuple of ints so it is type-compatible with the
    AS-path keys the localizer and learner normally see.

    Raises:
        KeyError: For a metro not in the catalogue.
    """
    return (client_asn, _METRO_IDS[metro_name])


def as_metro_batch(
    batch: QuartetBatch, population: ClientPopulation
) -> QuartetBatch:
    """Re-key a batch to ⟨AS, Metro⟩ middle groups.

    Args:
        batch: BGP-path-keyed quartets (as produced by the generator).
        population: Client population, for the /24 → metro lookup.

    Returns:
        A batch in the same row order whose ``middles`` vocabulary holds
        one synthetic key per group and whose ``middle_index`` points
        each row at its /24's group; every other column is shared.
    """
    prefixes, inverse = np.unique(batch.prefix24, return_inverse=True)
    codes: dict[tuple[int, int], int] = {}
    prefix_code = np.empty(len(prefixes), dtype=np.int64)
    for i, prefix24 in enumerate(prefixes.tolist()):
        client = population.get(prefix24)
        key = as_metro_key(client.asn, client.metro.name)
        prefix_code[i] = codes.setdefault(key, len(codes))
    return dataclasses.replace(
        batch, middle_index=prefix_code[inverse], middles=tuple(codes), _rows=None
    )
