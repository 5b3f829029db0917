"""Figure 6 — /24s sharing the same "middle segment" under three definitions.

Paper findings reproduced: grouping by the **BGP path** (the set of
middle ASes) pools strictly more /24s — hence more RTT samples — than
grouping by BGP atom (middle + origin AS), which in turn pools more than
the exact BGP prefix. More pooling means more statistical confidence for
Algorithm 1's middle step.
"""

from __future__ import annotations

import numpy as np
from _util import emit

from repro.analysis.cdf import ECDF
from repro.analysis.report import render_table
from repro.core.grouping import GroupingStrategy, group_key, sharing_counts
from repro.perf.batch import BatchQuartetGenerator


def _sharing_by_strategy(scenario):
    """Counts of other /24s sharing each /24's group, per strategy."""
    world = scenario.world
    quartets = BatchQuartetGenerator(scenario).generate_quartets(
        450, np.random.default_rng(99)
    )
    results = {}
    for strategy in (
        GroupingStrategy.BGP_PREFIX,
        GroupingStrategy.BGP_ATOM,
        GroupingStrategy.BGP_PATH,
    ):
        keys = {}
        for quartet in quartets:
            client = world.population.get(quartet.prefix24)
            keys[quartet.prefix24] = group_key(
                strategy, quartet, announcement=client.announcement
            )
        results[strategy] = sharing_counts(keys)
    return results


def test_fig6_middle_segment_sharing(benchmark, global_scenario):
    results = benchmark.pedantic(
        _sharing_by_strategy, args=(global_scenario,), rounds=1, iterations=1
    )
    grid = [0, 1, 2, 5, 10, 20, 50]
    rows = []
    for x in grid:
        row = [f"≤ {x} other /24s"]
        for strategy in (
            GroupingStrategy.BGP_PREFIX,
            GroupingStrategy.BGP_ATOM,
            GroupingStrategy.BGP_PATH,
        ):
            ecdf = ECDF([float(v) for v in results[strategy].values()])
            row.append(f"{ecdf(float(x)):.3f}")
        rows.append(row)
    text = render_table(
        ["sharers", "BGP prefix", "BGP atom", "BGP path"],
        rows,
        title="Figure 6: CDF of /24s sharing the same middle segment",
    )
    # Per-/24 dominance: path sharers >= atom sharers >= prefix sharers.
    for prefix24, path_sharers in results[GroupingStrategy.BGP_PATH].items():
        atom_sharers = results[GroupingStrategy.BGP_ATOM][prefix24]
        prefix_sharers = results[GroupingStrategy.BGP_PREFIX][prefix24]
        assert prefix_sharers <= atom_sharers <= path_sharers
    # And the gap is material in aggregate.
    means = {
        s: np.mean(list(v.values())) for s, v in results.items()
    }
    assert means[GroupingStrategy.BGP_PATH] > means[GroupingStrategy.BGP_ATOM]
    assert means[GroupingStrategy.BGP_ATOM] >= means[GroupingStrategy.BGP_PREFIX]
    emit("fig6_grouping", text)
