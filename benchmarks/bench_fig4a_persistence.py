"""Figure 4a — persistence of bad-RTT incidents (consecutive 5-min buckets).

Paper findings reproduced: the distribution is long-tailed — over 60 % of
badness episodes last ≤ 5 minutes (one bucket) while a small share
(~8 % in the paper) runs beyond two hours.
"""

from __future__ import annotations

from _util import emit

from repro.analysis.cdf import ECDF
from repro.analysis.characterize import PersistenceTracker
from repro.analysis.report import render_cdf
from repro.perf.batch import BatchQuartetGenerator

#: Four simulated days.
WINDOW = range(288, 5 * 288)


def _persistence_runs(scenario):
    tracker = PersistenceTracker()
    targets = scenario.world.targets
    generator = BatchQuartetGenerator(scenario)
    for time in WINDOW:
        quartets = generator.generate_quartets(time)
        tracker.observe_bucket(time, PersistenceTracker.bad_keys(quartets, targets))
    return tracker.finish()


def test_fig4a_badness_persistence(benchmark, global_scenario):
    runs = benchmark.pedantic(
        _persistence_runs, args=(global_scenario,), rounds=1, iterations=1
    )
    assert len(runs) > 100, "too few badness episodes to characterize"
    ecdf = ECDF([float(r) for r in runs])
    text = render_cdf(
        "Figure 4a: persistence of bad RTT incidents (5-min buckets)",
        [float(r) for r in runs],
        grid=[1, 2, 3, 5, 10, 15, 20, 25],
    )
    fleeting = ecdf(1.0)
    long_lived = 1.0 - ecdf(24.0)
    text += (
        f"\nfraction lasting one bucket : {fleeting:.3f} (paper: >0.60)"
        f"\nfraction lasting > 2 hours  : {long_lived:.3f} (paper: ~0.08)"
    )
    # Long-tailed: most episodes fleeting, a visible tail beyond 2 hours.
    assert fleeting > 0.5
    assert 0.0 < long_lived < 0.3
    emit("fig4a_persistence", text)
