"""Ablation — the τ bad-fraction threshold (§4.2 uses τ = 0.8).

τ controls when an aggregate's badness is "location-wide" (or
"path-wide"). Too low and the cloud step fires on ordinary median
fluctuation (≈50 % of healthy quartets sit above the learned median by
definition); too high and *partial* cloud problems — an overload hitting
the subset of clients hashed to the affected servers, like the §6.3
Australia case — never clear the bar and get misattributed downstream.
The deployed τ = 0.8 sits between the failure modes.

Cloud faults here are injected with ``affected_fraction`` ≈ 0.85, the
realistic partial-impact shape that separates the τ settings.
"""

from __future__ import annotations

import numpy as np
from _util import emit

from repro.analysis.report import render_table
from repro.core.blame import Blame
from repro.core.config import BlameItConfig
from repro.core.passive import PassiveLocalizer
from repro.perf.batch import BatchQuartetGenerator
from repro.sim.faults import Fault, FaultTarget, SegmentKind
from repro.sim.scenario import Scenario

TAUS = (0.55, 0.7, 0.8, 0.9, 0.99)
WINDOW = (288, 2 * 288)


def _partial_cloud_faults(world, first_id: int = 30_000):
    """Overload-style cloud faults touching ~85 % of a location's clients."""
    rng = np.random.default_rng(13)
    faults = []
    for offset, location in enumerate(world.locations):
        faults.append(
            Fault(
                fault_id=first_id + offset,
                target=FaultTarget(
                    kind=SegmentKind.CLOUD,
                    location_id=location.location_id,
                    affected_fraction=0.85,
                ),
                start=WINDOW[0] + int(rng.integers(0, 200)),
                duration=int(rng.integers(8, 15)),
                added_ms=float(rng.uniform(70.0, 120.0)),
            )
        )
    return tuple(faults)

_SEGMENT_OF = {
    Blame.CLOUD: "cloud",
    Blame.MIDDLE: "middle",
    Blame.CLIENT: "client",
}


def _segment_accuracy(generator, table, tau):
    """Segment-level agreement with ground truth, plus false-cloud count."""
    scenario = generator.scenario
    passive = PassiveLocalizer(BlameItConfig(tau=tau), scenario.world.targets)
    matched = evaluated = false_cloud = 0
    for time in range(*WINDOW):
        blames = passive.assign_batch(generator.generate(time), table)
        for result in blames.to_results():
            quartet = result.quartet
            truth = scenario.true_culprit(
                quartet.location_id, quartet.prefix24, quartet.time
            )
            if truth is None or result.blame is Blame.INSUFFICIENT:
                continue
            evaluated += 1
            diagnosed = _SEGMENT_OF.get(result.blame)
            if diagnosed == truth[0].value:
                matched += 1
            elif result.blame is Blame.CLOUD:
                false_cloud += 1
    return matched, evaluated, false_cloud


def _sweep(world, state):
    base = Scenario.from_world(world)
    scenario = base.with_faults(base.faults + _partial_cloud_faults(world))
    # One generator for every tau: they draw one shared stream in turn.
    generator = BatchQuartetGenerator(scenario)
    return {
        tau: _segment_accuracy(generator, state.table, tau) for tau in TAUS
    }


def test_ablation_tau(benchmark, incident_world, incident_state):
    results = benchmark.pedantic(
        _sweep, args=(incident_world, incident_state), rounds=1, iterations=1
    )
    rows = []
    accuracy = {}
    for tau, (matched, evaluated, false_cloud) in results.items():
        accuracy[tau] = matched / evaluated if evaluated else 0.0
        rows.append(
            [
                f"{tau:.2f}" + (" (paper)" if tau == 0.8 else ""),
                evaluated,
                f"{100 * accuracy[tau]:.1f}%",
                false_cloud,
            ]
        )
    text = render_table(
        ["tau", "diagnosed quartets", "segment accuracy", "false cloud blames"],
        rows,
        title="Ablation: bad-fraction threshold tau",
    )
    # Low tau over-blames the cloud.
    assert results[0.55][2] >= results[0.8][2]
    # The deployed value is at least as accurate as both extremes.
    assert accuracy[0.8] >= accuracy[0.55] - 0.02
    assert accuracy[0.8] >= accuracy[0.99] - 0.02
    emit("ablation_tau", text)
