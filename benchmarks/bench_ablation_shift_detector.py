"""Ablation — median thresholds vs. full distribution comparison (§4.3).

"While we considered other approaches like comparing the RTT
distributions, our simple approach works well in practice." The bench
measures both detectors on the same cloud-location streams: detection
of injected shifts, false-alarm rate on healthy evenings, and the state
each must carry per key — quantifying why the deployed system settled
on a single learned median.
"""

from __future__ import annotations

from _util import emit

from repro.analysis.report import render_table
from repro.core.thresholds import DistributionShiftDetector, ExpectedRTTLearner
from repro.perf.batch import BatchQuartetGenerator
from repro.sim.faults import Fault, FaultTarget, SegmentKind
from repro.sim.scenario import Scenario

TRAIN = (0, 288)
EVAL = (288, 2 * 288)
SHIFT_MS = 18.0  # a modest shift, below most badness-target headrooms


def _cloud_windows(generator, start, end):
    """Per (location, bucket): list of non-mobile quartet mean RTTs."""
    windows: dict[tuple[str, int], list[float]] = {}
    for time in range(start, end):
        for quartet in generator.generate_quartets(time):
            if quartet.mobile or quartet.n_samples < 10:
                continue
            windows.setdefault((quartet.location_id, time), []).append(
                quartet.mean_rtt_ms
            )
    return windows


def _evaluate(world, state_seed=0):
    location = world.locations[0]
    fault = Fault(
        fault_id=0,
        target=FaultTarget(kind=SegmentKind.CLOUD, location_id=location.location_id),
        start=EVAL[0] + 120,
        duration=36,
        added_ms=SHIFT_MS,
    )
    healthy = BatchQuartetGenerator(Scenario(world, (), ()))
    faulty = BatchQuartetGenerator(Scenario(world, (fault,), ()))

    # Train both detectors on day 0.
    learner = ExpectedRTTLearner(history_days=1)
    detector = DistributionShiftDetector(ks_threshold=0.3)
    for time in range(*TRAIN):
        for quartet in healthy.generate_quartets(time):
            if quartet.mobile or quartet.n_samples < 10:
                continue
            learner.observe(quartet)
            detector.observe_reference((quartet.location_id,), quartet.mean_rtt_ms)
    table = learner.table()

    results = {}
    for name, generator in (("healthy", healthy), ("faulty", faulty)):
        flagged_median = flagged_ks = evaluated = 0
        for (location_id, time), rtts in sorted(
            _cloud_windows(generator, *EVAL).items()
        ):
            if location_id != location.location_id or len(rtts) < 6:
                continue
            evaluated += 1
            expected = table.expected_cloud(location_id, False)
            if expected is not None:
                above = sum(1 for r in rtts if r > expected) / len(rtts)
                flagged_median += above >= 0.8
            verdict = detector.shifted((location_id,), rtts)
            flagged_ks += bool(verdict)
        during_fault = [
            t
            for (loc, t) in _cloud_windows(generator, *EVAL)
            if loc == location.location_id and fault.is_active(t)
        ]
        results[name] = {
            "evaluated": evaluated,
            "median": flagged_median,
            "ks": flagged_ks,
            "fault_windows": len(during_fault) if name == "faulty" else 0,
        }
    return location, fault, results


def test_ablation_shift_detector(benchmark, incident_world):
    location, fault, results = benchmark.pedantic(
        _evaluate, args=(incident_world,), rounds=1, iterations=1
    )
    healthy = results["healthy"]
    faulty = results["faulty"]
    rows = [
        [
            "median + tau=0.8 (deployed)",
            faulty["median"],
            healthy["median"],
            "1 float / key",
        ],
        [
            "one-sided KS >= 0.3 (considered)",
            faulty["ks"],
            healthy["ks"],
            "full RTT sample / key",
        ],
    ]
    text = render_table(
        ["detector", "flags during fault", "false flags (healthy day)", "state"],
        rows,
        title=(
            f"Ablation: +{SHIFT_MS:.0f}ms shift at {location.location_id} "
            f"({fault.duration} buckets)"
        ),
    )
    text += (
        "\n(§4.3: both catch the shift; the median needs one number per key"
        "\n and tolerates benign distribution reshaping — why it shipped.)"
    )
    # Both detectors catch a real shift...
    assert faulty["median"] > healthy["median"]
    assert faulty["ks"] > healthy["ks"]
    # ...and the KS detector is at least as trigger-happy as the median
    # (sensitivity it pays for with state and false alarms).
    assert faulty["ks"] >= faulty["median"]
    emit("ablation_shift_detector", text)