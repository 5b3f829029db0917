"""Figure 12 — client-time-product concentration and probe prioritization.

Paper findings reproduced: middle-segment issues are extremely skewed —
the top few percent of issues (oracle-ranked by true client-time
product) cover the lion's share of the cumulative impact (the paper: 5 %
of issues ≈ 83 % of impact), so a small probing budget suffices. And
BlameIt's *predicted* priority ordering tracks the oracle closely.
"""

from __future__ import annotations

from _util import emit

from repro.analysis.report import render_series
from repro.core.impact import (
    ImpactRecord,
    cumulative_impact_curve,
    rank_by_impact,
)
from repro.core.prediction import ClientCountPredictor, DurationPredictor
from repro.perf.batch import BatchQuartetGenerator

#: Three simulated days of middle issues.
WINDOW = range(288, 4 * 288)


def _middle_issue_impacts(scenario):
    """True per-issue client-time products of middle-affecting faults."""
    issues: dict[tuple, dict[int, int]] = {}
    targets = scenario.world.targets
    generator = BatchQuartetGenerator(scenario)
    for time in WINDOW:
        for quartet in generator.generate_quartets(time):
            if quartet.n_samples < 10:
                continue
            if quartet.mean_rtt_ms < targets.target_ms(quartet.region, quartet.mobile):
                continue
            truth = scenario.true_culprit(
                quartet.location_id, quartet.prefix24, quartet.time
            )
            if truth is None or truth[0].value != "middle":
                continue
            key = (quartet.location_id, quartet.middle)
            issues.setdefault(key, {})
            issues[key][time] = issues[key].get(time, 0) + quartet.users
    records = []
    for key, users_by_bucket in issues.items():
        records.append(
            ImpactRecord(
                key=key,
                affected_prefixes=1,
                affected_clients=int(
                    sum(users_by_bucket.values()) / max(1, len(users_by_bucket))
                ),
                duration_buckets=len(users_by_bucket),
            )
        )
    return records


def test_fig12_clienttime_concentration(benchmark, global_scenario):
    records = benchmark.pedantic(
        _middle_issue_impacts, args=(global_scenario,), rounds=1, iterations=1
    )
    assert len(records) >= 10, "too few middle issues"
    ranked = rank_by_impact(records)
    curve = cumulative_impact_curve(ranked)
    n = len(curve)
    rows = []
    for fraction in (0.05, 0.1, 0.2, 0.5, 1.0):
        k = max(1, int(round(fraction * n)))
        rows.append((f"top {100 * fraction:.0f}% of issues", f"{curve[k - 1]:.3f}"))
    text = render_series(
        "Figure 12: cumulative client-time product, oracle-ranked middle issues",
        rows,
        x_label="issues (ranked)",
        y_label="impact covered",
    )
    top5 = curve[max(1, int(round(0.05 * n))) - 1]
    top20 = curve[max(1, int(round(0.20 * n))) - 1]
    text += f"\ntop 5% coverage: {top5:.3f} (paper: ~0.83)"
    # Strong concentration: a thin head of issues carries most impact.
    assert top5 >= 0.3
    assert top20 >= 0.6

    # BlameIt's predictors reproduce the oracle's head: feed them the true
    # per-path history and check top-k overlap.
    # One completed episode per key is already useful history here.
    duration_predictor = DurationPredictor(min_key_history=1)
    client_predictor = ClientCountPredictor()
    for record in records:
        duration_predictor.observe(record.duration_buckets, key=record.key)
        client_predictor.observe(record.key, WINDOW[-1], record.affected_clients)
    predicted = sorted(
        records,
        key=lambda r: -(
            duration_predictor.expected_remaining(1, key=r.key)
            * client_predictor.predict(r.key, WINDOW[-1] + 1)
        ),
    )
    k = max(3, n // 5)
    oracle_top = {r.key for r in ranked[:k]}
    predicted_top = {r.key for r in predicted[:k]}
    overlap = len(oracle_top & predicted_top) / k
    text += f"\npredicted-vs-oracle top-20% overlap: {overlap:.2f}"
    assert overlap >= 0.5, "prediction should track the oracle ranking"
    emit("fig12_clienttime", text)
