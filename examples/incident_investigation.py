#!/usr/bin/env python3
"""Replay the paper's §6.3 case studies and watch BlameIt investigate.

Generates one labelled incident per archetype — cloud maintenance (the
Brazil case), a peering fault, a cloud overload (the Australia case), a
BGP traffic shift (the East-Asia case), and a client-ISP maintenance
(the Italy case) — runs the full pipeline on each, and prints the
investigation outcome next to the ground truth, as a network engineer's
postmortem would.

Run:
    python examples/incident_investigation.py
"""

from __future__ import annotations

import numpy as np

from repro.analysis.validation import SuiteCase, build_warmup_state, run_case
from repro.net.geo import Region
from repro.sim.incidents import PAPER_ARCHETYPES, generate_incidents
from repro.sim.scenario import ScenarioParams, build_world


def main() -> None:
    params = ScenarioParams(
        seed=11,
        regions=(Region.USA, Region.EUROPE, Region.INDIA),
        duration_days=2,
        locations_per_region=2,
    )
    world = build_world(params)
    print("training expected RTTs on one fault-free day ...")
    state = build_warmup_state(world, days=1, stride=2)

    specs = generate_incidents(world, len(PAPER_ARCHETYPES), np.random.default_rng(3))
    matched = 0
    for spec in specs:
        print("\n" + "=" * 72)
        print(f"INCIDENT #{spec.incident_id} [{spec.archetype}]")
        print(f"  {spec.description}")
        print(
            f"  onset: bucket {spec.start} "
            f"(day {spec.start // 288}, {(spec.start % 288) / 12:.1f}h UTC), "
            f"duration {spec.duration * 5} minutes"
        )
        case = SuiteCase(spec.incident_id, (spec,), "single")
        case_outcome = run_case(world, case, state)
        (outcome,) = case_outcome.outcomes
        report = case_outcome.report
        print("  passive blame mix during the window:")
        total = sum(report.blame_counts.values()) or 1
        for blame, count in sorted(
            report.blame_counts.items(), key=lambda kv: -kv[1]
        ):
            print(f"    {blame!s:<12} {count:5d}  ({100 * count / total:.0f}%)")
        for item in report.localized:
            if item.verdict and item.verdict.asn:
                location_id, middle = item.issue_key
                print(
                    f"  traceroute verdict at {location_id}: AS{item.verdict.asn} "
                    f"contribution rose by {item.verdict.delta_ms:.0f}ms"
                )
        verdict = (
            f"{outcome.blamed_segment} / AS{outcome.culprit_asn}"
            if outcome.blamed_segment
            else "no issue surfaced"
        )
        expected = f"{spec.expected_segment} / AS{spec.expected_culprit_asn}"
        flag = "MATCH" if outcome.matched else "MISMATCH"
        print(f"  BlameIt's conclusion : {verdict}")
        print(f"  engineers' conclusion: {expected}   → {flag}")
        matched += outcome.matched

    print("\n" + "=" * 72)
    print(f"{matched}/{len(specs)} incidents localized correctly "
          f"(paper: 88/88 across the same archetypes)")


if __name__ == "__main__":
    main()
