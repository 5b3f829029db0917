"""Scenario-suite validation benchmark — the §6.3 scorecard, adversarially.

Runs :func:`repro.analysis.validation.validate_scenario_suite` over the
canonical ringed suite world: every incident family as a single case,
plus each adversarial family overlapped with a staggered paper-era
background chosen so the naive (damage-so-far) and mitigation-aware
(benefit-remaining) impact rankings disagree.

Asserts the acceptance floors — paper-era families localize at ≥ 0.8
accuracy and every mixed case records a ranking disagreement. The
scorecard is byte-deterministic per seed (``tests/golden/
validation_scorecard.json`` pins it), and so is the emitted output: it
carries no wall-clock, so two runs compare with ``diff``.
``BENCH_validation.json`` is the frozen record of earlier scorecards.
"""

from __future__ import annotations

from _util import emit

from repro.analysis.validation import suite_world_params, validate_scenario_suite
from repro.sim.incidents import ADVERSARIAL_ARCHETYPES, PAPER_ARCHETYPES
from repro.sim.scenario import build_world

SUITE_SEED = 7

#: Acceptance floor for the families the paper validates (88/88 in §6.3).
PAPER_ACCURACY_FLOOR = 0.8


def test_validation_suite(benchmark):
    world = build_world(suite_world_params())

    result = benchmark.pedantic(
        validate_scenario_suite, args=(world,), kwargs={"seed": SUITE_SEED},
        rounds=1, iterations=1,
    )
    scorecard = result.scorecard

    paper = {family.value for family in PAPER_ARCHETYPES}
    for family in sorted(paper & set(scorecard["families"])):
        assert (
            scorecard["families"][family]["accuracy"] >= PAPER_ACCURACY_FLOOR
        ), f"{family} below the paper-family accuracy floor"

    disagreements = {
        entry["family"]: entry["rankings_disagree"]
        for entry in scorecard["impact_ranking"]
    }
    for family in ADVERSARIAL_ARCHETYPES:
        assert disagreements.get(family.value), (
            f"{family.value}: mixed case must make naive and "
            "mitigation-aware rankings disagree"
        )

    overall = scorecard["overall"]
    lines = [
        f"suite run: {len(scorecard['cases'])} cases, "
        f"{overall['incidents']} incidents",
        "family accuracies: " + ", ".join(
            f"{family}={stats['accuracy']:.2f}"
            for family, stats in sorted(scorecard["families"].items())
        ),
        "mixed-case rankings: " + ", ".join(
            f"{family}={'disagree' if flag else 'agree'}"
            for family, flag in sorted(disagreements.items())
        ),
        f"overall: {overall['matched']}/{overall['incidents']} "
        f"({overall['accuracy']:.2%})",
        f"ambient (chronic) blames excluded: "
        f"{len(scorecard['ambient_blames'])}",
    ]
    emit("validation_suite", "\n".join(lines))
