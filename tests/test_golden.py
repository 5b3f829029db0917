"""Golden end-to-end regression test.

A small fixed scenario's full ``report_to_dict`` digest is checked in at
``tests/golden/pipeline_report.json``. Any behavioral drift anywhere in
the pipeline — generation, Algorithm 1, tracking, probing, localization,
alerting, serialization — fails this test loudly, with a unified diff of
the JSON so the drift is visible at a glance.

The golden file was generated from the pre-``repro.chaos`` pipeline, so
it also proves the chaos subsystem's no-op guarantee: with no
``FaultPlan``, today's reports are byte-identical to the pre-chaos ones.

Regenerate (only after an *intentional* behavior change)::

    PYTHONPATH=src:tests python -m test_golden
"""

from __future__ import annotations

import difflib
import json
from pathlib import Path

from repro.core.pipeline import PipelineReport
from repro.net.geo import Region
from repro.sim.scenario import Scenario, ScenarioParams, build_world

from tests.harness import digest, make_pipeline, trained_table

GOLDEN_PATH = Path(__file__).parent / "golden" / "pipeline_report.json"

#: The fixed scenario (mirrors the ``small_world`` fixture so tests can
#: reuse the session-scoped world instead of rebuilding it).
GOLDEN_PARAMS = ScenarioParams(
    seed=42,
    regions=(Region.USA, Region.EUROPE),
    locations_per_region=2,
    duration_days=1,
)
GOLDEN_SEED = 11
GOLDEN_RANGE = (100, 160)


def build_golden_report(world=None) -> PipelineReport:
    """Run the fixed golden scenario and return its report."""
    world = world or build_world(GOLDEN_PARAMS)
    pipeline = make_pipeline(
        Scenario.from_world(world), table=trained_table(world), seed=GOLDEN_SEED
    )
    return pipeline.run(*GOLDEN_RANGE)


def golden_diff(expected: str, got: str) -> str:
    """A unified diff between the golden digest and a fresh run's."""
    return "".join(
        difflib.unified_diff(
            expected.splitlines(keepends=True),
            got.splitlines(keepends=True),
            fromfile="tests/golden/pipeline_report.json",
            tofile="current run",
            n=3,
        )
    )


class TestGoldenReport:
    def test_report_matches_golden(self, small_world):
        assert GOLDEN_PATH.exists(), (
            "golden file missing; regenerate with "
            "`PYTHONPATH=src:tests python -m test_golden`"
        )
        got = digest(build_golden_report(small_world), with_metrics=True)
        expected = GOLDEN_PATH.read_text(encoding="utf-8")
        if got != expected:
            diff = golden_diff(expected, got)
            raise AssertionError(
                "pipeline output drifted from the golden report; if the "
                "change is intentional, regenerate with "
                "`PYTHONPATH=src:tests python -m test_golden`\n" + diff
            )

    def test_golden_digest_is_nontrivial(self):
        document = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
        assert document["total_quartets"] > 0
        assert sum(document["blame_counts"].values()) > 0


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(
        digest(build_golden_report(), with_metrics=True), encoding="utf-8"
    )
    print(f"golden report written to {GOLDEN_PATH}")
