"""Golden regression test for labelled incident generation.

``tests/golden/incident_specs_v1.json`` holds one SHA-256 per generated
batch: scenario suites over three suite worlds, and every incident family
over six three-region worlds. The digest covers every field of every
spec (floats exact), so any change to what incident generation picks —
targets, onsets, durations, magnitudes, the diagnosability filters'
verdicts, the draw order — fails here by name.

Regenerate (only after an *intentional* behavior change)::

    PYTHONPATH=src:tests python -m test_golden_incidents
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.validation import build_scenario_suite, suite_world_params
from repro.net.geo import Region
from repro.sim.incidents import (
    ADVERSARIAL_ARCHETYPES,
    PAPER_ARCHETYPES,
    generate_incidents,
)
from repro.sim.scenario import ScenarioParams, build_world

GOLDEN_PATH = Path(__file__).parent / "golden" / "incident_specs_v1.json"

SUITE_WORLD_SEEDS = (42, 2026, 14)
SUITE_SEEDS = (7, 9)
FAMILY_WORLD_SEEDS = tuple(range(11, 17))
FAMILY_SEEDS = (5, 6)
FAMILY_COUNT = 22


def canonical(value):
    """A JSON-safe form of specs: dataclasses as field dicts, enums by
    value, frozensets sorted, floats as exact hex."""
    if dataclasses.is_dataclass(value):
        return {
            f.name: canonical(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, (set, frozenset)):
        return sorted(canonical(v) for v in value)
    if isinstance(value, (tuple, list)):
        return [canonical(v) for v in value]
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if isinstance(value, np.integer):
        return int(value)
    return value


def specs_digest(value) -> str:
    text = json.dumps(canonical(value), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def family_world_params(seed: int) -> ScenarioParams:
    return ScenarioParams(
        seed=seed,
        regions=(Region.USA, Region.EUROPE, Region.INDIA),
        duration_days=2,
        locations_per_region=2,
    )


def suite_digests(world_seed: int) -> dict[str, str]:
    world = build_world(suite_world_params(world_seed))
    return {
        f"suite/world={world_seed}/seed={seed}": specs_digest(
            build_scenario_suite(world, seed, cases_per_family=2)
        )
        for seed in SUITE_SEEDS
    }


def family_digests(world_seed: int) -> dict[str, str]:
    world = build_world(family_world_params(world_seed))
    return {
        f"families/world={world_seed}/seed={seed}": specs_digest(
            generate_incidents(
                world, FAMILY_COUNT, np.random.default_rng(seed),
                families=PAPER_ARCHETYPES + ADVERSARIAL_ARCHETYPES,
            )
        )
        for seed in FAMILY_SEEDS
    }


def build_golden() -> dict[str, str]:
    digests: dict[str, str] = {}
    for world_seed in SUITE_WORLD_SEEDS:
        digests.update(suite_digests(world_seed))
    for world_seed in FAMILY_WORLD_SEEDS:
        digests.update(family_digests(world_seed))
    return digests


def _golden() -> dict[str, str]:
    assert GOLDEN_PATH.exists(), (
        "golden incident digests missing; regenerate with "
        "`PYTHONPATH=src:tests python -m test_golden_incidents`"
    )
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


_REGEN = (
    "incident specs drifted from the golden digests; if the change is "
    "intentional, regenerate with "
    "`PYTHONPATH=src:tests python -m test_golden_incidents`"
)


@pytest.mark.parametrize("world_seed", SUITE_WORLD_SEEDS)
def test_scenario_suite_matches_golden(world_seed):
    golden = _golden()
    for key, digest in suite_digests(world_seed).items():
        assert digest == golden[key], f"{key}: {_REGEN}"


@pytest.mark.parametrize("world_seed", FAMILY_WORLD_SEEDS)
def test_family_batch_matches_golden(world_seed):
    golden = _golden()
    for key, digest in family_digests(world_seed).items():
        assert digest == golden[key], f"{key}: {_REGEN}"


def test_golden_covers_every_batch():
    expected = {
        f"suite/world={w}/seed={s}"
        for w in SUITE_WORLD_SEEDS for s in SUITE_SEEDS
    } | {
        f"families/world={w}/seed={s}"
        for w in FAMILY_WORLD_SEEDS for s in FAMILY_SEEDS
    }
    assert set(_golden()) == expected


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(
        json.dumps(build_golden(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"golden incident digests written to {GOLDEN_PATH}")
