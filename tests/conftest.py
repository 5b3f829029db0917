"""Shared fixtures: small, fast worlds reused across the suite."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.net.geo import Region
from repro.net.topology import TopologyParams, generate_topology
from repro.sim.scenario import Scenario, ScenarioParams, build_world


@pytest.fixture
def rng() -> np.random.Generator:
    """A fresh deterministic generator per test."""
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def small_params() -> ScenarioParams:
    """Two regions, two locations each, one simulated day."""
    return ScenarioParams(
        seed=42,
        regions=(Region.USA, Region.EUROPE),
        locations_per_region=2,
        duration_days=1,
    )


@pytest.fixture(scope="session")
def small_world(small_params):
    """A session-shared small world (read-only in tests)."""
    return build_world(small_params)


@pytest.fixture(scope="session")
def suite_params() -> ScenarioParams:
    """The canonical scenario-suite world (rings=3, fat sparse ring).

    Ring 2's membership misses EUROPE entirely, so European clients'
    ring-2 slots are served cross-region with real weight — required by
    the inter-region peering incident family. Kept in sync with
    :func:`repro.analysis.validation.suite_world_params`.
    """
    from repro.analysis.validation import suite_world_params

    return suite_world_params()


@pytest.fixture(scope="session")
def suite_world(suite_params):
    """A session-shared ringed world for scenario-suite tests."""
    return build_world(suite_params)


@pytest.fixture(scope="session")
def suite_world_2d(suite_params):
    """A two-day variant of the suite world: runs over it cross the
    day-288 checkpoint (the matrix's clustered, naive and suite cases)."""
    return build_world(dataclasses.replace(suite_params, duration_days=2))


@pytest.fixture(scope="session")
def multi_day_params() -> ScenarioParams:
    """Two regions, one location each, three simulated days — the
    smallest world whose runs span multiple day-boundary table
    refreshes (checkpoint and sharded-refresh tests)."""
    return ScenarioParams(
        seed=42,
        regions=(Region.USA, Region.EUROPE),
        locations_per_region=1,
        duration_days=3,
    )


@pytest.fixture(scope="session")
def multi_day_world(multi_day_params):
    """A session-shared three-day world (read-only in tests)."""
    return build_world(multi_day_params)


@pytest.fixture(scope="session")
def small_scenario(small_world):
    """A fault-free, churn-free scenario over the small world.

    Tests must not mutate it; fault-specific tests build their own
    scenarios via :meth:`Scenario.with_faults` or direct construction.
    """
    return Scenario(small_world, (), ())


@pytest.fixture(scope="session")
def trained_table(small_world):
    """The expected-RTT table learned from the small world's first 96
    buckets (see :func:`tests.harness.trained_table`)."""
    from tests.harness import trained_table

    return trained_table(small_world)


@pytest.fixture
def matrix_cell(request, tmp_path):
    """Runs the matrix cell whose home is the requesting test's ID (see
    ``HOMES`` in :mod:`tests.harness`)."""
    from tests.harness import CELLS, HOMES, check_cell

    (cell,) = [c for c in CELLS if HOMES.get(c.id) == request.node.nodeid]
    return lambda: check_cell(cell, request, tmp_path)


@pytest.fixture(scope="session")
def small_topology():
    """A generated AS topology with three regions."""
    params = TopologyParams(
        regions=(Region.USA, Region.EUROPE, Region.INDIA),
        n_tier1=4,
        transits_per_region=3,
        access_per_region=6,
    )
    return generate_topology(params, np.random.default_rng(7))
