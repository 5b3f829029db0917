"""Tests for the ⟨AS, Metro⟩ grouping baseline."""

import numpy as np
import pytest

from repro.baselines.asmetro import as_metro_batch, as_metro_key
from repro.perf.batch import BatchQuartetGenerator


class TestAsMetroKey:
    def test_int_tuple(self):
        key = as_metro_key(65000, "Chicago")
        assert isinstance(key, tuple)
        assert all(isinstance(v, int) for v in key)

    def test_distinct_metros_distinct_keys(self):
        assert as_metro_key(65000, "Chicago") != as_metro_key(65000, "Dallas")

    def test_unknown_metro(self):
        with pytest.raises(KeyError):
            as_metro_key(65000, "Gotham")


class TestRekeying:
    def test_rekey_preserves_other_fields(self, small_scenario, small_world):
        batch = BatchQuartetGenerator(small_scenario).generate(
            150, np.random.default_rng(0)
        )
        rekeyed = as_metro_batch(batch, small_world.population)
        quartets = batch.to_quartets()
        assert len(rekeyed) == len(quartets)
        assert len(set(rekeyed.middles)) == len(rekeyed.middles)
        for before, after in zip(quartets, rekeyed.to_quartets()):
            assert after.middle == as_metro_key(
                before.client_asn,
                small_world.population.get(before.prefix24).metro.name,
            )
            assert after._replace(middle=before.middle) == before

    def test_as_metro_groups_mix_paths(self, small_scenario, small_world):
        """The §4.2 rationale: ⟨AS, Metro⟩ groups often span multiple BGP
        paths, while BGP-path groups are single-path by construction."""
        batch = BatchQuartetGenerator(small_scenario).generate(
            150, np.random.default_rng(0)
        )
        rekeyed = as_metro_batch(batch, small_world.population)
        groups: dict = {}
        for before, after in zip(batch.to_quartets(), rekeyed.to_quartets()):
            groups.setdefault(after.middle, set()).add(
                (before.location_id, before.middle)
            )
        assert any(len(paths) > 1 for paths in groups.values())  # some mix paths
