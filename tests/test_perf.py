"""Tests for repro.perf: the vectorized passive phase against its scalar
reference, and the sharded driver against the sequential one."""

import contextlib
import os

import numpy as np
import pytest

from repro.cloud.locations import RTTTargets
from repro.core.config import BlameItConfig
from repro.core.passive import PassiveLocalizer
from repro.core.quartet import Quartet, QuartetBatch
from repro.core.thresholds import ExpectedRTTTable
from repro.net.geo import Region
from repro.perf.sharded import ShardedPipeline
from repro.sim.scenario import Scenario

from tests.harness import (
    SEED,
    SMALL,
    digest,
    make_config,
    make_pipeline,
    reference,
)


def _random_quartets(rng: np.random.Generator, n: int) -> list[Quartet]:
    """A randomized bucket exercising every Algorithm-1 branch: several
    locations and paths, mixed mobile, RTTs straddling targets and
    expected RTTs, sub-gate sample counts, repeated prefixes across
    locations (ambiguity candidates)."""
    quartets = []
    for _ in range(n):
        quartets.append(
            Quartet(
                time=0,
                prefix24=int(rng.integers(0, 40)),
                location_id=f"edge-{rng.integers(0, 4)}",
                mobile=bool(rng.integers(0, 2)),
                mean_rtt_ms=float(rng.uniform(10.0, 120.0)),
                n_samples=int(rng.integers(1, 40)),
                users=int(rng.integers(1, 50)),
                client_asn=int(65000 + rng.integers(0, 6)),
                middle=((int(rng.integers(10, 14)),)),
                region=Region.USA,
            )
        )
    return quartets


def _random_table(rng: np.random.Generator) -> ExpectedRTTTable:
    cloud = {}
    middle = {}
    for loc in range(4):
        for mobile in (False, True):
            if rng.random() < 0.8:  # leave some keys unknown
                cloud[(f"edge-{loc}", mobile)] = float(rng.uniform(20.0, 80.0))
    for asn in range(10, 14):
        for mobile in (False, True):
            if rng.random() < 0.8:
                middle[((asn,), mobile)] = float(rng.uniform(20.0, 80.0))
    return ExpectedRTTTable(cloud=cloud, middle=middle)


def _targets() -> RTTTargets:
    return RTTTargets(by_region={Region.USA: (50.0, 80.0)})


class TestVectorizedPassive:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_scalar_on_random_buckets(self, seed):
        """Property test: identical results (order, blames, fractions)
        on randomized buckets covering all decision branches."""
        rng = np.random.default_rng(seed)
        quartets = _random_quartets(rng, 400)
        table = _random_table(rng)
        localizer = PassiveLocalizer(BlameItConfig(), _targets())
        assert localizer.assign_batch(
            QuartetBatch.from_quartets(quartets), table
        ).to_results() == localizer.assign(quartets, table)

    def test_all_branches_hit(self):
        """The random buckets actually exercise every blame category."""
        rng = np.random.default_rng(0)
        blames = set()
        localizer = PassiveLocalizer(BlameItConfig(), _targets())
        for _ in range(8):
            results = localizer.assign(
                _random_quartets(rng, 400), _random_table(rng)
            )
            blames.update(r.blame for r in results)
        assert len(blames) == 5  # all Blame members

    def test_empty_input(self):
        localizer = PassiveLocalizer(BlameItConfig(), _targets())
        blames = localizer.assign_batch(
            QuartetBatch.from_quartets([]), ExpectedRTTTable()
        )
        assert len(blames) == 0
        assert blames.to_results() == []

    def test_batch_input_direct(self):
        """assign_batch on a pre-built columnar batch equals scalar."""
        rng = np.random.default_rng(3)
        quartets = _random_quartets(rng, 300)
        table = _random_table(rng)
        scalar = PassiveLocalizer(BlameItConfig(), _targets())
        vector = PassiveLocalizer(BlameItConfig(), _targets())
        batch = QuartetBatch.from_quartets(quartets)
        assert vector.assign_batch(batch, table).to_results() == scalar.assign(
            quartets, table
        )


class TestQuartetBatch:
    def test_round_trip(self):
        quartets = _random_quartets(np.random.default_rng(1), 100)
        assert QuartetBatch.from_quartets(quartets).to_quartets() == quartets

    def test_row_returns_original(self):
        quartets = _random_quartets(np.random.default_rng(2), 10)
        batch = QuartetBatch.from_quartets(quartets)
        assert batch.row(3) is quartets[3]

    def test_empty(self):
        batch = QuartetBatch.from_quartets([])
        assert len(batch) == 0
        assert batch.to_quartets() == []

    def test_empty_bucket_round_trips_through_columnar_ops(self):
        """Empty buckets flow through every columnar hot-path op."""
        batch = QuartetBatch.from_quartets([])
        assert len(batch.pair_codes()) == 0
        taken = batch.take(np.array([], dtype=np.int64))
        assert len(taken) == 0 and taken.to_quartets() == []

    def test_all_rows_sanitized_round_trip(self):
        """A batch whose rows are all invalid sanitizes to an empty batch
        that still round-trips (the columnar pipeline feeds such buckets
        straight into learning and folding)."""
        from repro.chaos.inject import sanitize_batch

        quartets = [
            q._replace(mean_rtt_ms=float("nan"))
            for q in _random_quartets(np.random.default_rng(7), 20)
        ]
        clean = sanitize_batch(QuartetBatch.from_quartets(quartets))
        assert len(clean) == 0
        assert clean.to_quartets() == []
        assert len(clean.pair_codes()) == 0


class TestShardedPipeline:
    def test_matches_sequential_pipeline(self, matrix_cell):
        """A matrix cell kept under its old ID: one worker on 17-bucket
        shards, misaligned with the run window on purpose."""
        matrix_cell()

    def test_shard_partition_covers_range(self, small_world, trained_table):
        sharded = make_pipeline(
            Scenario.from_world(small_world), "sharded1", table=trained_table,
            n_workers=3, buckets_per_shard=None,
        )
        shards = sharded._shards(10, 100)
        assert shards[0][0] == 10
        assert shards[-1][1] == 100
        for (_, prev_end), (next_start, _) in zip(shards, shards[1:]):
            assert prev_end == next_start
        assert sharded._shards(5, 5) == []

    def test_default_workers_are_the_usable_cpus(self, small_world):
        """``n_workers=None`` counts the CPUs this process may run on,
        not the machine's: under ``taskset -c 0`` that is one worker."""
        sharded = ShardedPipeline(Scenario.from_world(small_world))
        assert sharded.n_workers == len(os.sched_getaffinity(0))

    def test_default_workers_match_sequential(self, small_world, trained_table):
        """At the default worker count the sharded report is the
        sequential one. With one usable CPU (``taskset -c 0``) the shards
        run inline, through the span kernel in this process."""
        with contextlib.closing(
            ShardedPipeline(
                Scenario.from_world(small_world),
                config=make_config(),
                fixed_table=trained_table,
                seed=SEED,
            )
        ) as sharded:
            report = sharded.run(*SMALL.span)
        assert digest(report) == reference(SMALL, small_world).digest
