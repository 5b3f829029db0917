"""The simulated substrate, pinned: generated traffic and the warm-up.

``tests/golden/substrate_v1.json`` holds digests written by the per-slot
reference generator and the pure-Python warm-up that
:class:`~repro.perf.batch.BatchQuartetGenerator` and
:func:`~repro.analysis.validation.build_warmup_state` replaced. The
generator is pinned by these digests, not by a second implementation:
any change to what the traffic model produces — values, row order, the
shared-stream draw order — fails here by name.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.validation import build_warmup_state
from repro.baselines.asmetro import as_metro_batch
from repro.core.quartet import QuartetBatch
from repro.perf.batch import BatchQuartetGenerator
from repro.sim.scenario import BUCKETS_PER_DAY, DemandSurge, Scenario

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "substrate_v1.json").read_text(
        encoding="utf-8"
    )
)


def rows_digest(quartets) -> str:
    """sha256 over every field of every row, floats exact, in order."""
    h = hashlib.sha256()
    for q in quartets:
        h.update(
            repr(
                (
                    int(q.time),
                    int(q.prefix24),
                    str(q.location_id),
                    bool(q.mobile),
                    float(q.mean_rtt_ms).hex(),
                    int(q.n_samples),
                    int(q.users),
                    int(q.client_asn),
                    tuple(int(a) for a in q.middle),
                    q.region.name,
                )
            ).encode("utf-8")
        )
    return h.hexdigest()


def warmup_digest(state) -> str:
    """sha256 over the table items, client observations and targets,
    each in its own order."""
    doc = {
        "cloud": [
            [str(loc), bool(mobile), float(v).hex()]
            for (loc, mobile), v in state.table.cloud.items()
        ],
        "middle": [
            [[int(a) for a in mid], bool(mobile), float(v).hex()]
            for (mid, mobile), v in state.table.middle.items()
        ],
        "client_observations": [
            [str(loc), [int(a) for a in mid], int(t), int(users)]
            for (loc, mid), t, users in state.client_observations
        ],
        "targets": [
            [str(loc), [int(a) for a in mid], int(p)]
            for loc, mid, p in state.targets
        ],
    }
    return hashlib.sha256(json.dumps(doc).encode("utf-8")).hexdigest()


def test_bucket_rows_match_golden(small_world):
    """Per-bucket seeding over a day with faults and route churn."""
    generator = BatchQuartetGenerator(Scenario.from_world(small_world))
    for t in range(0, 288, 7):
        quartets = generator.generate_quartets(t, rng=np.random.default_rng((5, t)))
        assert len(quartets) == GOLDEN["bucket_rows"][str(t)], t
        assert rows_digest(quartets) == GOLDEN["buckets"][str(t)], t


def test_shared_stream_matches_golden(small_world):
    """The scenario's shared stream, drawn bucket after bucket."""
    generator = BatchQuartetGenerator(Scenario.from_world(small_world))
    stream = [
        q for t in range(GOLDEN["shared_stream_buckets"])
        for q in generator.generate_quartets(t)
    ]
    assert len(stream) == GOLDEN["shared_stream_rows"]
    assert rows_digest(stream) == GOLDEN["shared_stream"]


@pytest.mark.parametrize(
    ("name", "rekey"), [("warmup", None), ("warmup_as_metro", as_metro_batch)]
)
def test_warmup_state_matches_golden(small_world, name, rekey):
    expected = GOLDEN[name]
    state = build_warmup_state(
        small_world, days=expected["days"], stride=expected["stride"], rekey=rekey
    )
    assert len(state.table.cloud) == expected["table_cloud"]
    assert len(state.table.middle) == expected["table_middle"]
    assert len(state.client_observations) == expected["client_observations"]
    assert len(state.targets) == expected["targets"]
    assert warmup_digest(state) == expected["digest"]


_COLUMNS = (
    "time", "prefix24", "mobile", "mean_rtt_ms", "n_samples", "users",
    "client_asn", "location_index", "middle_index", "region_index",
)


def _assert_rows_equal(span: QuartetBatch, buckets: list[QuartetBatch]) -> None:
    for name in _COLUMNS:
        got = getattr(span, name)
        want = np.concatenate([getattr(bucket, name) for bucket in buckets])
        assert got.dtype == want.dtype and np.array_equal(got, want), name
    for vocab in ("locations", "middles", "regions"):
        assert all(getattr(b, vocab) == getattr(span, vocab) for b in buckets)


class TestSpanGeneration:
    """One ``generate`` call over a span of buckets is, row for row, its
    buckets' one-bucket calls concatenated — across every edge where
    the draws or the latency change inside the span."""

    @staticmethod
    def _scenario(world) -> Scenario:
        """The world's faults and route churn, plus a demand surge."""
        base = Scenario.from_world(world)
        surge = DemandSurge(0, world.slots[0].client.metro.name, 300, 7, 3.0)
        return Scenario(world, base.faults, base.reroutes, surges=(surge,))

    @staticmethod
    def _spans(scenario: Scenario, generator: BatchQuartetGenerator) -> list[range]:
        horizon = scenario.world.params.duration_days * BUCKETS_PER_DAY
        fault = next(f for f in scenario.faults if 2 < f.start and f.end < horizon - 2)
        churn = next(r.time for r in scenario.reroutes if 2 < r.time < horizon - 3)
        assert not generator.static.all(), "no churn slot to cross a segment of"
        return [
            range(fault.start - 2, fault.start + 3),  # a fault starts
            range(fault.end - 2, fault.end + 3),  # and ends
            range(297, 303),  # the surge starts
            range(305, 310),  # and ends
            range(churn - 2, churn + 3),  # a churn segment changes
            range(BUCKETS_PER_DAY - 4, BUCKETS_PER_DAY + 4),  # the day turns
        ]

    def test_per_bucket_seeding(self, multi_day_world):
        scenario = self._scenario(multi_day_world)
        generator = BatchQuartetGenerator(scenario)
        for span in self._spans(scenario, generator):
            rng = [np.random.default_rng((5, t)) for t in span]
            _assert_rows_equal(
                generator.generate(span, rng),
                [generator.generate(t, np.random.default_rng((5, t))) for t in span],
            )

    def test_shared_stream(self, multi_day_world):
        """Two scenarios with equal streams: one draws span by span, the
        other bucket by bucket, in the same bucket order."""
        spans = self._scenario(multi_day_world)
        buckets = self._scenario(multi_day_world)
        by_span = BatchQuartetGenerator(spans)
        by_bucket = BatchQuartetGenerator(buckets)
        for span in self._spans(spans, by_span):
            _assert_rows_equal(
                by_span.generate(span), [by_bucket.generate(t) for t in span]
            )
