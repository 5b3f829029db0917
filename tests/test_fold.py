"""The grouped fold against the per-row oracle.

The pipeline groups each bucket's bad rows per tracker key
(:func:`repro.core.summary.group_bad_rows`) and folds the groups into
the counters and the three trackers (``_track_window``). On random
bad-row columns that fold must leave exactly what the per-row fold of
``tests/row_fold.py`` leaves: the same counters in the same key order,
the same issues created in the same order with the same serials, votes,
sample /24s and locations, and the same issues closed when.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.active import IssueTracker
from repro.core.blame import Blame
from repro.core.pipeline import PipelineReport, _KeyedIssueTracker
from repro.core.prediction import DurationPredictor
from repro.core.quartet import Quartet
from repro.core.summary import group_bad_rows
from repro.net.geo import Region
from repro.sim.scenario import BUCKETS_PER_DAY, Scenario
from repro.store.codec import encode_pair_key, report_state_dict

from tests.harness import make_pipeline
from tests.row_fold import blame_batch, decode_pairs, middle_keys, track_rows

LOCATIONS = ("edge-A", "edge-B", "edge-C")
MIDDLES = ((10,), (11,), (12, 13))
ASNS = (65000, 65001, 65002)

#: One bad row: (code, location, middle, client AS, /24, users). Few
#: values per column, so keys repeat within a bucket and /24s tie.
ROW = st.tuples(
    st.integers(0, 5),
    st.integers(0, len(LOCATIONS) - 1),
    st.integers(0, len(MIDDLES) - 1),
    st.integers(0, len(ASNS) - 1),
    st.integers(1, 4),
    st.integers(1, 50),
)
#: Buckets of rows (possibly none), each after a gap from the one
#: before: 1 continues a run, 2 and 3 pass GAP_BUCKETS, a day's worth
#: moves the window into another day's counter.
BUCKET = st.tuples(
    st.sampled_from([1, 1, 2, 3, BUCKETS_PER_DAY]), st.lists(ROW, max_size=10)
)


@pytest.fixture(scope="module")
def pipeline(small_world, trained_table):
    """A pipeline whose trackers each example resets."""
    return make_pipeline(Scenario.from_world(small_world), table=trained_table)


def _windows(buckets, flush_every):
    """Timed buckets, cut into windows of ``flush_every`` buckets; each
    window is ``(now, [(time, rows), ...])``."""
    time, timed = 0, []
    for gap, rows in buckets:
        time += gap
        timed.append((time, rows))
    return [
        (chunk[-1][0], chunk)
        for chunk in (
            timed[at : at + flush_every] for at in range(0, len(timed), flush_every)
        )
    ]


def _fold(pipeline, windows, *, grouped: bool) -> str:
    """Fold the windows from fresh trackers, grouped or row by row;
    returns every piece of state the fold leaves, as JSON."""
    pipeline.tracker = IssueTracker()
    pipeline.cloud_tracker = _KeyedIssueTracker(Blame.CLOUD)
    pipeline.client_tracker = _KeyedIssueTracker(Blame.CLIENT)
    pipeline.duration_predictor = DurationPredictor()
    report = PipelineReport(start=0, end=windows[-1][0] + 1)
    flushes = []
    for now, buckets in windows:
        quartets, codes, cuts = [], [], [0]
        for time, rows in buckets:
            for code, location, middle, asn, prefix, users in rows:
                quartets.append(
                    Quartet(
                        time, prefix, LOCATIONS[location], False, 90.0, 20,
                        users, ASNS[asn], MIDDLES[middle], Region.USA,
                    )
                )
                codes.append(code)
            cuts.append(len(quartets))
        blames = blame_batch(quartets, codes)
        if grouped:
            window = [
                bucket
                for bucket in group_bad_rows(blames, cuts, decode_pairs)
                if bucket is not None
            ]
            open_issues = pipeline._track_window(now, window, report)  # noqa: SLF001
            anomalies = {key for bucket in window for key, _, _ in bucket.middle}
        else:
            results = blames.to_results()
            open_issues = track_rows(pipeline, now, results, report)
            anomalies = middle_keys(results)
        flushes.append(
            [
                [issue.state_dict() for issue in open_issues],
                sorted(encode_pair_key(key) for key in anomalies),
            ]
        )
    return json.dumps(
        {
            "report": report_state_dict(report),
            "middle": pipeline.tracker.state_dict(),
            "cloud": pipeline.cloud_tracker.state_dict(),
            "client": pipeline.client_tracker.state_dict(),
            "durations": pipeline.duration_predictor.state_dict(encode_pair_key),
            "flushes": flushes,
        }
    )


# A row is (code, location, middle, client AS, /24, users).
_EDGE_CASES = {
    # Middle key A, key B, then A again: issues are created A first.
    "first_occurrence": [
        (1, [(3, 0, 0, 0, 1, 5), (3, 1, 1, 0, 2, 5), (3, 0, 0, 0, 3, 5)])
    ],
    # One client AS at two locations on the same /24: the first row's
    # location names the issue.
    "prefix_tie": [
        (1, [(5, 0, 0, 1, 2, 5), (5, 1, 0, 1, 2, 5), (5, 2, 0, 1, 3, 5)])
    ],
    # Client AS 0 blamed, quiet past the gap, then back as Ambiguous:
    # the swept run gets none of the later bucket's votes.
    "sweep_before_votes": [
        (1, [(5, 0, 0, 0, 1, 5)]),
        (3, [(4, 0, 0, 0, 1, 5), (5, 1, 0, 1, 1, 5)]),
    ],
    # Client before cloud, and both Insufficient codes: the counters
    # gain categories in row order, Insufficient where code 2 came.
    "count_order": [
        (
            1,
            [(5, 0, 0, 0, 1, 5), (2, 0, 0, 0, 1, 5), (1, 0, 0, 0, 1, 5),
             (0, 0, 0, 0, 2, 5)],
        )
    ],
}


@settings(max_examples=150, deadline=None)
@given(
    buckets=st.lists(BUCKET, min_size=1, max_size=8), flush_every=st.integers(1, 4)
)
@example(buckets=_EDGE_CASES["first_occurrence"], flush_every=1)
@example(buckets=_EDGE_CASES["prefix_tie"], flush_every=1)
@example(buckets=_EDGE_CASES["sweep_before_votes"], flush_every=2)
@example(buckets=_EDGE_CASES["count_order"], flush_every=1)
def test_grouped_trackers_equal_the_per_row_oracle(pipeline, buckets, flush_every):
    """Random windows of bad rows, with keys repeated within a bucket,
    ties on the minimum /24, keys recurring after ``GAP_BUCKETS`` and
    Insufficient rows under both codes: the grouped fold and the per-row
    fold leave the same counters, trackers, closed issues and duration
    history, and each flush sees the same open issues and anomalies."""
    windows = _windows(buckets, flush_every)
    assert _fold(pipeline, windows, grouped=True) == _fold(
        pipeline, windows, grouped=False
    )
