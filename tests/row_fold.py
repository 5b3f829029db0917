"""The per-row fold: the specification the grouped trackers are checked
against.

The pipeline's trackers fold a bucket's bad rows grouped per key
(:func:`repro.core.summary.group_bad_rows`). This module keeps the fold
they replaced — one :class:`~repro.core.blame.BlameResult` record at a
time through the counters and the three trackers — as the oracle, and
the helpers that turn per-row results into the grouped form the
trackers take.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.core.active import GAP_BUCKETS, IssueTracker, MiddleIssue
from repro.core.blame import BLAME_BY_CODE, Blame, BlameResult, BlameResultBatch
from repro.core.pipeline import PipelineReport, SegmentIssue, _KeyedIssueTracker
from repro.core.quartet import Quartet, QuartetBatch
from repro.core.summary import BadGroups, KeyGroups, group_bad_rows
from repro.sim.scenario import BUCKETS_PER_DAY

#: A decision-chain code per category (Insufficient's first exit).
CODE_OF = {blame: BLAME_BY_CODE.index(blame) for blame in Blame}


def decode_pairs(batch: QuartetBatch, codes: list[int]) -> list[tuple]:
    """Pair codes decoded one by one, with no cache."""
    return [batch.pair_key(code) for code in codes]


def blame_batch(quartets: list[Quartet], codes: list[int]) -> BlameResultBatch:
    """Bad quartets and their decision-chain codes as the columnar batch
    the span kernel returns (no fractions: the fold reads none)."""
    nan = np.full(len(quartets), np.nan)
    return BlameResultBatch(
        QuartetBatch.from_quartets(quartets),
        np.asarray(codes, dtype=np.int64),
        nan,
        nan.copy(),
    )


def grouped(results: list[BlameResult]) -> BadGroups:
    """One bucket's per-row results, grouped the way the pipeline groups
    them; a bucket with no rows is an empty group set."""
    if not results:
        return BadGroups(0, 0, [], [], KeyGroups([], {}), KeyGroups([], {}))
    blames = blame_batch(
        [result.quartet for result in results],
        [CODE_OF[result.blame] for result in results],
    )
    (groups,) = group_bad_rows(blames, [0, len(results)], decode_pairs)
    return groups


def middle_groups(results: list[BlameResult]) -> list:
    """What :meth:`IssueTracker.update` takes for these rows."""
    return grouped(results).middle


def client_groups(results: list[BlameResult]) -> KeyGroups:
    """What the client tracker's ``update`` takes for these rows."""
    return grouped(results).client


# -- the oracle -----------------------------------------------------------


def update_middle(
    tracker: IssueTracker, time: int, results: list[BlameResult]
) -> tuple[list[MiddleIssue], list[MiddleIssue]]:
    """:meth:`IssueTracker.update`, one record at a time."""
    displaced: list[MiddleIssue] = []
    for result in results:
        if result.blame is not Blame.MIDDLE:
            continue
        quartet = result.quartet
        key = (quartet.location_id, quartet.middle)
        issue = tracker.open_issues.get(key)
        if issue is None or time - issue.last_seen > GAP_BUCKETS:
            if issue is not None:
                displaced.append(issue)
            issue = MiddleIssue(
                location_id=quartet.location_id,
                middle=quartet.middle,
                first_seen=time,
                last_seen=time,
                serial=tracker._next_serial,  # noqa: SLF001
            )
            tracker._next_serial += 1  # noqa: SLF001
            tracker.open_issues[key] = issue
        issue.last_seen = max(issue.last_seen, time)
        issue.prefixes.add(quartet.prefix24)
        issue.users_by_bucket[time] = (
            issue.users_by_bucket.get(time, 0) + quartet.users
        )
    newly_closed = displaced + tracker._expire(time)  # noqa: SLF001
    return list(tracker.open_issues.values()), newly_closed


def _key_and_culprit(blame: Blame, result: BlameResult, cloud_asn: int):
    quartet = result.quartet
    if blame is Blame.CLOUD:
        return quartet.location_id, cloud_asn
    return quartet.client_asn, quartet.client_asn


def update_keyed(
    tracker: _KeyedIssueTracker,
    time: int,
    results: list[BlameResult],
    cloud_asn: int,
) -> list[SegmentIssue]:
    """The cloud or client tracker's ``update``, one record at a time:
    votes counted over every row, the gap sweep, the tracker's own
    rows, then votes credited to the runs still open."""
    votes_total: Counter = Counter()
    for result in results:
        key, _ = _key_and_culprit(tracker.blame, result, cloud_asn)
        votes_total[key] += 1
    closed_now: list[SegmentIssue] = []
    for key, issue in list(tracker.open.items()):
        if time - issue.last_seen > GAP_BUCKETS:
            del tracker.open[key]
            closed_now.append(issue)
    for result in results:
        if result.blame is not tracker.blame:
            continue
        key, culprit = _key_and_culprit(tracker.blame, result, cloud_asn)
        issue = tracker.open.get(key)
        if issue is None:
            issue = SegmentIssue(
                blame=tracker.blame,
                key=key,
                location_id=result.quartet.location_id,
                culprit_asn=culprit,
                first_seen=time,
                last_seen=time,
            )
            tracker.open[key] = issue
        issue.last_seen = max(issue.last_seen, time)
        issue.impact += result.quartet.users
        issue.votes_for += 1
        if issue.sample_prefix is None or result.quartet.prefix24 < issue.sample_prefix:
            issue.sample_prefix = result.quartet.prefix24
            issue.location_id = result.quartet.location_id
    for key, issue in tracker.open.items():
        if key in votes_total:
            issue.votes_total += votes_total[key]
    return closed_now


def track_rows(
    pipeline, now: int, results: list[BlameResult], report: PipelineReport
) -> list[MiddleIssue]:
    """The pipeline's ``_track_window``, one record at a time: the
    counters in row order, then each bucket's rows through the three
    trackers. Returns the middle issues open after the last bucket."""
    report.bad_quartets += len(results)
    day_counter = report.blame_counts_by_day.setdefault(
        now // BUCKETS_PER_DAY, Counter()
    )
    by_bucket: dict[int, list[BlameResult]] = {}
    for result in results:
        report.blame_counts[result.blame] += 1
        day_counter[result.blame] += 1
        by_bucket.setdefault(result.quartet.time, []).append(result)
    open_issues: list[MiddleIssue] = []
    cloud_asn = pipeline.scenario.world.cloud_asn
    for time in sorted(by_bucket):
        bucket = by_bucket[time]
        open_issues, closed = update_middle(pipeline.tracker, time, bucket)
        pipeline._record_closed_middle(closed, report)  # noqa: SLF001
        report.closed_cloud.extend(
            update_keyed(pipeline.cloud_tracker, time, bucket, cloud_asn)
        )
        report.closed_client.extend(
            update_keyed(pipeline.client_tracker, time, bucket, cloud_asn)
        )
    return open_issues


def middle_keys(results: list[BlameResult]) -> set:
    """The window's middle-blamed keys, as the probe planner sees them."""
    return {
        (r.quartet.location_id, r.quartet.middle)
        for r in results
        if r.blame is Blame.MIDDLE
    }
