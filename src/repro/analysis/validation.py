"""Validation harnesses: §6.3 incident matching and §6.4 corroboration.

* :func:`run_case` runs the full pipeline over one :class:`SuiteCase` —
  one or more concurrent labelled incidents — and :func:`score_case`
  checks the blamed segment and culprit AS of each against ground
  truth. A lone incident is the one-spec case ``SuiteCase(id, (spec,),
  "single")``: the reproduction of the paper's 88-incident validation.
* :func:`validate_scenario_suite` runs the adversarial suite through
  the same path: a deterministic batch of single and deliberately
  *overlapping* cases across every incident family, scored into a
  per-family scorecard (localization accuracy, blame-segment confusion
  matrix, and naive vs mitigation-aware impact orderings of concurrent
  incidents). Only the suite discounts chronic (ambient) blames.
* :func:`corroboration_ratios` reproduces the §6.4 methodology: treat
  continuous ground-truth traceroutes as the oracle, and per ⟨cloud
  location, BGP path⟩ measure the fraction of latency issues whose
  culprit-AS diagnosis matches — for BlameIt's BGP-path grouping and for
  the ⟨AS, Metro⟩ alternative (Figure 11).

Both are deliberately cheap to run many times over one shared world:
:func:`build_warmup_state` does the training pass once — the columnar
steps of :meth:`BlameItPipeline.warmup` on generated batches — and
records its artifacts in a :class:`WarmupState` every run then applies.
The case pipelines are independent, so :func:`run_cases` and the suite
run them in a fork pool on every usable CPU and score them in the
parent (DESIGN.md §4 decision 10). Corroboration runs the same
generator and the same batch door of Algorithm 1
(``PassiveLocalizer.assign_batch``) as the pipeline.

Paper provenance: §6.3 (validation against 88 labelled incidents), §6.4
and Figure 11 (corroboration with continuous traceroutes; BGP-path vs
⟨AS, Metro⟩ grouping), §6.2 (impact ranking of concurrent incidents).
"""

from __future__ import annotations

import dataclasses
import itertools
import multiprocessing
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.baselines.asmetro import as_metro_batch
from repro.core.blame import Blame
from repro.core.config import BlameItConfig
from repro.core.impact import (
    MitigationRecord,
    rank_by_mitigation_benefit,
    rank_by_naive_impact,
    rank_correlation,
    rankings_disagree,
)
from repro.core.passive import PassiveLocalizer
from repro.core.pipeline import SPAN_BUCKETS, BlameItPipeline, PipelineReport
from repro.core.quartet import Quartet, QuartetBatch
from repro.core.summary import summarize_buckets
from repro.core.thresholds import ExpectedRTTLearner, ExpectedRTTTable
from repro.net.asn import ASPath
from repro.net.bgp import Timestamp
from repro.sim.faults import SegmentKind
from repro.sim.incidents import (
    ADVERSARIAL_ARCHETYPES,
    PAPER_ARCHETYPES,
    IncidentArchetype,
    IncidentSpec,
    _generate,
    _index_world,
)
from repro.net.geo import Region
from repro.perf.batch import BatchQuartetGenerator
from repro.perf.workers import fork_workers
from repro.sim.scenario import BUCKETS_PER_DAY, Scenario, ScenarioParams, World

#: Noise floor for ground-truth traceroute comparisons.
_MIN_DELTA_MS = 5.0

Rekey = Callable[[QuartetBatch, object], QuartetBatch]


@dataclass
class WarmupState:
    """One-time training artifacts shared across runs over a world.

    Attributes:
        table: Expected-RTT medians learned from fault-free history.
        client_observations: (path key, bucket, users) triples for the
            client-count predictor.
        targets: (location, middle, representative /24) background-probe
            targets.
    """

    table: ExpectedRTTTable
    client_observations: list[tuple[tuple, Timestamp, int]] = field(default_factory=list)
    targets: list[tuple[str, ASPath, int]] = field(default_factory=list)

    def apply(self, pipeline: BlameItPipeline) -> None:
        """Preload a pipeline's predictor and probe-target registry.

        The observations replay one bucket per ``observe_bucket`` call,
        state-identical to one ``observe`` per triple; the predictor keeps
        the lists it is handed, so each call gets fresh ones.
        """
        predictor = pipeline.client_predictor
        for time, rows in itertools.groupby(
            self.client_observations, key=lambda row: row[1]
        ):
            keys, _, users = zip(*rows)
            predictor.observe_bucket(list(keys), time, list(users))
        for location_id, middle, prefix24 in self.targets:
            pipeline.background.register_target(location_id, middle, prefix24)


def build_warmup_state(
    world: World,
    days: int = 1,
    stride: int = 2,
    rekey: Rekey | None = None,
) -> WarmupState:
    """Train expected RTTs and client counts on a fault-free sibling.

    The steps :meth:`BlameItPipeline.warmup` runs, recorded instead of
    applied: generate each sampled bucket, optionally re-key it, fold it
    into the learner, and summarize it into per-⟨location, middle⟩ user
    counts and first-seen probe targets.

    Args:
        world: The shared world.
        days: Training horizon.
        stride: Sample every ``stride``-th bucket.
        rekey: Optional batch transform (e.g.
            :func:`repro.baselines.asmetro.as_metro_batch`) so the
            learned table matches an alternative grouping.

    Returns:
        A :class:`WarmupState` usable by any scenario over this world.
    """
    generator = BatchQuartetGenerator(Scenario(world, (), ()))
    learner = ExpectedRTTLearner(history_days=max(days, 1))
    state = WarmupState(table=ExpectedRTTTable())
    # Keyed by ⟨location, middle⟩, not pair code: a re-keyed batch has
    # its own middle vocabulary.
    targeted: set[tuple[str, ASPath]] = set()
    for time in range(0, days * BUCKETS_PER_DAY, max(1, stride)):
        batch = generator.generate(time)
        if rekey is not None:
            batch = rekey(batch, world.population)
        learner.observe_batch(batch)
        span = summarize_buckets(
            [time], batch, [0, len(batch)], [False], None, set(), want_learn=False
        )
        for code, users, prefix24 in zip(
            span.pair_codes.tolist(),
            span.pair_users.tolist(),
            span.new_prefixes.tolist(),
        ):
            key = batch.pair_key(code)
            state.client_observations.append((key, time, users))
            if key not in targeted:
                targeted.add(key)
                state.targets.append((*key, prefix24))
    state.table = learner.table()
    return state


# ---------------------------------------------------------------------------
# §6.3 — scoring reported issues against labelled incidents
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _ReportedIssue:
    """One closed issue flattened to ⟨segment, AS, place, window, impact⟩."""

    segment: SegmentKind
    asn: int | None
    location_id: str
    first_seen: Timestamp
    last_seen: Timestamp
    impact: float


def _reported_issues(report: PipelineReport, world: World) -> list[_ReportedIssue]:
    """Every closed issue as a flat record, segments re-classified.

    §6.4: the traceroute comparison can blame any AS on the path — a
    middle-issue verdict naming the client or cloud AS re-classifies the
    issue's segment accordingly (and pools with the passive blames of
    that same AS).
    """
    verdicts = BlameItPipeline.best_verdicts_by_key(report.localized)
    client_asns = set(world.population.asns)
    issues: list[_ReportedIssue] = []
    for issue in report.closed_cloud:
        issues.append(
            _ReportedIssue(
                SegmentKind.CLOUD, world.cloud_asn, issue.location_id,
                issue.first_seen, issue.last_seen, issue.impact,
            )
        )
    for issue in report.closed_client:
        issues.append(
            _ReportedIssue(
                SegmentKind.CLIENT, int(issue.key), issue.location_id,
                issue.first_seen, issue.last_seen, issue.impact,
            )
        )
    for issue in report.closed_middle:
        verdict = verdicts.get(issue.key)
        asn = verdict.asn if verdict else None
        if asn in client_asns:
            segment = SegmentKind.CLIENT
        elif asn == world.cloud_asn:
            segment = SegmentKind.CLOUD
        else:
            segment = SegmentKind.MIDDLE
        issues.append(
            _ReportedIssue(
                segment, asn, issue.location_id,
                issue.first_seen, issue.last_seen, issue.total_client_time,
            )
        )
    return issues


def _pool_issues(
    issues: list[_ReportedIssue],
) -> dict[tuple[SegmentKind, int | None], float]:
    """Impact pooled per (segment, AS) across issues and locations.

    A widespread middle fault shows up as several per-location issues
    naming the same AS (the paper's "peering fault" case study is exactly
    this), and pooling is what makes the widespread cause beat any one
    location's side effects.
    """
    pooled: dict[tuple[SegmentKind, int | None], float] = {}
    for issue in issues:
        key = (issue.segment, issue.asn)
        pooled[key] = pooled.get(key, 0.0) + issue.impact
    return pooled


def _dominant_pair(
    pooled: dict[tuple[SegmentKind, int | None], float],
) -> tuple[SegmentKind | None, int | None]:
    if not pooled:
        return None, None
    (segment, asn), _ = max(
        pooled.items(), key=lambda kv: (kv[1], kv[0][0].value, kv[0][1] or -1)
    )
    return segment, asn


# ---------------------------------------------------------------------------
# Cases, the suite & ground-truth scoring
# ---------------------------------------------------------------------------
#
# Every labelled run is a :class:`SuiteCase`: a single §6.3 incident is a
# one-spec case, and :func:`run_case` runs and scores any case the same
# way. The adversarial suite adds *mixed* cases on purpose: a fresh
# adversarial incident overlaps an older, staggered paper-era incident in
# the same window, so scoring has to attribute reported issues to the
# right ground truth — and record what a mitigation queue would do with
# the concurrent incidents (naive user-minutes burned vs forward-looking
# benefit; see :mod:`repro.core.impact`).

#: Scorecard document format.
SCORECARD_FORMAT_VERSION = 1


@dataclass(frozen=True)
class SuiteCase:
    """One labelled pipeline run: one or more concurrent incidents.

    Attributes:
        case_id: Index within the suite, or a lone incident's id (the
            pipeline seed is ``1000 + case_id``).
        specs: The labelled incidents active in this run; ``specs[0]``
            is the case's *subject* (the family the case was built for).
        kind: ``"single"`` or ``"mixed"`` (a staggered paper-era
            incident overlaps the subject).
    """

    case_id: int
    specs: tuple[IncidentSpec, ...]
    kind: str

    def window(self, world: World, pad_buckets: int) -> tuple[int, int]:
        """Padded union of the member incidents' windows."""
        start = min(spec.start for spec in self.specs)
        end = max(spec.start + spec.duration for spec in self.specs)
        return (
            max(0, start - pad_buckets),
            min(world.params.horizon_buckets, end + pad_buckets),
        )

    def realize(self, world: World) -> Scenario:
        """One scenario containing every member incident."""
        return Scenario(
            world,
            tuple(f for spec in self.specs for f in spec.faults),
            tuple(r for spec in self.specs for r in spec.reroutes),
            surges=tuple(s for spec in self.specs for s in spec.surges),
            ring_flaps=tuple(f for spec in self.specs for f in spec.ring_flaps),
        )


def _shift_spec(spec: IncidentSpec, new_start: int) -> IncidentSpec:
    """The same incident moved to ``new_start`` (faults/churn shifted)."""
    delta = new_start - spec.start
    if delta == 0:
        return spec
    return dataclasses.replace(
        spec,
        start=new_start,
        faults=tuple(
            dataclasses.replace(f, start=f.start + delta) for f in spec.faults
        ),
        reroutes=tuple(
            dataclasses.replace(r, time=r.time + delta) for r in spec.reroutes
        ),
        surges=tuple(
            dataclasses.replace(s, start=s.start + delta) for s in spec.surges
        ),
        ring_flaps=tuple(
            dataclasses.replace(f, start=f.start + delta) for f in spec.ring_flaps
        ),
    )


def _truncate_spec(spec: IncidentSpec, new_end: int) -> IncidentSpec:
    """The same incident cut short so it ends at ``new_end``.

    Used when a staggered background can't start early enough (the
    subject begins near the horizon's left edge): shortening the tail
    preserves the 'nearly over at the subject's onset' structure that
    the mitigation-aware ranking depends on. Point events (reroutes)
    past the new end are dropped.
    """
    new_duration = new_end - spec.start
    if new_duration >= spec.duration:
        return spec
    if new_duration < 1:
        new_duration = 1
        new_end = spec.start + 1
    return dataclasses.replace(
        spec,
        duration=new_duration,
        faults=tuple(
            dataclasses.replace(
                f, duration=max(1, min(f.duration, new_end - f.start))
            )
            for f in spec.faults
            if f.start < new_end
        ),
        reroutes=tuple(r for r in spec.reroutes if r.time < new_end),
        surges=tuple(
            dataclasses.replace(
                s, duration=max(1, min(s.duration, new_end - s.start))
            )
            for s in spec.surges
            if s.start < new_end
        ),
        ring_flaps=tuple(
            dataclasses.replace(
                f, duration=max(1, min(f.duration, new_end - f.start))
            )
            for f in spec.ring_flaps
            if f.start < new_end
        ),
    )


def suite_world_params(seed: int = 42) -> ScenarioParams:
    """The canonical world the scenario suite is scored against.

    Three rings with a fat sparse share: ring 2's membership (stride 4
    over 4 locations) contains only the first US location, so every
    European client's ring-2 slot is served cross-region with enough
    weight for the inter-region peering family to be diagnosable, while
    ring 0 keeps enough traffic for metro-dominance (anycast flap) and
    plain cloud families. The CLI, benchmark, and golden scorecard all
    build this world.
    """
    return ScenarioParams(
        seed=seed,
        regions=(Region.USA, Region.EUROPE),
        locations_per_region=2,
        duration_days=1,
        rings=3,
        sparse_ring_share=0.45,
    )


def build_scenario_suite(
    world: World,
    seed: int,
    families: tuple[IncidentArchetype, ...] | None = None,
    cases_per_family: int = 1,
    pad_buckets: int = 6,
) -> tuple[SuiteCase, ...]:
    """The labelled case list the scorecard is computed over.

    Two layers:

    * *single* cases — ``cases_per_family`` incidents of every family,
      one per pipeline run (the §6.3 shape, now including the
      adversarial families);
    * *mixed* cases — every adversarial family's incident overlapped
      with a staggered paper-era incident that started much earlier and
      has a two-bucket tail left at the subject's onset. The background
      family is chosen *data-drivenly*: one candidate per paper family
      is generated, and the first (in rotation order) whose mitigation
      records at the subject's decision bucket make the naive and
      mitigation-aware rankings disagree is kept. The stagger is what
      makes damage-so-far and benefit-remaining rankings disagree, and
      what forces scoring to attribute issues among concurrent ground
      truths.

    Incident ids are unique across the whole suite, and every incident
    draws from its own spawned substream of ``seed`` — so the suite is
    byte-deterministic and any one case can be rebuilt in isolation.
    """
    if families is None:
        families = PAPER_ARCHETYPES + ADVERSARIAL_ARCHETYPES
    families = tuple(families)
    if not families:
        raise ValueError("families must name at least one archetype")
    adversarial = tuple(f for f in families if f in ADVERSARIAL_ARCHETYPES)
    paper_pool = tuple(f for f in families if f in PAPER_ARCHETYPES)
    if not paper_pool:
        paper_pool = PAPER_ARCHETYPES
    # Backgrounds get re-anchored to an artificial (staggered) start, so
    # only families whose detectability doesn't hinge on their chosen
    # window may serve: traffic shifts need their reroute timing, and a
    # client-ISP fault shifted into its ISP's quiet hours can invert
    # into apparent cloud blame. Both still run as single cases.
    background_pool = tuple(
        f for f in paper_pool
        if f in (
            IncidentArchetype.CLOUD_MAINTENANCE,
            IncidentArchetype.PEERING_FAULT,
            IncidentArchetype.CLOUD_OVERLOAD,
        )
    ) or paper_pool
    rng = np.random.default_rng(seed)
    streams = iter(
        rng.spawn(len(families) + len(adversarial) * (1 + len(background_pool)))
    )
    # One world index for every batch below: its per-bucket gate weights
    # are shared across batches and released when the suite is built.
    index = _index_world(world)
    cases: list[SuiteCase] = []
    next_id = 0
    for family in families:
        specs = _generate(
            world, index, cases_per_family, next(streams),
            families=(family,), first_id=next_id,
        )
        next_id += cases_per_family
        for spec in specs:
            cases.append(SuiteCase(len(cases), (spec,), "single"))
    for offset, family in enumerate(adversarial):
        subject = _generate(
            world, index, 1, next(streams), families=(family,), first_id=next_id,
        )[0]
        next_id += 1
        # Every candidate gets its own pre-spawned substream so stream
        # assignment never depends on which candidate wins.
        candidate_streams = [next(streams) for _ in background_pool]
        decision = subject.start + 1
        background = None
        fallback = None
        for k, candidate_stream in enumerate(candidate_streams):
            candidate_family = background_pool[(offset + k) % len(background_pool)]
            candidate = _generate(
                world, index, 1, candidate_stream,
                families=(candidate_family,), first_id=next_id,
            )[0]
            # Stagger: the background started long before the subject
            # and has only a two-bucket tail left when it begins — one
            # remaining bucket at the decision point, so mitigating it
            # buys almost nothing despite its large damage-so-far.
            tail = 2
            new_start = max(
                pad_buckets,
                min(subject.start - candidate.duration + tail,
                    subject.start - 1),
            )
            candidate = _shift_spec(candidate, new_start)
            # A subject near the horizon's left edge clips the shift;
            # cut the background short so its tail is still ~gone at
            # the decision point.
            candidate = _truncate_spec(candidate, subject.start + tail)
            if fallback is None:
                fallback = candidate
            probe = SuiteCase(len(cases), (subject, candidate), "mixed")
            if rankings_disagree(mitigation_records(world, probe, decision)):
                background = candidate
                break
        if background is None:
            background = fallback
        next_id += 1
        cases.append(SuiteCase(len(cases), (subject, background), "mixed"))
    return tuple(cases)


@dataclass(frozen=True)
class IncidentOutcome:
    """Scored outcome for one labelled incident inside a case.

    ``blamed_segment``/``culprit_asn`` are the dominant pooled blame
    among reported issues that overlap this incident's window, after
    removing pools claimed by the *other* incidents in the case. For a
    negative expectation (flash crowd), they are the dominant
    *violating* blame inside the surge's scope — None when the pipeline
    correctly stayed quiet.
    """

    spec: IncidentSpec
    blamed_segment: SegmentKind | None
    culprit_asn: int | None
    segment_matched: bool
    culprit_matched: bool

    @property
    def matched(self) -> bool:
        """Full agreement with ground truth."""
        return self.segment_matched and self.culprit_matched


@dataclass(frozen=True)
class SuiteCaseOutcome:
    """One case's report plus the per-incident scored outcomes."""

    case: SuiteCase
    outcomes: tuple[IncidentOutcome, ...]
    report: PipelineReport


def _overlapping(
    issues: list[_ReportedIssue], spec: IncidentSpec, pad_buckets: int
) -> list[_ReportedIssue]:
    lo = spec.start - pad_buckets
    hi = spec.start + spec.duration + pad_buckets
    return [i for i in issues if i.last_seen >= lo and i.first_seen <= hi]


def _surge_scope(world: World, metro_name: str) -> tuple[set[str], set[int]]:
    """(serving locations, client ASes) touched by a metro's surge."""
    table = world.slot_table
    in_metro = table.metro_mask(metro_name)
    locations = tuple(table.location_codes)
    return (
        {locations[code] for code in table.location[in_metro].tolist()},
        set(table.client_asn[in_metro].tolist()),
    )


def score_case(
    world: World,
    case: SuiteCase,
    report: PipelineReport,
    pad_buckets: int = 6,
    ambient_pairs: frozenset[tuple[SegmentKind, int | None]] = frozenset(),
) -> tuple[IncidentOutcome, ...]:
    """Attribute a case's reported issues to its ground-truth incidents.

    Each incident is matched against the *dominant* pooled blame (largest
    measured impact) among the reported issues it may claim — how the
    paper's operators match BlameIt output to an investigation report:

    * issues pool per (segment, AS) — several per-location issues naming
      one AS count as one candidate blame (multi-issue attribution);
    * only issues overlapping an incident's padded window count for it;
    * a pooled blame *claimed* by one incident (it equals that
      incident's expectation and overlaps its window) is excluded from
      the other incidents' dominance contest, so two concurrent
      incidents each get matched against their own blame rather than
      competing for the case's single largest issue;
    * ``ambient_pairs`` — blames the pipeline also reports on the
      fault-free sibling (e.g. chronically detoured sparse-ring slices)
      — never count toward or against an incident, mirroring how
      operators discount known-chronic grades; an incident *expecting*
      an ambient pair keeps it (the incident must still be found);
    * a flash-crowd incident expects silence: any unclaimed,
      non-ambient pooled blame overlapping its window *and* inside the
      surge's scope (its metro's serving locations or client ASes)
      counts against it.
    """
    issues = _reported_issues(report, world)
    claims: dict[int, tuple[SegmentKind, int | None]] = {}
    for spec in case.specs:
        if spec.expected_segment is None:
            continue
        pair = (spec.expected_segment, spec.expected_culprit_asn)
        if any(
            (i.segment, i.asn) == pair
            for i in _overlapping(issues, spec, pad_buckets)
        ):
            claims[spec.incident_id] = pair
    outcomes: list[IncidentOutcome] = []
    for spec in case.specs:
        overlapping = _overlapping(issues, spec, pad_buckets)
        claimed_by_others = {
            pair for incident_id, pair in claims.items()
            if incident_id != spec.incident_id
        }
        if spec.expected_segment is None:
            locations, asns = _surge_scope(world, spec.surges[0].metro_name)
            violating = [
                i for i in overlapping
                if (i.segment, i.asn) not in claimed_by_others
                and (i.segment, i.asn) not in ambient_pairs
                and (
                    i.location_id in locations
                    or (i.segment is SegmentKind.CLIENT and i.asn in asns)
                )
            ]
            segment, asn = _dominant_pair(_pool_issues(violating))
            outcomes.append(
                IncidentOutcome(
                    spec=spec,
                    blamed_segment=segment,
                    culprit_asn=asn,
                    segment_matched=segment is None,
                    culprit_matched=asn is None,
                )
            )
            continue
        expected = (spec.expected_segment, spec.expected_culprit_asn)
        contest = [
            i for i in overlapping
            if (i.segment, i.asn) == expected
            or (
                (i.segment, i.asn) not in claimed_by_others
                and (i.segment, i.asn) not in ambient_pairs
            )
        ]
        segment, asn = _dominant_pair(_pool_issues(contest))
        outcomes.append(
            IncidentOutcome(
                spec=spec,
                blamed_segment=segment,
                culprit_asn=asn,
                segment_matched=segment is spec.expected_segment,
                culprit_matched=asn == spec.expected_culprit_asn,
            )
        )
    return tuple(outcomes)


def _affected_users_by_location(
    world: World, spec: IncidentSpec
) -> dict[str, float]:
    """Ground-truth affected users per serving location.

    Fault incidents count each ⟨location, /24⟩ the fault schedule
    applies to once; a flash crowd counts the *extra* cloned demand
    (users × (multiplier − 1)) under its serving locations.
    """
    table = world.slot_table
    per_location: dict[str, dict[int, float]] = {}
    if spec.faults:
        for slot, path in zip(world.slots, table.base_paths):
            if path is None:
                continue
            location_id = slot.location.location_id
            if any(
                fault.applies_to(
                    location_id, path, slot.client.prefix24, slot.client.asn
                )
                for fault in spec.faults
            ):
                per_location.setdefault(location_id, {})[
                    slot.client.prefix24
                ] = float(slot.client.users)
    locations = tuple(table.location_codes)
    for surge in spec.surges:
        extra = surge.multiplier - 1.0
        in_metro = table.metro_mask(surge.metro_name)
        for code, prefix24, users in zip(
            table.location[in_metro].tolist(),
            table.prefix24[in_metro].tolist(),
            table.users[in_metro].tolist(),
        ):
            per_location.setdefault(locations[code], {})[prefix24] = users * extra
    return {
        location_id: sum(users.values())
        for location_id, users in per_location.items()
    }


def mitigation_records(
    world: World, case: SuiteCase, decision_bucket: int
) -> list[MitigationRecord]:
    """The mitigation queue's view of a case at ``decision_bucket``.

    Correlated-transit incidents contribute one record per degraded
    location sharing one root cause (the transit AS) — pooling their
    forward-looking benefit is exactly what lets the shared cause
    outrank any single member. Every other incident is one record.
    """
    records: list[MitigationRecord] = []
    for spec in case.specs:
        end = spec.start + spec.duration
        if not spec.start <= decision_bucket < end:
            continue
        elapsed = float(decision_bucket - spec.start)
        remaining = float(end - decision_bucket)
        by_location = _affected_users_by_location(world, spec)
        if (
            spec.archetype is IncidentArchetype.CORRELATED_TRANSIT
            and len(by_location) > 1
        ):
            for location_id in sorted(by_location):
                records.append(
                    MitigationRecord(
                        key=f"{spec.incident_id}@{location_id}",
                        clients=by_location[location_id],
                        elapsed_buckets=elapsed,
                        remaining_buckets=remaining,
                        root_cause=f"AS{spec.expected_culprit_asn}",
                    )
                )
        else:
            records.append(
                MitigationRecord(
                    key=str(spec.incident_id),
                    clients=sum(by_location.values()),
                    elapsed_buckets=elapsed,
                    remaining_buckets=remaining,
                )
            )
    return records


def _ranking_entry(world: World, case: SuiteCase) -> dict:
    """Scorecard record of both orderings of a mixed case's queue."""
    subject = case.specs[0]
    decision = subject.start + 1
    records = mitigation_records(world, case, decision)
    naive = [r.key for r in rank_by_naive_impact(records)]
    aware = [r.key for r in rank_by_mitigation_benefit(records)]
    return {
        "case_id": case.case_id,
        "family": str(subject.archetype),
        "decision_bucket": decision,
        "records": [
            {
                "key": r.key,
                "clients": round(r.clients, 3),
                "elapsed_buckets": r.elapsed_buckets,
                "remaining_buckets": r.remaining_buckets,
                "root_cause": r.root_cause,
                "naive_impact": round(r.naive_impact, 3),
                "mitigation_benefit": round(r.mitigation_benefit, 3),
            }
            for r in sorted(records, key=lambda r: str(r.key))
        ],
        "naive_order": naive,
        "benefit_order": aware,
        "rankings_disagree": rankings_disagree(records),
        "rank_correlation": round(rank_correlation(naive, aware), 4),
    }


# ---------------------------------------------------------------------------
# Running cases: one fork-pool map over independent pipeline runs
# ---------------------------------------------------------------------------
#
# A job is one pipeline run over the shared world: a case's, or the
# fault-free ambient run (``None``). Each is a pure function of (world,
# job, warmup, config, pad), seeded by the job itself, so where it runs
# cannot change its report. Workers inherit the context at fork time;
# only the job goes in and only its report comes back.

#: A job: a case, or None for the fault-free ambient run.
_Job = SuiteCase | None
#: What every job reads besides the job: (world, warmup, config, pad).
_JobContext = tuple[World, WarmupState, BlameItConfig | None, int]

#: The context a pool worker inherited from its initializer.
_WORKER_CONTEXT: _JobContext | None = None


def _job_buckets(world: World, job: _Job, pad_buckets: int) -> int:
    """Buckets a job runs: its cost, for longest-first submission."""
    if job is None:
        return world.params.horizon_buckets
    start, end = job.window(world, pad_buckets)
    return end - start


def _run_job(context: _JobContext, job: _Job) -> PipelineReport:
    """One pipeline run: a case (seeded ``1000 + case_id``, over its
    padded window) or the ambient run (seed 999, the whole horizon)."""
    world, warmup, config, pad_buckets = context
    if job is None:
        scenario, seed = Scenario(world, (), ()), 999
        window = (0, world.params.horizon_buckets)
    else:
        scenario, seed = job.realize(world), 1000 + job.case_id
        window = job.window(world, pad_buckets)
    pipeline = BlameItPipeline(
        scenario, config=config, fixed_table=warmup.table, seed=seed
    )
    warmup.apply(pipeline)
    return pipeline.run(*window)


def _init_worker(context: _JobContext) -> None:
    global _WORKER_CONTEXT
    _WORKER_CONTEXT = context


def _run_worker_job(job: _Job) -> PipelineReport:
    assert _WORKER_CONTEXT is not None, "worker not initialized"
    return _run_job(_WORKER_CONTEXT, job)


def _run_jobs(context: _JobContext, jobs: Sequence[_Job]) -> list[PipelineReport]:
    """Every job's report, in input order.

    Jobs go to the pool longest first, one at a time, so the longest
    never starts last. On success the pool is closed and joined, on any
    error terminated and joined: no worker outlives the call, and a
    worker's exception reaches the caller with its own type.
    """
    workers = fork_workers(len(jobs))
    if workers == 1:
        return [_run_job(context, job) for job in jobs]
    world, _, _, pad_buckets = context
    order = sorted(
        range(len(jobs)), key=lambda i: -_job_buckets(world, jobs[i], pad_buckets)
    )
    pool = multiprocessing.get_context("fork").Pool(
        workers, initializer=_init_worker, initargs=(context,)
    )
    try:
        done = pool.map(_run_worker_job, [jobs[i] for i in order], chunksize=1)
        pool.close()
    except BaseException:
        pool.terminate()
        raise
    finally:
        pool.join()
    by_job = dict(zip(order, done))
    return [by_job[i] for i in range(len(jobs))]


def _score_cases(
    world: World,
    cases: Sequence[SuiteCase],
    reports: Sequence[PipelineReport],
    pad_buckets: int,
    ambient_pairs: frozenset[tuple[SegmentKind, int | None]],
) -> list[SuiteCaseOutcome]:
    return [
        SuiteCaseOutcome(
            case, score_case(world, case, report, pad_buckets, ambient_pairs), report
        )
        for case, report in zip(cases, reports)
    ]


def run_cases(
    world: World,
    cases: Sequence[SuiteCase],
    warmup: WarmupState,
    config: BlameItConfig | None = None,
    pad_buckets: int = 6,
    ambient_pairs: frozenset[tuple[SegmentKind, int | None]] = frozenset(),
) -> list[SuiteCaseOutcome]:
    """:func:`run_case` for every case, the pipelines on every usable CPU.

    Returns the outcomes :func:`run_case` would, in case order; the
    pipelines run in a fork pool and the scoring in this process.
    """
    reports = _run_jobs((world, warmup, config, pad_buckets), cases)
    return _score_cases(world, cases, reports, pad_buckets, ambient_pairs)


def run_case(
    world: World,
    case: SuiteCase,
    warmup: WarmupState,
    config: BlameItConfig | None = None,
    pad_buckets: int = 6,
    ambient_pairs: frozenset[tuple[SegmentKind, int | None]] = frozenset(),
) -> SuiteCaseOutcome:
    """Run BlameIt over one case and score it against its labels.

    The pipeline (seeded ``1000 + case_id``, warmed up from ``warmup``)
    runs from shortly before the first incident's onset to shortly after
    the last one clears, and :func:`score_case` attributes the reported
    issues. ``ambient_pairs`` is passed through to the scorer; only the
    suite discounts them.
    """
    (outcome,) = run_cases(
        world, (case,), warmup, config, pad_buckets, ambient_pairs
    )
    return outcome


@dataclass(frozen=True)
class SuiteResult:
    """Scorecard plus the live outcomes behind it (for drill-down)."""

    scorecard: dict
    cases: tuple[SuiteCaseOutcome, ...]


def validate_scenario_suite(
    world: World,
    warmup: WarmupState | None = None,
    seed: int = 7,
    families: tuple[IncidentArchetype, ...] | None = None,
    cases_per_family: int = 1,
    config: BlameItConfig | None = None,
    pad_buckets: int = 6,
) -> SuiteResult:
    """Run BlameIt over the adversarial suite and score localization.

    The fault-free ambient run and every case run in one map (see
    :func:`run_cases`); each case is then scored with the suite's
    ambient discount (the blames the ambient run reports), and mixed
    cases additionally record the naive vs mitigation-aware ordering of
    the concurrent incidents. The scorecard is a pure function of
    (world params, ``seed``, knobs) — byte-deterministic.
    """
    if warmup is None:
        warmup = build_warmup_state(world)
    cases = build_scenario_suite(
        world, seed,
        families=families,
        cases_per_family=cases_per_family,
        pad_buckets=pad_buckets,
    )
    ambient, *reports = _run_jobs(
        (world, warmup, config, pad_buckets), (None, *cases)
    )
    ambient_pairs = _ambient_pairs(ambient, world)
    case_outcomes = _score_cases(world, cases, reports, pad_buckets, ambient_pairs)
    ranking_entries = [
        _ranking_entry(world, case) for case in cases if case.kind == "mixed"
    ]
    scorecard = _scorecard(world, seed, pad_buckets, case_outcomes, ranking_entries)
    scorecard["ambient_blames"] = [
        [label, asn]
        for label, asn in sorted(
            ((_segment_label(segment), asn) for segment, asn in ambient_pairs),
            key=lambda pair: (pair[0], pair[1] if pair[1] is not None else -1),
        )
    ]
    return SuiteResult(scorecard=scorecard, cases=tuple(case_outcomes))


def _ambient_pairs(
    report: PipelineReport, world: World
) -> frozenset[tuple[SegmentKind, int | None]]:
    """Blames the pipeline reports with no incident injected at all.

    A world can carry *chronic* badness by construction — sparse anycast
    rings deliberately detour a slice of traffic past the calibrated
    targets (Figure 2's ambient bad fraction). The fault-free run over
    the full horizon collects those chronic (segment, AS) blames so
    scoring can discount them.
    """
    return frozenset(
        (issue.segment, issue.asn) for issue in _reported_issues(report, world)
    )


def _segment_label(segment: SegmentKind | None) -> str:
    return segment.value if segment is not None else "none"


def _scorecard(
    world: World,
    seed: int,
    pad_buckets: int,
    case_outcomes: list[SuiteCaseOutcome],
    ranking_entries: list[dict],
) -> dict:
    """The JSON-ready scorecard document (see DESIGN.md §scorecard)."""
    families: dict[str, dict] = {}
    confusion: dict[str, dict[str, int]] = {}
    case_docs: list[dict] = []
    total = matched_total = 0
    for case_outcome in case_outcomes:
        case = case_outcome.case
        start, end = case.window(world, pad_buckets)
        incident_docs: list[dict] = []
        for outcome in case_outcome.outcomes:
            spec = outcome.spec
            family = str(spec.archetype)
            stats = families.setdefault(
                family,
                {"incidents": 0, "matched": 0,
                 "segment_matched": 0, "culprit_matched": 0},
            )
            stats["incidents"] += 1
            stats["matched"] += int(outcome.matched)
            stats["segment_matched"] += int(outcome.segment_matched)
            stats["culprit_matched"] += int(outcome.culprit_matched)
            expected = _segment_label(spec.expected_segment)
            blamed = _segment_label(outcome.blamed_segment)
            row = confusion.setdefault(expected, {})
            row[blamed] = row.get(blamed, 0) + 1
            total += 1
            matched_total += int(outcome.matched)
            incident_docs.append(
                {
                    "incident_id": spec.incident_id,
                    "family": family,
                    "start": spec.start,
                    "duration": spec.duration,
                    "expected_segment": expected,
                    "expected_culprit_asn": spec.expected_culprit_asn,
                    "blamed_segment": blamed,
                    "blamed_culprit_asn": outcome.culprit_asn,
                    "segment_matched": outcome.segment_matched,
                    "culprit_matched": outcome.culprit_matched,
                    "matched": outcome.matched,
                }
            )
        case_docs.append(
            {
                "case_id": case.case_id,
                "kind": case.kind,
                "window": [start, end],
                "incidents": incident_docs,
            }
        )
    for stats in families.values():
        stats["accuracy"] = round(stats["matched"] / stats["incidents"], 4)
    params = world.params
    return {
        "format_version": SCORECARD_FORMAT_VERSION,
        "seed": seed,
        "pad_buckets": pad_buckets,
        "world": {
            "seed": params.seed,
            "regions": [region.name for region in params.regions],
            "locations_per_region": params.locations_per_region,
            "duration_days": params.duration_days,
            "rings": params.rings,
        },
        "cases": case_docs,
        "families": families,
        "confusion": confusion,
        "impact_ranking": ranking_entries,
        "overall": {
            "incidents": total,
            "matched": matched_total,
            "accuracy": round(matched_total / total, 4) if total else 1.0,
        },
    }


# ---------------------------------------------------------------------------
# §6.4 — large-scale corroboration
# ---------------------------------------------------------------------------


def _ground_truth_culprit_by_traceroute(
    scenario: Scenario, healthy: Scenario, quartet: Quartet
) -> int | None:
    """The AS with the largest contribution increase vs the healthy view."""
    current = scenario.traceroute_view(
        quartet.location_id, quartet.prefix24, quartet.time
    )
    baseline = healthy.traceroute_view(
        quartet.location_id, quartet.prefix24, quartet.time
    )
    if current is None or baseline is None:
        return None
    before: dict[int, float] = {}
    previous = 0.0
    for asn, cumulative in zip(baseline.path, baseline.cumulative_ms):
        before[asn] = cumulative - previous
        previous = cumulative
    best_asn, best_delta = None, _MIN_DELTA_MS
    previous = 0.0
    for asn, cumulative in zip(current.path, current.cumulative_ms):
        delta = (cumulative - previous) - before.get(asn, 0.0)
        previous = cumulative
        if delta > best_delta:
            best_asn, best_delta = asn, delta
    return best_asn


def corroboration_ratios(
    scenario: Scenario,
    start: Timestamp,
    end: Timestamp,
    table: ExpectedRTTTable,
    config: BlameItConfig | None = None,
    use_as_metro: bool = False,
) -> dict[tuple[str, ASPath], float]:
    """Per-⟨location, BGP path⟩ agreement with traceroute ground truth.

    For every bad quartet whose ground truth names a culprit AS, the
    diagnosis is: cloud blame → the cloud ASN, client blame → the client
    ASN, middle blame → the AS with the largest traceroute-contribution
    increase (fresh baselines, isolating *grouping* accuracy from
    baseline staleness). "Insufficient" outcomes are excluded (no
    diagnosis rendered); "ambiguous" counts as a miss.

    Args:
        scenario: The faulty world.
        start, end: Evaluation window.
        table: Expected-RTT table consistent with the chosen grouping.
        config: Localizer tunables.
        use_as_metro: Evaluate the ⟨AS, Metro⟩ variant instead of
            BGP-path grouping (Figure 11's comparison).

    Returns:
        Map from the *true* ⟨location, middle path⟩ group to its
        corroboration ratio, for groups with at least one diagnosis.
    """
    world = scenario.world
    passive = PassiveLocalizer(config or BlameItConfig(), world.targets)
    healthy = Scenario(world, (), scenario.reroutes)
    matches: Counter = Counter()
    totals: Counter = Counter()
    generator = BatchQuartetGenerator(scenario)
    rng = np.random.default_rng(world.params.seed + 77)
    for lo in range(start, end, SPAN_BUCKETS):
        # A span of buckets per call: assign_batch keys every aggregate
        # by bucket, and as_metro_batch re-keys row by row.
        batch = generator.generate(range(lo, min(end, lo + SPAN_BUCKETS)), rng)
        # Each row's true BGP path, read from the un-rekeyed batch.
        true_middle = {
            (q.time, q.prefix24, q.location_id, q.mobile): q.middle
            for q in batch.to_quartets()
        }
        evaluated = as_metro_batch(batch, world.population) if use_as_metro else batch
        for result in passive.assign_batch(evaluated, table).to_results():
            quartet = result.quartet
            truth = scenario.true_culprit(
                quartet.location_id, quartet.prefix24, quartet.time
            )
            if truth is None:
                continue
            if result.blame is Blame.INSUFFICIENT:
                continue
            diagnosis = _diagnose(result.blame, quartet, scenario, healthy, world)
            group = (
                quartet.location_id,
                true_middle[
                    (quartet.time, quartet.prefix24, quartet.location_id, quartet.mobile)
                ],
            )
            totals[group] += 1
            if diagnosis is not None and diagnosis == truth[1]:
                matches[group] += 1
    return {group: matches[group] / total for group, total in totals.items()}


def _diagnose(
    blame: Blame,
    quartet: Quartet,
    scenario: Scenario,
    healthy: Scenario,
    world: World,
) -> int | None:
    if blame is Blame.CLOUD:
        return world.cloud_asn
    if blame is Blame.CLIENT:
        return quartet.client_asn
    if blame is Blame.MIDDLE:
        return _ground_truth_culprit_by_traceroute(scenario, healthy, quartet)
    return None  # ambiguous
