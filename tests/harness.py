"""The differential harness: every cross-driver test builds through here.

BlameIt's drivers must agree byte for byte: the sequential pipeline,
the sharded pipeline, and the daemon fed from its scenario or from a
JSONL file, each run straight through or interrupted and resumed from
a checkpoint store. This module holds the one report digest, the one
config builder, the one trained table, the one driver factory, and the
matrix of cells that checks that agreement (``tests/test_matrix.py``
runs it; DESIGN.md §4 decision 9).

A **case** is a scenario, a table mode, a planner and a chaos plan over
a bucket span. Its storeless sequential run is the *reference*,
computed once; the case asserts on it that the mechanism its cells test
actually fires. A **cell** runs the case under one driver and one
interruption with a checkpoint store attached, and must reproduce the
reference digest (and, for a learned case, the reference's learner).
An interrupted cell first checks the store: the newest checkpoint sits
where the interruption says, and a pipeline restored from it writes
the same records when it checkpoints again at its resume bucket. A
daemon cell also streams its alerts and compares them with an
uninterrupted daemon's; a sharded cell leaves no shared-memory segment
once its pipeline is closed.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
import pytest

from repro.chaos import ChaosKill, FaultPlan
from repro.core.config import BlameItConfig
from repro.core.pipeline import BlameItPipeline, PipelineReport, span_stop
from repro.core.thresholds import ExpectedRTTLearner, ExpectedRTTTable
from repro.io import report_to_dict
from repro.obs import MetricsRegistry, validate_snapshot
from repro.perf.batch import BatchQuartetGenerator
from repro.perf.sharded import ShardedPipeline
from repro.serve import BlameItDaemon, JsonlSource, write_quartets_jsonl
from repro.serve.source import BucketSource
from repro.sim.faults import Fault, FaultTarget, SegmentKind
from repro.sim.incidents import (
    ADVERSARIAL_ARCHETYPES,
    PAPER_ARCHETYPES,
    IncidentArchetype,
    generate_incidents,
)
from repro.sim.scenario import BUCKETS_PER_DAY, Scenario, World
from repro.store import CheckpointStore

from tests.test_thresholds import assert_learners_identical

#: The pipeline seed of every harness run.
SEED = 11
#: The daemon's checkpoint cadence when a store is attached.
CADENCE = 48
DRIVERS = ("sequential", "sharded1", "sharded2", "daemon", "jsonl", "daemon2")
INTERRUPTIONS = ("none", "day", "mid", "stop")
#: Daemon drivers, and the batch driver each one steps.
DAEMONS = {"daemon": "sequential", "jsonl": "sequential", "daemon2": "sharded2"}
#: Drivers whose spans are shards, and their worker counts.
SHARDED = {"sharded1": 1, "sharded2": 2, "daemon2": 2}

_CACHE: dict = {}


def _once(key, world: World, build: Callable):
    """``build()``, computed once per ``key`` and world."""
    entry = _CACHE.get((key, id(world)))
    if entry is None or entry[0] is not world:
        entry = _CACHE[key, id(world)] = (world, build())
    return entry[1]


def digest(report: PipelineReport, *, with_metrics: bool = False) -> str:
    """The report as canonical, diff-friendly JSON. The wall-clock
    ``metrics`` snapshot is dropped unless asked for: shard bookkeeping
    and chaos counters differ between drivers while the results must
    not."""
    document = report_to_dict(report)
    if not with_metrics:
        document.pop("metrics", None)
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def make_config(**overrides) -> BlameItConfig:
    """The fast test config: one day of history, background probes
    every 36 buckets."""
    return BlameItConfig(
        **{"history_days": 1, "background_interval_buckets": 36, **overrides}
    )


def trained_table(world: World) -> ExpectedRTTTable:
    """The expected-RTT table learned from every fourth bucket of
    ``world``'s first 96 (computed once per world)."""

    def train():
        learner = ExpectedRTTLearner(history_days=1)
        BlameItPipeline(
            Scenario.from_world(world), config=make_config(), learner=learner
        ).warmup(0, 96, stride=4)
        return learner.table()

    return _once("table", world, train)


def make_pipeline(
    scenario: Scenario,
    driver: str = "sequential",
    *,
    config: BlameItConfig | None = None,
    table: ExpectedRTTTable | None = None,
    seed: int = SEED,
    **kwargs,
) -> "BlameItPipeline | ShardedPipeline":
    """The one driver factory.

    ``sequential`` (which the ``daemon`` and ``jsonl`` drivers drive)
    is a :class:`BlameItPipeline` drawing each bucket from a ``(seed,
    bucket)`` generator; ``sharded1`` computes its span shards in
    process, ``sharded2`` (which ``daemon2`` drives) in two worker
    processes. Other keyword arguments go to the constructor. A
    pipeline that learns (no ``table``) and does not resume is warmed
    up on every fourth bucket of ``[0, 96)``. Close a sharded one when
    done.
    """
    config = config or make_config()
    if driver in SHARDED:
        kwargs = {"n_workers": SHARDED[driver], **kwargs}
        built = ShardedPipeline(
            scenario, config=config, fixed_table=table, seed=seed, **kwargs
        )
    else:
        kwargs = {"rng_per_bucket": True, **kwargs}
        built = BlameItPipeline(
            scenario, config=config, fixed_table=table, seed=seed, **kwargs
        )
    if table is None and not kwargs.get("warm_start"):
        built.warmup(0, 96, stride=4)
    return built


# -- cases ----------------------------------------------------------------


def late_cloud_fault(world: World) -> Scenario:
    """A +40 ms cloud fault at the first location over buckets
    [330, 580): it opens on day 1 and is still open at the day-2
    checkpoint."""
    target = FaultTarget(
        kind=SegmentKind.CLOUD, location_id=world.locations[0].location_id
    )
    fault = Fault(fault_id=0, target=target, start=330, duration=250, added_ms=40.0)
    return Scenario(world, (fault,), ())


def _specs(world: World, families: tuple) -> list:
    """One incident per family, drawn from ``default_rng(7)`` (once)."""
    return _once(
        families, world,
        lambda: generate_incidents(
            world, len(families), np.random.default_rng(7), families=families
        ),
    )


def _incidents(world: World, specs: list) -> Scenario:
    """The scenario of ``specs``' faults, reroutes, surges and ring
    flaps together."""
    return Scenario(
        world,
        tuple(f for s in specs for f in s.faults),
        tuple(r for s in specs for r in s.reroutes),
        surges=tuple(g for s in specs for g in s.surges),
        ring_flaps=tuple(f for s in specs for f in s.ring_flaps),
    )


def correlated_transit(world: World) -> Scenario:
    """Three correlated-transit incidents (onsets 218, 236 and 295),
    which the clustered planner probes as clusters."""
    families = (IncidentArchetype.CORRELATED_TRANSIT,) * 3
    return _incidents(world, _specs(world, families))


#: The span of the suite case, which every family's incident overlaps.
SUITE_SPAN = (132, 400)


def every_family(world: World) -> Scenario:
    """One incident of each of the nine families at once: the suite's
    surges, ring flaps and reroutes in one run. The draw is checked, so
    that placement drift fails loudly instead of silently weakening the
    suite case: every incident overlaps :data:`SUITE_SPAN`, and surges
    and ring flaps are among them."""
    specs = _specs(world, PAPER_ARCHETYPES + ADVERSARIAL_ARCHETYPES)
    start, end = SUITE_SPAN
    for spec in specs:
        assert spec.start < end, spec.archetype
        assert spec.start + spec.duration > start, spec.archetype
    assert any(s.surges for s in specs)
    assert any(s.ring_flaps for s in specs)
    return _incidents(world, specs)


CHAOS = {
    "none": None,
    "quartet": FaultPlan(
        seed=7,
        quartet_drop_rate=0.05,
        quartet_duplicate_rate=0.05,
        quartet_corrupt_rate=0.05,
    ),
    "crash": FaultPlan(seed=5, shard_crash_rate=1.0, shard_crash_max=1),
    "smoke": FaultPlan.smoke(1),
}


@dataclass
class Reference:
    """A case's uninterrupted, storeless sequential run."""

    report: PipelineReport
    digest: str
    learner: ExpectedRTTLearner
    #: The table the run held on each day it touched.
    tables: dict[int, ExpectedRTTTable]


@dataclass(frozen=True)
class Case:
    """A scenario, table mode, planner and chaos plan over a span.

    ``world`` names the conftest fixture holding the world.
    ``day_kill``, ``mid_kill`` and ``stop`` are the buckets of the
    case's interruptions. ``fires`` asserts, on the reference, that the
    mechanism the case's cells test actually fired.
    """

    name: str
    world: str
    span: tuple[int, int]
    fires: Callable[[Reference], None]
    scenario: Callable[[World], Scenario] = Scenario.from_world
    learned: bool = False
    planner: str = "paper"
    chaos: str = "none"
    history_days: int = 1
    day_kill: int = 0
    mid_kill: int = 0
    stop: int = 0

    def build(self, world: World, driver: str, **kwargs):
        """A fresh pipeline (and scenario: a warm-up draws from the
        scenario's shared stream) for this case."""
        return make_pipeline(
            self.scenario(world),
            DAEMONS.get(driver, driver),
            config=make_config(
                history_days=self.history_days, probe_planner=self.planner
            ),
            table=None if self.learned else trained_table(world),
            **{"chaos": CHAOS[self.chaos], **kwargs},
        )

    def resume_point(self, driver: str, interruption: str) -> int | None:
        """The newest checkpoint an interrupted run leaves: a graceful
        stop checkpoints the bucket after the stop; a killed batch run
        has the day boundary at or before the kill, a killed daemon its
        last cadence point; None when no checkpoint fits in the span."""
        if interruption == "stop":
            return self.stop + 1
        kill = self.day_kill if interruption == "day" else self.mid_kill
        step = CADENCE if driver in DAEMONS else BUCKETS_PER_DAY
        point = kill // step * step
        return point if point > self.span[0] else None

    def day_boundaries(self, last: int) -> list[int]:
        """The day boundaries after the span's start, up to ``last``: the
        checkpoints a batch driver has written once it reaches ``last``."""
        first = self.span[0] // BUCKETS_PER_DAY * BUCKETS_PER_DAY + BUCKETS_PER_DAY
        return list(range(first, last + 1, BUCKETS_PER_DAY))


def _fires(*names: str) -> Callable[[Reference], None]:
    def fires(ref: Reference) -> None:
        counters = ref.report.metrics["counters"]
        assert all(counters.get(name, 0) > 0 for name in names), counters

    return fires


def _blames(ref: Reference) -> None:
    assert ref.report.bad_quartets > 0


def _refreshes(ref: Reference) -> None:
    """Every day's held table has keys: a table refreshed at a day
    boundary is learned from the days before it."""
    assert len(ref.tables) > 1
    assert all(table.cloud and table.middle for table in ref.tables.values())


def _prunes(ref: Reference) -> None:
    """Tables refresh, the learner ends holding only the table window,
    and the cloud fault was seen."""
    _refreshes(ref)
    meta, _ = ref.learner.state_arrays()
    assert {day for *_, day in meta["cloud_keys"] + meta["middle_keys"]} == {1, 2}
    assert ref.report.closed_cloud


def _probes(ref: Reference) -> None:
    _refreshes(ref)
    assert ref.report.probes_on_demand > 0


def _clusters(ref: Reference) -> None:
    assert any(item.category == "cluster-attributed" for item in ref.report.localized)


def _churns(ref: Reference) -> None:
    assert ref.report.closed_cloud or ref.report.closed_client


SMALL = Case("small", "small_world", (100, 160), _blames, mid_kill=150, stop=130)
LEARNED = Case(
    "learned", "multi_day_world", (250, 600), _prunes, late_cloud_fault,
    learned=True, history_days=2, day_kill=576, mid_kill=530, stop=517,
)
CLUSTERED = Case(
    "clustered", "suite_world_2d", (200, 310), _clusters, correlated_transit,
    planner="clustered", day_kill=288, mid_kill=300, stop=251,
)
CASES = {
    case.name: case
    for case in (
        SMALL,
        dataclasses.replace(
            SMALL, name="quartet", chaos="quartet",
            fires=_fires(
                "chaos.quartet.dropped",
                "chaos.quartet.duplicated",
                "chaos.quartet.corrupted",
            ),
        ),
        # The crash plan fires only in shards, so only sharded cells
        # run it, and they check that it fired.
        dataclasses.replace(SMALL, name="crash", chaos="crash"),
        dataclasses.replace(
            SMALL, name="smoke", chaos="smoke",
            fires=_fires("chaos.quartet.dropped", "chaos.probe.loss"),
        ),
        LEARNED,
        CLUSTERED,
        dataclasses.replace(
            CLUSTERED, name="naive", fires=_probes, learned=True,
            planner="naive", history_days=2,
        ),
        Case(
            "suite", "suite_world_2d", SUITE_SPAN, _churns, every_family,
            learned=True, history_days=2, day_kill=288,
        ),
    )
}


def reference(case: Case, world: World) -> Reference:
    """The case's uninterrupted, storeless sequential run, computed once
    (stepped by hand so the table held on each day can be read)."""

    def run():
        pipeline = case.build(world, "sequential", metrics=MetricsRegistry())
        state = pipeline.begin_run(*case.span)
        tables = {}
        while state.cursor < state.end:
            pipeline.step(state)
            tables[state.table_day] = state.table
        report = pipeline.finish_run(state)
        validate_snapshot(report.metrics)
        ref = Reference(report, digest(report), pipeline.learner, tables)
        case.fires(ref)
        return ref

    return _once(case.name, world, run)


# -- cells ----------------------------------------------------------------


class Cell(NamedTuple):
    """One driver and one interruption of a case."""

    case: str
    driver: str
    interruption: str

    @property
    def id(self) -> str:
        return "-".join(self)


#: The matrix, case by case, as ``driver/interruption`` cells. It holds
#: every driver x table x interruption pair and every planner and chaos
#: value with every driver, the shard-crash plan with the sharded
#: drivers only (``tests/test_matrix.py`` checks both).
MATRIX = {
    "small": "sequential/mid sharded1/none sharded2/none daemon/mid "
    "jsonl/none jsonl/stop daemon2/stop",
    "quartet": "sequential/none sharded1/none sharded2/mid daemon/stop jsonl/mid "
    "daemon2/none",
    "crash": "sharded1/none sharded2/none daemon2/mid",
    "smoke": "sequential/none sharded1/none sharded2/none daemon/mid jsonl/none "
    "daemon2/none",
    "learned": "sequential/day sharded2/none sharded2/day daemon/day daemon/mid",
    "clustered": "sequential/day sequential/mid sharded1/mid sharded2/none "
    "sharded2/day daemon/day jsonl/day daemon2/mid",
    "naive": "sequential/none sequential/mid sharded1/none sharded1/day "
    "sharded2/day sharded2/mid daemon/none daemon/stop jsonl/stop daemon2/day",
    "suite": "sequential/day sharded2/none sharded2/day",
}
CELLS = [
    Cell(case, *spec.split("/"))
    for case, specs in MATRIX.items()
    for spec in specs.split()
]

_EQ = "tests/test_equivalence.py::TestShardedEquivalence::test_"
_SUITE = "tests/test_equivalence.py::TestSuiteScenarioEquivalence::test_"
_STORE = "tests/test_store.py::TestCheckpointResume::test_"
_PRUNE = "tests/test_store.py::TestLearnerPruning::test_kill_resume_across_"
_SERVE = "tests/test_serve.py::TestDaemonEquivalence::test_"
_PLAN = "tests/test_probeplan.py::TestClusteredPersistence::test_"

#: Cells that predate the matrix run under their old test IDs (each of
#: those tests asks for the ``matrix_cell`` fixture and nothing else);
#: ``tests/test_matrix.py`` runs every other cell.
HOMES = {
    "small-sequential-mid": _STORE + "warm_start_on_empty_store_is_cold_start",
    "small-sharded1-none": "tests/test_perf.py::TestShardedPipeline::"
    "test_matches_sequential_pipeline",
    "small-sharded2-none": _EQ + "clean_runs_byte_identical",
    "small-jsonl-none": _SERVE + "jsonl_source_matches_batch",
    "quartet-sharded1-none": _EQ + "quartet_chaos_byte_identical",
    "crash-sharded1-none": _EQ + "crash_plus_retry_byte_identical",
    "smoke-sequential-none": "tests/test_chaos.py::TestEndToEndChaos::"
    "test_smoke_plan_sequential",
    "smoke-sharded1-none": "tests/test_chaos.py::TestEndToEndChaos::"
    "test_smoke_plan_sharded",
    "learned-sequential-day": _STORE + "sequential_kill_resume_byte_identical",
    "learned-sharded2-day": _PRUNE + "a_pruning_boundary[2]",
    "learned-daemon-day": _PRUNE + "a_pruning_boundary[None]",
    "learned-daemon-mid": _SERVE + "kill_resume_matches_batch",
    "clustered-sequential-day": _PLAN + "kill_resume_byte_identical",
    "clustered-sequential-mid": _PLAN + "checkpoint_roundtrips_planner_history",
    "clustered-sharded2-none": _PLAN + "sharded_matches_sequential",
    "clustered-sharded2-day": _STORE + "sharded_fixed_table_run_checkpoints_and_kills",
    "naive-sequential-none": _STORE + "checkpointing_run_matches_storeless_run",
    "naive-sequential-mid": _STORE + "mid_day_kill_resumes_from_prior_boundary",
    "naive-sharded1-none": _EQ + "online_learning_byte_identical",
    "naive-sharded2-day": _STORE + "sharded_kill_resume_byte_identical",
    "naive-sharded2-mid": _EQ + "multi_day_online_learning_byte_identical",
    "naive-daemon-none": _SERVE + "scenario_daemon_matches_batch",
    "naive-daemon-stop": _SERVE + "graceful_stop_checkpoints_and_resumes",
    "suite-sequential-day": _SUITE + "sequential_kill_resume_byte_identical",
    "suite-sharded2-none": _SUITE + "two_workers_byte_identical",
    "suite-sharded2-day": _SUITE + "sharded_kill_resume_byte_identical",
}


class _StopAt(BucketSource):
    """Asks its daemon to stop while bucket ``at`` is served: the
    SIGTERM path, minus the signal."""

    def __init__(self, daemon: BlameItDaemon, at: int) -> None:
        self.daemon, self.inner, self.at = daemon, daemon.source, at

    def next_batch(self, time):
        if time >= self.at:
            self.daemon.request_stop()
        return self.inner.next_batch(time)

    def replay(self, times):
        return self.inner.replay(times)


def jsonl_source(case: Case, world: World, directory) -> JsonlSource:
    """The case's span as JSONL rows (the raw quartets the per-bucket
    generator draws), written and loaded once per scenario and span."""

    def load():
        generator = BatchQuartetGenerator(case.scenario(world))
        path = directory / "quartets.jsonl"
        write_quartets_jsonl(
            path,
            [
                quartet
                for time in range(*case.span)
                for quartet in generator.generate(
                    time, rng=np.random.default_rng((SEED, time))
                ).to_quartets()
            ],
        )
        return JsonlSource(path)

    return _once((case.scenario, case.span), world, load)


def _segments() -> set[str]:
    """The shared-memory segments in ``/dev/shm`` now."""
    try:
        return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}
    except FileNotFoundError:  # pragma: no cover - non-tmpfs platform
        return set()


def _left_since(before: set[str]) -> set[str]:
    """The segments made since ``before`` that are still there after up
    to 2 s: another process's short-lived segments are gone by then."""
    deadline = time.monotonic() + 2.0
    while (left := _segments() - before) and time.monotonic() < deadline:
        time.sleep(0.05)
    return left


def _run(case, world, driver, store, interruption="none", source=None,
         warm_start=False, alerts=None):
    """One run of ``case`` under ``driver`` with ``store`` attached,
    interrupted as asked; a daemon appends ``(cursor, alert)`` to
    ``alerts`` as it streams. Returns the report (None after a graceful
    stop), the pipeline, and the sharded driver's counters. A sharded
    pipeline is closed after the run, and must leave no segment."""
    kill = {"day": case.day_kill, "mid": case.mid_kill}.get(interruption)
    metrics = MetricsRegistry() if driver in SHARDED else None
    if driver in DAEMONS:
        pipeline = case.build(
            world, driver, store=store, warm_start=warm_start, metrics=metrics
        )
        daemon = BlameItDaemon(
            pipeline, *case.span, source=source, kill_at=kill,
            checkpoint_every=None if interruption == "stop" else CADENCE,
            alert_sink=lambda alert: alerts.append((daemon._state.cursor, alert)),
        )
        if interruption == "stop":
            daemon.source = _StopAt(daemon, case.stop)
        run = daemon.run
    else:
        chaos = CHAOS[case.chaos]
        if kill is not None:
            chaos = dataclasses.replace(
                chaos or FaultPlan(seed=1), kill_at_bucket=kill
            )
        pipeline = case.build(
            world, driver, store=store, warm_start=warm_start, chaos=chaos,
            metrics=metrics,
        )
        run = functools.partial(pipeline.run, *case.span)
    before = _segments()
    try:
        report = run()
    finally:
        if metrics is not None:
            pipeline.close()
            assert _left_since(before) == set()
    counters = {}
    if metrics is not None and report is not None:
        counters = report.metrics["counters"]
    return report, pipeline, counters


def reference_alerts(case: Case, world: World) -> list:
    """The alerts an uninterrupted, storeless daemon streams over the
    case's span (computed once)."""

    def run():
        alerts = []
        BlameItDaemon(
            case.build(world, "daemon"), *case.span, alert_sink=alerts.append
        ).run()
        return alerts

    return _once(("alerts", case.name), world, run)


def _records(store: CheckpointStore, time: int) -> tuple:
    """The checkpoint at ``time``: its payload and its arrays as bytes."""
    payload, arrays = store._get(f"checkpoint/{time}")  # noqa: SLF001
    return payload, {
        name: (value.dtype.str, value.shape, value.tobytes())
        for name, value in arrays.items()
    }


def _assert_restores_what_it_saved(case, world, store) -> None:
    """A pipeline restored from the newest checkpoint, checkpointed
    again at its resume bucket, writes the checkpoint it restored from;
    and a learned checkpoint holds only the table window's days."""
    time = store.latest_time()
    saved = _records(store, time)
    pipeline = case.build(world, "sequential", store=store, warm_start=True)
    state = pipeline.begin_run(*case.span)
    assert state.cursor == time
    pipeline.checkpoint(state, time, extra=state.restored_extra)
    assert _records(store, time) == saved
    if case.learned:
        meta = saved[0]["learner"]
        day = time // BUCKETS_PER_DAY
        window = range(day - case.history_days + 1, day + 1)
        assert {d for *_, d in meta["cloud_keys"] + meta["middle_keys"]} <= set(window)


def span_chain(start: int, end: int) -> list[tuple[int, int]]:
    """``[start, end)`` cut where the span kernel's spans stop: the
    shards a sharded driver runs over it."""
    cuts = [start]
    while cuts[-1] < end:
        cuts.append(span_stop(cuts[-1], end))
    return list(zip(cuts, cuts[1:]))


def check_cell(cell: Cell, request, tmp_path) -> None:
    """Run one cell and compare it with its case's reference."""
    case = CASES[cell.case]
    world = request.getfixturevalue(case.world)
    expected = reference(case, world)
    batch = cell.driver not in DAEMONS
    source = None
    if cell.driver == "jsonl":
        directory = request.getfixturevalue("tmp_path_factory").mktemp("jsonl")
        source = jsonl_source(case, world, directory)
    store = CheckpointStore(tmp_path / "store")
    resume = None
    first: list = []
    rest: list = []
    try:
        if cell.interruption == "stop":
            assert _run(
                case, world, cell.driver, store, "stop", source, alerts=first
            )[0] is None
        elif cell.interruption != "none":
            kill = case.day_kill if cell.interruption == "day" else case.mid_kill
            with pytest.raises(ChaosKill, match=rf"at bucket {kill}$"):
                _run(
                    case, world, cell.driver, store, cell.interruption, source,
                    alerts=first,
                )
            if batch:
                assert store.checkpoint_times() == case.day_boundaries(kill)
        if cell.interruption != "none":
            resume = case.resume_point(cell.driver, cell.interruption)
            assert store.latest_time() == resume
            if resume is not None:
                _assert_restores_what_it_saved(case, world, store)
        report, pipeline, counters = _run(
            case, world, cell.driver, store, source=source,
            warm_start=cell.interruption != "none", alerts=rest,
        )
        if batch:
            assert store.checkpoint_times() == case.day_boundaries(case.span[1] - 1)
    finally:
        store.close()
    assert digest(report) == expected.digest
    if case.learned:
        assert_learners_identical(pipeline.learner, expected.learner)
    if not batch:
        # A stop repeats nothing; a kill repeats what streamed after the
        # checkpoint the run resumed from (everything, without one).
        whole = reference_alerts(case, world)
        repeated = 0
        if cell.interruption in ("day", "mid"):
            repeated = sum(resume is None or at > resume for at, _ in first)
        assert [alert for _, alert in first] == whole[: len(first)]
        assert [alert for _, alert in rest] == whole[len(first) - repeated :]
    if cell.driver in SHARDED:
        validate_snapshot(report.metrics)
        shards = len(span_chain(resume or case.span[0], case.span[1]))
        retries = counters.get("retry.shard.attempts", 0)
        assert counters["shard.runs"] == shards + retries
        crashed = counters.get("chaos.shard.crashed", 0)
        assert counters.get("retry.shard.recovered", 0) == crashed
        if case.chaos == "crash":
            assert crashed == shards
