"""The ledger's four workloads.

Each workload makes its inputs from the seed — the traffic, the probe
noise and the JSONL rows from ``S + 1``, the suite's incident cases from
``S + 2``, over the one world :data:`WORLD_SEED` builds — opens two doors
into the system on those inputs, and says what must be true of the
outputs. The *first door* is the driver the workload exists to
measure; the *second door* is another way to the same answer whose
regressions the first would hide. Why each workload is here, and which
layers it exercises and which it bypasses, is in README.md.

A door builds a fresh driver (and a fresh ``Scenario.from_world``:
warm-up draws from the scenario's shared RNG stream), does its untimed
preparation, and hands the calls that count to a :class:`Stopwatch`.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import pathlib
import resource
import shutil
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.analysis.validation import (
    build_warmup_state,
    suite_world_params,
    validate_scenario_suite,
)
from repro.chaos import ChaosKill
from repro.core.config import BlameItConfig
from repro.core.thresholds import ExpectedRTTLearner
from repro.perf.batch import BatchQuartetGenerator
from repro.serve import BlameItDaemon, JsonlSource, write_quartets_jsonl
from repro.sim.incidents import PAPER_ARCHETYPES
from repro.sim.scenario import BUCKETS_PER_DAY, Scenario, ScenarioParams, build_world
from repro.store import CheckpointStore

from drivers import StepTimer, digest, make_sequential, make_sharded, workers
from trace import Recorder

#: The world is the testbed and stays put; the seed draws what happens
#: in it. Worlds of different seeds differ in size and fault density by
#: more than the bounds (throughput moved 18 % across ten world seeds on
#: ``month_fixed`` against 10 % for one seed run ten times), and that is
#: a difference between inputs, not between two versions of the program.
WORLD_SEED = 2026

#: Every pipeline workload trains on day 0, every sixth bucket.
WARMUP_END = BUCKETS_PER_DAY
WARMUP_STRIDE = 6

#: The daemon's checkpoint cadence and retention (the ``serve`` verb's).
CHECKPOINT_EVERY = 48
KEEP_CHECKPOINTS = 3


@dataclass(frozen=True)
class Size:
    """How much of each workload one run measures."""

    month_days: int
    week_days: int
    serve_buckets: int
    cases_per_family: int


#: ``full`` is the size ISSUE 11 measured; ``bench`` is what fits the
#: driver's cap (92 runs in 3420 s, set-up included); ``check`` is the
#: self-test. Horizons shrink, the four workloads and what they stress
#: stay.
SIZES = {
    "check": Size(month_days=2, week_days=1, serve_buckets=96, cases_per_family=1),
    "bench": Size(month_days=6, week_days=2, serve_buckets=192, cases_per_family=2),
    "full": Size(month_days=30, week_days=7, serve_buckets=576, cases_per_family=3),
}


class Stopwatch:
    """Times the calls a door says count — and, in the traced run,
    records their spans.

    With a recorder, the layer wrappers are installed for exactly the
    measured call, so a door's untimed preparation (construction,
    warm-up) is neither timed nor traced.
    """

    def __init__(self, recorder: "Recorder | None" = None, root: str = "") -> None:
        self.wall_s = 0.0
        self.recorder = recorder
        self.root = root

    def measure(self, fn: Callable):
        scope = (
            self.recorder.installed(self.root)
            if self.recorder is not None
            else contextlib.nullcontext()
        )
        with scope:
            t0 = time.perf_counter()
            try:
                return fn()
            finally:
                self.wall_s += time.perf_counter() - t0


@dataclass
class DoorRun:
    """What one pass through a door produced.

    Attributes:
        wall_s: Seconds inside :meth:`Stopwatch.measure`.
        quartets: Quartets the report accounts for.
        digest: What the output checks compare.
        digest_s: Seconds spent computing it (the benchmark's own cost,
            reported so it is not mistaken for program time).
        ops: Operations attempted inside the run besides the run itself
            (daemon steps, checkpoint saves, restores, suite cases).
        facts: Counts and timings read from the driver's public
            attributes after the run; they feed the per-layer metrics.
    """

    wall_s: float
    quartets: int
    digest: str
    digest_s: float
    ops: int = 0
    facts: dict = field(default_factory=dict)


def report_run(watch: Stopwatch, report, facts: dict) -> DoorRun:
    """The :class:`DoorRun` of a door that ends in a pipeline report."""
    t0 = time.perf_counter()
    canonical = digest(report)
    return DoorRun(
        watch.wall_s,
        report.total_quartets,
        canonical,
        time.perf_counter() - t0,
        ops=facts.get("ops", 0),
        facts=facts,
    )


def _shm_entries() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def _pipeline_facts(pipeline, report) -> dict:
    """Layer counts a finished sequential pipeline exposes."""
    _, arrays = pipeline.learner.state_arrays()
    return {
        "bad_quartets": report.bad_quartets,
        "state_values": sum(
            len(values) for key, values in arrays.items() if key.endswith("_values")
        ),
        "background_probes": pipeline.background.probes_total,
        "on_demand_issued": pipeline.on_demand.probes_issued,
    }


class Workload:
    """Inputs from a seed, two doors, and the output checks."""

    name: str
    doors: tuple[str, str]
    #: The span that names a request in the traced run.
    request_span = "core.pipeline.step"
    #: Whether the traced run also traces the second door.
    trace_second_door = False

    def __init__(self, seed: int, size: Size, workdir: pathlib.Path) -> None:
        self.seed = seed
        self.size = size
        self.workdir = workdir
        #: Seconds of the last :meth:`set_up` spent in each named part.
        self.setup_parts: dict[str, float] = {}

    def set_up(self) -> None:
        raise NotImplementedError

    def first_door(self, watch: Stopwatch) -> DoorRun:
        raise NotImplementedError

    def second_door(self, watch: Stopwatch) -> DoorRun:
        raise NotImplementedError

    def check(self, runs: dict[str, list[DoorRun]]) -> dict[str, bool]:
        """Output checks, by name, over every run of both doors."""
        raise NotImplementedError

    def _build_world(self, params: ScenarioParams) -> Scenario:
        """Build the world; returns its first scenario, for warm-up."""
        t0 = time.perf_counter()
        self.world = build_world(params)
        t1 = time.perf_counter()
        scenario = Scenario.from_world(self.world)
        self.setup_parts = {
            "build_world": t1 - t0,
            "from_world": time.perf_counter() - t1,
        }
        return scenario

    def _warm(self, pipeline) -> None:
        pipeline.warmup(0, WARMUP_END, stride=WARMUP_STRIDE)


class BatchWorkload(Workload):
    """A backlog of days through ``BlameItPipeline.run`` and through
    ``ShardedPipeline.run``, with a fixed expected-RTT table
    (``month_fixed``) or with the learner on (``week_learn``)."""

    doors = ("sequential", "sharded")

    def __init__(self, name: str, fixed_table: bool, *args) -> None:
        super().__init__(*args)
        self.name = name
        self.fixed_table = fixed_table
        self.days = self.size.month_days if fixed_table else self.size.week_days
        self.start = WARMUP_END
        self.end = self.start + self.days * BUCKETS_PER_DAY
        self.table = None

    def set_up(self) -> None:
        scenario = self._build_world(
            ScenarioParams(seed=WORLD_SEED, duration_days=self.days + 1)
        )
        # With the learner on, every driver warms its own pipeline; this
        # pass is then only here so that set-up time covers warm-up.
        learner = ExpectedRTTLearner()
        self._warm(make_sequential(scenario, learner=learner))
        if self.fixed_table:
            self.table = learner.table()

    def _driver_kwargs(self) -> dict:
        return {"seed": self.seed + 1, "fixed_table": self.table}

    def first_door(self, watch: Stopwatch) -> DoorRun:
        pipeline = make_sequential(
            Scenario.from_world(self.world), **self._driver_kwargs()
        )
        if not self.fixed_table:
            self._warm(pipeline)
        report = watch.measure(lambda: pipeline.run(self.start, self.end))
        return report_run(watch, report, _pipeline_facts(pipeline, report))

    def second_door(self, watch: Stopwatch) -> DoorRun:
        before = _shm_entries()
        with contextlib.closing(
            make_sharded(Scenario.from_world(self.world), **self._driver_kwargs())
        ) as pipeline:
            if not self.fixed_table:
                self._warm(pipeline)

            def run_and_close():
                # Pool creation (lazy, inside run) and close() are part
                # of what a caller of the sharded driver pays.
                report = pipeline.run(self.start, self.end)
                pipeline.close()
                return report

            report = watch.measure(run_and_close)
        return report_run(
            watch,
            report,
            {
                "stage_seconds": dict(pipeline.stage_seconds),
                "transport": dict(pipeline.transport_stats),
                "workers": workers(),
                "worker_peak_rss_mb": resource.getrusage(
                    resource.RUSAGE_CHILDREN
                ).ru_maxrss / 1024.0,
                "shm_new": _shm_entries() - before,
            },
        )

    def check(self, runs: dict[str, list[DoorRun]]) -> dict[str, bool]:
        everything = runs["sequential"] + runs["sharded"]
        return {
            "digest equal across every run of both drivers": len(
                {run.digest for run in everything}
            ) == 1,
            # Entries that appeared during a sharded run and are still
            # there now; another process's short-lived segments are not.
            "/dev/shm holds no segment the sharded runs left": not (
                set().union(*(run.facts["shm_new"] for run in runs["sharded"]))
                & _shm_entries()
            ),
        }


class ServeWorkload(Workload):
    """Quartets written to JSONL in set-up, then served: loaded by
    ``JsonlSource`` and folded by ``BlameItDaemon`` over a checkpoint
    store (the ``serve`` verb's wiring); then the same, killed mid-day
    and resumed."""

    name = "serve_jsonl"
    doors = ("daemon", "kill_resume")
    trace_second_door = True

    def __init__(self, *args) -> None:
        super().__init__(*args)
        # Centred on the day-1/day-2 boundary, so that every size
        # refreshes the learned table and prunes history once.
        buckets = self.size.serve_buckets
        self.start = 2 * BUCKETS_PER_DAY - buckets // 2
        self.end = self.start + buckets
        # Past a checkpoint, off the cadence: resume has to replay.
        self.kill_at = self.start + buckets * 5 // 8
        self.path = self.workdir / "quartets.jsonl"
        self.store_dir = self.workdir / "checkpoints"
        self.config = BlameItConfig(history_days=1)
        self.rows = 0
        self.source = None
        self._reference: "str | None" = None

    def set_up(self) -> None:
        scenario = self._build_world(
            ScenarioParams(seed=WORLD_SEED, duration_days=3)
        )
        self._warm(make_sequential(scenario))
        generator = BatchQuartetGenerator(Scenario.from_world(self.world))
        self.rows = write_quartets_jsonl(
            self.path,
            (
                quartet
                for bucket in range(self.start, self.end)
                for quartet in generator.generate_quartets(
                    bucket, rng=np.random.default_rng((self.seed + 1, bucket))
                )
            ),
        )
        self.source = None
        self._reference = None

    def _serve(
        self, watch: Stopwatch, *, kill_at: "int | None" = None, resume: bool = False
    ) -> tuple[object, dict]:
        """One daemon run to the horizon, or to the kill (the report is
        then None); returns the report and the run's facts."""
        scenario = Scenario.from_world(self.world)
        alerts: list = []
        t0 = time.perf_counter()
        with contextlib.closing(
            CheckpointStore(self.store_dir, keep_last=KEEP_CHECKPOINTS)
        ) as store:
            pipeline = make_sequential(
                scenario,
                config=self.config,
                seed=self.seed + 1,
                store=store,
                warm_start=resume,
            )
            construct_s = time.perf_counter() - t0
            if not resume:
                self._warm(pipeline)
            timer = StepTimer(pipeline)
            daemon = BlameItDaemon(
                timer,
                self.start,
                self.end,
                source=self.source,
                checkpoint_every=CHECKPOINT_EVERY,
                alert_sink=alerts.append,
                kill_at=kill_at,
            )
            before = watch.wall_s
            try:
                report = watch.measure(daemon.run)
            except ChaosKill:
                report = None
            steps = len(timer.step_s)
            saves = sum(
                1
                for bucket in range(timer.entry + 1, timer.entry + steps)
                if bucket % CHECKPOINT_EVERY == 0
            )
            facts = {
                "run_s": watch.wall_s - before,
                "step_s": timer.step_s,
                "resume_s": construct_s + timer.begin_run_s,
                "alerts": len(alerts),
                "saves": saves,
                "ops": steps + saves + int(resume),
            }
            if report is not None:
                facts.update(_pipeline_facts(pipeline, report))
        facts["bytes_on_disk"] = sum(
            path.stat().st_size
            for path in self.store_dir.rglob("*")
            if path.is_file()
        )
        return report, facts

    def first_door(self, watch: Stopwatch) -> DoorRun:
        shutil.rmtree(self.store_dir, ignore_errors=True)
        self.source = watch.measure(lambda: JsonlSource(self.path))
        load_s = watch.wall_s
        report, facts = self._serve(watch)
        facts["load_s"] = load_s
        return report_run(watch, report, facts)

    def second_door(self, watch: Stopwatch) -> DoorRun:
        shutil.rmtree(self.store_dir, ignore_errors=True)
        if self.source is None:
            self.source = JsonlSource(self.path)
        killed, killed_facts = self._serve(watch, kill_at=self.kill_at)
        if killed is not None:
            raise RuntimeError(f"the daemon ran past kill_at={self.kill_at}")
        report, facts = self._serve(watch, resume=True)
        facts["ops"] += killed_facts["ops"]
        return report_run(watch, report, facts)

    def reference_digest(self) -> str:
        """The batch run the daemon has to match: same scenario, same
        seeds, ``BlameItPipeline.run`` over generated buckets."""
        if self._reference is None:
            pipeline = make_sequential(
                Scenario.from_world(self.world),
                config=self.config,
                seed=self.seed + 1,
            )
            self._warm(pipeline)
            self._reference = digest(pipeline.run(self.start, self.end))
        return self._reference

    def check(self, runs: dict[str, list[DoorRun]]) -> dict[str, bool]:
        reference = self.reference_digest()
        return {
            "daemon-from-JSONL digest equals the batch run's": all(
                run.digest == reference for run in runs["daemon"]
            ),
            "killed-and-resumed digest equals both": all(
                run.digest == reference for run in runs["kill_resume"]
            ),
            "every row written was served": all(
                run.quartets == self.rows
                for run in runs["daemon"] + runs["kill_resume"]
            ),
        }


class SuiteWorkload(Workload):
    """The labelled incident suite: many short incident-dense pipelines
    scored against ground truth, under the default planner and under
    the clustered one."""

    name = "suite_incidents"
    doors = ("paper_planner", "clustered_planner")
    request_span = "core.pipeline.run"

    def set_up(self) -> None:
        t0 = time.perf_counter()
        self.world = build_world(
            dataclasses.replace(suite_world_params(), seed=WORLD_SEED)
        )
        t1 = time.perf_counter()
        self.warmup = build_warmup_state(self.world)
        self.setup_parts = {
            "build_world": t1 - t0,
            "build_warmup_state": time.perf_counter() - t1,
        }

    def _suite(self, watch: Stopwatch, config: "BlameItConfig | None") -> DoorRun:
        result = watch.measure(
            lambda: validate_scenario_suite(
                self.world,
                self.warmup,
                seed=self.seed + 2,
                cases_per_family=self.size.cases_per_family,
                config=config,
            )
        )
        scorecard = result.scorecard
        t0 = time.perf_counter()
        canonical = hashlib.sha256(
            json.dumps(scorecard, sort_keys=True).encode("utf-8")
        ).hexdigest()
        digest_s = time.perf_counter() - t0
        paper = [
            stats
            for family, stats in scorecard["families"].items()
            if family in {archetype.value for archetype in PAPER_ARCHETYPES}
        ]
        return DoorRun(
            watch.wall_s,
            sum(case.report.total_quartets for case in result.cases),
            canonical,
            digest_s,
            ops=len(result.cases),
            facts={
                "cases": len(result.cases),
                "incidents": scorecard["overall"]["incidents"],
                "matched": scorecard["overall"]["matched"],
                "paper_incidents": sum(stats["incidents"] for stats in paper),
                "paper_matched": sum(stats["matched"] for stats in paper),
                "on_demand_issued": sum(
                    case.report.probes_on_demand for case in result.cases
                ),
                "bad_quartets": sum(
                    case.report.bad_quartets for case in result.cases
                ),
                "background_probes": sum(
                    case.report.probes_background for case in result.cases
                ),
            },
        )

    def first_door(self, watch: Stopwatch) -> DoorRun:
        return self._suite(watch, None)

    def second_door(self, watch: Stopwatch) -> DoorRun:
        return self._suite(watch, BlameItConfig(probe_planner="clustered"))

    def check(self, runs: dict[str, list[DoorRun]]) -> dict[str, bool]:
        checks = {}
        for door, door_runs in runs.items():
            checks[f"{door} scorecard byte-identical across repeats"] = (
                len({run.digest for run in door_runs}) == 1
            )
            checks[f"{door} scored every incident of every case"] = all(
                0 <= run.facts["matched"] <= run.facts["incidents"]
                and run.facts["incidents"] >= run.facts["cases"] > 0
                for run in door_runs
            )
        return checks


WORKLOADS: dict[str, Callable[[int, Size, pathlib.Path], Workload]] = {
    "month_fixed": lambda *args: BatchWorkload("month_fixed", True, *args),
    "week_learn": lambda *args: BatchWorkload("week_learn", False, *args),
    "serve_jsonl": ServeWorkload,
    "suite_incidents": SuiteWorkload,
}
