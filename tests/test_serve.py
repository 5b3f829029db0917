"""Tests for repro.serve: the streaming daemon, sources, HTTP surface.

The headline property extends DESIGN.md §6 to service mode: a daemon
fed bucket-by-bucket — from the scenario or from a JSONL file — produces
a report byte-identical to the batch ``run()`` over the same window,
including across kill→resume and with the bounded-memory retention
window active.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.chaos import ChaosKill
from repro.core.config import BlameItConfig
from repro.core.pipeline import BlameItPipeline
from repro.io import report_to_dict
from repro.net.asn import middle_asns
from repro.obs import validate_snapshot
from repro.perf.batch import BatchQuartetGenerator
from repro.serve import (
    BlameItDaemon,
    JsonlSource,
    ScenarioSource,
    StatusServer,
    quartet_from_row,
    quartet_to_row,
    write_quartets_jsonl,
)
from repro.sim.faults import Fault, FaultTarget, SegmentKind
from repro.sim.scenario import Scenario
from repro.store import CheckpointStore

START, END = 96, 400
SEED = 11


def _digest(report) -> str:
    data = report_to_dict(report)
    data.pop("metrics", None)
    return json.dumps(data, sort_keys=True)


def _faulty_scenario(world) -> Scenario:
    """A scenario with cloud and middle faults inside [START, END)."""
    location = world.locations[0].location_id
    slot = next(
        s
        for s in world.slots
        if len(middle_asns(world.mapper.path_for(s.location, s.client) or (0, 0)))
        >= 1
    )
    culprit = middle_asns(world.mapper.path_for(slot.location, slot.client))[0]
    faults = (
        Fault(
            fault_id=0,
            target=FaultTarget(kind=SegmentKind.CLOUD, location_id=location),
            start=110,
            duration=12,
            added_ms=80.0,
        ),
        Fault(
            fault_id=1,
            target=FaultTarget(kind=SegmentKind.MIDDLE, asn=culprit),
            start=130,
            duration=12,
            added_ms=90.0,
        ),
        Fault(
            fault_id=2,
            target=FaultTarget(kind=SegmentKind.CLOUD, location_id=location),
            start=330,
            duration=10,
            added_ms=80.0,
        ),
    )
    return Scenario(world, faults, ())


def _pipeline(scenario, *, store=None, warm_start=False, metrics=None):
    pipeline = BlameItPipeline(
        scenario,
        config=BlameItConfig(history_days=1, background_interval_buckets=36),
        seed=SEED,
        rng_per_bucket=True,
        store=store,
        warm_start=warm_start,
        metrics=metrics,
    )
    if not warm_start:
        pipeline.warmup(0, 96, stride=4)
    return pipeline


@pytest.fixture(scope="module")
def served_scenario(multi_day_world) -> Scenario:
    return _faulty_scenario(multi_day_world)


@pytest.fixture(scope="module")
def batch_digest(served_scenario) -> str:
    """The batch ``run()`` digest every daemon variant must reproduce."""
    report = _pipeline(served_scenario).run(START, END)
    assert report.closed_middle or report.closed_cloud  # faults fired
    return _digest(report)


class TestDaemonEquivalence:
    def test_scenario_daemon_matches_batch(self, served_scenario, batch_digest):
        daemon = BlameItDaemon(
            _pipeline(served_scenario), START, END, source=ScenarioSource()
        )
        report = daemon.run()
        assert _digest(report) == batch_digest

    def test_kill_resume_matches_batch(
        self, served_scenario, batch_digest, tmp_path
    ):
        """Mid-day cadence checkpoints restore byte-identically — the
        held expected-RTT table travels with the checkpoint."""
        store = CheckpointStore(tmp_path)
        daemon = BlameItDaemon(
            _pipeline(served_scenario, store=store),
            START,
            END,
            checkpoint_every=48,
            kill_at=250,  # mid-day: 250 % 288 != 0
        )
        with pytest.raises(ChaosKill):
            daemon.run()
        store.close()
        store = CheckpointStore(tmp_path)
        assert store.latest_time() == 240  # newest cadence point before kill
        resumed = BlameItDaemon(
            _pipeline(served_scenario, store=store, warm_start=True),
            START,
            END,
            checkpoint_every=48,
        )
        report = resumed.run()
        store.close()
        assert _digest(report) == batch_digest

    def test_jsonl_source_matches_batch(
        self, served_scenario, batch_digest, tmp_path
    ):
        """External batches (batch-local vocabularies) fold identically
        to generator batches."""
        path = tmp_path / "quartets.jsonl"
        generator = BatchQuartetGenerator(served_scenario)
        quartets = []
        for time in range(START, END):
            batch = generator.generate(
                time, rng=np.random.default_rng((SEED, time))
            )
            quartets.extend(batch.to_quartets())
        assert write_quartets_jsonl(path, quartets) == len(quartets)
        daemon = BlameItDaemon(
            _pipeline(served_scenario), START, END, source=JsonlSource(path)
        )
        report = daemon.run()
        assert _digest(report) == batch_digest

    def test_graceful_stop_checkpoints_and_resumes(
        self, served_scenario, batch_digest, tmp_path
    ):
        """request_stop → final checkpoint at the cursor → resume is
        byte-identical (the SIGTERM path, minus the signal)."""
        store = CheckpointStore(tmp_path)
        daemon = BlameItDaemon(
            _pipeline(served_scenario, store=store), START, END
        )

        class _StopAfter(ScenarioSource):
            def __init__(self, source_daemon, at):
                self.daemon = source_daemon
                self.at = at

            def next_batch(self, time):
                if time >= self.at:
                    self.daemon.request_stop()
                return None

        daemon.source = _StopAfter(daemon, 217)  # any mid-day bucket
        assert daemon.run() is None
        # The stop request lands while bucket 217 is in flight; the
        # final checkpoint records the next cursor.
        assert store.latest_time() == 218
        store.close()
        store = CheckpointStore(tmp_path)
        resumed = BlameItDaemon(
            _pipeline(served_scenario, store=store, warm_start=True),
            START,
            END,
        )
        report = resumed.run()
        store.close()
        assert _digest(report) == batch_digest


class TestRetention:
    def test_bounded_memory_report_identical(self, multi_day_world, tmp_path):
        """With a retention window, old closed issues leave memory (peak
        resident tracked-issue count drops) yet the final report is
        byte-identical to the unbounded run.

        Two early faults close on day 0 and age out of the 1-day window
        before the three late faults close, so the bounded daemon never
        holds all five at once. ``history_days=2`` so day-1 faults are
        detectable.
        """
        location = multi_day_world.locations[0].location_id
        faults = tuple(
            Fault(
                fault_id=i,
                target=FaultTarget(
                    kind=SegmentKind.CLOUD, location_id=location
                ),
                start=start,
                duration=8,
                added_ms=80.0,
            )
            for i, start in enumerate((110, 140, 450, 480, 510))
        )
        scenario = Scenario(multi_day_world, faults, ())

        def pipeline(store=None):
            built = BlameItPipeline(
                scenario,
                config=BlameItConfig(
                    history_days=2, background_interval_buckets=36
                ),
                seed=SEED,
                rng_per_bucket=True,
                store=store,
            )
            built.warmup(0, 96, stride=4)
            return built

        unbounded = BlameItDaemon(pipeline(), START, 600)
        baseline = unbounded.run()
        assert len(baseline.closed_cloud) == 5

        store = CheckpointStore(tmp_path)
        bounded = BlameItDaemon(
            pipeline(store=store),
            START,
            600,
            retention_days=1,
        )
        report = bounded.run()
        store.close()
        assert _digest(report) == _digest(baseline)
        assert sum(bounded._archived.values()) > 0
        assert bounded.peak_tracked < unbounded.peak_tracked


class TestAlertStreaming:
    def test_sink_receives_alert_per_closed_issue(self, served_scenario):
        streamed = []
        daemon = BlameItDaemon(
            _pipeline(served_scenario), START, END, alert_sink=streamed.append
        )
        report = daemon.run()
        assert daemon.alerts_emitted == len(streamed)
        # Every issue that closed during stepping streamed exactly one
        # alert; issues still open at the horizon close at finalize
        # without streaming, so streamed ⊆ closed.
        assert 0 < len(streamed) <= (
            len(report.closed_middle)
            + len(report.closed_cloud)
            + len(report.closed_client)
        )
        streamed_keys = {
            (str(alert.blame), alert.location_id, alert.first_seen)
            for alert in streamed
        }
        closed_keys = {
            (str(alert.blame), alert.location_id, alert.first_seen)
            for alert in (
                [BlameItPipeline.middle_alert(i) for i in report.closed_middle]
                + [
                    BlameItPipeline.segment_alert(i)
                    for i in report.closed_cloud + report.closed_client
                ]
            )
        }
        assert streamed_keys <= closed_keys


class TestJsonlCodec:
    def test_row_roundtrip(self, served_scenario):
        quartets = BatchQuartetGenerator(served_scenario).generate_quartets(
            START, np.random.default_rng(0)
        )
        assert quartets
        for quartet in quartets[:25]:
            row = json.loads(json.dumps(quartet_to_row(quartet)))
            assert quartet_from_row(row) == quartet

    def test_missing_buckets_yield_empty_batches(self, tmp_path):
        path = tmp_path / "sparse.jsonl"
        path.write_text("")
        source = JsonlSource(path)
        assert source.times() == []
        assert len(source.next_batch(123)) == 0


class TestHttpSurface:
    def test_endpoints_serve_live_state(self, served_scenario):
        daemon = BlameItDaemon(_pipeline(served_scenario), START, END)
        failures = []

        def _get(port, endpoint):
            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}{endpoint}", timeout=10
            ) as response:
                return json.loads(response.read())

        with StatusServer(daemon) as server:
            polled = {}

            def poll():
                try:
                    polled["status"] = _get(server.port, "/status")
                    polled["issues"] = _get(server.port, "/issues")
                except Exception as exc:  # pragma: no cover - surfaced below
                    failures.append(exc)

            # Poll concurrently with the run: the lock makes each
            # response a consistent snapshot of a moving pipeline.
            timer = threading.Timer(0.5, poll)
            timer.start()
            report = daemon.run()
            timer.cancel()
            poll()  # at least one deterministic poll after completion
            status = _get(server.port, "/status")
            issues = _get(server.port, "/issues")
        assert not failures
        assert report is not None
        assert status["cursor"] == END
        assert status["start"] == START and status["end"] == END
        assert status["uptime_s"] > 0
        assert isinstance(issues, list)

    def test_unknown_endpoint_404(self, served_scenario):
        daemon = BlameItDaemon(_pipeline(served_scenario), START, START + 1)
        with StatusServer(daemon) as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(
                    f"http://127.0.0.1:{server.port}/nope", timeout=10
                )
            assert excinfo.value.code == 404

    def test_metrics_endpoint_snapshot_validates(self, served_scenario):
        from repro.obs import MetricsRegistry

        pipeline = _pipeline(
            served_scenario, metrics=MetricsRegistry()
        )
        daemon = BlameItDaemon(pipeline, START, START + 60)
        with StatusServer(daemon) as server:
            daemon.run()
            with urllib.request.urlopen(
                f"http://127.0.0.1:{server.port}/metrics", timeout=10
            ) as response:
                snapshot = json.loads(response.read())
        validate_snapshot(snapshot)
        assert snapshot["counters"]["pipeline.buckets"] == 60
