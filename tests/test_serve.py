"""Tests for repro.serve: the streaming daemon, sources, HTTP surface.

The headline property extends DESIGN.md §6 to service mode: a daemon
fed bucket-by-bucket — from the scenario or from a JSONL file — produces
a report byte-identical to the batch ``run()`` over the same window,
including across kill→resume (the matrix's daemon cells,
``tests/harness.py``) and with the bounded-memory retention window
active.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import textwrap
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.perf.workers as workers_module
import repro.serve.source as source_module
from repro.chaos import ChaosKill
from repro.chaos.inject import sanitize_batch
from repro.core.pipeline import BlameItPipeline
from repro.core.quartet import QuartetBatch
from repro.net.asn import middle_asns
from repro.net.geo import Region
from repro.obs import MetricsRegistry, validate_snapshot
from repro.perf.batch import BatchQuartetGenerator
from repro.serve import (
    BlameItDaemon,
    JsonlFormatError,
    JsonlSource,
    StatusServer,
    quartet_from_row,
    quartet_to_row,
)
from repro.sim.faults import Fault, FaultTarget, SegmentKind
from repro.sim.scenario import Scenario
from repro.store import CheckpointStore

from tests.harness import _StopAt, digest, make_config, make_pipeline

START, END = 96, 400


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


@pytest.fixture(scope="module")
def served_scenario(multi_day_world) -> Scenario:
    return _faulty_scenario(multi_day_world)


class TestDaemonEquivalence:
    """Matrix cells kept under their old IDs."""

    def test_scenario_daemon_matches_batch(self, matrix_cell):
        matrix_cell()

    def test_kill_resume_matches_batch(self, matrix_cell):
        matrix_cell()

    def test_jsonl_source_matches_batch(self, matrix_cell):
        matrix_cell()

    def test_graceful_stop_checkpoints_and_resumes(self, matrix_cell):
        matrix_cell()


def _retention_pipeline(scenario, store=None, warm_start=False):
    """``history_days=2``, so day-1 faults are detectable."""
    return make_pipeline(
        scenario,
        config=make_config(history_days=2),
        store=store,
        warm_start=warm_start,
    )


@pytest.fixture(scope="module")
def retention_scenario(multi_day_world) -> Scenario:
    """Five 8-bucket cloud faults: two close on day 0 and age out of a
    1-day window before the three late ones close."""
    location = multi_day_world.locations[0].location_id
    faults = tuple(
        Fault(
            fault_id=i,
            target=FaultTarget(kind=SegmentKind.CLOUD, location_id=location),
            start=start,
            duration=8,
            added_ms=80.0,
        )
        for i, start in enumerate((110, 140, 450, 480, 510))
    )
    return Scenario(multi_day_world, faults, ())


@pytest.fixture(scope="module")
def unbounded_run(retention_scenario):
    """The retention scenario's daemon over [START, 600) with no
    retention window, and its report."""
    daemon = BlameItDaemon(_retention_pipeline(retention_scenario), START, 600)
    return daemon, daemon.run()


def _closed(report) -> int:
    return (
        len(report.closed_middle)
        + len(report.closed_cloud)
        + len(report.closed_client)
    )


class TestRetention:
    def test_bounded_memory_report_identical(
        self, retention_scenario, unbounded_run, tmp_path
    ):
        """With a retention window, old closed issues leave memory (peak
        resident tracked-issue count drops) yet the final report is
        byte-identical to the unbounded run, and ``/status`` counts
        each closed issue once.

        The bounded daemon never holds all five cloud issues at once.
        """
        unbounded, baseline = unbounded_run
        assert len(baseline.closed_cloud) == 5

        store = CheckpointStore(tmp_path)
        bounded = BlameItDaemon(
            _retention_pipeline(retention_scenario, store=store),
            START,
            600,
            retention_days=1,
        )
        report = bounded.run()
        store.close()
        assert digest(report) == digest(baseline)
        assert bounded.status()["archived_chunks"] > 0
        assert bounded.status()["closed"] == _closed(report)
        assert bounded.peak_tracked < unbounded.peak_tracked

    def test_resume_after_the_last_sweep_keeps_archived_issues(
        self, retention_scenario, unbounded_run, tmp_path
    ):
        """Killed at 592 and resumed from its checkpoint there, the
        daemon sweeps nothing more; the chunks the killed process
        archived still go back into the report. A resumed daemon once
        spliced only what it had archived itself, and lost two of the
        five cloud issues here."""
        _, baseline = unbounded_run

        def daemon(store, **kwargs):
            return BlameItDaemon(
                _retention_pipeline(retention_scenario, store, **kwargs),
                START,
                600,
                checkpoint_every=4,
                retention_days=1,
                kill_at=None if kwargs else 592,
            )

        store = CheckpointStore(tmp_path)
        with pytest.raises(ChaosKill):
            daemon(store).run()
        store.close()
        store = CheckpointStore(tmp_path)
        resumed = daemon(store, warm_start=True)
        report = resumed.run()
        store.close()
        assert resumed.status()["archived_chunks"] > 0
        assert digest(report) == digest(baseline)

    def test_peak_counts_each_resident_issue_once(self, served_scenario):
        """Without retention every closed issue and verdict stays
        resident, so the peak is at most what the final report holds
        (closed middle issues were once counted twice)."""
        daemon = BlameItDaemon(make_pipeline(served_scenario), START, END)
        report = daemon.run()
        assert report.closed_middle
        assert 0 < daemon.peak_tracked <= _closed(report) + len(report.localized)


class TestAlertStreaming:
    def test_sink_receives_alert_per_closed_issue(self, served_scenario):
        streamed = []
        daemon = BlameItDaemon(
            make_pipeline(served_scenario), START, END, alert_sink=streamed.append
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


    @staticmethod
    def _serve(
        scenario, end, store, sink, *, warm_start=False, stop_at=None, **kwargs
    ):
        """A daemon over ``[START, end)`` with a 48-bucket checkpoint
        cadence, streaming to ``sink(daemon, alert)``; the keyword
        arguments left go to the daemon."""
        daemon = BlameItDaemon(
            _retention_pipeline(scenario, store=store, warm_start=warm_start),
            START,
            end,
            checkpoint_every=48,
            alert_sink=lambda alert: sink(daemon, alert),
            **kwargs,
        )
        if stop_at is not None:
            daemon.source = _StopAt(daemon, stop_at)
        try:
            return daemon.run()
        finally:
            store.close()

    @pytest.mark.parametrize(
        "scenario_name, end, stop, retention_days",
        [("served_scenario", END, 200, None), ("retention_scenario", 600, 500, 1)],
    )
    def test_stop_and_resume_stream_each_alert_once(
        self, request, tmp_path, scenario_name, end, stop, retention_days
    ):
        """A graceful stop checkpoints after the last alert it streamed;
        the resumed daemon streams only the issues that close after
        that, so the two processes together stream exactly what an
        uninterrupted daemon does, in order — also when the retention
        sweep has trimmed the closed lists. A resumed daemon once
        re-sent every alert of the restored report."""
        scenario = request.getfixturevalue(scenario_name)
        whole: list = []
        parts: list = []

        def serve(alerts, store_dir, **kwargs):
            return self._serve(
                scenario, end, CheckpointStore(tmp_path / store_dir),
                lambda _, alert: alerts.append(alert),
                retention_days=retention_days, **kwargs,
            )

        serve(whole, "whole")
        assert serve(parts, "parts", stop_at=stop) is None
        before = len(parts)
        serve(parts, "parts", warm_start=True)
        assert 0 < before < len(whole)
        assert parts == whole

    def test_kill_repeats_only_what_streamed_after_the_checkpoint(
        self, served_scenario, tmp_path
    ):
        """Killed at 150, after the checkpoint at 144: the resumed
        daemon repeats the alerts streamed between that checkpoint and
        the kill, as one run, and none streamed before it."""
        whole: list = []
        self._serve(
            served_scenario, END, CheckpointStore(tmp_path / "whole"),
            lambda _, alert: whole.append(alert),
        )
        parts: list = []
        cursors: list = []

        def record(daemon, alert):
            parts.append(alert)
            cursors.append(daemon._state.cursor)  # noqa: SLF001

        with pytest.raises(ChaosKill):
            self._serve(
                served_scenario, END, CheckpointStore(tmp_path / "parts"),
                record, kill_at=150,
            )
        killed = len(parts)
        # Streamed after the step at bucket 144 or later, so after the
        # checkpoint taken before that step.
        repeated = sum(cursor > 144 for cursor in cursors)
        assert 0 < repeated < killed
        self._serve(
            served_scenario, END, CheckpointStore(tmp_path / "parts"),
            lambda _, alert: parts.append(alert), warm_start=True,
        )
        assert parts[:killed] == whole[:killed]
        assert parts[killed:] == whole[killed - repeated :]


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


def _row(**changes) -> dict:
    """A well-formed quartet row, with ``changes`` applied."""
    return {
        "time": 480,
        "prefix24": 10,
        "location_id": "loc-a",
        "mobile": False,
        "mean_rtt_ms": 30.5,
        "n_samples": 12,
        "users": 3,
        "client_asn": 64500,
        "middle": [64501, 64502],
        "region": "USA",
    } | changes


def _source(tmp_path, rows) -> JsonlSource:
    path = tmp_path / "rows.jsonl"
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))
    return JsonlSource(path)


def _assert_same_batch(got: QuartetBatch, want: QuartetBatch) -> None:
    """Field by field: dtype, shape and values of every column, and
    every vocabulary tuple."""
    for field in dataclasses.fields(QuartetBatch):
        if field.name == "_rows":
            continue
        got_value, want_value = getattr(got, field.name), getattr(want, field.name)
        if isinstance(want_value, np.ndarray):
            assert got_value.dtype == want_value.dtype, field.name
            assert got_value.shape == want_value.shape, field.name
            np.testing.assert_array_equal(got_value, want_value, err_msg=field.name)
        else:
            assert got_value == want_value, field.name


_BAD_ROWS = {
    "not-json": ("garbage{", "invalid JSON: Expecting value at column 1"),
    "null-time": (
        json.dumps(_row(time=None)),
        "field 'time' must be a JSON integer within int64, got null",
    ),
    "integer-middle": (
        json.dumps(_row(middle=5)),
        "field 'middle' must be a list of JSON integers, got 5",
    ),
    "array-row": ("[1, 2]", "a row must be a JSON object, got [1, 2]"),
    "unknown-region": (
        json.dumps(_row(region="MARS")),
        "field 'region' must be a Region name (USA, EUROPE,",
    ),
    "string-mobile": (
        json.dumps(_row(mobile="false")),
        "field 'mobile' must be true or false, got \"false\"",
    ),
    "missing-field": (
        json.dumps({k: v for k, v in _row().items() if k != "users"}),
        "missing field 'users'",
    ),
    "int64-overflow": (
        json.dumps(_row(prefix24=2**63)),
        "field 'prefix24' must be a JSON integer within int64",
    ),
    "boolean-asn": (
        json.dumps(_row(middle=[64501, True])),
        "field 'middle' must be a list of JSON integers, got [64501, true]",
    ),
    "two-rows-one-line": (
        json.dumps(_row()) + ", " + json.dumps(_row()),
        "invalid JSON: Extra data",
    ),
}


class TestJsonlFormatErrors:
    """Every refused row names the file, its own line in the file, and
    the reason; the load raises instead of serving anything."""

    @pytest.mark.parametrize("read_bytes", [1 << 20, 300])
    @pytest.mark.parametrize("case", list(_BAD_ROWS))
    def test_bad_row_is_named_at_its_file_line(
        self, tmp_path, monkeypatch, case, read_bytes
    ):
        line, reason = _BAD_ROWS[case]
        monkeypatch.setattr(source_module, "_READ_BYTES", read_bytes)
        path = tmp_path / "bad.jsonl"
        good = [json.dumps(_row(prefix24=prefix)) for prefix in range(3)]
        path.write_text("\n".join([*good, line]) + "\n")
        with pytest.raises(JsonlFormatError) as raised:
            JsonlSource(path)
        error = raised.value
        assert isinstance(error, ValueError)
        assert (error.path, error.line) == (path, 4)
        assert error.reason.startswith(reason)
        assert str(error) == f"{path}:4: {error.reason}"

    def test_error_survives_pickling(self, tmp_path):
        """A forked reader sends its refusal to the parent pickled."""
        error = JsonlFormatError(tmp_path / "bad.jsonl", 3, "x")
        copy = pickle.loads(pickle.dumps(error))
        assert type(copy) is JsonlFormatError
        assert (str(copy), copy.path, copy.line, copy.reason) == (
            str(error), error.path, 3, "x"
        )


class TestJsonlAssumptions:
    """What ingest tolerates, one assumption at a time (the table in
    ``JsonlSource``'s docstring)."""

    def test_rows_need_not_be_time_ordered(self, tmp_path):
        times = [482, 480, 482, 481, 480]
        source = _source(
            tmp_path,
            [_row(time=time, prefix24=i) for i, time in enumerate(times)],
        )
        assert source.times() == [480, 481, 482]
        assert source.next_batch(480).prefix24.tolist() == [1, 4]
        assert source.next_batch(481).prefix24.tolist() == [3]
        assert source.next_batch(482).prefix24.tolist() == [0, 2]

    def test_duplicated_rows_are_kept(self, tmp_path):
        source = _source(tmp_path, [_row(), _row(), _row(prefix24=7)])
        assert source.next_batch(480).prefix24.tolist() == [10, 10, 7]

    def test_blank_lines_crlf_and_no_final_newline(self, tmp_path):
        rows = [_row(prefix24=prefix) for prefix in range(3)]
        lines = [json.dumps(row).encode() for row in rows]
        path = tmp_path / "loose.jsonl"
        path.write_bytes(
            b"\r\n".join([lines[0], b"", b"  ", lines[1], b"\t", lines[2]])
        )
        _assert_same_batch(
            JsonlSource(path).next_batch(480),
            QuartetBatch.from_quartets([quartet_from_row(row) for row in rows]),
        )
        # Skipped lines still count towards the line a refusal names.
        path.write_bytes(path.read_bytes() + b"\r\n\r\ngarbage{\r\n")
        with pytest.raises(JsonlFormatError) as raised:
            JsonlSource(path)
        assert raised.value.line == 8

    def test_extra_keys_are_ignored(self, tmp_path):
        plain = _source(tmp_path, [_row()]).next_batch(480)
        extra = _source(tmp_path, [_row(note={"any": [1, None]})]).next_batch(480)
        _assert_same_batch(extra, plain)

    def test_missing_bucket_is_an_empty_batch(self, tmp_path):
        source = _source(tmp_path, [_row(time=480), _row(time=483)])
        assert source.times() == [480, 483]
        empty = source.next_batch(481)
        _assert_same_batch(empty, QuartetBatch.from_quartets([]))

    def test_bad_rtts_load_then_sanitize_drops_and_counts(self, tmp_path):
        rtts = [float("nan"), 31.0, float("inf"), float("-inf"), 0, -5.0, 12]
        source = _source(tmp_path, [_row(mean_rtt_ms=rtt) for rtt in rtts])
        batch = source.next_batch(480)
        assert len(batch) == len(rtts)
        metrics = MetricsRegistry()
        kept = sanitize_batch(batch, metrics)
        assert kept.mean_rtt_ms.tolist() == [31.0, 12.0]
        assert metrics.counter("sanitize.quartets_dropped").value == 5


_ROW_STRATEGY = st.fixed_dictionaries(
    {
        "time": st.integers(100, 105),
        "prefix24": st.integers(-(2**63), 2**63 - 1),
        "location_id": st.sampled_from(["loc-a", "loc-b", "lieu-é"]),
        "mobile": st.booleans(),
        "mean_rtt_ms": st.floats() | st.integers(-(2**70), 2**70),
        "n_samples": st.integers(-5, 2**40),
        "users": st.integers(0, 9),
        "client_asn": st.integers(1, 2**32),
        "middle": st.lists(st.integers(1, 3), max_size=3),
        "region": st.sampled_from([region.name for region in Region]),
    }
)


def _split(patch: pytest.MonkeyPatch, count: int, read_bytes: int) -> None:
    """Load over ``read_bytes`` chunks, split ``count`` ways (capped
    at one range per chunk, as the real worker count is) whatever the
    machine has."""
    patch.setattr(source_module, "_READ_BYTES", read_bytes)
    patch.setattr(workers_module, "fork_workers", lambda jobs: min(count, jobs))


_SPLITS = pytest.mark.parametrize("workers", [1, 2, 3])


class TestColumnarReader:
    @_SPLITS
    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.lists(_ROW_STRATEGY, max_size=30),
        read_bytes=st.integers(1, 700),
    )
    def test_columnar_reader_is_the_per_row_reader(
        self, tmp_path_factory, workers, rows, read_bytes
    ):
        """Rows in any order, over any chunk boundaries and any split,
        serve what ``from_quartets`` makes of the per-row reader's
        quartets."""
        path = tmp_path_factory.mktemp("columnar") / "rows.jsonl"
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        with pytest.MonkeyPatch.context() as patch:
            _split(patch, workers, read_bytes)
            source = JsonlSource(path)
        assert source.times() == sorted({row["time"] for row in rows})
        times = [row["time"] for row in rows] or [0]
        buckets = list(range(min(times) - 2, max(times) + 3))
        for time, replayed in zip(buckets, source.replay(buckets)):
            served = source.next_batch(time)
            _assert_same_batch(
                served,
                QuartetBatch.from_quartets(
                    [quartet_from_row(row) for row in rows if row["time"] == time]
                ),
            )
            _assert_same_batch(source.next_batch(time), served)
            _assert_same_batch(replayed, served)
            for field in dataclasses.fields(served):
                column = getattr(served, field.name)
                if isinstance(column, np.ndarray):
                    with pytest.raises(ValueError, match="read-only"):
                        column[...] = 0

    @_SPLITS
    @settings(max_examples=80, deadline=None)
    @given(
        rows=st.lists(_ROW_STRATEGY, min_size=1, max_size=6),
        at=st.integers(0, 5),
        field=st.sampled_from(list(_row())),
        value=st.recursive(
            st.none() | st.booleans() | st.integers() | st.floats()
            | st.text(max_size=3),
            lambda inner: st.lists(inner, max_size=3)
            | st.dictionaries(st.text(max_size=2), inner, max_size=2),
            max_leaves=4,
        ),
        read_bytes=st.integers(1, 700),
    )
    def test_columnar_checks_refuse_what_the_row_rules_refuse(
        self, tmp_path_factory, workers, rows, at, field, value, read_bytes
    ):
        """Any JSON value in any field, over any split: the load refuses
        the file exactly when the per-row rules refuse a row, at that
        row's line."""
        rows[at % len(rows)][field] = value
        path = tmp_path_factory.mktemp("refuse") / "rows.jsonl"
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        refused = [
            line
            for line, row in enumerate(rows, 1)
            if source_module._row_error(row) is not None
        ]
        with pytest.MonkeyPatch.context() as patch:
            _split(patch, workers, read_bytes)
            if not refused:
                JsonlSource(path)
                return
            with pytest.raises(JsonlFormatError) as raised:
                JsonlSource(path)
        assert raised.value.line == refused[0]



@pytest.fixture
def forks(monkeypatch) -> list:
    """Every forked process started during the test."""
    started = []
    start = multiprocessing.context.ForkProcess.start

    def counted(process):
        started.append(process)
        start(process)

    monkeypatch.setattr(multiprocessing.context.ForkProcess, "start", counted)
    return started


def _good_lines(count: int) -> list[bytes]:
    """``count`` well-formed rows over seven locations and five
    middles, so that every range codes values another range saw first."""
    return [
        json.dumps(
            _row(prefix24=i, location_id=f"loc-{i % 7}", middle=[64500 + i % 5])
        ).encode()
        for i in range(count)
    ]


def _load_split(path, workers: int) -> QuartetBatch:
    """The file-order batch, split ``workers`` ways over 300-byte chunks."""
    with pytest.MonkeyPatch.context() as patch:
        _split(patch, workers, 300)
        return source_module._read_rows(path)


class TestSplitLoad:
    """The file is parsed as line-aligned byte ranges, one per forked
    worker: the same batch, the same vocabularies and the same first
    refused line as one inline pass, and no worker left behind."""

    @pytest.mark.parametrize("workers", [2, 3])
    def test_split_batch_is_the_inline_batch(self, tmp_path, forks, workers):
        path = tmp_path / "rows.jsonl"
        path.write_bytes(b"\n".join(_good_lines(40)) + b"\n")
        inline = _load_split(path, 1)
        assert forks == []
        _assert_same_batch(_load_split(path, workers), inline)
        assert len(forks) == workers
        assert len(inline.locations) == 7 and len(inline.middles) == 5
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize(
        ("workers", "bad_ranges"), [(2, (0, 1)), (3, (1, 2)), (3, (2,))]
    )
    def test_first_bad_row_in_file_order_wins(
        self, tmp_path, forks, workers, bad_ranges
    ):
        """Bad rows in several ranges: the earliest range's is named, at
        its line in the file, whichever process parsed it."""
        lines = _good_lines(40)
        path = tmp_path / "rows.jsonl"
        path.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.MonkeyPatch.context() as patch:
            _split(patch, workers, 300)
            spans = source_module._spans(path)
        assert len(spans) == workers
        # The middle line of each chosen range, replaced by a bad row of
        # the same length, so that the cuts stay where they are.
        starts = np.cumsum([0] + [len(line) + 1 for line in lines])
        bad = []
        for index in bad_ranges:
            start, end = spans[index]
            inside = np.flatnonzero((starts[:-1] >= start) & (starts[:-1] < end))
            at = int(inside[len(inside) // 2])
            lines[at] = b"garbage{".ljust(len(lines[at]))
            bad.append(at + 1)
        path.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(JsonlFormatError) as raised:
            _load_split(path, workers)
        assert raised.value.line == bad[0]
        assert raised.value.reason == "invalid JSON: Expecting value at column 1"
        assert len(forks) == workers
        assert multiprocessing.active_children() == []

    def test_cut_exactly_at_a_line_end(self, tmp_path, forks):
        """The midpoint falls on the first line's newline: the cut goes
        just past it, and the second range starts at line 2."""
        first, second = _good_lines(2)
        second = second.ljust(len(first) - 2)
        first = first.ljust(len(second) + 2)
        path = tmp_path / "rows.jsonl"
        path.write_bytes(first + b"\n" + second + b"\n")
        size = path.stat().st_size
        assert path.read_bytes()[size // 2] == ord("\n")
        with pytest.MonkeyPatch.context() as patch:
            _split(patch, 2, 64)
            assert source_module._spans(path) == [
                (0, size // 2 + 1), (size // 2 + 1, size)
            ]
        _assert_same_batch(_load_split(path, 2), _load_split(path, 1))
        assert len(forks) == 2

    @pytest.mark.parametrize("workers", [2, 3])
    def test_crlf_blank_lines_and_no_final_newline(self, tmp_path, forks, workers):
        """CRLF line ends, blank and whitespace-only lines around every
        cut, and no final newline: the same rows, and a refusal still
        counts the skipped lines of every range before it."""
        lines = _good_lines(24)
        loose = []
        for i, line in enumerate(lines):
            loose += [line, b"", b"  "] if i % 2 else [line]
        path = tmp_path / "loose.jsonl"
        path.write_bytes(b"\r\n".join(loose))
        _assert_same_batch(
            _load_split(path, workers),
            QuartetBatch.from_quartets(
                [quartet_from_row(json.loads(line)) for line in lines]
            ),
        )
        assert len(forks) == workers
        path.write_bytes(path.read_bytes() + b"\r\n\r\ngarbage{")
        with pytest.raises(JsonlFormatError) as raised:
            _load_split(path, workers)
        assert raised.value.line == len(loose) + 2
        assert multiprocessing.active_children() == []

    def test_file_under_one_chunk_forks_nothing(self, tmp_path, forks):
        path = tmp_path / "rows.jsonl"
        path.write_bytes(b"\n".join(_good_lines(3)) + b"\n")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(workers_module, "fork_workers", lambda jobs: min(3, jobs))
            assert len(JsonlSource(path).next_batch(480)) == 3
        assert forks == []

    def test_reader_that_dies_is_an_error(self, tmp_path, monkeypatch, forks):
        path = tmp_path / "rows.jsonl"
        path.write_bytes(b"\n".join(_good_lines(40)) + b"\n")
        monkeypatch.setattr(source_module, "_read_range", lambda *_: os._exit(1))
        with pytest.raises(ChildProcessError, match="exited before sending"):
            _load_split(path, 3)
        assert len(forks) == 3
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(
        not os.path.exists("/proc/self/stat"), reason="reads process states"
    )
    def test_killed_parent_leaves_no_reader(self, tmp_path):
        """The loading process SIGKILLed while both workers parse: each
        worker closed the parent's pipe ends it inherited, so the
        parent's death ends it at its next send. A worker that kept one
        open would block for ever writing its columns."""
        path = tmp_path / "rows.jsonl"
        path.write_bytes(b"\n".join(_good_lines(20_000)) + b"\n")
        pids = tmp_path / "pids"
        pids.touch()
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        loader = subprocess.Popen(
            [sys.executable, "-c", _KILLED_LOADER, str(path), str(pids)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        assert loader.wait(timeout=120) == -signal.SIGKILL
        readers = {int(pid) for pid in pids.read_text().split()} - {loader.pid}
        assert readers
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline and any(map(_running, readers)):
            time.sleep(0.1)
        left = {pid for pid in readers if _running(pid)}
        for pid in left:
            os.kill(pid, signal.SIGKILL)
        assert left == set()


#: Run in a child process: load ``argv[1]`` split two ways, each range's
#: parser appending its pid to ``argv[2]``, and SIGKILL this process as
#: soon as two parsers have started.
_KILLED_LOADER = textwrap.dedent(
    """
    import os, pathlib, signal, sys, threading, time
    import repro.perf.workers as workers
    import repro.serve.source as source

    path, pids = sys.argv[1], sys.argv[2]
    source._READ_BYTES = 1 << 16
    workers.fork_workers = lambda jobs: min(2, jobs)
    read_range = source._read_range

    def announced(*args):
        with open(pids, "a") as out:
            out.write(f"{os.getpid()}\\n")
        return read_range(*args)

    def kill_once_both_parse():
        while len(pathlib.Path(pids).read_text().split()) < 2:
            time.sleep(0.005)
        os.kill(os.getpid(), signal.SIGKILL)

    source._read_range = announced
    threading.Thread(target=kill_once_both_parse, daemon=True).start()
    source.JsonlSource(path)
    time.sleep(60)
    """
)


def _running(pid: int) -> bool:
    """Whether ``pid`` is a live process (an unreaped zombie is not)."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


class TestHttpSurface:
    def test_endpoints_serve_live_state(self, served_scenario):
        daemon = BlameItDaemon(make_pipeline(served_scenario), START, END)
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
        daemon = BlameItDaemon(make_pipeline(served_scenario), START, START + 1)
        with StatusServer(daemon) as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(
                    f"http://127.0.0.1:{server.port}/nope", timeout=10
                )
            assert excinfo.value.code == 404

    def test_metrics_endpoint_snapshot_validates(self, served_scenario):
        pipeline = make_pipeline(served_scenario, metrics=MetricsRegistry())
        daemon = BlameItDaemon(pipeline, START, START + 60)
        with StatusServer(daemon) as server:
            daemon.run()
            with urllib.request.urlopen(
                f"http://127.0.0.1:{server.port}/metrics", timeout=10
            ) as response:
                snapshot = json.loads(response.read())
        validate_snapshot(snapshot)
        assert snapshot["counters"]["pipeline.buckets"] == 60
