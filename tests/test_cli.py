"""Tests for the repro CLI."""

import sqlite3

import pytest

from repro.cli import build_parser, main

from tests.test_store import v3_store, v4_store

FAST = ["--seed", "3", "--regions", "USA", "Europe", "--days", "1", "--locations", "1"]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_region_parsing(self):
        args = build_parser().parse_args(["simulate", "--regions", "usa", "east_asia"])
        names = {r.name for r in args.regions}
        assert names == {"USA", "EAST_ASIA"}

    def test_unknown_region_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--regions", "Atlantis"])


class TestCommands:
    def test_simulate(self, capsys):
        assert main(["simulate", *FAST]) == 0
        out = capsys.readouterr().out
        assert "simulated world" in out
        assert "client /24s" in out
        assert "fault mix" in out

    def test_characterize(self, capsys):
        assert main(["characterize", *FAST, "--start", "150", "--end", "220"]) == 0
        out = capsys.readouterr().out
        assert "prevalence" in out
        assert "USA" in out

    def test_diagnose(self, capsys):
        code = main(
            ["diagnose", *FAST, "--start", "150", "--end", "200", "--budget", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "blame mix" in out
        assert "probes:" in out

    def test_diagnose_with_reverse(self, capsys):
        code = main(
            ["diagnose", *FAST, "--start", "150", "--end", "180", "--reverse"]
        )
        assert code == 0
        assert "reverse" in capsys.readouterr().out

    def test_validate(self, capsys):
        code = main(
            ["validate", "--seed", "42", "--regions", "USA", "Europe",
             "--days", "1", "--locations", "2", "--incidents", "5"]
        )
        out = capsys.readouterr().out
        assert "incident validation" in out
        assert "5/5" in out
        assert code == 0

    def test_validate_suite_saves_the_golden_scorecard(self, tmp_path, capsys):
        """The paper-era families clear a 0.7 floor, and the saved
        scorecard is the golden one byte for byte: the CLI's default
        suite world and seed are the golden's."""
        from pathlib import Path

        target = tmp_path / "scorecard.json"
        code = main(
            ["validate", "--suite", "--accuracy-floor", "0.7",
             "--save-scorecard", str(target)]
        )
        assert code == 0
        assert f"scorecard written to {target}" in capsys.readouterr().out
        golden = Path(__file__).parent / "golden" / "validation_scorecard.json"
        assert target.read_bytes() == golden.read_bytes()


class TestPersistence:
    def test_simulate_save_then_diagnose_load(self, tmp_path, capsys):
        spec = tmp_path / "scenario.json"
        assert main(["simulate", *FAST, "--save", str(spec)]) == 0
        assert spec.exists()
        report = tmp_path / "report.json"
        code = main(
            [
                "diagnose", *FAST,
                "--scenario", str(spec),
                "--start", "150", "--end", "180",
                "--save-report", str(report),
            ]
        )
        assert code == 0
        assert report.exists()
        out = capsys.readouterr().out
        assert "report written" in out


class TestExitCodes:
    """Invalid input exits with code 2 and a one-line error — never a
    traceback (the driver scripts depend on the exit code)."""

    def _check_usage_error(self, argv, capsys, fragment):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert fragment in err

    def test_diagnose_rejects_reversed_range(self, capsys):
        self._check_usage_error(
            ["diagnose", *FAST, "--start", "200", "--end", "150"],
            capsys, "--end must be > --start",
        )

    def test_diagnose_rejects_end_beyond_horizon(self, capsys):
        self._check_usage_error(
            ["diagnose", *FAST, "--start", "150", "--end", "100000"],
            capsys, "beyond the scenario horizon",
        )

    def test_diagnose_rejects_negative_start(self, capsys):
        self._check_usage_error(
            ["diagnose", *FAST, "--start", "-5", "--end", "150"],
            capsys, "--start must be >= 0",
        )

    def test_diagnose_rejects_negative_budget(self, capsys):
        self._check_usage_error(
            ["diagnose", *FAST, "--start", "150", "--end", "160",
             "--budget", "-1"],
            capsys, "--budget must be >= 0",
        )

    def test_diagnose_rejects_missing_scenario_file(self, capsys, tmp_path):
        self._check_usage_error(
            ["diagnose", *FAST, "--scenario", str(tmp_path / "nope.json"),
             "--start", "150", "--end", "160"],
            capsys, "cannot load scenario",
        )

    @pytest.mark.parametrize(
        "section,field",
        [("latency", "jitter_ms"), (None, "bogus"), ("latency", "min_rtt_ms")],
        ids=["unknown-latency-field", "unknown-params-field", "retired-min-rtt-knob"],
    )
    def test_diagnose_rejects_malformed_scenario_spec(
        self, capsys, tmp_path, section, field
    ):
        import json

        spec = tmp_path / "scenario.json"
        assert main(["simulate", *FAST, "--save", str(spec)]) == 0
        data = json.loads(spec.read_text())
        target = data["params"] if section is None else data["params"][section]
        target[field] = 1.0
        spec.write_text(json.dumps(data))
        capsys.readouterr()
        dotted = "params." + (f"{section}." if section else "") + field
        self._check_usage_error(
            ["diagnose", "--scenario", str(spec), "--start", "150", "--end", "160"],
            capsys, f"unknown field {dotted}",
        )

    def test_diagnose_rejects_repeated_fault_id(self, capsys, tmp_path):
        """Two faults sharing an id would inject only the first into the
        quartet stream while the ground truth applies both."""
        import json

        spec = tmp_path / "scenario.json"
        assert main(["simulate", *FAST, "--save", str(spec)]) == 0
        data = json.loads(spec.read_text())
        repeated = data["faults"][0]["fault_id"]
        data["faults"][1]["fault_id"] = repeated
        spec.write_text(json.dumps(data))
        capsys.readouterr()
        self._check_usage_error(
            ["diagnose", "--scenario", str(spec), "--start", "150", "--end", "160"],
            capsys, f"duplicate fault id {repeated}",
        )

    def test_characterize_rejects_bad_range(self, capsys):
        self._check_usage_error(
            ["characterize", *FAST, "--start", "220", "--end", "150"],
            capsys, "--end must be > --start",
        )

    def test_validate_rejects_zero_incidents(self, capsys):
        self._check_usage_error(
            ["validate", *FAST, "--incidents", "0"],
            capsys, "--incidents must be >= 1",
        )

    @pytest.fixture
    def no_world(self, monkeypatch):
        """Fail the test if the command builds a world: suite flags are
        checked before any world exists."""
        import repro.cli

        def build_world(*_args, **_kwargs):
            raise AssertionError("a world was built before the flags were checked")

        monkeypatch.setattr(repro.cli, "build_world", build_world)

    @pytest.mark.parametrize(
        "floor", ["nan", "-3", "1.5"], ids=["nan", "negative", "above-one"]
    )
    def test_validate_suite_rejects_floor_outside_unit_interval(
        self, capsys, no_world, floor
    ):
        assert main(["validate", "--suite", "--accuracy-floor", floor]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: --accuracy-floor must be within [0, 1]")
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    def test_validate_rejects_scorecard_without_suite(
        self, capsys, no_world, tmp_path
    ):
        target = tmp_path / "scorecard.json"
        assert main(["validate", *FAST, "--save-scorecard", str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --save-scorecard needs --suite\n"
        assert captured.out == ""
        assert not target.exists()

    @pytest.mark.parametrize(
        "argv,message",
        [
            ([*FAST, "--suite-seed", "3"], "--suite-seed needs --suite"),
            ([*FAST, "--accuracy-floor", "0.5"], "--accuracy-floor needs --suite"),
            (["--suite", "--incidents", "5"],
             "--incidents cannot be combined with --suite"),
            (["--suite", "--incident-seed", "5"],
             "--incident-seed cannot be combined with --suite"),
        ],
        ids=["suite-seed", "accuracy-floor", "incidents", "incident-seed"],
    )
    def test_validate_rejects_flags_of_the_other_case_set(
        self, capsys, no_world, argv, message
    ):
        """A flag the chosen case set would ignore is an error, raised
        before any world is built."""
        assert main(["validate", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    def test_simulate_rejects_nonpositive_days(self, capsys):
        self._check_usage_error(
            ["simulate", "--seed", "3", "--regions", "USA", "--days", "0",
             "--locations", "1"],
            capsys, "--days must be >= 1",
        )

    def test_simulate_rejects_nonpositive_locations(self, capsys):
        self._check_usage_error(
            ["simulate", "--seed", "3", "--regions", "USA", "--days", "1",
             "--locations", "0"],
            capsys, "--locations must be >= 1",
        )

    def test_unknown_region_exits_with_usage_code(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "--regions", "Atlantis"])
        assert excinfo.value.code == 2


class TestChaosFlag:
    def test_diagnose_with_chaos_completes_and_counts_faults(
        self, tmp_path, capsys
    ):
        import json

        from repro.obs import PHASE_SPANS, validate_snapshot

        out_file = tmp_path / "metrics.json"
        code = main(
            ["diagnose", *FAST, "--start", "150", "--end", "200",
             "--chaos", "1", "--metrics-json", str(out_file)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "chaos: smoke fault plan enabled (seed 1)" in out
        assert "blame mix" in out
        snapshot = json.loads(out_file.read_text(encoding="utf-8"))
        validate_snapshot(snapshot, require_spans=PHASE_SPANS)
        counters = snapshot["counters"]
        assert any(name.startswith("chaos.") for name in counters)
        assert counters["pipeline.buckets"] == 50

    def test_chaos_is_deterministic_per_seed(self, tmp_path):
        import json

        snapshots = []
        for run in range(2):
            out_file = tmp_path / f"metrics-{run}.json"
            assert main(
                ["diagnose", *FAST, "--start", "150", "--end", "170",
                 "--chaos", "7", "--metrics-json", str(out_file)]
            ) == 0
            snapshots.append(
                json.loads(out_file.read_text(encoding="utf-8"))["counters"]
            )
        assert snapshots[0] == snapshots[1]


class TestMetricsJson:
    def test_diagnose_writes_valid_snapshot(self, tmp_path, capsys):
        import json

        from repro.obs import PHASE_SPANS, validate_snapshot

        out_file = tmp_path / "metrics.json"
        code = main(
            ["diagnose", *FAST, "--start", "150", "--end", "200",
             "--metrics-json", str(out_file)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "phase seconds:" in out
        assert "metrics snapshot written" in out
        snapshot = json.loads(out_file.read_text(encoding="utf-8"))
        validate_snapshot(snapshot, require_spans=PHASE_SPANS)
        assert snapshot["counters"]["pipeline.buckets"] == 50
        assert snapshot["counters"]["pipeline.quartets"] > 0

    def test_diagnose_without_flag_records_nothing(self, capsys):
        code = main(["diagnose", *FAST, "--start", "150", "--end", "160"])
        assert code == 0
        assert "phase seconds" not in capsys.readouterr().out


class TestCheckpointFlags:
    """--checkpoint-dir / --resume / --kill-at: chaos kill exits 3, resume
    reproduces the straight-through report byte-for-byte, and bad resume
    targets exit 2 with a one-line error."""

    # Two simulated days so the run crosses the day-288 checkpoint.
    DAYS2 = ["--seed", "3", "--regions", "USA", "Europe", "--days", "2",
             "--locations", "1"]
    RANGE = ["--start", "240", "--end", "360"]

    @pytest.mark.parametrize(
        "driver, kill_at",
        [([], "288"), (["--workers", "2"], "288"), (["--workers", "2"], "300")],
        ids=["sequential", "sharded", "sharded-mid-day"],
    )
    def test_kill_then_resume_matches_straight_through(
        self, tmp_path, capsys, driver, kill_at
    ):
        straight = tmp_path / "straight.json"
        # The straight-through run checkpoints too (it would report the
        # same without), so the save path also runs uninterrupted once.
        code = main(
            ["diagnose", *self.DAYS2, *self.RANGE,
             "--checkpoint-dir", str(tmp_path / "ckpt_a"),
             "--save-report", str(straight)]
        )
        assert code == 0
        ckpt = tmp_path / "ckpt_b"
        code = main(
            ["diagnose", *self.DAYS2, *self.RANGE, *driver,
             "--checkpoint-dir", str(ckpt), "--kill-at", kill_at]
        )
        assert code == 3
        assert f"chaos: chaos kill at bucket {kill_at}" in capsys.readouterr().err
        resumed = tmp_path / "resumed.json"
        code = main(
            ["diagnose", *self.DAYS2, *self.RANGE, *driver,
             "--resume", str(ckpt), "--save-report", str(resumed)]
        )
        assert code == 0
        assert "resuming from checkpoint" in capsys.readouterr().out
        assert resumed.read_text() == straight.read_text()

    def test_resume_missing_directory_exits_2(self, tmp_path, capsys):
        assert main(
            ["diagnose", *FAST, "--start", "150", "--end", "160",
             "--resume", str(tmp_path / "nope")]
        ) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "cannot resume: no checkpoint directory" in err

    def test_resume_empty_directory_exits_2(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(
            ["diagnose", *FAST, "--start", "150", "--end", "160",
             "--resume", str(empty)]
        ) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "cannot resume: no checkpoint found" in err

    def test_resume_corrupt_store_exits_2(self, tmp_path, capsys):
        broken = tmp_path / "broken"
        broken.mkdir()
        (broken / "state.db").write_text("not a sqlite database at all")
        assert main(
            ["diagnose", *FAST, "--start", "150", "--end", "160",
             "--resume", str(broken)]
        ) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "cannot open checkpoint store" in err

    def test_bit_flipped_checkpoint_exits_2(self, tmp_path, capsys):
        """One flipped bit in a checkpoint's JSON (121 bad quartets so
        far becomes 120) is refused with one line; it used to resume
        and report 153 bad quartets where the straight run reports 154."""
        ckpt = tmp_path / "ckpt"
        assert main(
            ["diagnose", *self.DAYS2, *self.RANGE,
             "--checkpoint-dir", str(ckpt), "--kill-at", "300"]
        ) == 3
        marker = '"bad_quartets": 121'
        conn = sqlite3.connect(ckpt / "state.db")
        ((key, payload),) = [
            row for row in conn.execute("SELECT key, payload FROM records")
            if marker in row[1]
        ]
        at = payload.index(marker) + len(marker) - 1
        flipped = payload[:at] + chr(ord(payload[at]) ^ 1) + payload[at + 1:]
        with conn:
            conn.execute(
                "UPDATE records SET payload = ? WHERE key = ?", (flipped, key)
            )
        conn.close()
        capsys.readouterr()
        report = tmp_path / "resumed.json"
        assert main(
            ["diagnose", *self.DAYS2, *self.RANGE,
             "--resume", str(ckpt), "--save-report", str(report)]
        ) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot use checkpoint state:")
        assert err.count("\n") == 1
        assert not report.exists()

    @pytest.mark.parametrize("verb", ["diagnose", "serve"])
    @pytest.mark.parametrize("layout", ["state.db", "columnar"])
    def test_resume_v3_store_exits_2(self, tmp_path, capsys, verb, layout):
        """A layout-v3 directory is refused, not cold-started as empty."""
        old = tmp_path / "old"
        v3_store(old, layout)
        assert main(
            [verb, *FAST, "--start", "150", "--end", "160", "--resume", str(old)]
        ) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: cannot open checkpoint store")
        assert "v3" in captured.err
        assert captured.err.count("\n") == 1
        assert "serving on" not in captured.out

    @pytest.mark.parametrize("verb", ["diagnose", "serve"])
    def test_resume_v4_store_exits_2(self, tmp_path, capsys, verb):
        """A layout-v4 store is refused: resuming it would drop every
        cloud and client run closed before its checkpoint."""
        old = tmp_path / "old"
        v4_store(old)
        assert main(
            [verb, *FAST, "--start", "150", "--end", "160", "--resume", str(old)]
        ) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: cannot open checkpoint store")
        assert "layout v4; this reader needs layout v5" in captured.err
        assert captured.err.count("\n") == 1
        assert "serving on" not in captured.out

    def test_conflicting_dirs_exit_2(self, tmp_path, capsys):
        assert main(
            ["diagnose", *FAST, "--start", "150", "--end", "160",
             "--checkpoint-dir", str(tmp_path / "a"),
             "--resume", str(tmp_path / "b")]
        ) == 2
        err = capsys.readouterr().err
        assert "--checkpoint-dir and --resume must name the same" in err

    def test_negative_kill_at_exits_2(self, capsys):
        assert main(
            ["diagnose", *FAST, "--start", "150", "--end", "160",
             "--kill-at", "-1"]
        ) == 2
        assert "--kill-at must be >= 0" in capsys.readouterr().err


class TestOutputPaths:
    """An output file whose directory does not exist is a usage error,
    caught before the run rather than as a traceback after it."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["diagnose", *FAST, "--start", "150", "--end", "160", "--save-report"],
            ["diagnose", *FAST, "--start", "150", "--end", "160", "--metrics-json"],
            ["serve", *FAST, "--start", "150", "--end", "160", "--save-report"],
            ["serve", *FAST, "--start", "150", "--end", "160", "--alerts-jsonl"],
            ["validate", "--suite", "--save-scorecard"],
        ],
        ids=lambda argv: f"{argv[0]}{argv[-1]}",
    )
    def test_missing_directory_exits_2_before_running(self, tmp_path, capsys, argv):
        target = tmp_path / "nope" / "out.json"
        assert main([*argv, str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot write {argv[-1]}")
        assert captured.err.count("\n") == 1
        assert captured.out == ""
        assert not target.parent.exists()


class TestServeCommand:
    """The serve verb: run-to-horizon, kill→resume equivalence with the
    batch pipeline, and usage-error exit codes."""

    DAYS2 = ["--seed", "3", "--regions", "USA", "Europe", "--days", "2",
             "--locations", "1"]
    RANGE = ["--start", "240", "--end", "330"]

    def test_serve_runs_to_horizon(self, tmp_path, capsys):
        alerts = tmp_path / "alerts.jsonl"
        code = main(
            ["serve", *self.DAYS2, *self.RANGE, "--budget", "2",
             "--alerts-jsonl", str(alerts)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "serving on http://127.0.0.1:" in out
        assert "blame mix" in out
        assert "alerts streamed:" in out
        assert alerts.exists()

    def _diagnose_report(self, tmp_path) -> dict:
        """``diagnose``'s report over the same world and window, minus
        its wall-clock ``"metrics"``."""
        import json

        path = tmp_path / "batch.json"
        assert main(
            ["diagnose", *self.DAYS2, *self.RANGE, "--save-report", str(path)]
        ) == 0
        report = json.loads(path.read_text())
        report.pop("metrics")
        return report

    def test_kill_then_resume_matches_straight_through(
        self, tmp_path, capsys
    ):
        import json

        straight = tmp_path / "straight.json"
        code = main(
            ["serve", *self.DAYS2, *self.RANGE,
             "--save-report", str(straight)]
        )
        assert code == 0
        ckpt = tmp_path / "ckpt"
        code = main(
            ["serve", *self.DAYS2, *self.RANGE,
             "--checkpoint-dir", str(ckpt),
             "--checkpoint-every", "48", "--kill-at", "300"]
        )
        assert code == 3
        assert "chaos:" in capsys.readouterr().err
        resumed = tmp_path / "resumed.json"
        code = main(
            ["serve", *self.DAYS2, *self.RANGE,
             "--resume", str(ckpt), "--checkpoint-every", "48",
             "--save-report", str(resumed)]
        )
        assert code == 0
        assert "resuming from checkpoint" in capsys.readouterr().out
        # Metrics snapshots carry wall-clock span timings; everything
        # else is byte-identical.
        straight_doc = json.loads(straight.read_text())
        resumed_doc = json.loads(resumed.read_text())
        straight_doc.pop("metrics")
        resumed_doc.pop("metrics")
        assert resumed_doc == straight_doc
        assert resumed_doc == self._diagnose_report(tmp_path)

    def test_source_jsonl_kill_then_resume_matches_diagnose(
        self, tmp_path, capsys
    ):
        """Rows written from the world the flags build, served from
        JSONL, killed off the checkpoint cadence and resumed (the pending
        window replays from the file): the report is diagnose's."""
        import json

        import numpy as np

        from repro.cli import _build_params
        from repro.core.pipeline import BlameItPipeline
        from repro.perf.batch import BatchQuartetGenerator
        from repro.serve import write_quartets_jsonl
        from repro.sim.scenario import Scenario

        scenario = Scenario.build(
            _build_params(build_parser().parse_args(["serve", *self.DAYS2]))
        )
        # Draw each bucket as diagnose does: from (pipeline seed, bucket).
        seed = BlameItPipeline(scenario).seed
        generator = BatchQuartetGenerator(scenario)
        rows = tmp_path / "rows.jsonl"
        write_quartets_jsonl(
            rows,
            (
                quartet
                for time in range(240, 330)
                for quartet in generator.generate_quartets(
                    time, rng=np.random.default_rng((seed, time))
                )
            ),
        )
        jsonl = ["--source-jsonl", str(rows)]
        ckpt = tmp_path / "ckpt"
        code = main(
            ["serve", *self.DAYS2, *self.RANGE, *jsonl,
             "--checkpoint-dir", str(ckpt),
             "--checkpoint-every", "48", "--kill-at", "301"]
        )
        assert code == 3
        served = tmp_path / "served.json"
        code = main(
            ["serve", *self.DAYS2, *self.RANGE, *jsonl,
             "--resume", str(ckpt), "--checkpoint-every", "48",
             "--save-report", str(served)]
        )
        assert code == 0
        served_doc = json.loads(served.read_text())
        served_doc.pop("metrics")
        assert served_doc == self._diagnose_report(tmp_path)

    def test_signal_handlers_restored_after_run(self):
        """serve must not leak its SIGTERM/SIGINT handlers into the
        calling process — forked children (e.g. multiprocessing pool
        workers) would inherit a handler that swallows SIGTERM."""
        import signal

        before_term = signal.getsignal(signal.SIGTERM)
        before_int = signal.getsignal(signal.SIGINT)
        assert main(["serve", *FAST, "--start", "150", "--end", "153"]) == 0
        assert signal.getsignal(signal.SIGTERM) is before_term
        assert signal.getsignal(signal.SIGINT) is before_int

    def test_bad_flag_values_exit_2(self, capsys):
        for extra, fragment in [
            (["--checkpoint-every", "0"], "--checkpoint-every must be >= 1"),
            (["--keep-checkpoints", "0"], "--keep-checkpoints must be >= 1"),
            (["--retention-days", "0"], "--retention-days must be >= 1"),
            (["--kill-at", "-1"], "--kill-at must be >= 0"),
        ]:
            assert main(
                ["serve", *FAST, "--start", "150", "--end", "160", *extra]
            ) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:")
            assert fragment in err

    def test_retention_requires_checkpoint_dir(self, capsys):
        assert main(
            ["serve", *FAST, "--start", "150", "--end", "160",
             "--retention-days", "1"]
        ) == 2
        err = capsys.readouterr().err
        assert "--retention-days requires --checkpoint-dir" in err

    def test_conflicting_dirs_exit_2(self, tmp_path, capsys):
        assert main(
            ["serve", *FAST, "--start", "150", "--end", "160",
             "--checkpoint-dir", str(tmp_path / "a"),
             "--resume", str(tmp_path / "b")]
        ) == 2
        err = capsys.readouterr().err
        assert "--checkpoint-dir and --resume must name the same" in err

    def test_missing_source_jsonl_exits_2(self, tmp_path, capsys):
        assert main(
            ["serve", *FAST, "--start", "150", "--end", "160",
             "--source-jsonl", str(tmp_path / "nope.jsonl")]
        ) == 2
        assert "cannot load quartets" in capsys.readouterr().err

    def test_bad_source_jsonl_row_exits_2_naming_its_line(
        self, tmp_path, capsys
    ):
        import json

        row = {
            "time": 480, "prefix24": 10, "location_id": "loc-a",
            "mobile": False, "mean_rtt_ms": 30.5, "n_samples": 12,
            "users": 3, "client_asn": 64500, "middle": [64501],
            "region": "USA",
        }
        path = tmp_path / "bad.jsonl"
        path.write_text(
            "".join(json.dumps(row) + "\n" for _ in range(3))
            + json.dumps(row | {"time": None}) + "\n"
        )
        assert main(
            ["serve", *self.DAYS2, "--source-jsonl", str(path),
             "--start", "480", "--end", "483"]
        ) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err.count("\n") == 1
        assert "bad.jsonl:4: field 'time'" in err


class TestDriverAgreement:
    def test_diagnose_prints_one_report_whatever_runs_it(self, tmp_path, capsys):
        """Quartets are drawn per ``(seed, bucket)`` whichever driver
        runs and whether or not a store is attached, so the blame mix,
        probe counts and alert lines do not depend on either."""
        args = ["diagnose", *TestCheckpointFlags.DAYS2, *TestCheckpointFlags.RANGE]
        printed = []
        for extra in (
            [],
            ["--workers", "1"],
            ["--checkpoint-dir", str(tmp_path / "ckpt")],
        ):
            assert main([*args, *extra]) == 0
            printed.append(capsys.readouterr().out)
        assert "probes:" in printed[0] and "top alerts:" in printed[0]
        assert printed[1] == printed[0]
        assert printed[2] == printed[0]


class TestWorkersFlag:
    def test_diagnose_with_workers(self, capsys):
        code = main(
            ["diagnose", *FAST, "--start", "150", "--end", "200",
             "--workers", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "blame mix" in out
        assert "probes:" in out

    def test_workers_must_be_positive(self, capsys):
        for bad in ("0", "-3"):
            assert main(
                ["diagnose", *FAST, "--start", "150", "--end", "160",
                 "--workers", bad]
            ) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:")
            assert "--workers must be >= 1" in err

    def test_workers_with_metrics_json(self, tmp_path, capsys):
        import json

        from repro.obs import validate_snapshot

        out_file = tmp_path / "metrics.json"
        code = main(
            ["diagnose", *FAST, "--start", "150", "--end", "200",
             "--workers", "1", "--metrics-json", str(out_file)]
        )
        assert code == 0
        assert "metrics snapshot written" in capsys.readouterr().out
        snapshot = json.loads(out_file.read_text(encoding="utf-8"))
        validate_snapshot(snapshot)
        assert "phase.learning" in snapshot["spans"]
        assert "phase.generation" in snapshot["spans"]
