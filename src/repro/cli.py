"""Command-line interface: simulate, characterize, diagnose, validate, serve.

Usage::

    python -m repro simulate   --seed 7 --regions USA Europe --days 2
    python -m repro characterize --seed 7 --days 3
    python -m repro diagnose   --seed 7 --days 2 --start 288 --end 576
    python -m repro validate   --seed 11 --incidents 20
    python -m repro serve      --seed 7 --days 2 --start 288 --http-port 0

Every command builds a reproducible world from its seed, so results are
stable across runs and machines.

``diagnose`` (batch) and ``serve`` (streaming) drive one BlameIt run two
ways: their shared flags live on one parent parser, :func:`_open_run`
validates them and opens the run, and each verb keeps only its own part.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.analysis.characterize import (
    PersistenceTracker,
    bad_fraction_by_region,
)
from repro.analysis.report import render_table
from repro.analysis.validation import (
    SuiteCase,
    build_warmup_state,
    run_cases,
    suite_world_params,
    validate_scenario_suite,
)
from repro.core.config import BlameItConfig
from repro.core.pipeline import BlameItPipeline
from repro.net.geo import Region
from repro.perf.batch import BatchQuartetGenerator
from repro.sim.faults import SegmentKind
from repro.sim.incidents import PAPER_ARCHETYPES, generate_incidents
from repro.sim.scenario import Scenario, ScenarioParams, build_world


def _region(value: str) -> Region:
    for region in Region:
        if region.value.lower() == value.lower() or region.name.lower() == value.lower():
            return region
    raise argparse.ArgumentTypeError(f"unknown region {value!r}")


def _fail(message: str) -> int:
    """Print a one-line error to stderr; exit code 2 (usage error)."""
    print(f"error: {message}", file=sys.stderr)
    return 2


def _flag(args, flag: str):
    """The parsed value of ``flag`` (``--kill-at`` → ``args.kill_at``)."""
    return getattr(args, flag[2:].replace("-", "_"))


def _minimum_error(args, *bounds: tuple[str, int]) -> str | None:
    """The first ``(flag, minimum)`` bound that a given flag falls below."""
    for flag, minimum in bounds:
        value = _flag(args, flag)
        if value is not None and value < minimum:
            return f"{flag} must be >= {minimum}, got {value}"
    return None


def _output_error(args, *flags: str) -> str | None:
    """Reject an output file whose directory does not exist up front,
    not after the run, when the file is finally written."""
    import pathlib

    for flag in flags:
        path = _flag(args, flag)
        if path is not None and not pathlib.Path(path).parent.is_dir():
            return f"cannot write {flag} {path!r}: its directory does not exist"
    return None


#: ``validate`` flags that only one case set reads, with their defaults.
#: The parser leaves them None so :func:`_suite_flags_error` can tell a
#: given flag from an omitted one; the defaults are filled in after it.
_SUITE_DEFAULTS = {"suite_seed": 7, "accuracy_floor": 0.8}
_INCIDENT_DEFAULTS = {"incidents": 10, "incident_seed": 5}


def _suite_flags_error(args) -> str | None:
    """Reject suite flags that would switch the accuracy gate off, make
    it unpassable, or be ignored by the case set ``--suite`` chose."""
    for flag in ("--save-scorecard", "--suite-seed", "--accuracy-floor"):
        if _flag(args, flag) is not None and not args.suite:
            return f"{flag} needs --suite"
    for flag in ("--incidents", "--incident-seed"):
        if _flag(args, flag) is not None and args.suite:
            return f"{flag} cannot be combined with --suite"
    floor = args.accuracy_floor
    if floor is not None and not 0.0 <= floor <= 1.0:  # NaN fails both sides
        return f"--accuracy-floor must be within [0, 1], got {floor}"
    return None


def _params_error(args) -> str | None:
    """Validate the world-shape arguments every command shares."""
    return _minimum_error(args, ("--days", 1), ("--locations", 1))


def _window_error(start: int, end: int, horizon: int) -> str | None:
    """Validate a [start, end) bucket range against a scenario horizon."""
    if start < 0:
        return f"--start must be >= 0, got {start}"
    if end <= start:
        return f"--end must be > --start, got start={start} end={end}"
    if end > horizon:
        return f"--end {end} is beyond the scenario horizon ({horizon} buckets)"
    return None


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="BlameIt (SIGCOMM 2019) reproduction: WAN latency "
        "fault localization over a simulated Internet.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # The world-shape flags every verb takes.
    world = argparse.ArgumentParser(add_help=False)
    world.add_argument("--seed", type=int, default=7, help="world seed")
    world.add_argument(
        "--regions",
        type=_region,
        nargs="+",
        default=list(Region),
        metavar="REGION",
        help="regions to simulate (default: all seven)",
    )
    world.add_argument("--days", type=int, default=2, help="simulated days")
    world.add_argument(
        "--locations", type=int, default=2, help="edge locations per region"
    )
    # The flags of one BlameIt run, shared by diagnose and serve.
    run = argparse.ArgumentParser(add_help=False)
    run.add_argument(
        "--scenario", metavar="FILE", help="load a saved scenario spec instead"
    )
    run.add_argument("--start", type=int, default=288, help="first bucket of the run")
    run.add_argument("--end", type=int, help="bucket to stop before (default: horizon)")
    run.add_argument("--budget", type=int, default=5, help="probes per window")
    run.add_argument(
        "--planner",
        choices=("naive", "paper", "clustered"),
        default="paper",
        help="how the on-demand prober spends its budget: 'paper' (§5.3 "
        "impact ranking, the default), 'naive' (key order, no ranking), "
        "or 'clustered' (co-anomalous targets share one probe and its "
        "verdict; see repro.core.probeplan; its history is checkpointed)",
    )
    run.add_argument(
        "--reverse",
        action="store_true",
        help="enable the §5.1 reverse-traceroute extension",
    )
    run.add_argument(
        "--workers",
        type=int,
        metavar="N",
        help="run the sharded pipeline on a pool of N worker processes that "
        "persists across the whole run (default: the single-process "
        "sequential pipeline); serve cannot combine it with --source-jsonl",
    )
    run.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        help="checkpoint run state to DIR: diagnose at every day boundary, "
        "serve on the --checkpoint-every cadence and on graceful shutdown",
    )
    run.add_argument(
        "--resume",
        metavar="DIR",
        help="resume from the newest checkpoint in DIR (implies "
        "--checkpoint-dir DIR; no warmup, the checkpoint carries the "
        "warmed state; the horizon may extend the checkpointed run's)",
    )
    run.add_argument(
        "--kill-at",
        type=int,
        metavar="BUCKET",
        help="chaos: kill the run when it reaches BUCKET, after any "
        "checkpoint due there; the process exits with code 3",
    )
    run.add_argument(
        "--save-report", metavar="FILE", help="write the run report as JSON"
    )

    p_sim = sub.add_parser(
        "simulate", parents=[world], help="build a world and print its shape"
    )
    p_sim.add_argument(
        "--save", metavar="FILE", help="write the scenario spec as JSON"
    )

    p_char = sub.add_parser(
        "characterize",
        parents=[world],
        help="the §2 measurement study over a simulated window",
    )
    p_char.add_argument("--start", type=int, default=288)
    p_char.add_argument("--end", type=int, default=None)

    p_diag = sub.add_parser(
        "diagnose", parents=[world, run], help="run the BlameIt pipeline"
    )
    p_diag.add_argument("--top", type=int, default=5, help="alerts to print")
    p_diag.add_argument(
        "--metrics-json",
        metavar="FILE",
        help="enable the repro.obs observability layer and write the "
        "run's metrics snapshot (counters, gauges, per-phase spans) as "
        "JSON",
    )
    p_diag.add_argument(
        "--chaos",
        type=int,
        metavar="SEED",
        help="inject deterministic infrastructure faults (the repro.chaos "
        "smoke plan: quartet loss/corruption, probe timeouts, missing and "
        "stale baselines) seeded by SEED; same seed, same faults",
    )

    p_val = sub.add_parser(
        "validate",
        parents=[world],
        help="generate labelled incidents and score localization",
    )
    p_val.add_argument(
        "--incidents",
        type=int,
        help="labelled incidents to generate on the flag-built world "
        "(not with --suite; default 10)",
    )
    p_val.add_argument(
        "--incident-seed",
        type=int,
        help="incident generation seed (not with --suite; default 5)",
    )
    p_val.add_argument(
        "--suite",
        action="store_true",
        help="run the adversarial scenario suite on the canonical ringed "
        "world and print the per-family scorecard (ignores the "
        "world-shape flags; exit 1 if a paper-era family drops below "
        "the accuracy floor)",
    )
    p_val.add_argument(
        "--suite-seed",
        type=int,
        help="suite construction seed (--suite only; default 7; the "
        "scorecard is byte-deterministic per seed)",
    )
    p_val.add_argument(
        "--save-scorecard",
        metavar="FILE",
        help="write the suite scorecard as JSON (requires --suite)",
    )
    p_val.add_argument(
        "--accuracy-floor",
        type=float,
        metavar="FRAC",
        help="minimum localization accuracy for the paper-era families, "
        "a fraction in [0, 1] (--suite only; default 0.8)",
    )

    p_serve = sub.add_parser(
        "serve",
        parents=[world, run],
        help="run BlameIt as a streaming daemon with live HTTP status",
    )
    p_serve.add_argument(
        "--source-jsonl",
        metavar="FILE",
        help="feed quartets from a JSON-lines file (one quartet row per "
        "line) instead of generating them from the scenario",
    )
    p_serve.add_argument(
        "--http-port",
        type=int,
        default=0,
        metavar="PORT",
        help="TCP port for the /status, /issues and /metrics endpoints "
        "(default 0: pick a free port; the chosen port is printed)",
    )
    p_serve.add_argument(
        "--checkpoint-every",
        type=int,
        default=288,
        metavar="N",
        help="checkpoint cadence in buckets (default 288 = daily); "
        "checkpoints may land mid-day — the held expected-RTT table is "
        "persisted with them",
    )
    p_serve.add_argument(
        "--keep-checkpoints",
        type=int,
        metavar="N",
        help="prune the store to the newest N checkpoints after each "
        "save (default: keep everything)",
    )
    p_serve.add_argument(
        "--retention-days",
        type=int,
        metavar="DAYS",
        help="bound resident memory: archive closed issues older than "
        "DAYS days to the checkpoint store (restored at finalization)",
    )
    p_serve.add_argument(
        "--alerts-jsonl",
        metavar="FILE",
        help="stream alerts to FILE as JSON lines, as issues close",
    )
    return parser


def _build_params(args) -> ScenarioParams:
    return ScenarioParams(
        seed=args.seed,
        regions=tuple(args.regions),
        duration_days=args.days,
        locations_per_region=args.locations,
    )


def _cmd_simulate(args) -> int:
    if (message := _params_error(args)) is not None:
        return _fail(message)
    scenario = Scenario.build(_build_params(args))
    if getattr(args, "save", None):
        from repro.io import save_scenario

        save_scenario(scenario, args.save)
        print(f"scenario spec written to {args.save}")
    world = scenario.world
    rows = [
        ["edge locations", len(world.locations)],
        ["client /24s", len(world.population)],
        ["client ASes", len(world.population.asns)],
        ["BGP announcements", len(world.population.announcements())],
        ["active users", world.population.total_users()],
        ["⟨client, location⟩ slots", len(world.slots)],
        ["scheduled faults", len(scenario.faults)],
        ["route-churn events", len(scenario.reroutes)],
        ["horizon (5-min buckets)", scenario.horizon_buckets],
    ]
    print(render_table(["quantity", "value"], rows, title="simulated world"))
    by_kind: dict[SegmentKind, int] = {}
    for fault in scenario.faults:
        by_kind[fault.target.kind] = by_kind.get(fault.target.kind, 0) + 1
    print(
        "\nfault mix: "
        + ", ".join(f"{kind}={count}" for kind, count in sorted(
            by_kind.items(), key=lambda kv: kv[0].value
        ))
    )
    return 0


def _cmd_characterize(args) -> int:
    if (message := _params_error(args)) is not None:
        return _fail(message)
    scenario = Scenario.build(_build_params(args))
    end = args.end if args.end is not None else scenario.horizon_buckets
    if (message := _window_error(args.start, end, scenario.horizon_buckets)):
        return _fail(message)
    generator = BatchQuartetGenerator(scenario)
    buffered = [(t, generator.generate_quartets(t)) for t in range(args.start, end)]
    fractions = bad_fraction_by_region(
        (q for _, q in buffered), scenario.world.targets
    )
    rows = []
    for region in Region:
        cells = ["-", "-"]
        for index, mobile in enumerate((False, True)):
            value = fractions.get((region, mobile))
            if value is not None:
                cells[index] = f"{100 * value:.2f}%"
        rows.append([str(region), *cells])
    print(render_table(
        ["region", "fixed bad", "mobile bad"], rows,
        title="bad-quartet prevalence (Fig. 2 style)",
    ))
    tracker = PersistenceTracker()
    for time, quartets in buffered:
        tracker.observe_bucket(
            time, PersistenceTracker.bad_keys(quartets, scenario.world.targets)
        )
    runs = tracker.finish()
    if runs:
        fleeting = sum(1 for r in runs if r <= 1) / len(runs)
        long_lived = sum(1 for r in runs if r > 24) / len(runs)
        print(
            f"\nbadness episodes: {len(runs)}; ≤5min: {100 * fleeting:.1f}%"
            f" (paper >60%); >2h: {100 * long_lived:.1f}% (paper ~8%)"
        )
    return 0


def _open_run(args, *, metrics=None, chaos=None, keep_last=None) -> tuple | str:
    """Validate the shared run flags and open the run they describe.

    Loads or builds the scenario, checks the ``[--start, --end)`` window,
    opens the checkpoint store, builds the config and the sequential or
    sharded driver, and warms it up (or announces the resume). Returns
    the opened run as ``(driver, store or None, end bucket)`` — release
    it with :func:`_close_run` — or a usage-error message before
    anything is built.

    Args:
        metrics: The driver's observability registry, if any.
        chaos: The driver's fault plan; ``--kill-at`` is folded into it.
            Pass None to keep the kill out of the driver (``serve``'s
            daemon fires it instead).
        keep_last: Checkpoint retention for the store.
    """
    import pathlib

    from repro.store import CheckpointStore, StoreError

    if message := (
        _params_error(args)
        or _minimum_error(args, ("--budget", 0), ("--workers", 1), ("--kill-at", 0))
        or _output_error(args, "--save-report")
    ):
        return message
    resume_dir = args.resume
    if args.checkpoint_dir and resume_dir and args.checkpoint_dir != resume_dir:
        return "--checkpoint-dir and --resume must name the same directory"
    if args.scenario:
        from repro.io import load_scenario

        try:
            scenario = load_scenario(args.scenario)
        except (OSError, ValueError, KeyError) as exc:
            return f"cannot load scenario {args.scenario!r}: {exc}"
    else:
        scenario = Scenario.build(_build_params(args))
    end = args.end if args.end is not None else scenario.horizon_buckets
    if (message := _window_error(args.start, end, scenario.horizon_buckets)):
        return message
    if chaos is not None:
        if chaos.enabled:
            print(f"chaos: smoke fault plan enabled (seed {chaos.seed})")
        if args.kill_at is not None:
            import dataclasses

            chaos = dataclasses.replace(chaos, kill_at_bucket=args.kill_at)
    checkpoint_dir = resume_dir or args.checkpoint_dir
    store = None
    if checkpoint_dir:
        if resume_dir and not pathlib.Path(resume_dir).is_dir():
            return f"cannot resume: no checkpoint directory at {resume_dir!r}"
        try:
            store = CheckpointStore(checkpoint_dir, keep_last=keep_last)
            if resume_dir and store.latest_time() is None:
                store.close()
                return f"cannot resume: no checkpoint found in {resume_dir!r}"
        except StoreError as exc:
            return f"cannot open checkpoint store at {checkpoint_dir!r}: {exc}"
    driver_args = dict(
        config=BlameItConfig(
            history_days=1,
            probe_budget_per_window=args.budget,
            use_reverse_traceroutes=args.reverse,
            probe_planner=args.planner,
        ),
        metrics=metrics,
        chaos=chaos,
        store=store,
        warm_start=bool(resume_dir),
    )
    if args.workers is not None:
        from repro.perf.sharded import ShardedPipeline

        pipeline = ShardedPipeline(scenario, n_workers=args.workers, **driver_args)
    else:
        pipeline = BlameItPipeline(scenario, rng_per_bucket=True, **driver_args)
    if resume_dir:
        print(f"resuming from checkpoint in {resume_dir}")
    else:
        pipeline.warmup(0, min(args.start, 288), stride=3)
    return pipeline, store, end


def _close_run(pipeline, store) -> None:
    """Release the sharded driver's worker pool and the store."""
    close = getattr(pipeline, "close", None)
    if close is not None:
        close()
    if store is not None:
        store.close()


def _print_blame_mix(report) -> None:
    rows = [
        [str(blame), count, f"{100 * fraction:.1f}%"]
        for blame, fraction in report.blame_fractions().items()
        for count in [report.blame_counts.get(blame, 0)]
    ]
    print(render_table(["blame", "quartets", "share"], rows, title="blame mix"))


def _save_report(report, path: str | None, gap: str = "") -> None:
    """``--save-report``: write the report, then say so after ``gap``."""
    if path:
        from repro.io import save_report

        save_report(report, path)
        print(f"{gap}report written to {path}")


def _cmd_diagnose(args) -> int:
    from repro.chaos import ChaosKill, FaultPlan
    from repro.obs import MetricsRegistry
    from repro.store import StoreError

    if (message := _output_error(args, "--metrics-json")):
        return _fail(message)
    metrics = MetricsRegistry() if args.metrics_json else None
    chaos = FaultPlan.smoke(args.chaos) if args.chaos is not None else FaultPlan()
    run = _open_run(args, metrics=metrics, chaos=chaos)
    if isinstance(run, str):
        return _fail(run)
    pipeline, store, end = run
    try:
        report = pipeline.run(args.start, end)
    except ChaosKill as exc:
        print(f"chaos: {exc}", file=sys.stderr)
        return 3
    except StoreError as exc:
        return _fail(f"cannot use checkpoint state: {exc}")
    finally:
        _close_run(pipeline, store)
    _print_blame_mix(report)
    print(
        f"\nprobes: {report.probes_on_demand} on-demand, "
        f"{report.probes_background} background, "
        f"{pipeline.engine.reverse_probes_issued} reverse"
    )
    named = [
        item
        for item in report.localized
        if item.verdict is not None and item.verdict.asn is not None
    ]
    if named:
        print("\nlocalized culprits:")
        for item in named[: args.top]:
            location_id, middle = item.issue_key
            print(
                f"  [{item.category}] {location_id} via "
                f"{'-'.join(f'AS{a}' for a in middle) or 'direct'}: "
                f"AS{item.verdict.asn} (+{item.verdict.delta_ms:.0f}ms)"
            )
    if report.alerts:
        print("\ntop alerts:")
        for alert in report.alerts[: args.top]:
            print(
                f"  [{alert.team}] {alert.blame} impact={alert.impact:.0f} "
                f"culprit=AS{alert.culprit_asn} {alert.detail}"
            )
    if args.metrics_json:
        import json
        import pathlib

        pathlib.Path(args.metrics_json).write_text(
            json.dumps(report.metrics, indent=2) + "\n", encoding="utf-8"
        )
        spans = (report.metrics or {}).get("spans", {})
        phase_totals = {
            name.removeprefix("phase."): data["total"]
            for name, data in sorted(spans.items())
            if name.startswith("phase.")
        }
        if phase_totals:
            print(
                "\nphase seconds: "
                + ", ".join(f"{k}={v:.2f}" for k, v in phase_totals.items())
            )
        print(f"metrics snapshot written to {args.metrics_json}")
    _save_report(report, args.save_report, gap="\n")
    return 0


def _alert_row(alert) -> dict:
    """One streamed alert as a JSON-safe row (the --alerts-jsonl format)."""
    return {
        "blame": str(alert.blame),
        "team": str(alert.team) if alert.team else None,
        "location_id": alert.location_id,
        "middle": list(alert.middle),
        "culprit_asn": alert.culprit_asn,
        "first_seen": alert.first_seen,
        "duration": alert.duration,
        "impact": alert.impact,
        "confidence": alert.confidence,
        "detail": alert.detail,
    }


def _cmd_serve(args) -> int:
    import json
    import signal

    from repro.chaos import ChaosKill
    from repro.obs import MetricsRegistry
    from repro.serve import BlameItDaemon, JsonlSource, ScenarioSource, StatusServer
    from repro.store import StoreError

    if message := _minimum_error(
        args, ("--checkpoint-every", 1), ("--keep-checkpoints", 1),
        ("--retention-days", 1),
    ) or _output_error(args, "--alerts-jsonl"):
        return _fail(message)
    if args.workers is not None and args.source_jsonl:
        return _fail(
            "--workers requires scenario-generated buckets; the sharded "
            "pipeline's workers cannot compute --source-jsonl batches"
        )
    if args.retention_days is not None and not (args.checkpoint_dir or args.resume):
        return _fail("--retention-days requires --checkpoint-dir")
    source = ScenarioSource()
    if args.source_jsonl:
        try:
            source = JsonlSource(args.source_jsonl)
        except (OSError, ValueError, KeyError) as exc:
            return _fail(
                f"cannot load quartets from {args.source_jsonl!r}: {exc}"
            )
    run = _open_run(args, metrics=MetricsRegistry(), keep_last=args.keep_checkpoints)
    if isinstance(run, str):
        return _fail(run)
    pipeline, store, end = run
    alerts_file = None
    sink = None
    if args.alerts_jsonl:
        alerts_file = open(args.alerts_jsonl, "a", encoding="utf-8")

        def sink(alert) -> None:
            alerts_file.write(json.dumps(_alert_row(alert)) + "\n")
            alerts_file.flush()

    daemon = BlameItDaemon(
        pipeline,
        args.start,
        end,
        source=source,
        checkpoint_every=args.checkpoint_every if store is not None else None,
        retention_days=args.retention_days,
        alert_sink=sink,
        kill_at=args.kill_at,
    )
    # Restore the previous handlers on exit: when serve runs embedded
    # (tests, scripting), leaving them installed would make processes
    # forked later inherit a handler that swallows SIGTERM.
    previous_handlers = {
        signum: signal.signal(signum, lambda *_: daemon.request_stop())
        for signum in (signal.SIGTERM, signal.SIGINT)
    }
    server = StatusServer(daemon, port=args.http_port)
    server.start()
    print(f"serving on http://127.0.0.1:{server.port}", flush=True)
    try:
        report = daemon.run()
    except ChaosKill as exc:
        print(f"chaos: {exc}", file=sys.stderr)
        return 3
    except StoreError as exc:
        return _fail(f"cannot use checkpoint state: {exc}")
    finally:
        for signum, handler in previous_handlers.items():
            signal.signal(signum, handler)
        server.close()
        if alerts_file is not None:
            alerts_file.close()
        _close_run(pipeline, store)
    if report is None:
        print("stopped before the horizon; state checkpointed for resume")
        return 0
    _print_blame_mix(report)
    print(
        f"\nprobes: {report.probes_on_demand} on-demand, "
        f"{report.probes_background} background; "
        f"alerts streamed: {daemon.alerts_emitted}"
    )
    _save_report(report, args.save_report)
    return 0


def _cmd_validate(args) -> int:
    """Score labelled incidents: the adversarial suite on the canonical
    ringed world (``--suite``), or generated single incidents on the
    flag-built world. Every case goes through ``run_cases``."""
    import json

    import numpy as np

    if message := _suite_flags_error(args):
        return _fail(message)
    defaults = _SUITE_DEFAULTS if args.suite else _INCIDENT_DEFAULTS
    for name, default in defaults.items():
        if getattr(args, name) is None:
            setattr(args, name, default)
    if args.suite:
        if message := _output_error(args, "--save-scorecard"):
            return _fail(message)
        world = build_world(suite_world_params())
        scorecard = validate_scenario_suite(world, seed=args.suite_seed).scorecard
        rows = [
            [family, stats["incidents"], stats["matched"], f"{stats['accuracy']:.2f}"]
            for family, stats in sorted(scorecard["families"].items())
        ]
        print(render_table(
            ["family", "incidents", "matched", "accuracy"],
            rows,
            title=f"scenario suite scorecard (seed {args.suite_seed})",
        ))
        for entry in scorecard["impact_ranking"]:
            verdict = "disagree" if entry["rankings_disagree"] else "agree"
            print(
                f"ranking case {entry['case_id']} ({entry['family']}): "
                f"naive vs mitigation-aware {verdict}, "
                f"rho={entry['rank_correlation']:.2f}"
            )
        overall = scorecard["overall"]
        print(
            f"\noverall: {overall['matched']}/{overall['incidents']} "
            f"({overall['accuracy']:.2%})"
        )
        if args.save_scorecard:
            with open(args.save_scorecard, "w") as fh:
                json.dump(scorecard, fh, indent=2, sort_keys=True)
                fh.write("\n")
            print(f"scorecard written to {args.save_scorecard}")
        paper = {family.value for family in PAPER_ARCHETYPES}
        failing = [
            family
            for family, stats in scorecard["families"].items()
            if family in paper and stats["accuracy"] < args.accuracy_floor
        ]
        if failing:
            print(
                f"paper-era families below the {args.accuracy_floor:.2f} "
                f"floor: {', '.join(sorted(failing))}"
            )
            return 1
        return 0
    if message := _params_error(args) or _minimum_error(args, ("--incidents", 1)):
        return _fail(message)
    world = build_world(_build_params(args))
    state = build_warmup_state(world, days=1, stride=2)
    specs = generate_incidents(
        world, args.incidents, np.random.default_rng(args.incident_seed)
    )
    cases = [SuiteCase(spec.incident_id, (spec,), "single") for spec in specs]
    rows = []
    matched = 0
    for spec, case_outcome in zip(specs, run_cases(world, cases, state)):
        (outcome,) = case_outcome.outcomes
        matched += outcome.matched
        blamed = (
            f"{outcome.blamed_segment}/AS{outcome.culprit_asn}"
            if outcome.blamed_segment
            else "none"
        )
        rows.append([
            spec.incident_id,
            str(spec.archetype),
            f"{spec.expected_segment}/AS{spec.expected_culprit_asn}",
            blamed,
            outcome.matched,
        ])
    print(render_table(
        ["#", "archetype", "expected", "blamed", "match"],
        rows,
        title="incident validation (§6.3 style)",
    ))
    print(f"\n{matched}/{len(specs)} incidents localized correctly")
    return 0 if matched == len(specs) else 1


_COMMANDS = {
    "simulate": _cmd_simulate,
    "characterize": _cmd_characterize,
    "diagnose": _cmd_diagnose,
    "validate": _cmd_validate,
    "serve": _cmd_serve,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
