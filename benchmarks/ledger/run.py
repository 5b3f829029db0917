"""The ledger: one benchmark for all three drivers.

Two ways in:

* ``run.py --workload NAME --seed N --seconds S --trace 0|1`` measures one
  workload in this process and prints, as the last line of standard
  output, one JSON object ``{"correct", "attempted", "failed",
  "metrics"}`` — every end-to-end metric of ``BENCHMARK.json`` with
  ``--trace 0`` (untouched code, default ``NULL_REGISTRY``), every
  per-layer metric with ``--trace 1`` (one more run with the span
  recorder of ``trace.py`` installed).
* ``run.py [--seed 2026] [--repeats 3] [--workload NAME] [--out DIR]``
  runs every workload that way, each in a fresh subprocess, prints every
  metric by name with its unit, and writes the rows (platform, seed,
  repeats, median/min/max/samples per metric) to ``<out>/ledger.json``.
  ``--check`` does it at reduced horizons as a self-test; ``--compare
  A.json B.json`` sets two such files side by side against the bounds.

The metric names, units, directions and bounds are read from
``BENCHMARK.json`` at the repository root; a run that prints a metric
the file does not declare, or misses one it does, fails.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
CATALOGUE = ROOT / "BENCHMARK.json"
DEFAULT_OUT = HERE / "out"

#: Set-ups per timing run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Untraced rounds the traced run takes its reference walls from.
REFERENCE_ROUNDS = 2
#: Share of the traced wall the step may keep to itself unremarked.
UNATTRIBUTED_WARNING = 0.25


def load_catalogue() -> dict:
    try:
        return json.loads(CATALOGUE.read_text(encoding="utf-8"))
    except OSError as exc:
        raise SystemExit(f"cannot read {CATALOGUE}: {exc}")


def quantile(samples: list[float], q: float) -> float:
    """Nearest-rank quantile; 0.0 of nothing."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def median(samples) -> float:
    samples = list(samples)
    return statistics.median(samples) if samples else 0.0


def spread(samples: list[float]) -> float:
    """Distance between the quartiles as a share of the median — the
    run-to-run spread the bounds are read against."""
    if len(samples) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(samples, n=4)
    centre = statistics.median(samples)
    return (q3 - q1) / abs(centre) if centre else 0.0


# ---------------------------------------------------------------------------
# One workload, in this process
# ---------------------------------------------------------------------------


class Ops:
    """Operations attempted and failed: one per driver run, daemon step,
    checkpoint save, restore, suite case and output check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0


def run_rounds(workload, runs, ops, *, rounds: int, seconds: float) -> None:
    """Closed loop, one driver at a time: both doors alternate until at
    least ``rounds`` rounds and ``seconds`` seconds are done."""
    from workloads import Stopwatch

    doors = dict(zip(workload.doors, (workload.first_door, workload.second_door)))
    started = time.perf_counter()
    done = 0
    while done < rounds or time.perf_counter() - started < seconds:
        for name, door in doors.items():
            run_door(name, door, Stopwatch(), runs, ops)
        done += 1


def run_door(name, door, watch, runs, ops):
    """One pass through a door; a raised exception is a failed
    operation, reported and counted, never a crash of the benchmark."""
    ops.attempted += 1
    try:
        run = door(watch)
    except Exception:  # the boundary: count it, show it, carry on
        traceback.print_exc()
        ops.failed += 1
        return None
    ops.attempted += run.ops
    runs[name].append(run)
    return run


def run_checks(workload, runs, ops) -> dict[str, bool]:
    checks = workload.check(runs)
    for name, ok in checks.items():
        ops.attempted += 1
        ops.failed += not ok
        print(f"check {'ok    ' if ok else 'FAILED'} {name}")
    return checks


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(workload, ops, *, quick: bool, rounds: int, seconds: float):
    """One discarded round per driver (caches fill, pools fork), then the
    rounds that count. Returns every run, which the output checks read,
    and the counted ones."""
    runs = {name: [] for name in workload.doors}
    discard = 0 if quick else 1
    run_rounds(workload, runs, ops, rounds=discard, seconds=0)
    run_rounds(workload, runs, ops, rounds=rounds, seconds=seconds)
    return runs, {name: door_runs[discard:] for name, door_runs in runs.items()}


def measure_end_to_end(workload, args, ops) -> tuple[dict, dict]:
    """The timing run: unmodified code, no recorder."""
    quick = args.size == "check"
    setups = []
    for _ in range(1 if quick else SETUP_REPEATS):
        t0 = time.perf_counter()
        workload.set_up()
        setups.append(time.perf_counter() - t0)
    runs, timed = run_untraced(
        workload, ops, quick=quick, rounds=args.repeats, seconds=args.seconds
    )
    checks = run_checks(workload, runs, ops)
    first, second = (
        [run.quartets / run.wall_s for run in timed[name]] for name in workload.doors
    )
    samples = {
        "setup_s": setups,
        "quartets_per_s": first,
        "second_door_quartets_per_s": second,
        "peak_rss_mb": [peak_rss_mb()],
    }
    return samples, checks


def measure_layers(workload, args, ops) -> tuple[dict, dict]:
    """The traced run: a few untraced rounds for the reference walls,
    then one pass with the span recorder installed."""
    from trace import Recorder, write_traces
    from workloads import Stopwatch

    quick = args.size == "check"
    workload.set_up()
    runs, reference = run_untraced(
        workload, ops, quick=quick, rounds=1 if quick else REFERENCE_ROUNDS, seconds=0
    )
    first, second = workload.doors
    recorders = {first: Recorder(workload.request_span)}
    doors = {first: workload.first_door}
    if workload.trace_second_door:
        recorders[second] = Recorder(workload.request_span)
        doors[second] = workload.second_door
    traced = {
        name: run_door(
            name, door, Stopwatch(recorders[name], f"door.{name}"), runs, ops
        )
        for name, door in doors.items()
    }
    checks = run_checks(workload, runs, ops)
    if not all(reference.values()) or None in traced.values():
        raise SystemExit("a door never completed; no layer metrics to report")
    write_traces(args.out / f"trace-{workload.name}.json", workload.name, recorders)
    metrics = layer_metrics(workload, reference, traced, recorders)
    return {name: [value] for name, value in metrics.items()}, checks


def layer_metrics(workload, reference, traced, recorders) -> dict[str, float]:
    """Every per-layer metric; a layer the workload never enters reads 0.

    ``*_s`` of a layer is its *self* time in the traced first door (its
    spans minus the spans they caused), so the layers add up to the
    traced wall; ``core.pipeline.{begin_run,step,finish_run}_s`` are the
    driver API's phases, children included, and ``step_self_s`` is what
    is left of the step once every layer below it is taken out.
    """
    from trace import Layer

    first, second = workload.doors
    recorder = recorders[first]
    layers = recorder.layers()
    none = Layer()

    def layer(name: str) -> Layer:
        return layers.get(name, none)

    facts = traced[first].facts
    second_facts = reference[second][-1].facts
    first_wall = median(run.wall_s for run in reference[first])
    second_wall = median(run.wall_s for run in reference[second])
    root = layer(f"door.{first}")
    traced_wall = root.total_s
    steps = [s for run in reference[first] for s in run.facts.get("step_s", ())]
    load_s = median(run.facts.get("load_s", 0.0) for run in reference[first])
    transport = second_facts.get("transport", {})
    n_workers = second_facts.get("workers", 0)

    def stage(name: str) -> float:
        return median(
            run.facts.get("stage_seconds", {}).get(name, 0.0)
            for run in reference[second]
        )

    fold_s = stage("fold")
    localize = layer("core.localize.localize_culprit")
    save = layer("store.checkpoint.save")
    step = layer("core.pipeline.step")
    incidents = facts.get("incidents", 0)
    is_suite = "cases" in facts
    metrics = {
        "sim.scenario.build_world_s": workload.setup_parts.get("build_world", 0.0),
        "sim.scenario.from_world_s": workload.setup_parts.get("from_world", 0.0),
        "perf.batch.generate_s": layer("perf.batch.generate").self_s,
        "perf.batch.generate_calls": layer("perf.batch.generate").calls,
        "perf.batch.quartets": layer("perf.batch.generate").count,
        "chaos.inject.sanitize_s": layer("chaos.inject.sanitize").self_s,
        "core.thresholds.observe_batch_s": layer(
            "core.thresholds.observe_batch"
        ).self_s,
        "core.thresholds.table_s": layer("core.thresholds.table").self_s,
        "core.thresholds.table_calls": layer("core.thresholds.table").calls,
        "core.thresholds.state_values": facts.get("state_values", 0),
        "core.passive.assign_batch_s": layer("core.passive.assign_batch").self_s,
        "core.passive.bad_quartets": facts.get("bad_quartets", 0),
        "core.passive.results": layer("core.passive.assign_batch").count,
        "core.prediction.observe_bucket_s": layer(
            "core.prediction.observe_bucket"
        ).self_s,
        "core.background.run_bucket_s": layer("core.background.run_bucket").self_s,
        "core.background.register_seed_s": layer(
            "core.background.register_seed"
        ).self_s,
        "core.background.probes": facts.get("background_probes", 0),
        "core.active.tracker_update_s": layer("core.active.tracker_update").self_s,
        "core.active.probe_window_s": layer("core.active.probe_window").self_s,
        "core.active.on_demand_issued": facts.get("on_demand_issued", 0),
        "core.active.on_demand_denied": layer("core.active.budget_consume").count,
        "core.probeplan.clustered_on_demand_probes": (
            second_facts.get("on_demand_issued", 0) if is_suite else 0
        ),
        "cloud.traceroute.issue_s": layer("cloud.traceroute.issue").self_s,
        "cloud.traceroute.issue_calls": layer("cloud.traceroute.issue").calls,
        "core.localize.localize_culprit_s": localize.self_s,
        "core.localize.verdicts": localize.calls,
        "core.localize.confident_share": (
            localize.count / localize.calls if localize.calls else 0.0
        ),
        "core.pipeline.begin_run_s": layer("core.pipeline.begin_run").total_s,
        "core.pipeline.step_s": step.total_s,
        "core.pipeline.step_self_s": step.self_s,
        "core.pipeline.finish_run_s": layer("core.pipeline.finish_run").total_s,
        "core.pipeline.unattributed_share": (
            step.self_s / traced_wall if traced_wall else 0.0
        ),
        "perf.sharded.shard_wait_s": stage("shard_wait"),
        "perf.sharded.fold_s": fold_s,
        "perf.sharded.efficiency": (
            first_wall / (n_workers * second_wall) if n_workers else 0.0
        ),
        "perf.sharded.amdahl_bound": (
            first_wall / (fold_s + (first_wall - fold_s) / n_workers)
            if n_workers
            else 0.0
        ),
        "perf.sharded.workers": n_workers,
        "perf.sharded.worker_peak_rss_mb": second_facts.get(
            "worker_peak_rss_mb", 0.0
        ),
        "perf.transport.shm_bytes": transport.get("shm_bytes", 0),
        "perf.transport.pickle_bytes": transport.get("pickle_bytes", 0),
        "perf.transport.shm_segments": transport.get("shm_segments", 0),
        "perf.transport.fallbacks": transport.get("fallbacks", 0),
        "serve.source.load_s": load_s,
        "serve.source.rows": layer("serve.source.next_batch").count,
        "serve.source.rows_per_s": (
            reference[first][-1].quartets / load_s if load_s else 0.0
        ),
        "serve.source.next_batch_s": layer("serve.source.next_batch").self_s,
        "serve.daemon.run_s": median(
            run.facts.get("run_s", 0.0) for run in reference[first]
        ),
        "serve.daemon.step_ms_p50": 1e3 * quantile(steps, 0.50),
        "serve.daemon.step_ms_p95": 1e3 * quantile(steps, 0.95),
        "serve.daemon.step_ms_max": 1e3 * max(steps, default=0.0),
        "serve.daemon.step_samples": len(steps),
        "serve.daemon.alerts_emitted": facts.get("alerts", 0),
        "store.checkpoint.save_s": save.self_s,
        "store.checkpoint.saves": save.calls,
        "store.checkpoint.save_ms_p50": 1e3 * median(save.durations),
        "store.checkpoint.restore_s": (
            recorders[second].layers().get("store.checkpoint.restore", none).total_s
            if second in recorders
            else 0.0
        ),
        "store.checkpoint.resume_s": (
            median(run.facts["resume_s"] for run in reference[second])
            if "resume_s" in second_facts
            else 0.0
        ),
        "store.checkpoint.bytes_on_disk": facts.get("bytes_on_disk", 0),
        "analysis.validation.build_warmup_state_s": workload.setup_parts.get(
            "build_warmup_state", 0.0
        ),
        "analysis.validation.cases": facts.get("cases", 0),
        "analysis.validation.case_ms_p50": (
            1e3 * median(layer("core.pipeline.run").durations) if is_suite else 0.0
        ),
        "analysis.validation.score_case_s": layer(
            "analysis.validation.score_case"
        ).self_s,
        "analysis.validation.accuracy": (
            facts["matched"] / incidents if incidents else 0.0
        ),
        "analysis.validation.paper_accuracy": (
            facts["paper_matched"] / facts["paper_incidents"]
            if facts.get("paper_incidents")
            else 0.0
        ),
        "analysis.validation.on_demand_probes_per_incident": (
            facts["on_demand_issued"] / incidents if incidents else 0.0
        ),
        "io.report_to_dict_s": median(
            run.digest_s for run in reference[first] + reference[second]
        ),
        "trace.overhead_share": (
            (traced_wall - first_wall) / first_wall if first_wall else 0.0
        ),
        "trace.attributed_share": (
            1.0 - root.self_s / traced_wall if traced_wall else 0.0
        ),
        "trace.spans": len(recorder.spans),
        "trace.missing": len(recorder.missing),
    }
    if recorder.missing:
        print(f"trace.missing: {', '.join(recorder.missing)} (their layers read 0)")
    if metrics["core.pipeline.unattributed_share"] > UNATTRIBUTED_WARNING:
        print(
            "warning: core.pipeline.step keeps "
            f"{metrics['core.pipeline.unattributed_share']:.0%} of the traced "
            "wall to itself — a layer inside the step has no span"
        )
    return metrics


def start_resource_tracker() -> None:
    """Start multiprocessing's resource tracker in this process, before
    any pool forks.

    The shard transport creates its shared-memory segments in the pool
    workers. A forked worker that finds no tracker running spawns one of
    its own, and when ``close()`` terminates the worker that tracker is
    orphaned: it ends once its pipe closes, but nothing this benchmark
    can wait on is its parent any more, so it outlives the run. Started
    here, the one tracker is inherited by every worker and is this
    process's child, which :func:`stop_resource_tracker` can wait for.
    """
    from multiprocessing import resource_tracker

    resource_tracker.ensure_running()


def stop_resource_tracker() -> None:
    """Close the resource tracker and wait until it has ended, so that a
    run leaves no process behind. There is no public call for this; the
    interpreter itself only lets the tracker notice the exit."""
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def run_one(args) -> int:
    """The driver's protocol: one workload, one result line."""
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
    from workloads import SIZES, WORKLOADS

    catalogue = load_catalogue()
    declared = {
        entry["name"]: entry
        for entry in catalogue["per_layer" if args.trace else "end_to_end"]
    }
    args.out.mkdir(parents=True, exist_ok=True)
    workdir = pathlib.Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.out))
    ops = Ops()
    start_resource_tracker()
    try:
        workload = WORKLOADS[args.workload](args.seed, SIZES[args.size], workdir)
        measure = measure_layers if args.trace else measure_end_to_end
        samples, checks = measure(workload, args, ops)
    finally:
        stop_resource_tracker()
        shutil.rmtree(workdir, ignore_errors=True)
    if any(not values for values in samples.values()):
        raise SystemExit("a door never completed; no result to report")
    if set(samples) != set(declared):
        raise SystemExit(
            f"metrics printed and metrics declared in {CATALOGUE.name} differ: "
            f"undeclared {sorted(set(samples) - set(declared))}, "
            f"missing {sorted(set(declared) - set(samples))}"
        )
    metrics = {}
    for name, values in samples.items():
        unit = declared[name]["unit"]
        metrics[name] = {"value": median(values), "unit": unit}
        extent = (
            f"  (n={len(values)} min={min(values):.6g} max={max(values):.6g})"
            if len(values) > 1
            else ""
        )
        print(f"{name:52s} {metrics[name]['value']:.6g} {unit}{extent}")
    print(
        f"failed_ops_share {ops.failed / ops.attempted:.6g} share "
        f"({ops.failed} of {ops.attempted})"
    )
    result = {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": metrics,
    }
    detail = dict(
        result,
        workload=args.workload,
        trace=args.trace,
        checks=checks,
        samples=samples,
    )
    (args.out / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n", encoding="utf-8"
    )
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# Every workload, each in a fresh subprocess
# ---------------------------------------------------------------------------


def platform_row(args) -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "seed": args.seed,
        "size": args.size,
        "seconds": args.seconds,
        "repeats": args.repeats,
    }


def run_ledger(args, names: list[str]) -> int:
    """Run each workload untraced and traced, in subprocesses (a fresh
    interpreter each, so peak RSS and warm caches are the workload's
    own), and write the rows."""
    catalogue = load_catalogue()
    declared = {
        entry["name"]: dict(entry, kind=kind)
        for kind in ("end_to_end", "per_layer")
        for entry in catalogue[kind]
    }
    rows = []
    failed = 0

    for name in names:
        for trace in (0, 1):
            result_file = args.out / f"result-{name}-trace{trace}.json"
            result_file.unlink(missing_ok=True)
            print(f"\n== {name} --trace {trace}", flush=True)
            done = subprocess.run(
                [
                    sys.executable, str(HERE / "run.py"),
                    "--workload", name, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--repeats", str(args.repeats),
                    "--size", args.size, "--trace", str(trace),
                    "--out", str(args.out),
                ],
                check=False,
            )
            if done.returncode != 0 or not result_file.exists():
                print(f"{name} --trace {trace} exited with {done.returncode}")
                failed += 1
                continue
            result = json.loads(result_file.read_text(encoding="utf-8"))
            failed += result["failed"]
            for metric, values in result["samples"].items():
                rows.append(
                    {
                        "workload": name,
                        "metric": metric,
                        **{
                            key: declared[metric].get(key)
                            for key in ("kind", "unit", "better", "bound")
                        },
                        "median": median(values),
                        "min": min(values),
                        "max": max(values),
                        "n": len(values),
                        "samples": values,
                    }
                )
            rows.append(
                {
                    "workload": name,
                    "metric": f"failed_ops.trace{trace}",
                    "kind": "ops",
                    "unit": "count",
                    "median": result["failed"],
                    "attempted": result["attempted"],
                }
            )
    ledger = dict(platform_row(args), command=catalogue["command"], rows=rows)
    ledger_file = args.out / "ledger.json"
    ledger_file.write_text(json.dumps(ledger, indent=1) + "\n", encoding="utf-8")
    print(f"\nrows written to {ledger_file}; failed operations: {failed}")
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# Two ledgers, side by side
# ---------------------------------------------------------------------------


def compare(path_a: str, path_b: str) -> int:
    """Per metric × workload: both medians, how much worse B is, and a
    verdict against the metric's bound. ``unresolved`` means the spread
    between a side's own runs is wider than the bound, so neither
    "unchanged" nor "regressed" can be read off the medians."""
    ledgers = []
    for path in (path_a, path_b):
        document = json.loads(pathlib.Path(path).read_text(encoding="utf-8"))
        ledgers.append({(row["workload"], row["metric"]): row for row in document["rows"]})
    a_rows, b_rows = ledgers
    regressed = 0
    print(f"{'metric':44s} {'workload':16s} {'A':>12s} {'B':>12s} {'worse by':>9s}  verdict")
    for key in sorted(a_rows.keys() | b_rows.keys(), key=lambda k: (k[1], k[0])):
        workload, metric = key
        a, b = a_rows.get(key), b_rows.get(key)
        if a is None or b is None:
            print(f"{metric:44s} {workload:16s} only in {'A' if b is None else 'B'}")
            continue
        verdict, worse = judge(a, b)
        if verdict is None:
            continue
        regressed += verdict == "regressed"
        print(
            f"{metric:44s} {workload:16s} {a['median']:12.6g} {b['median']:12.6g} "
            f"{worse + 0.0:+9.1%}  {verdict}"
        )
    return 1 if regressed else 0


EXACT_UNITS = {"count", "B", "probes"}
EXACT_SHARES = {
    "analysis.validation.accuracy",
    "analysis.validation.paper_accuracy",
    "core.localize.confident_share",
}


def judge(a: dict, b: dict) -> "tuple[str | None, float]":
    """Verdict for one row pair and how much worse B reads; a verdict
    of None means the pair has nothing to report."""
    base = a["median"]
    sign = -1.0 if a.get("better") == "higher" else 1.0
    worse = sign * (b["median"] - base) / abs(base) if base else 0.0
    bound = a.get("bound")
    if a["kind"] == "ops":
        return ("regressed" if b["median"] > base else None), worse
    if bound is None:
        # Per-layer metrics have no bound. The counts are exact for a
        # seed, so a difference is a change of behaviour worth a line;
        # the timings of a single traced run differ every time.
        exact = a["unit"] in EXACT_UNITS or a["metric"] in EXACT_SHARES
        return ("changed" if exact and b["median"] != base else None), worse
    a_samples, b_samples = a["samples"], b["samples"]
    noisy = max(spread(a_samples), spread(b_samples)) > bound
    if a.get("better") == "higher":
        clear_win = min(b_samples) > max(a_samples)
    else:
        clear_win = max(b_samples) < min(a_samples)
    if worse > bound:
        return ("unresolved" if noisy else "regressed"), worse
    if noisy and not clear_win:
        return "unresolved", worse
    return "ok", worse


# ---------------------------------------------------------------------------


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload; default: all four")
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="keep timing for at least this long (default: run_seconds)",
    )
    parser.add_argument(
        "--repeats", type=int, default=3,
        help="timed rounds at least, after one discarded round per driver",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument(
        "--size", choices=("check", "bench", "full"), default="bench",
        help="horizons: the self-test's, the driver's, or ISSUE 11's",
    )
    parser.add_argument("--out", type=pathlib.Path, default=DEFAULT_OUT)
    parser.add_argument(
        "--check", action="store_true",
        help="self-test: every workload, check and trace at reduced horizons",
    )
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    catalogue = load_catalogue()
    names = [entry["name"] for entry in catalogue["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"--workload must be one of {', '.join(names)}")
    if args.check:
        args.size, args.repeats, args.seconds = "check", 1, 0.0
    if args.seconds is None:
        args.seconds = float(catalogue["run_seconds"])
    args.out = args.out.resolve()
    if args.workload is not None and args.trace is not None:
        return run_one(args)
    return run_ledger(args, [args.workload] if args.workload else names)


if __name__ == "__main__":
    sys.exit(main())
