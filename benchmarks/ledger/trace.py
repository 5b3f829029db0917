"""In-memory span recorder for the ledger's traced runs.

The traced run substitutes timing wrappers for the public callables of
each layer (the :data:`TARGETS` table), from here, for exactly as long as
one driver call runs, and puts the originals back. Nothing under ``src/``
knows it is being traced, and the timing runs never see a wrapper.

A span is ``[name, start, end, parent, request, count]``: ``parent`` is
the index of the span that was open when this one started, ``request``
the bucket (or suite case) the work belongs to, ``count`` whatever the
layer counts at that boundary (quartets generated, blame results
returned, confident verdicts). Spans stay in memory until the run ends
and :func:`write_traces` puts them in ``<out>/trace-<workload>.json``.

A layer's self time is its spans' durations minus the durations of the
spans they directly caused, so the self times of every span under a root
add up to the root's duration.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import pathlib
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator, NamedTuple

NAME, START, END, PARENT, REQUEST, COUNT = range(6)


class Target(NamedTuple):
    """One callable to wrap: ``module.owner.attr`` recorded as ``span``.

    ``owner`` None means a module global — used where the pipeline calls
    a function it imported by name, so the name in the *pipeline's*
    module is the one to substitute.
    """

    span: str
    module: str
    owner: "str | None"
    attr: str
    request: "Callable | None" = None
    count: "Callable | None" = None


def _confident(verdict) -> int:
    return int(verdict.confident)


def _denied(granted: bool) -> int:
    return int(not granted)


_PIPELINE = "repro.core.pipeline"

TARGETS: tuple[Target, ...] = (
    Target("core.pipeline.init", _PIPELINE, "BlameItPipeline", "__init__"),
    Target(
        "core.pipeline.run", _PIPELINE, "BlameItPipeline", "run",
        # The suite seeds case n's pipeline with 1000 + n.
        request=lambda pipeline, *_: f"case:{pipeline.seed - 1000}",
    ),
    Target("core.pipeline.begin_run", _PIPELINE, "BlameItPipeline", "begin_run"),
    Target(
        "core.pipeline.step", _PIPELINE, "BlameItPipeline", "step",
        request=lambda _pipeline, state, *_: f"bucket:{state.cursor}",
    ),
    Target("core.pipeline.finish_run", _PIPELINE, "BlameItPipeline", "finish_run"),
    Target(
        "perf.batch.generate", "repro.perf.batch", "BatchQuartetGenerator",
        "generate", count=len,
    ),
    Target("chaos.inject.sanitize", _PIPELINE, None, "sanitize_batch"),
    Target(
        "core.thresholds.observe_batch", "repro.core.thresholds",
        "ExpectedRTTLearner", "observe_batch",
    ),
    Target(
        "core.thresholds.table", "repro.core.thresholds",
        "ExpectedRTTLearner", "table",
    ),
    Target(
        "core.passive.assign_batch", "repro.core.passive", "PassiveLocalizer",
        "assign_batch", count=len,
    ),
    Target(
        "core.prediction.observe_bucket", "repro.core.prediction",
        "ClientCountPredictor", "observe_bucket",
    ),
    Target(
        "core.background.run_bucket", "repro.core.background",
        "BackgroundProber", "run_bucket",
    ),
    Target(
        "core.background.register_seed", "repro.core.background",
        "BackgroundProber", "register_target",
    ),
    Target(
        "core.background.register_seed", "repro.core.background",
        "BackgroundProber", "seed_target",
    ),
    Target(
        "core.active.tracker_update", "repro.core.active", "IssueTracker",
        "update",
    ),
    Target(
        "core.active.probe_window", "repro.core.active", "OnDemandProber",
        "probe_window",
    ),
    Target(
        "core.active.budget_consume", "repro.core.active", "ProbeBudget",
        "try_consume", count=_denied,
    ),
    Target(
        "cloud.traceroute.issue", "repro.cloud.traceroute", "TracerouteEngine",
        "issue",
    ),
    Target(
        "core.localize.localize_culprit", _PIPELINE, None, "localize_culprit",
        count=_confident,
    ),
    Target("serve.source.load", "repro.serve.source", "JsonlSource", "__init__"),
    Target(
        "serve.source.next_batch", "repro.serve.source", "JsonlSource",
        "next_batch", count=len,
    ),
    Target(
        "store.checkpoint.save", "repro.store.checkpoint", "CheckpointStore",
        "save",
    ),
    Target(
        "store.checkpoint.restore", "repro.store.checkpoint", "CheckpointStore",
        "restore",
    ),
    Target(
        "analysis.validation.build_scenario_suite", "repro.analysis.validation",
        None, "build_scenario_suite",
    ),
    Target(
        "analysis.validation.realize", "repro.analysis.validation",
        "SuiteCase", "realize",
    ),
    Target(
        "analysis.validation.warmup_apply", "repro.analysis.validation",
        "WarmupState", "apply",
    ),
    Target(
        "analysis.validation.score_case", "repro.analysis.validation", None,
        "score_case",
    ),
)


@dataclass
class Layer:
    """Every span of one name, added up."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    count: int = 0
    durations: list[float] = field(default_factory=list)


class Recorder:
    """Records the spans of one traced driver call.

    Args:
        request_span: The span name whose ``request`` function names the
            request; every span below it inherits the identifier. The
            pipeline step (one bucket) for the three pipeline workloads,
            the pipeline run (one case) for the suite.
    """

    def __init__(self, request_span: str = "core.pipeline.step") -> None:
        self.request_span = request_span
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._open: list[int] = []

    def begin(self, name: str, request: "str | None" = None) -> int:
        parent = self._open[-1] if self._open else None
        if request is None and parent is not None:
            request = self.spans[parent][REQUEST]
        index = len(self.spans)
        self._open.append(index)
        self.spans.append([name, time.perf_counter(), None, parent, request, None])
        return index

    def end(self, index: int, count: "int | None" = None) -> None:
        span = self.spans[index]
        span[END] = time.perf_counter()
        span[COUNT] = count
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def wrap(self, target: Target, fn: Callable) -> Callable:
        """``fn`` with a span around every call."""
        name = target.span
        request = target.request if name == self.request_span else None
        count = target.count

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name, request(*args) if request else None)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.end(
                    index,
                    count(result) if count and result is not None else None,
                )

        return traced

    @contextlib.contextmanager
    def installed(self, root: str) -> Iterator[None]:
        """Wrap every target and open the ``root`` span for the body.

        A target that no longer exists (the API clean-up ROADMAP item 3
        plans will remove some) is listed in :attr:`missing`; its layer
        metrics then read as not taken, and nothing crashes.
        """
        originals: list[tuple[object, str, Callable]] = []
        try:
            for target in TARGETS:
                try:
                    owner = importlib.import_module(target.module)
                    if target.owner is not None:
                        owner = getattr(owner, target.owner)
                    original = getattr(owner, target.attr)
                except (ImportError, AttributeError):
                    if target.span not in self.missing:
                        self.missing.append(target.span)
                    continue
                originals.append((owner, target.attr, original))
                setattr(owner, target.attr, self.wrap(target, original))
            with self.span(root):
                yield
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)

    def layers(self) -> dict[str, Layer]:
        """Calls, inclusive and self seconds, and counts per span name."""
        child_s = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] is not None:
                child_s[span[PARENT]] += span[END] - span[START]
        layers: dict[str, Layer] = {}
        for span, children in zip(self.spans, child_s):
            layer = layers.setdefault(span[NAME], Layer())
            duration = span[END] - span[START]
            layer.calls += 1
            layer.total_s += duration
            layer.self_s += duration - children
            layer.count += span[COUNT] or 0
            layer.durations.append(duration)
        return layers


def write_traces(
    path: pathlib.Path, workload: str, recorders: dict[str, Recorder]
) -> None:
    """Write every recorder's spans, times relative to its first span."""
    traces = {}
    for door, recorder in recorders.items():
        origin = recorder.spans[0][START] if recorder.spans else 0.0
        traces[door] = {
            "missing": recorder.missing,
            "spans": [
                [name, start - origin, end - origin, parent, request, count]
                for name, start, end, parent, request, count in recorder.spans
            ],
        }
    document = {
        "workload": workload,
        "span": ["name", "start_s", "end_s", "parent", "request", "count"],
        "traces": traces,
    }
    path.write_text(json.dumps(document) + "\n", encoding="utf-8")
