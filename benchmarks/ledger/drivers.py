"""One adapter that builds every driver the ledger runs.

ROADMAP item 3 plans to take the execution-mode switches out of the
public signatures (``rng_per_bucket`` becomes the only scheme;
``vectorized_passive`` and ``columnar_pipeline`` go). The benchmark has
to run unchanged on both sides of that clean-up, so it builds drivers
only through this module: ``rng_per_bucket=True`` is passed for as long
as the constructor still has the parameter, the two config switches are
never passed, and everything that holds a pool, a file or a database is
closed by the caller in ``finally`` (``contextlib.closing`` works on
both :class:`ShardedPipeline` and :class:`CheckpointStore`).
"""

from __future__ import annotations

import hashlib
import inspect
import json
import os
import time

from repro.core.pipeline import BlameItPipeline
from repro.io import report_to_dict
from repro.perf.sharded import ShardedPipeline


def workers() -> int:
    """Shard workers the load may use: one per core, never more than two
    (one driver process plus two workers is what a 2-core box can run
    without the workers queueing behind each other)."""
    return max(1, min(2, os.cpu_count() or 1))


def make_sequential(scenario, **kwargs) -> BlameItPipeline:
    """A sequential pipeline that draws each bucket from a
    ``(seed, bucket)`` generator — the scheme the other two drivers
    match byte for byte."""
    if "rng_per_bucket" in inspect.signature(BlameItPipeline).parameters:
        kwargs["rng_per_bucket"] = True
    return BlameItPipeline(scenario, **kwargs)


def make_sharded(scenario, **kwargs) -> ShardedPipeline:
    """A sharded pipeline at :func:`workers` workers. Close it."""
    return ShardedPipeline(scenario, n_workers=workers(), **kwargs)


def digest(report) -> str:
    """Canonical digest of a report: everything but the wall-clock
    ``metrics`` snapshot, keys sorted."""
    document = report_to_dict(report)
    document.pop("metrics", None)
    return hashlib.sha256(
        json.dumps(document, sort_keys=True).encode("utf-8")
    ).hexdigest()


class StepTimer:
    """A daemon driver that times each call it forwards.

    :class:`~repro.serve.BlameItDaemon` accepts anything with the
    ``pipeline`` / ``begin_run`` / ``step`` / ``finish_run`` contract
    (that is how it takes a :class:`ShardedPipeline`), so the per-step
    latency can be read without touching the daemon or the pipeline.
    """

    def __init__(self, pipeline: BlameItPipeline) -> None:
        self.pipeline = pipeline
        self.entry = 0
        self.begin_run_s = 0.0
        self.step_s: list[float] = []

    def begin_run(self, start, end, regenerate=None):
        t0 = time.perf_counter()
        state = self.pipeline.begin_run(start, end, regenerate=regenerate)
        self.begin_run_s = time.perf_counter() - t0
        self.entry = state.cursor
        return state

    def step(self, state, batch=None) -> None:
        t0 = time.perf_counter()
        self.pipeline.step(state, batch)
        self.step_s.append(time.perf_counter() - t0)

    def finish_run(self, state):
        return self.pipeline.finish_run(state)
