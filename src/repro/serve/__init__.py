"""Service mode: BlameIt as a long-running, resumable daemon.

``repro.serve`` turns the batch pipeline into a streaming service built
on the incremental step API (DESIGN.md §7): buckets arrive one at a time
from a pluggable :class:`~repro.serve.source.BucketSource`, state
updates online, alerts stream to a sink as issues close, checkpoints
land on a configurable cadence, and a stdlib HTTP server exposes live
``/status``, ``/issues`` and ``/metrics`` endpoints. The daemon-fed run
stays byte-identical to the batch run over the same window.
"""

from repro.serve.daemon import AlertSink, BlameItDaemon
from repro.serve.http import StatusServer
from repro.serve.source import (
    BucketSource,
    JsonlFormatError,
    JsonlSource,
    ScenarioSource,
    quartet_from_row,
    quartet_to_row,
    write_quartets_jsonl,
)

__all__ = [
    "AlertSink",
    "BlameItDaemon",
    "BucketSource",
    "JsonlFormatError",
    "JsonlSource",
    "ScenarioSource",
    "StatusServer",
    "quartet_from_row",
    "quartet_to_row",
    "write_quartets_jsonl",
]
