"""Pipeline observability: counters, gauges, histograms, span timers.

BlameIt's operational value rests on accounting — probe counts, budget
denials, blame mixes, per-phase latencies — that production systems keep
as first-class metrics rather than ad-hoc attributes. This module is the
measurement substrate: a :class:`MetricsRegistry` hands out named
instruments, snapshots them into plain JSON-able dicts, and merges
snapshots from worker processes back into a parent registry (the sharded
driver's fold).

Instrumented hot paths must cost ~nothing when observability is off, so
:class:`NullRegistry` exposes the same API backed by no-op singletons:
``registry.counter("x").inc()`` is two attribute lookups and a constant
return, with no allocation and no dict growth.

Conventions:

* Counters are monotonic and merge by addition (worker counts sum into
  the parent's).
* Gauges are last-write-wins point-in-time values.
* Histograms track ``count/total/min/max`` — enough for means and
  extremes without reservoir memory; they merge exactly.
* Spans are histograms of wall-clock seconds recorded by a context
  manager: ``with registry.span("phase.passive"): ...``.
"""

from __future__ import annotations

import time
from typing import Any

Snapshot = dict[str, Any]

#: Snapshot sections, in render order.
_SECTIONS = ("counters", "gauges", "histograms", "spans")


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: int | float = 0

    def inc(self, amount: int | float = 1) -> None:
        """Add ``amount`` (must be non-negative for merge semantics)."""
        self.value += amount


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Streaming count/total/min/max summary of observed values."""

    __slots__ = ("count", "total", "min", "max")

    def __init__(self) -> None:
        self.count: int = 0
        self.total: float = 0.0
        self.min: float = float("inf")
        self.max: float = float("-inf")

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def as_dict(self) -> dict[str, float]:
        if self.count == 0:
            return {"count": 0, "total": 0.0, "min": 0.0, "max": 0.0}
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
        }

    def merge_dict(self, other: dict[str, float]) -> None:
        """Fold a snapshotted histogram into this one."""
        count = int(other.get("count", 0))
        if count == 0:
            return
        self.count += count
        self.total += float(other.get("total", 0.0))
        self.min = min(self.min, float(other["min"]))
        self.max = max(self.max, float(other["max"]))


class _Span:
    """Context manager timing one wall-clock interval into a histogram."""

    __slots__ = ("_histogram", "_started")

    def __init__(self, histogram: Histogram) -> None:
        self._histogram = histogram
        self._started = 0.0

    def __enter__(self) -> "_Span":
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> bool:
        self._histogram.observe(time.perf_counter() - self._started)
        return False


class MetricsRegistry:
    """Creates and owns named instruments; snapshots and merges them."""

    #: Whether instruments actually record (False on :class:`NullRegistry`).
    enabled = True

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._spans: dict[str, Histogram] = {}

    # -- instruments ---------------------------------------------------

    def counter(self, name: str) -> Counter:
        """The counter called ``name``, created on first use."""
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter()
        return instrument

    def gauge(self, name: str) -> Gauge:
        """The gauge called ``name``, created on first use."""
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge()
        return instrument

    def histogram(self, name: str) -> Histogram:
        """The histogram called ``name``, created on first use."""
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram()
        return instrument

    def span(self, name: str) -> _Span:
        """A context manager recording wall-clock seconds under ``name``."""
        histogram = self._spans.get(name)
        if histogram is None:
            histogram = self._spans[name] = Histogram()
        return _Span(histogram)

    # -- snapshot / merge ----------------------------------------------

    def snapshot(self) -> Snapshot:
        """Everything recorded so far, as a plain JSON-able dict."""
        return {
            "counters": {k: v.value for k, v in sorted(self._counters.items())},
            "gauges": {k: v.value for k, v in sorted(self._gauges.items())},
            "histograms": {
                k: v.as_dict() for k, v in sorted(self._histograms.items())
            },
            "spans": {k: v.as_dict() for k, v in sorted(self._spans.items())},
        }

    def merge_snapshot(self, snapshot: Snapshot | None) -> None:
        """Fold a snapshot (e.g. from a worker process) into this registry.

        Counters add, gauges last-write-win, histograms and spans combine
        their count/total/min/max summaries.
        """
        if not snapshot:
            return
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, data in snapshot.get("histograms", {}).items():
            self.histogram(name).merge_dict(data)
        for name, data in snapshot.get("spans", {}).items():
            histogram = self._spans.get(name)
            if histogram is None:
                histogram = self._spans[name] = Histogram()
            histogram.merge_dict(data)


class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, amount: int | float = 1) -> None:
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False


_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()
_NULL_HISTOGRAM = _NullHistogram()
_NULL_SPAN = _NullSpan()


class NullRegistry(MetricsRegistry):
    """Same API, records nothing, costs ~nothing.

    Every accessor returns a shared no-op singleton: no per-call
    allocation, no dict growth, so instrumented hot paths stay hot.
    """

    enabled = False

    def __init__(self) -> None:
        pass

    def counter(self, name: str) -> Counter:
        return _NULL_COUNTER

    def gauge(self, name: str) -> Gauge:
        return _NULL_GAUGE

    def histogram(self, name: str) -> Histogram:
        return _NULL_HISTOGRAM

    def span(self, name: str):  # type: ignore[override]
        return _NULL_SPAN

    def snapshot(self) -> Snapshot:
        return {section: {} for section in _SECTIONS}

    def merge_snapshot(self, snapshot: Snapshot | None) -> None:
        pass


#: Shared default for code that wants metrics to be optional.
NULL_REGISTRY = NullRegistry()


def validate_snapshot(
    snapshot: Snapshot, require_spans: tuple[str, ...] = ()
) -> None:
    """Check a snapshot's schema; raises ``ValueError`` when malformed.

    Used by the CI smoke job against ``--metrics-json`` output.

    Args:
        snapshot: A dict as produced by :meth:`MetricsRegistry.snapshot`.
        require_spans: Span names that must be present (e.g. the
            pipeline's per-phase timers).
    """
    if not isinstance(snapshot, dict):
        raise ValueError(f"snapshot must be a dict, got {type(snapshot).__name__}")
    for section in _SECTIONS:
        if section not in snapshot:
            raise ValueError(f"snapshot missing section {section!r}")
        if not isinstance(snapshot[section], dict):
            raise ValueError(f"section {section!r} must be a dict")
    for name, value in snapshot["counters"].items():
        if not isinstance(value, (int, float)) or value < 0:
            raise ValueError(f"counter {name!r} must be a non-negative number")
    for name, value in snapshot["gauges"].items():
        if not isinstance(value, (int, float)):
            raise ValueError(f"gauge {name!r} must be a number")
    for section in ("histograms", "spans"):
        for name, data in snapshot[section].items():
            if not isinstance(data, dict):
                raise ValueError(f"{section} entry {name!r} must be a dict")
            missing = {"count", "total", "min", "max"} - set(data)
            if missing:
                raise ValueError(
                    f"{section} entry {name!r} missing keys {sorted(missing)}"
                )
    missing_spans = set(require_spans) - set(snapshot["spans"])
    if missing_spans:
        raise ValueError(f"snapshot missing required spans {sorted(missing_spans)}")
