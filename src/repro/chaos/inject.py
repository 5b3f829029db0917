"""Quartet-stream fault injection and sanitization.

Two mirrored implementations that make identical per-quartet
decisions: a columnar one over :class:`QuartetBatch` — every driver's
ingest, run by the span kernel
(:func:`repro.core.pipeline.summarize_span`) over a span of buckets at
once — and a scalar one over ``list[Quartet]``, the specification the
tests hold it to. Both key the fate roll on the quartet identity
4-tuple via :meth:`FaultPlan.quartet_uniforms`, so the faults a quartet
gets depend neither on the driver nor on which buckets share its span.

Per quartet, at most one fault fires, checked in severity order:

* **drop** — the quartet never reaches the pipeline;
* **corrupt** — its mean RTT becomes NaN (a mangled telemetry record);
* **duplicate** — a second copy lands immediately after the original.

Sanitization is the always-on defense the corrupt fault exercises: it
drops rows with non-finite or non-positive RTTs, zero samples, or
negative user counts, counting them under ``sanitize.quartets_dropped``.
When nothing is invalid — every clean run — the sanitizers return the
*original* object, so the hardened path stays byte-identical and
allocation-free.
"""

from __future__ import annotations

import numpy as np

from repro.chaos.plan import FaultPlan, _crc
from repro.core.quartet import Quartet, QuartetBatch
from repro.obs import NULL_REGISTRY, MetricsRegistry

__all__ = [
    "inject_batch",
    "inject_quartets",
    "sanitize_batch",
    "sanitize_quartets",
]

_CORRUPT_RTT = float("nan")


def _location_crcs(locations: tuple[str, ...]) -> np.ndarray:
    """crc32 of each vocabulary entry (the hash lane for string keys)."""
    return np.array([_crc(loc) for loc in locations], dtype=np.int64)


def _quartet_valid(quartet: Quartet) -> bool:
    return (
        np.isfinite(quartet.mean_rtt_ms)
        and quartet.mean_rtt_ms > 0
        and quartet.n_samples >= 1
        and quartet.users >= 0
    )


def _take(batch: QuartetBatch, indices: np.ndarray, rtt: np.ndarray) -> QuartetBatch:
    """Rebuild a batch from row indices and an (already edited) RTT column."""
    return QuartetBatch(
        time=batch.time[indices],
        prefix24=batch.prefix24[indices],
        mobile=batch.mobile[indices],
        mean_rtt_ms=rtt[indices],
        n_samples=batch.n_samples[indices],
        users=batch.users[indices],
        client_asn=batch.client_asn[indices],
        location_index=batch.location_index[indices],
        locations=batch.locations,
        middle_index=batch.middle_index[indices],
        middles=batch.middles,
        region_index=batch.region_index[indices],
        regions=batch.regions,
        # Any cached row objects are stale (rows moved, RTTs may have
        # been edited); let row() rematerialize from the columns.
        _rows=None,
    )


# -- injection -----------------------------------------------------------


def inject_quartets(
    plan: FaultPlan,
    quartets: list[Quartet],
    metrics: MetricsRegistry = NULL_REGISTRY,
) -> list[Quartet]:
    """Apply the plan's quartet faults to one bucket's quartet list."""
    if not plan.touches_quartets or not quartets:
        return quartets
    batch_cols = (
        np.array([q.time for q in quartets], dtype=np.int64),
        np.array([q.prefix24 for q in quartets], dtype=np.int64),
        np.array([q.mobile for q in quartets], dtype=np.int64),
        np.array([_crc(q.location_id) for q in quartets], dtype=np.int64),
    )
    drop, corrupt, duplicate = _fault_masks(plan, *batch_cols)
    if not (drop.any() or corrupt.any() or duplicate.any()):
        return quartets
    out: list[Quartet] = []
    for i, quartet in enumerate(quartets):
        if drop[i]:
            continue
        if corrupt[i]:
            quartet = quartet._replace(mean_rtt_ms=_CORRUPT_RTT)
        out.append(quartet)
        if duplicate[i]:
            out.append(quartet)
    _count_faults(metrics, drop, corrupt, duplicate)
    return out


def inject_batch(
    plan: FaultPlan,
    batch: QuartetBatch,
    metrics: MetricsRegistry = NULL_REGISTRY,
) -> QuartetBatch:
    """Columnar :func:`inject_quartets`; identical decisions per row."""
    if not plan.touches_quartets or not len(batch):
        return batch
    location_crc = _location_crcs(batch.locations)[batch.location_index]
    drop, corrupt, duplicate = _fault_masks(
        plan, batch.time, batch.prefix24, batch.mobile, location_crc
    )
    if not (drop.any() or corrupt.any() or duplicate.any()):
        return batch
    rtt = batch.mean_rtt_ms.copy()
    rtt[corrupt] = _CORRUPT_RTT
    kept = np.nonzero(~drop)[0]
    # repeats=2 where a kept row duplicates — the copy lands adjacent,
    # matching the scalar injector's insertion order.
    indices = np.repeat(kept, 1 + duplicate[kept].astype(np.int64))
    _count_faults(metrics, drop, corrupt, duplicate)
    return _take(batch, indices, rtt)


def _fault_masks(
    plan: FaultPlan,
    time: np.ndarray,
    prefix24: np.ndarray,
    mobile: np.ndarray,
    location_crc: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-row (drop, corrupt, duplicate) masks; mutually exclusive."""
    in_window = plan.window_mask(time)
    drop = (
        plan.quartet_uniforms("quartet.drop", time, prefix24, mobile, location_crc)
        < plan.quartet_drop_rate
    ) & in_window
    corrupt = (
        plan.quartet_uniforms(
            "quartet.corrupt", time, prefix24, mobile, location_crc
        )
        < plan.quartet_corrupt_rate
    ) & in_window & ~drop
    duplicate = (
        plan.quartet_uniforms(
            "quartet.duplicate", time, prefix24, mobile, location_crc
        )
        < plan.quartet_duplicate_rate
    ) & in_window & ~drop & ~corrupt
    return drop, corrupt, duplicate


def _count_faults(
    metrics: MetricsRegistry,
    drop: np.ndarray,
    corrupt: np.ndarray,
    duplicate: np.ndarray,
) -> None:
    for name, mask in (
        ("chaos.quartet.dropped", drop),
        ("chaos.quartet.corrupted", corrupt),
        ("chaos.quartet.duplicated", duplicate),
    ):
        count = int(mask.sum())
        if count:
            metrics.counter(name).inc(count)


# -- sanitization --------------------------------------------------------


def sanitize_quartets(
    quartets: list[Quartet],
    metrics: MetricsRegistry = NULL_REGISTRY,
) -> list[Quartet]:
    """Drop invalid quartets; returns the input list when all are clean."""
    if all(_quartet_valid(q) for q in quartets):
        return quartets
    kept = [q for q in quartets if _quartet_valid(q)]
    metrics.counter("sanitize.quartets_dropped").inc(len(quartets) - len(kept))
    return kept


def sanitize_batch(
    batch: QuartetBatch,
    metrics: MetricsRegistry = NULL_REGISTRY,
) -> QuartetBatch:
    """Columnar :func:`sanitize_quartets`; same validity predicate."""
    if not len(batch):
        return batch
    valid = (
        np.isfinite(batch.mean_rtt_ms)
        & (batch.mean_rtt_ms > 0)
        & (batch.n_samples >= 1)
        & (batch.users >= 0)
    )
    if valid.all():
        return batch
    metrics.counter("sanitize.quartets_dropped").inc(int((~valid).sum()))
    return _take(batch, np.nonzero(valid)[0], batch.mean_rtt_ms)
