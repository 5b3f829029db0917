"""Shard-result transport: one pickle stream, buffers in shared memory.

A shard worker's output — one span's
:class:`~repro.core.summary.SpanSummary` — is almost entirely NumPy
arrays: blame batch columns, composite pair codes, per-pair user counts,
the span's rows. Pickling those through ``Pool.apply_async``'s result
pipe costs a serialize/deserialize pass on every byte. This module
instead pickles ``(span, snapshot)`` with protocol 5 and a
``buffer_callback``: every contiguous array's bytes leave the stream as
an out-of-band buffer, and the buffers are copied back-to-back (at
16-byte-aligned offsets) into **one** ``multiprocessing.shared_memory``
segment. Only the stream — object structure, vocabularies, dtypes and
shapes — crosses the result pipe; the parent maps the segment and
``pickle.loads`` rebuilds the arrays as zero-copy views of it.

The transport knows nothing about what it carries. Pickle's memo does
the sharing: an array referenced twice is written once and decodes to
one shared array, and a vocabulary tuple shared by a span's batches is
serialized once and stays one object. A view is written as its own
bytes, so a span ships whole columns and the parent cuts the views
(:meth:`SpanSummary.buckets <repro.core.summary.SpanSummary.buckets>`).
A non-contiguous array simply stays in the stream.

Lifetime: the worker creates the segment, copies its buffers in and
closes its own mapping; the parent maps it, wraps the mapping in a
:class:`ShmLease` — a manual refcount the sharded fold holds while any
window entry still references the segment's arrays — and closes +
unlinks it on the last release. Creating or attaching a segment
registers it with the ``resource_tracker`` and unlinking unregisters
it; the pool is forked after :func:`share_tracker`, so workers and
parent share one tracker, and a segment stays registered from its
creation to its unlink. If the parent dies before unlinking (even
between a worker's encode and its own decode), the tracker unlinks the
segment once the parent and the workers are gone.
:meth:`ShmLease.destroy` force-releases regardless of count; the sharded
driver calls it on every outstanding lease when a run dies, so a chaos
kill leaves ``/dev/shm`` clean.

Fallback: where ``multiprocessing.shared_memory`` does not exist, or
for a span whose segment allocation raises ``OSError`` (``/dev/shm``
full), the same objects travel as one self-contained stream instead.
Nothing selects this but what the code observes. Both sides are
accounted: the parent bumps ``transport.shm_bytes`` /
``transport.shm_segments`` or ``transport.pickle_bytes`` (and
``transport.fallbacks`` for failed allocations) in :mod:`repro.obs`.
The transport never changes *what* arrives — only how — so reports
stay byte-identical either way.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.core.summary import SpanSummary
from repro.obs import Snapshot

try:  # pragma: no cover - absent only on exotic platforms
    from multiprocessing import resource_tracker, shared_memory
except ImportError:  # pragma: no cover
    resource_tracker = None  # type: ignore[assignment]
    shared_memory = None  # type: ignore[assignment]

#: Buffer offsets are aligned to this many bytes inside a segment.
_ALIGN = 16


@dataclass(slots=True)
class ShardPayload:
    """One shard's result on its way through the result pipe.

    ``data`` is the pickle stream of ``(span, snapshot)``. With a
    segment (``name`` set) the stream's out-of-band buffers, ``sizes``
    bytes each in stream order, sit in that shared-memory segment at
    the offsets :func:`_layout` gives; without one the stream is
    self-contained. ``fallback`` marks a self-contained stream sent
    because the segment could not be allocated.
    """

    data: bytes
    name: str | None = None
    sizes: Sequence[int] = ()
    fallback: bool = False


def _layout(sizes: Sequence[int]) -> tuple[list[int], int]:
    """Aligned offset of each buffer in a segment, and the bytes used."""
    offsets, end = [], 0
    for size in sizes:
        start = -(-end // _ALIGN) * _ALIGN
        offsets.append(start)
        end = start + size
    return offsets, end


class ShmLease:
    """Parent-side ownership of one mapped segment, manually refcounted.

    The fold holds one reference while the span's buckets wait in
    ``RunState.ahead`` plus one per window entry that still points at the segment's
    arrays; :meth:`release` drops a reference and closes + unlinks the
    segment when the last one goes. :meth:`destroy` is the abnormal-exit
    hatch: it reclaims the segment immediately, outstanding references
    or not.
    """

    __slots__ = ("_shm", "_count", "released")

    def __init__(self, shm: "shared_memory.SharedMemory") -> None:
        self._shm = shm
        self._count = 1
        self.released = False

    def retain(self) -> None:
        self._count += 1

    def release(self) -> None:
        self._count -= 1
        if self._count <= 0:
            self.destroy()

    def destroy(self) -> None:
        """Close and unlink the segment now (idempotent).

        Nothing here waits for the decoded arrays: an ``np.ndarray``
        built over ``shm.buf`` drops its buffer export at once, so
        ``close()`` succeeds and unmaps the memory under any array that
        is still alive. Safety rests on the fold alone — every consumer
        materializes what it keeps before the flush releases (DESIGN.md
        §4b). The guard below covers a real ``memoryview`` holder, for
        which ``close()`` does raise; the unlink still proceeds so the
        ``/dev/shm`` entry is gone either way.
        """
        if self.released:
            return
        self.released = True
        try:
            self._shm.close()
        except (BufferError, ValueError):  # pragma: no cover - pinned view
            pass
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass


def share_tracker() -> None:
    """Start this process's resource tracker now, so that processes
    forked after it register their segments with it (see Lifetime)."""
    if resource_tracker is not None:
        resource_tracker.ensure_running()


def encode_result(span: SpanSummary, snapshot: Snapshot | None) -> ShardPayload:
    """Encode one shard's output for the trip to the parent (worker side)."""
    result = (span, snapshot)
    if shared_memory is None:
        return ShardPayload(pickle.dumps(result, protocol=5))
    buffers: list[pickle.PickleBuffer] = []
    data = pickle.dumps(result, protocol=5, buffer_callback=buffers.append)
    raws = [buffer.raw() for buffer in buffers]
    sizes = [raw.nbytes for raw in raws]
    offsets, used = _layout(sizes)
    try:
        shm = shared_memory.SharedMemory(create=True, size=max(1, used))
    except OSError:
        return ShardPayload(pickle.dumps(result, protocol=5), fallback=True)
    try:
        buf = shm.buf
        for raw, offset in zip(raws, offsets):
            buf[offset : offset + raw.nbytes] = raw
    finally:
        shm.close()
    return ShardPayload(data, shm.name, sizes)


def decode_result(
    payload: ShardPayload,
    count: Callable[[str, int], None],
) -> "tuple[SpanSummary, Snapshot | None, ShmLease | None]":
    """Decode a shard payload; returns (span, snapshot, lease).

    ``count(name, amount)`` receives the transport accounting —
    ``shm_bytes`` / ``shm_segments`` / ``pickle_bytes`` / ``fallbacks``
    — so the caller can mirror it into both its plain stats and
    :mod:`repro.obs` counters. The lease (segment only) starts with one
    reference; the caller owns releasing it.
    """
    if payload.name is None:
        count("pickle_bytes", len(payload.data))
        if payload.fallback:
            count("fallbacks", 1)
        span, snapshot = pickle.loads(payload.data)
        return span, snapshot, None
    shm = shared_memory.SharedMemory(name=payload.name)
    lease = ShmLease(shm)
    offsets, used = _layout(payload.sizes)
    buf = shm.buf
    # ndarray views, not memoryview slices: a slice would pin the
    # mapping and make the lease's close() raise (see ShmLease.destroy).
    views = [
        np.ndarray((size,), np.uint8, buffer=buf, offset=offset)
        for size, offset in zip(payload.sizes, offsets)
    ]
    span, snapshot = pickle.loads(payload.data, buffers=views)
    count("shm_bytes", used)
    count("shm_segments", 1)
    return span, snapshot, lease


def discard_payload(payload: ShardPayload) -> None:
    """Reclaim an undecoded payload's shared memory, if it has any.

    Used when the spans in flight are dropped: worker-written
    segments whose results never reach :func:`decode_result` would
    otherwise outlive the run in ``/dev/shm``.
    """
    if payload.name is None:
        return
    try:
        shm = shared_memory.SharedMemory(name=payload.name)
    except FileNotFoundError:  # pragma: no cover - already reclaimed
        return
    ShmLease(shm).destroy()
