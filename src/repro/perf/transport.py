"""Shard-result transport: shared-memory columns, pickle as fallback.

A shard worker's output is almost entirely NumPy arrays — blame batch
columns, composite pair codes, per-pair user counts, learner columns,
deferred batches. Pickling those through ``Pool.apply_async``'s result
pipe costs a serialize/deserialize pass on every byte. This module
instead writes every array of a shard's summaries into **one**
``multiprocessing.shared_memory`` block and ships only a compact
skeleton (the summary structure with each array replaced by an
``offset/dtype/shape`` descriptor, plus the batch vocabularies) through
the result pipe. The parent maps the block and rebuilds the arrays as
zero-copy views.

Layout: arrays are packed back-to-back at 16-byte-aligned offsets,
deduplicated by object identity (a deferred bucket's learn columns are
the same arrays as its deferred batch's — they are written once). The
skeleton is plain picklable data: nested dicts mirroring
:class:`~repro.core.summary.BucketSummary` /
:class:`~repro.core.blame.BlameResultBatch` /
:class:`~repro.core.quartet.QuartetBatch`, with :class:`ArrayRef`
placeholders where arrays were. Vocabulary tuples travel in the
skeleton; pickle's memoization serializes each shared tuple once per
shard.

Lifetime: the worker creates the segment, copies its arrays in, closes
its own mapping and hands ownership to the parent (each side balances
its own ``resource_tracker`` registration, so abnormal exits on either
side still reclaim the segment). The parent wraps the mapping in a
:class:`ShmLease` — a manual refcount the sharded fold holds while any
window entry still references the segment's arrays — and closes +
unlinks it on the last release. :meth:`ShmLease.destroy` force-releases
regardless of count; the sharded driver calls it on every outstanding
lease when a run dies, so a chaos kill leaves ``/dev/shm`` clean.

Fallback rules: ``mode="pickle"`` — or a failed segment allocation
(shm unavailable, ``/dev/shm`` full) — ships the summaries as one
explicit pickle blob instead. Both paths are accounted: the parent
bumps ``transport.shm_bytes`` / ``transport.pickle_bytes`` (and
``transport.fallbacks`` for forced downgrades) in :mod:`repro.obs`.
The transport never changes *what* arrives — only how — so reports
stay byte-identical across modes.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.core.blame import BlameResultBatch
from repro.core.quartet import QuartetBatch
from repro.core.summary import BucketSummary
from repro.obs import Snapshot

try:  # pragma: no cover - absent only on exotic platforms
    from multiprocessing import resource_tracker, shared_memory
except ImportError:  # pragma: no cover
    resource_tracker = None  # type: ignore[assignment]
    shared_memory = None  # type: ignore[assignment]

#: Supported transport modes, in preference order.
MODES = ("shm", "pickle")

#: Environment override for the default mode (CI toggles the shm path
#: explicitly with it; see ``resolve_mode``).
ENV_VAR = "REPRO_SHARD_TRANSPORT"

#: Array offsets are aligned to this many bytes inside a segment.
_ALIGN = 16

#: QuartetBatch's array-valued fields, in declaration order.
_BATCH_ARRAYS = (
    "time",
    "prefix24",
    "mobile",
    "mean_rtt_ms",
    "n_samples",
    "users",
    "client_asn",
    "location_index",
    "middle_index",
    "region_index",
)


def shm_available() -> bool:
    """Whether POSIX shared memory is usable on this platform."""
    return shared_memory is not None


def resolve_mode(mode: str | None) -> str:
    """Normalize a requested transport mode.

    Precedence: explicit ``mode`` argument, then the ``ENV_VAR``
    environment override, then ``"shm"``. A platform without
    ``multiprocessing.shared_memory`` degrades to ``"pickle"``
    regardless (the per-shard fallback handles transient failures; this
    handles wholesale absence).
    """
    if mode is None:
        mode = os.environ.get(ENV_VAR) or "shm"
    if mode not in MODES:
        raise ValueError(f"transport must be one of {MODES}, got {mode!r}")
    if mode == "shm" and not shm_available():
        return "pickle"
    return mode


@dataclass(slots=True)
class ArrayRef:
    """Where one array lives inside a shard's shared-memory segment."""

    offset: int
    dtype: str
    shape: tuple[int, ...]


@dataclass(slots=True)
class ShmPayload:
    """A shard result whose arrays live in a shared-memory segment."""

    name: str
    nbytes: int
    summaries: list[dict]
    snapshot: Snapshot | None


@dataclass(slots=True)
class PicklePayload:
    """A shard result shipped as one explicit pickle blob.

    ``fallback`` marks a blob produced because a shared-memory segment
    could not be allocated (as opposed to pickle mode being requested).
    """

    data: bytes
    fallback: bool = False


class ShmLease:
    """Parent-side ownership of one mapped segment, manually refcounted.

    The fold holds one reference while a shard's summaries are being
    folded plus one per window entry that still points at the segment's
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

    @property
    def buf(self):  # memoryview of the mapped segment
        return self._shm.buf

    def retain(self) -> None:
        self._count += 1

    def release(self) -> None:
        self._count -= 1
        if self._count <= 0:
            self.destroy()

    def destroy(self) -> None:
        """Close and unlink the segment now (idempotent).

        A straggler view would make ``close()`` raise; the unlink still
        proceeds so the ``/dev/shm`` entry is gone either way — the
        mapping itself is reclaimed when the last view drops.
        """
        if self.released:
            return
        self.released = True
        try:
            self._shm.close()
        except (BufferError, ValueError):  # pragma: no cover - straggler view
            pass
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass


# -- encoding (worker side) -------------------------------------------


def _pack_batch(batch: QuartetBatch, collect) -> dict:
    """Batch → skeleton: arrays collected into the segment plan."""
    spec = {name: collect(getattr(batch, name)) for name in _BATCH_ARRAYS}
    spec["locations"] = batch.locations
    spec["middles"] = batch.middles
    spec["regions"] = batch.regions
    return spec


def _pack_summary(summary: BucketSummary, collect) -> dict:
    blames = summary.blames
    return {
        "time": summary.time,
        "n_quartets": summary.n_quartets,
        "blames": None
        if blames is None
        else {
            "batch": _pack_batch(blames.batch, collect),
            "code": collect(blames.code),
            "cloud_fraction": collect(blames.cloud_fraction),
            "middle_fraction": collect(blames.middle_fraction),
        },
        "pair_codes": collect(summary.pair_codes),
        "pair_users": collect(summary.pair_users),
        "new_mask": collect(summary.new_mask),
        "new_prefixes": collect(summary.new_prefixes),
        "learn": None
        if summary.learn is None
        else tuple(collect(column) for column in summary.learn),
        "deferred_batch": None
        if summary.deferred_batch is None
        else _pack_batch(summary.deferred_batch, collect),
    }


def _encode_shm(
    summaries: list[BucketSummary], snapshot: Snapshot | None
) -> ShmPayload:
    """Pack every array of a shard's summaries into one shm segment."""
    plan: list[tuple[np.ndarray, ArrayRef]] = []
    refs: dict[int, ArrayRef] = {}
    offset = 0

    def collect(array: np.ndarray) -> ArrayRef:
        nonlocal offset
        ref = refs.get(id(array))
        if ref is None:
            contiguous = np.ascontiguousarray(array)
            offset = -(-offset // _ALIGN) * _ALIGN
            ref = ArrayRef(offset, contiguous.dtype.str, contiguous.shape)
            offset += contiguous.nbytes
            refs[id(array)] = ref
            plan.append((contiguous, ref))
        return ref

    skeleton = [_pack_summary(summary, collect) for summary in summaries]
    shm = shared_memory.SharedMemory(create=True, size=max(1, offset))
    try:
        for array, ref in plan:
            view = np.ndarray(
                ref.shape, dtype=array.dtype, buffer=shm.buf, offset=ref.offset
            )
            view[...] = array
            del view
    finally:
        name = shm.name
        shm.close()
    # Ownership moves to the parent: balance this process's tracker
    # registration (the parent re-registers on attach), so neither side
    # double-cleans and an abnormal exit on either still reclaims it.
    _tracker_unregister(shm._name)  # noqa: SLF001 - tracker uses raw name
    return ShmPayload(
        name=name, nbytes=offset, summaries=skeleton, snapshot=snapshot
    )


def encode_result(
    summaries: list[BucketSummary],
    snapshot: Snapshot | None,
    mode: str,
) -> "ShmPayload | PicklePayload":
    """Encode one shard's output for the trip to the parent.

    ``mode="shm"`` falls back to a pickle blob when the segment cannot
    be allocated; the parent counts the downgrade.
    """
    if mode == "shm" and shm_available():
        try:
            return _encode_shm(summaries, snapshot)
        except OSError:
            return PicklePayload(
                data=pickle.dumps(
                    (summaries, snapshot), protocol=pickle.HIGHEST_PROTOCOL
                ),
                fallback=True,
            )
    return PicklePayload(
        data=pickle.dumps(
            (summaries, snapshot), protocol=pickle.HIGHEST_PROTOCOL
        )
    )


# -- decoding (parent side) -------------------------------------------


def _unpack_batch(spec: dict, resolve) -> QuartetBatch:
    return QuartetBatch(
        time=resolve(spec["time"]),
        prefix24=resolve(spec["prefix24"]),
        mobile=resolve(spec["mobile"]),
        mean_rtt_ms=resolve(spec["mean_rtt_ms"]),
        n_samples=resolve(spec["n_samples"]),
        users=resolve(spec["users"]),
        client_asn=resolve(spec["client_asn"]),
        location_index=resolve(spec["location_index"]),
        locations=spec["locations"],
        middle_index=resolve(spec["middle_index"]),
        middles=spec["middles"],
        region_index=resolve(spec["region_index"]),
        regions=spec["regions"],
    )


def _unpack_summary(spec: dict, resolve) -> BucketSummary:
    blames_spec = spec["blames"]
    blames = None
    if blames_spec is not None:
        blames = BlameResultBatch(
            batch=_unpack_batch(blames_spec["batch"], resolve),
            code=resolve(blames_spec["code"]),
            cloud_fraction=resolve(blames_spec["cloud_fraction"]),
            middle_fraction=resolve(blames_spec["middle_fraction"]),
        )
    learn = spec["learn"]
    deferred = spec["deferred_batch"]
    return BucketSummary(
        time=spec["time"],
        n_quartets=spec["n_quartets"],
        blames=blames,
        pair_codes=resolve(spec["pair_codes"]),
        pair_users=resolve(spec["pair_users"]),
        new_mask=resolve(spec["new_mask"]),
        new_prefixes=resolve(spec["new_prefixes"]),
        learn=None
        if learn is None
        else tuple(resolve(column) for column in learn),
        deferred_batch=None
        if deferred is None
        else _unpack_batch(deferred, resolve),
    )


def decode_result(
    payload: "ShmPayload | PicklePayload",
    count: Callable[[str, int], None],
) -> "tuple[list[BucketSummary], Snapshot | None, ShmLease | None]":
    """Decode a shard payload; returns (summaries, snapshot, lease).

    ``count(name, amount)`` receives the transport accounting —
    ``shm_bytes`` / ``shm_segments`` / ``pickle_bytes`` / ``fallbacks``
    — so the caller can mirror it into both its plain stats and
    :mod:`repro.obs` counters. The lease (shm path only) starts with
    one reference; the caller owns releasing it.
    """
    if isinstance(payload, PicklePayload):
        count("pickle_bytes", len(payload.data))
        if payload.fallback:
            count("fallbacks", 1)
        summaries, snapshot = pickle.loads(payload.data)
        return summaries, snapshot, None
    shm = shared_memory.SharedMemory(name=payload.name)
    # The worker handed ownership over; register so an abnormal parent
    # exit still reclaims the segment (unlink() unregisters again).
    _tracker_register(shm._name)  # noqa: SLF001 - tracker uses raw name
    lease = ShmLease(shm)
    buf = shm.buf

    def resolve(ref: ArrayRef) -> np.ndarray:
        return np.ndarray(
            ref.shape, dtype=np.dtype(ref.dtype), buffer=buf, offset=ref.offset
        )

    summaries = [_unpack_summary(spec, resolve) for spec in payload.summaries]
    count("shm_bytes", payload.nbytes)
    count("shm_segments", 1)
    return summaries, payload.snapshot, lease


# -- resource-tracker bookkeeping -------------------------------------


def _tracker_unregister(raw_name: str) -> None:
    if resource_tracker is None:  # pragma: no cover
        return
    try:
        resource_tracker.unregister(raw_name, "shared_memory")
    except Exception:  # pragma: no cover - tracker gone mid-shutdown
        pass


def _tracker_register(raw_name: str) -> None:
    if resource_tracker is None:  # pragma: no cover
        return
    try:
        resource_tracker.register(raw_name, "shared_memory")
    except Exception:  # pragma: no cover - tracker gone mid-shutdown
        pass


def discard_payload(payload: Any) -> None:
    """Reclaim an undecoded payload's shared memory, if it has any.

    Used when a stream consumer aborts mid-segment: worker-written
    segments whose results never reach :func:`decode_result` would
    otherwise outlive the run in ``/dev/shm``.
    """
    if not isinstance(payload, ShmPayload) or shared_memory is None:
        return
    try:
        shm = shared_memory.SharedMemory(name=payload.name)
    except FileNotFoundError:  # pragma: no cover - already reclaimed
        return
    _tracker_register(shm._name)  # noqa: SLF001 - tracker uses raw name
    ShmLease(shm).destroy()


def payload_summaries(payload: Any) -> Any:
    """Testing hook: the summaries of a payload without accounting."""
    if isinstance(payload, PicklePayload):
        return pickle.loads(payload.data)[0]
    return payload.summaries
