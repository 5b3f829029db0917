"""Fork-parallel work: the worker-count rule and the one fork map.

:func:`fork_map` runs independent work on forked workers: the
validation suite's pipeline runs (:mod:`repro.analysis.validation`)
and the JSONL load's byte ranges (:mod:`repro.serve.source`). Besides
it only the sharded driver's persistent pool forks
(:mod:`repro.perf.sharded`, sized by :func:`usable_cpus`). No flag,
config field or environment variable changes how many workers either
uses. DESIGN.md §4 decision 10 states the map's invariants.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import pickle
import traceback
from multiprocessing.connection import Connection, wait
from typing import Callable, Sequence


def usable_cpus() -> int:
    """CPUs this process may run on (``os.sched_getaffinity``), not the
    machine's count: under ``taskset -c 0`` this is 1."""
    return max(1, len(os.sched_getaffinity(0)))


def fork_workers(jobs: int) -> int:
    """Worker processes for ``jobs`` independent pieces of work; 1 runs
    them inline.

    One per usable CPU (:func:`usable_cpus`), at most one per job.
    Inline as well when this platform cannot fork, or when the caller is
    itself a daemonic process, which may not start children.
    """
    if (
        "fork" not in multiprocessing.get_all_start_methods()
        or multiprocessing.current_process().daemon
    ):
        return 1
    return max(1, min(usable_cpus(), jobs))


def fork_map(fn: Callable, items: Sequence, cost: Callable | None = None) -> list:
    """``[fn(item) for item in items]``, on :func:`fork_workers` forked
    workers; with one, ``fn`` runs here.

    Workers inherit ``fn`` and ``items``. Each item goes out as its
    index, longest ``cost`` first, to whichever worker answers; its
    result comes back as a protocol-5 pickle, the out-of-band buffers
    received straight into their arrays. An exception in ``fn`` keeps
    its type, and a worker that dies is a :class:`ChildProcessError`.
    No worker outlives the call, nor a killed parent: each first closes
    the parent's pipe ends it inherited.
    """
    workers = fork_workers(len(items))
    if workers == 1:
        return [fn(item) for item in items]
    key = (lambda index: -cost(items[index])) if cost else None
    todo = iter(sorted(range(len(items)), key=key))
    context = multiprocessing.get_context("fork")
    ends: list[Connection] = []
    children: list[multiprocessing.process.BaseProcess] = []
    results: list = [None] * len(items)
    try:
        for _ in range(workers):
            end, child_end = context.Pipe()
            ends.append(end)
            with child_end:
                child = context.Process(
                    target=_serve, args=(fn, items, child_end, list(ends)), daemon=True
                )
                child.start()
            children.append(child)
        busy: dict[Connection, int] = {}
        for end, index in zip(ends, todo):
            end.send(index)
            busy[end] = index
        while busy:
            for end in wait(list(busy)):
                results[busy.pop(end)] = _receive(end)
                if (index := next(todo, None)) is not None:
                    # A worker that died fails this send; _receive names it.
                    with contextlib.suppress(ConnectionError):
                        end.send(index)
                    busy[end] = index
    except BaseException:
        for child in children:
            child.kill()
        raise
    finally:
        for end in ends:
            end.close()
        for child in children:
            child.join()
    return results


def _serve(fn: Callable, items: Sequence, end: Connection, parent_ends: list) -> None:
    """A forked worker: ``fn`` of each index it is sent, until the
    parent closes its end or dies."""
    for parent_end in parent_ends:
        parent_end.close()
    try:
        while True:
            index = end.recv()
            try:
                reply = (True, fn(items[index]))
            except Exception as exc:  # raised again in the parent
                reply = (False, (exc, traceback.format_exc()))
            buffers: list[pickle.PickleBuffer] = []
            payload = pickle.dumps(reply, protocol=5, buffer_callback=buffers.append)
            raws = [buffer.raw() for buffer in buffers]
            end.send((payload, [raw.nbytes for raw in raws]))
            for raw in raws:
                end.send_bytes(raw)
    except (EOFError, ConnectionError):  # the parent closed its end, or died
        return


def _receive(end: Connection):
    """One worker's result, or the exception it raised."""
    try:
        payload, sizes = end.recv()
        buffers = [bytearray(size) for size in sizes]
        for buffer in buffers:
            end.recv_bytes_into(buffer)
    except (EOFError, ConnectionError):
        raise ChildProcessError("a worker exited before sending its result") from None
    ok, value = pickle.loads(payload, buffers=buffers)
    if ok:
        return value
    exc, trace = value
    raise exc from _WorkerTraceback(trace)


class _WorkerTraceback(Exception):
    """The cause of an exception a worker raised: its traceback there."""
