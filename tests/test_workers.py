"""Tests for repro.perf.workers: the one fork map and its worker count.

The callers' own properties (byte-identical suites and loads, refusals
in file order, a killed loader's parent) live with the callers, in
``tests/test_validation.py`` and ``tests/test_serve.py``.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import time

import numpy as np
import pytest

import repro.perf.workers as workers
from repro.perf.workers import fork_map, fork_workers

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the map forks its workers",
)


class _ItemFailed(Exception):
    """Raised by one item's function in a worker."""


@pytest.fixture
def forks(monkeypatch) -> list:
    """Every forked process started during the test."""
    started = []
    start = multiprocessing.context.ForkProcess.start

    def counted(process):
        started.append(process)
        start(process)

    monkeypatch.setattr(multiprocessing.context.ForkProcess, "start", counted)
    return started


def _force(monkeypatch, count: int) -> None:
    """Pin the map's worker count (capped at one per item, as the real
    count is) whatever the machine has."""
    monkeypatch.setattr(workers, "fork_workers", lambda jobs: min(count, jobs))


def test_default_rule_maps_like_a_list_comprehension():
    """No patch: on one usable CPU (CI runs this under ``taskset -c 0``)
    this is the inline branch, on more the forked one."""
    items = list(range(9))
    assert fork_map(lambda item: item * item, items) == [i * i for i in items]
    assert multiprocessing.active_children() == []


def test_inline_branch_forks_nothing(monkeypatch, forks):
    _force(monkeypatch, 1)
    assert fork_map(lambda item: (item, os.getpid()), "abc") == [
        (item, os.getpid()) for item in "abc"
    ]
    assert forks == []


@needs_fork
class TestForkMap:
    def test_results_in_input_order(self, monkeypatch, forks):
        """Later items finish first; the results still come back in
        input order, computed outside this process."""
        _force(monkeypatch, 3)

        def fn(item):
            time.sleep((12 - item) / 500)
            return item, os.getpid()

        results = fork_map(fn, range(12))
        assert [item for item, _ in results] == list(range(12))
        assert os.getpid() not in {pid for _, pid in results}
        assert len(forks) == 3
        assert multiprocessing.active_children() == []

    def test_longest_first_submission(self, monkeypatch):
        """Items go out by descending cost, ties in input order, each to
        whichever worker answers."""
        _force(monkeypatch, 2)
        sent = []
        send = multiprocessing.connection.Connection.send

        def recorded(connection, obj):
            if isinstance(obj, int):
                sent.append(obj)
            send(connection, obj)

        monkeypatch.setattr(multiprocessing.connection.Connection, "send", recorded)
        costs = [3, 9, 1, 9, 4, 0, 7]
        assert fork_map(lambda cost: -cost, costs, cost=lambda cost: cost) == [
            -cost for cost in costs
        ]
        assert sent == [1, 3, 6, 4, 0, 2, 5]

    def test_exception_keeps_its_type(self, monkeypatch):
        """The worker's exception is raised here, its traceback in the
        worker attached as the cause."""
        _force(monkeypatch, 2)

        def fn(item):
            if item == 5:
                raise _ItemFailed(f"item {item}")
            return item

        with pytest.raises(_ItemFailed, match="item 5") as raised:
            fork_map(fn, range(8))
        assert 'raise _ItemFailed(f"item {item}")' in str(raised.value.__cause__)
        assert multiprocessing.active_children() == []

    def test_worker_that_dies_is_an_error(self, monkeypatch):
        _force(monkeypatch, 2)

        def fn(item):
            if item == 2:
                os._exit(1)
            return item

        with pytest.raises(ChildProcessError, match="exited before sending"):
            fork_map(fn, range(6))
        assert multiprocessing.active_children() == []

    def test_numpy_arrays_arrive_equal(self, monkeypatch):
        """Contiguous arrays travel out of band, the rest in band; each
        arrives equal, with its dtype and shape, and writable."""
        _force(monkeypatch, 2)

        def fn(n):
            grid = np.arange(n * 3, dtype=np.float32).reshape(n, 3)
            return {
                "ints": np.arange(n, dtype=np.int64) * 7,
                "flags": np.arange(n) % 3 == 0,
                "fortran": np.asfortranarray(grid),
                "strided": grid[::2, 1],
                "empty": np.empty(0, np.uint8),
                "vocabulary": tuple(f"loc-{i}" for i in range(n)),
            }

        sizes = [0, 1, 1000, 70_000]
        for got, n in zip(fork_map(fn, sizes), sizes):
            expected = fn(n)
            assert got.keys() == expected.keys()
            assert got["vocabulary"] == expected["vocabulary"]
            for name in ("ints", "flags", "fortran", "strided", "empty"):
                assert got[name].dtype == expected[name].dtype
                np.testing.assert_array_equal(got[name], expected[name])
                assert got[name].flags.writeable

    def test_map_inside_a_worker_runs_inline(self, monkeypatch, forks):
        """A worker is daemonic, so a map it calls runs in it."""
        monkeypatch.setattr(workers, "usable_cpus", lambda: 2)

        def fn(item):
            inner = fork_map(lambda x: (x, os.getpid()), range(3))
            return {pid for _, pid in inner} == {os.getpid()}, fork_workers(4)

        assert fork_map(fn, range(4)) == [(True, 1)] * 4
        assert len(forks) == 2
