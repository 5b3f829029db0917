"""How many forked processes a parallel map over independent work uses.

One rule for every fork-parallel caller: the validation suite's
pipeline runs (:mod:`repro.analysis.validation`), the JSONL load's
byte ranges (:mod:`repro.serve.source`) and the sharded driver's
default pool size (:mod:`repro.perf.sharded`). No flag, config field
or environment variable changes it.
"""

from __future__ import annotations

import multiprocessing
import os


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
