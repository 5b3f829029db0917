"""How many forked processes a parallel map over independent work uses.

One rule for every fork-parallel caller: the validation suite's
pipeline runs (:mod:`repro.analysis.validation`) and the JSONL load's
byte ranges (:mod:`repro.serve.source`). No flag, config field or
environment variable changes it.
"""

from __future__ import annotations

import multiprocessing
import os


def fork_workers(jobs: int) -> int:
    """Worker processes for ``jobs`` independent pieces of work; 1 runs
    them inline.

    One per usable CPU (``os.sched_getaffinity``), at most one per job.
    Inline as well when this platform cannot fork, or when the caller is
    itself a daemonic process, which may not start children.
    """
    if (
        "fork" not in multiprocessing.get_all_start_methods()
        or multiprocessing.current_process().daemon
    ):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), jobs))
