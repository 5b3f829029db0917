"""Comparison systems from Table 1 and §6.5.

* :mod:`repro.baselines.tomography` — classical network tomography over
  the client/middle/cloud segmentation; demonstrates the §4.1
  underdetermination and implements boolean tomography.
* :mod:`repro.baselines.active_only` — continuous traceroutes to every
  ⟨location, BGP path⟩ (the strawman BlameIt is 72× cheaper than).
* :mod:`repro.baselines.trinocular` — adaptive-probing monitor in the
  spirit of Trinocular (BlameIt is 20× cheaper).
* :mod:`repro.baselines.asmetro` — passive diagnosis with ⟨AS, Metro⟩
  grouping (prior practice; Figure 11's weaker variant).
"""

from repro.baselines.active_only import ActiveOnlyMonitor
from repro.baselines.asmetro import as_metro_batch
from repro.baselines.tomography import (
    BooleanTomography,
    LinearTomography,
    PathObservation,
)
from repro.baselines.trinocular import TrinocularMonitor

__all__ = [
    "ActiveOnlyMonitor",
    "BooleanTomography",
    "LinearTomography",
    "PathObservation",
    "TrinocularMonitor",
    "as_metro_batch",
]
