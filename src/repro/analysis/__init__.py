"""Measurement characterization (§2) and evaluation validation (§6).

* :mod:`repro.analysis.cdf` — empirical CDFs.
* :mod:`repro.analysis.characterize` — prevalence, diurnal patterns,
  persistence, and impact-skew analyses behind Figures 2-4.
* :mod:`repro.analysis.validation` — incident validation (§6.3) and the
  corroboration-ratio methodology (§6.4).
* :mod:`repro.analysis.report` — fixed-width tables and CDF/series
  rendering for the benches.
"""

from repro.analysis.cdf import ECDF
from repro.analysis.characterize import (
    PersistenceTracker,
    bad_fraction_by_hour,
    bad_fraction_by_location,
    bad_fraction_by_region,
    impact_records_from_issues,
)
from repro.analysis.report import render_cdf, render_series, render_table
from repro.analysis.validation import (
    IncidentOutcome,
    WarmupState,
    build_warmup_state,
    corroboration_ratios,
    validate_incident,
)

__all__ = [
    "ECDF",
    "IncidentOutcome",
    "PersistenceTracker",
    "WarmupState",
    "bad_fraction_by_hour",
    "bad_fraction_by_location",
    "bad_fraction_by_region",
    "build_warmup_state",
    "corroboration_ratios",
    "impact_records_from_issues",
    "render_cdf",
    "render_series",
    "render_table",
    "validate_incident",
]
