"""BlameIt core: the paper's two-phase fault localization system.

Phase 1 (:mod:`repro.core.passive`) assigns coarse blame — cloud, middle,
or client — from passively collected RTT quartets alone, using learned
expected-RTT thresholds (:mod:`repro.core.thresholds`). Phase 2
(:mod:`repro.core.active`) localizes middle-segment issues to a single AS
with budgeted, impact-prioritized traceroutes compared against optimized
background baselines (:mod:`repro.core.background`,
:mod:`repro.core.localize`). :mod:`repro.core.pipeline` wires the full
Figure 7 workflow.
"""

from repro.core.active import MiddleIssue, OnDemandProber, ProbeBudget
from repro.core.alerts import Alert, AlertManager
from repro.core.background import BackgroundProber, BaselineStore
from repro.core.blame import Blame, BlameResult
from repro.core.config import BlameItConfig
from repro.core.grouping import GroupingStrategy, group_key, sharing_counts
from repro.core.impact import client_time_product, measured_impact, rank_by_impact
from repro.core.localize import CulpritVerdict, localize_culprit
from repro.core.passive import PassiveLocalizer
from repro.core.pipeline import BlameItPipeline, PipelineReport
from repro.core.prediction import ClientCountPredictor, DurationPredictor
from repro.core.quartet import Quartet
from repro.core.reverse import BidirectionalVerdict, localize_bidirectional
from repro.core.thresholds import (
    DistributionShiftDetector,
    ExpectedRTTLearner,
    ExpectedRTTTable,
)

__all__ = [
    "Alert",
    "AlertManager",
    "BackgroundProber",
    "BaselineStore",
    "BidirectionalVerdict",
    "Blame",
    "BlameItConfig",
    "BlameItPipeline",
    "BlameResult",
    "DistributionShiftDetector",
    "ClientCountPredictor",
    "CulpritVerdict",
    "DurationPredictor",
    "ExpectedRTTLearner",
    "ExpectedRTTTable",
    "GroupingStrategy",
    "MiddleIssue",
    "OnDemandProber",
    "PassiveLocalizer",
    "PipelineReport",
    "ProbeBudget",
    "Quartet",
    "client_time_product",
    "group_key",
    "localize_bidirectional",
    "localize_culprit",
    "measured_impact",
    "rank_by_impact",
    "sharing_counts",
]
