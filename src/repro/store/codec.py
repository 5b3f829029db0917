"""Encoders between in-memory pipeline objects and JSON-safe payloads.

Component classes own their own ``state_dict``/``load_state_dict``
methods; this module holds the encoders that would otherwise create
import cycles or spread type knowledge across modules — ⟨location, AS
path⟩ pair keys, the expected-RTT table, and the mid-run partial
:class:`~repro.core.pipeline.PipelineReport` (alerts and metrics are
excluded from the latter: both are rebuilt wholesale at finalize).
"""

from __future__ import annotations

from collections import Counter
from typing import Any

import numpy as np

from repro.core.blame import Blame
from repro.core.localize import CulpritVerdict
from repro.core.pipeline import LocalizedIssue, PipelineReport, SegmentIssue
from repro.core.active import MiddleIssue
from repro.core.thresholds import ExpectedRTTTable


def encode_pair_key(key: tuple) -> list:
    """⟨location, AS path⟩ → JSON list (predictor key codec)."""
    location_id, path = key
    return [location_id, list(path)]


def decode_pair_key(encoded: list) -> tuple:
    """Inverse of :func:`encode_pair_key`."""
    location_id, path = encoded
    return (location_id, tuple(int(asn) for asn in path))


# ---------------------------------------------------------------------------
# Expected-RTT tables
# ---------------------------------------------------------------------------


def table_payload(
    table: ExpectedRTTTable,
) -> tuple[dict[str, Any], dict[str, np.ndarray]]:
    """Table → (JSON-safe keys, medians as float64 arrays)."""
    keys = {
        "cloud_keys": [[location, mobile] for location, mobile in table.cloud],
        "middle_keys": [[list(path), mobile] for path, mobile in table.middle],
    }
    arrays = {
        "cloud_values": np.asarray(list(table.cloud.values()), dtype=np.float64),
        "middle_values": np.asarray(list(table.middle.values()), dtype=np.float64),
    }
    return keys, arrays


def table_from_payload(
    keys: dict[str, Any], arrays: dict[str, np.ndarray]
) -> ExpectedRTTTable:
    """Inverse of :func:`table_payload`."""
    cloud_values = np.asarray(arrays["cloud_values"], dtype=np.float64).tolist()
    middle_values = np.asarray(arrays["middle_values"], dtype=np.float64).tolist()
    return ExpectedRTTTable(
        cloud={
            (location, bool(mobile)): value
            for (location, mobile), value in zip(keys["cloud_keys"], cloud_values)
        },
        middle={
            (tuple(int(asn) for asn in path), bool(mobile)): value
            for (path, mobile), value in zip(keys["middle_keys"], middle_values)
        },
    )


# ---------------------------------------------------------------------------
# Partial reports
# ---------------------------------------------------------------------------


def _counter_pairs(counter: Counter) -> list:
    return [[blame.name, count] for blame, count in counter.items()]


def _counter_from_pairs(pairs: list) -> Counter:
    return Counter({Blame[name]: int(count) for name, count in pairs})


def _localized_state(item: LocalizedIssue) -> dict:
    verdict = item.verdict
    return {
        "issue_key": encode_pair_key(item.issue_key),
        "prefix24": item.prefix24,
        "probed_at": item.probed_at,
        "priority": item.priority,
        "category": item.category,
        "verdict": None
        if verdict is None
        else {
            "asn": verdict.asn,
            "delta_ms": verdict.delta_ms,
            "paths_match": verdict.paths_match,
            "baseline_age": verdict.baseline_age,
        },
    }


def _localized_from_state(state: dict) -> LocalizedIssue:
    raw = state["verdict"]
    verdict = (
        None
        if raw is None
        else CulpritVerdict(
            asn=None if raw["asn"] is None else int(raw["asn"]),
            delta_ms=float(raw["delta_ms"]),
            paths_match=bool(raw["paths_match"]),
            baseline_age=int(raw["baseline_age"]),
        )
    )
    return LocalizedIssue(
        issue_key=decode_pair_key(state["issue_key"]),
        prefix24=int(state["prefix24"]),
        probed_at=int(state["probed_at"]),
        priority=float(state["priority"]),
        verdict=verdict,
        category=state["category"],
    )


def report_state_dict(report: PipelineReport) -> dict:
    """Lossless snapshot of a mid-run report (alerts/metrics excluded)."""
    return {
        "start": report.start,
        "end": report.end,
        "total_quartets": report.total_quartets,
        "bad_quartets": report.bad_quartets,
        "blame_counts": _counter_pairs(report.blame_counts),
        "blame_counts_by_day": [
            [day, _counter_pairs(counter)]
            for day, counter in report.blame_counts_by_day.items()
        ],
        "closed_middle": [issue.state_dict() for issue in report.closed_middle],
        "closed_cloud": [issue.state_dict() for issue in report.closed_cloud],
        "closed_client": [issue.state_dict() for issue in report.closed_client],
        "localized": [_localized_state(item) for item in report.localized],
        "probes_on_demand": report.probes_on_demand,
        "probes_background": report.probes_background,
        "probes_churn": report.probes_churn,
        "probes_bootstrap": report.probes_bootstrap,
    }


def report_from_state(state: dict) -> PipelineReport:
    """Inverse of :func:`report_state_dict`."""
    report = PipelineReport(start=int(state["start"]), end=int(state["end"]))
    report.total_quartets = int(state["total_quartets"])
    report.bad_quartets = int(state["bad_quartets"])
    report.blame_counts = _counter_from_pairs(state["blame_counts"])
    report.blame_counts_by_day = {
        int(day): _counter_from_pairs(pairs)
        for day, pairs in state["blame_counts_by_day"]
    }
    report.closed_middle = [
        MiddleIssue.from_state_dict(issue) for issue in state["closed_middle"]
    ]
    report.closed_cloud = [
        SegmentIssue.from_state_dict(issue) for issue in state["closed_cloud"]
    ]
    report.closed_client = [
        SegmentIssue.from_state_dict(issue) for issue in state["closed_client"]
    ]
    report.localized = [
        _localized_from_state(item) for item in state["localized"]
    ]
    report.probes_on_demand = int(state["probes_on_demand"])
    report.probes_background = int(state["probes_background"])
    report.probes_churn = int(state["probes_churn"])
    report.probes_bootstrap = int(state["probes_bootstrap"])
    return report
