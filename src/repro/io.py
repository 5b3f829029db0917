"""JSON serialization for scenario specs and pipeline reports.

Worlds are fully determined by their :class:`ScenarioParams` (seeded
generation), so a *scenario spec* — params + explicit faults + reroutes —
round-trips losslessly through JSON and reproduces bit-identical worlds
on any machine. Reports serialize to a summary document suitable for
archiving a diagnosis run next to an incident ticket.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
from typing import Any

from repro.core.pipeline import PipelineReport
from repro.net.addressing import BGPPrefix
from repro.net.geo import Region
from repro.sim.faults import Direction, Fault, FaultRates, FaultTarget, SegmentKind
from repro.cloud.anycast import RingFlap
from repro.sim.scenario import (
    DemandSurge,
    RerouteEvent,
    Scenario,
    ScenarioParams,
    build_world,
)

_FORMAT_VERSION = 1


# ---------------------------------------------------------------------------
# Scenario specs
# ---------------------------------------------------------------------------


def params_to_dict(params: ScenarioParams) -> dict[str, Any]:
    """ScenarioParams → plain JSON-compatible dict."""
    data = dataclasses.asdict(params)
    data["regions"] = [region.name for region in params.regions]
    data["topology"] = dataclasses.asdict(params.topology)
    data["topology"]["regions"] = [r.name for r in params.topology.regions]
    data["fault_rates"] = dataclasses.asdict(params.fault_rates)
    return data


def _section(cls: type, data: Any, section: str) -> dict[str, Any]:
    """Keyword arguments for ``cls`` from one spec section.

    JSON lists become tuples (``regions`` lists become :class:`Region`
    tuples). A field the section omits takes ``cls``'s default.

    Raises:
        ValueError: If the section is not an object, names a field ``cls``
            does not have, or omits one without a default. The message
            names the section and the field.
    """
    if not isinstance(data, dict):
        raise ValueError(f"scenario spec: {section} must be an object")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    for name in data:
        if name not in fields:
            raise ValueError(f"scenario spec: unknown field {section}.{name}")
    for name, f in fields.items():
        required = f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
        if required and name not in data:
            raise ValueError(f"scenario spec: missing field {section}.{name}")
    kwargs = {}
    for name, value in data.items():
        if isinstance(value, list):
            value = tuple(Region[v] for v in value) if name == "regions" else tuple(value)
        kwargs[name] = value
    return kwargs


def params_from_dict(data: dict[str, Any]) -> ScenarioParams:
    """Inverse of :func:`params_to_dict`.

    Raises:
        ValueError: Naming the section and field of an unknown or missing
            field (see :func:`_section`).
    """
    from repro.cloud.clients import PopulationParams
    from repro.net.latency import LatencyParams
    from repro.net.topology import TopologyParams
    from repro.sim.workload import WorkloadParams

    payload = _section(ScenarioParams, data, "params")
    nested = {
        "topology": TopologyParams,
        "population": PopulationParams,
        "latency": LatencyParams,
        "workload": WorkloadParams,
        "fault_rates": FaultRates,
    }
    for name, cls in nested.items():
        if name in payload:
            payload[name] = cls(**_section(cls, payload[name], f"params.{name}"))
    return ScenarioParams(**payload)


def _fault_to_dict(fault: Fault) -> dict[str, Any]:
    target = fault.target
    return {
        "fault_id": fault.fault_id,
        "kind": target.kind.name,
        "location_id": target.location_id,
        "asn": target.asn,
        "path_scope": list(target.path_scope) if target.path_scope else None,
        "prefixes": sorted(target.prefixes) if target.prefixes else None,
        "affected_fraction": target.affected_fraction,
        "direction": target.direction.name,
        "start": fault.start,
        "duration": fault.duration,
        "added_ms": fault.added_ms,
    }


def _fault_from_dict(data: dict[str, Any]) -> Fault:
    target = FaultTarget(
        kind=SegmentKind[data["kind"]],
        location_id=data["location_id"],
        asn=data["asn"],
        path_scope=tuple(data["path_scope"]) if data["path_scope"] else None,
        prefixes=frozenset(data["prefixes"]) if data["prefixes"] else None,
        affected_fraction=data["affected_fraction"],
        direction=Direction[data["direction"]],
    )
    return Fault(
        fault_id=data["fault_id"],
        target=target,
        start=data["start"],
        duration=data["duration"],
        added_ms=data["added_ms"],
    )


def _reroute_to_dict(event: RerouteEvent) -> dict[str, Any]:
    return {
        "time": event.time,
        "location_id": event.location_id,
        "announcement": {
            "network": event.announcement.network,
            "length": event.announcement.length,
        },
        "new_path": list(event.new_path) if event.new_path else None,
    }


def _reroute_from_dict(data: dict[str, Any]) -> RerouteEvent:
    return RerouteEvent(
        time=data["time"],
        location_id=data["location_id"],
        announcement=BGPPrefix(
            network=data["announcement"]["network"],
            length=data["announcement"]["length"],
        ),
        new_path=tuple(data["new_path"]) if data["new_path"] else None,
    )


def _surge_to_dict(surge: DemandSurge) -> dict[str, Any]:
    return dataclasses.asdict(surge)


def _flap_to_dict(flap: RingFlap) -> dict[str, Any]:
    return dataclasses.asdict(flap)


def scenario_to_dict(scenario: Scenario) -> dict[str, Any]:
    """Scenario → reproducible JSON spec (params + faults + churn).

    ``surges`` / ``ring_flaps`` are emitted only when present, so specs
    written before those fields existed stay byte-identical.
    """
    data: dict[str, Any] = {
        "format_version": _FORMAT_VERSION,
        "params": params_to_dict(scenario.params),
        "faults": [_fault_to_dict(f) for f in scenario.faults],
        "reroutes": [_reroute_to_dict(r) for r in scenario.reroutes],
    }
    if scenario.surges:
        data["surges"] = [_surge_to_dict(s) for s in scenario.surges]
    if scenario.ring_flaps:
        data["ring_flaps"] = [_flap_to_dict(f) for f in scenario.ring_flaps]
    return data


def scenario_from_dict(data: dict[str, Any]) -> Scenario:
    """Rebuild a scenario (and its world) from a JSON spec."""
    version = data.get("format_version")
    if version != _FORMAT_VERSION:
        raise ValueError(f"unsupported scenario format version: {version!r}")
    params = params_from_dict(data["params"])
    world = build_world(params)
    faults = tuple(_fault_from_dict(f) for f in data["faults"])
    reroutes = tuple(_reroute_from_dict(r) for r in data["reroutes"])
    surges = tuple(
        DemandSurge(**_section(DemandSurge, s, f"surges[{i}]"))
        for i, s in enumerate(data.get("surges", ()))
    )
    flaps = tuple(
        RingFlap(**_section(RingFlap, f, f"ring_flaps[{i}]"))
        for i, f in enumerate(data.get("ring_flaps", ()))
    )
    return Scenario(world, faults, reroutes, surges=surges, ring_flaps=flaps)


def save_scenario(scenario: Scenario, path: str | pathlib.Path) -> None:
    """Write a scenario spec as JSON."""
    pathlib.Path(path).write_text(
        json.dumps(scenario_to_dict(scenario), indent=2), encoding="utf-8"
    )


def load_scenario(path: str | pathlib.Path) -> Scenario:
    """Read a scenario spec and rebuild the identical scenario."""
    return scenario_from_dict(
        json.loads(pathlib.Path(path).read_text(encoding="utf-8"))
    )


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def report_to_dict(report: PipelineReport) -> dict[str, Any]:
    """PipelineReport → archival JSON summary.

    The summary is lossy on purpose (issues and verdicts are flattened
    for archiving); :func:`report_from_dict` loads it back as a
    :class:`ReportSummary`, not a live :class:`PipelineReport` — mid-run
    pipeline state round-trips through :mod:`repro.store` instead.
    """
    return {
        "format_version": _FORMAT_VERSION,
        "window": [report.start, report.end],
        "total_quartets": report.total_quartets,
        "bad_quartets": report.bad_quartets,
        "blame_counts": {
            str(blame): count for blame, count in report.blame_counts.items()
        },
        "probes": {
            "on_demand": report.probes_on_demand,
            "background": report.probes_background,
            "churn_triggered": report.probes_churn,
            "bootstrap": report.probes_bootstrap,
        },
        "middle_issues": [
            {
                "location_id": issue.location_id,
                "middle": list(issue.middle),
                "first_seen": issue.first_seen,
                "duration": issue.duration,
                "affected_prefixes": len(issue.prefixes),
                "client_time": issue.total_client_time,
            }
            for issue in report.closed_middle
        ],
        "verdicts": [
            {
                "location_id": item.issue_key[0],
                "middle": list(item.issue_key[1]),
                "category": item.category,
                "probed_at": item.probed_at,
                "culprit_asn": item.verdict.asn if item.verdict else None,
                "delta_ms": item.verdict.delta_ms if item.verdict else None,
            }
            for item in report.localized
        ],
        "alerts": [
            {
                "blame": str(alert.blame),
                "team": str(alert.team) if alert.team else None,
                "location_id": alert.location_id,
                "culprit_asn": alert.culprit_asn,
                "impact": alert.impact,
                "duration": alert.duration,
                "detail": alert.detail,
            }
            for alert in report.alerts
        ],
        "metrics": report.metrics,
    }


def save_report(report: PipelineReport, path: str | pathlib.Path) -> None:
    """Write a report summary as JSON."""
    pathlib.Path(path).write_text(
        json.dumps(report_to_dict(report), indent=2), encoding="utf-8"
    )


@dataclasses.dataclass(frozen=True)
class ReportSummary:
    """A loaded report document (see :func:`report_from_dict`).

    Mirrors :func:`report_to_dict`'s layout field for field; sequences
    come back as tuples of plain dicts. ``to_dict`` is the exact
    inverse, so ``report_from_dict(d).to_dict() == d`` for any document
    this module wrote.
    """

    format_version: int
    window: tuple[int, int]
    total_quartets: int
    bad_quartets: int
    blame_counts: dict[str, int]
    probes: dict[str, int]
    middle_issues: tuple[dict[str, Any], ...]
    verdicts: tuple[dict[str, Any], ...]
    alerts: tuple[dict[str, Any], ...]
    metrics: dict | None

    def to_dict(self) -> dict[str, Any]:
        """Back to the :func:`report_to_dict` document layout."""
        return {
            "format_version": self.format_version,
            "window": list(self.window),
            "total_quartets": self.total_quartets,
            "bad_quartets": self.bad_quartets,
            "blame_counts": dict(self.blame_counts),
            "probes": dict(self.probes),
            "middle_issues": [dict(issue) for issue in self.middle_issues],
            "verdicts": [dict(verdict) for verdict in self.verdicts],
            "alerts": [dict(alert) for alert in self.alerts],
            "metrics": self.metrics,
        }


def report_from_dict(data: dict[str, Any]) -> ReportSummary:
    """Load a report document written by :func:`report_to_dict`.

    Rejects documents from other format generations (or documents that
    are not report summaries at all) with :class:`ValueError`.
    """
    version = data.get("format_version")
    if version != _FORMAT_VERSION:
        raise ValueError(f"unsupported report format version: {version!r}")
    try:
        return ReportSummary(
            format_version=int(version),
            window=(int(data["window"][0]), int(data["window"][1])),
            total_quartets=int(data["total_quartets"]),
            bad_quartets=int(data["bad_quartets"]),
            blame_counts=dict(data["blame_counts"]),
            probes=dict(data["probes"]),
            middle_issues=tuple(dict(i) for i in data["middle_issues"]),
            verdicts=tuple(dict(v) for v in data["verdicts"]),
            alerts=tuple(dict(a) for a in data["alerts"]),
            metrics=data["metrics"],
        )
    except (KeyError, TypeError, IndexError) as exc:
        raise ValueError(f"malformed report document: {exc}") from exc


def load_report(path: str | pathlib.Path) -> ReportSummary:
    """Read a saved report summary back."""
    return report_from_dict(
        json.loads(pathlib.Path(path).read_text(encoding="utf-8"))
    )
