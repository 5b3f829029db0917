"""Impact-prioritized alerts and ticket routing (§6.1).

BlameIt's outputs feed operators, not dashboards: issues are ranked by
business impact, the top few become tickets, and the coarse segmentation
routes each ticket to the right team — server/cloud issues to the
infrastructure team, middle issues to the peering/networking team, client
issues (which the cloud cannot fix) are recorded but deprioritized.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.core.blame import Blame
from repro.net.asn import ASPath
from repro.net.bgp import Timestamp


class Team(enum.Enum):
    """Ticket routing destinations."""

    CLOUD_INFRA = "cloud-infrastructure"
    NETWORKING = "networking-peering"
    CLIENT_COMMS = "client-communications"

    def __str__(self) -> str:
        return self.value


_ROUTING = {
    Blame.CLOUD: Team.CLOUD_INFRA,
    Blame.MIDDLE: Team.NETWORKING,
    Blame.CLIENT: Team.CLIENT_COMMS,
}


@dataclass(frozen=True, slots=True)
class Alert:
    """One ticket for investigation.

    Attributes:
        blame: Coarse segment category.
        location_id: Affected cloud location.
        middle: Middle path for middle issues (empty otherwise).
        culprit_asn: The specific blamed AS when known (always for
            cloud/client blames; from the active phase for middle).
        first_seen: Issue onset bucket.
        duration: Observed duration in buckets.
        impact: Measured client-time product.
        confidence: Fraction of the window's blamed quartets agreeing
            with this category (the §6.3 Italy case reports 93 %).
        detail: Human-readable summary.
    """

    blame: Blame
    location_id: str
    middle: ASPath
    culprit_asn: int | None
    first_seen: Timestamp
    duration: int
    impact: float
    confidence: float
    detail: str

    @property
    def team(self) -> Team | None:
        """Where the ticket is routed; None for non-actionable blames."""
        return _ROUTING.get(self.blame)


class AlertManager:
    """Collects candidate alerts and emits the top-k by impact."""

    def __init__(self, top_k: int = 10) -> None:
        if top_k < 1:
            raise ValueError("top_k must be >= 1")
        self.top_k = top_k
        self._alerts: list[Alert] = []

    def add(self, alert: Alert) -> None:
        """Queue a candidate alert."""
        self._alerts.append(alert)

    def tickets(self) -> list[Alert]:
        """The top-k alerts by impact, ties broken by onset time."""
        ranked = sorted(
            self._alerts, key=lambda a: (-a.impact, a.first_seen, a.location_id)
        )
        return ranked[: self.top_k]
