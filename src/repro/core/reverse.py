"""Reverse-traceroute extension: rich clients probe the client-to-cloud path.

§5.1: "Due to routing asymmetries, the 'forward' (cloud-to-client) and
'reverse' (client-to-cloud) Internet paths can be different. Our current
solution only uses traceroutes issued from the cloud locations … but we
believe reverse traceroute techniques can be incorporated into BlameIt's
active phase. Azure already has many users with rich clients that can be
coordinated to issue traceroutes to measure the client-to-cloud paths."

This module implements that proposal. A fault on a reverse-only AS still
inflates the handshake RTT, but a forward traceroute sees the whole
increase appear at its first middle hop and misattributes it. Comparing
*both* directions disambiguates: the genuine culprit concentrates the
increase at its own hop in its own direction, while the other direction
shows only an undifferentiated first-hop spillover.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cloud.traceroute import TracerouteResult
from repro.core.localize import DEFAULT_MIN_DELTA_MS, CulpritVerdict, localize_culprit


@dataclass(frozen=True, slots=True)
class BidirectionalVerdict:
    """Outcome of a two-direction comparison.

    Attributes:
        verdict: The chosen verdict.
        direction: ``"forward"`` or ``"reverse"`` — which measurement the
            verdict came from.
        forward: The forward-only verdict (what plain BlameIt would say).
        reverse: The reverse verdict, when both directions were measured.
    """

    verdict: CulpritVerdict
    direction: str
    forward: CulpritVerdict
    reverse: CulpritVerdict | None


def _delta_at(
    baseline: TracerouteResult, current: TracerouteResult, asn: int
) -> float | None:
    """The candidate AS's contribution increase on this direction.

    None when the AS is absent from either measurement's path (the
    direction cannot confirm or refute the hypothesis).
    """
    before = baseline.contribution_ms()
    after = current.contribution_ms()
    if asn not in before or asn not in after:
        return None
    return after[asn] - before[asn]


def localize_bidirectional(
    forward_baseline: TracerouteResult,
    forward_current: TracerouteResult,
    reverse_baseline: TracerouteResult | None,
    reverse_current: TracerouteResult | None,
    min_delta_ms: float = DEFAULT_MIN_DELTA_MS,
) -> BidirectionalVerdict:
    """Name the culprit AS using both directions when available.

    Decision rule — *cross-direction refutation*: each direction's
    verdict is a hypothesis. If the blamed AS also lies on the other
    direction's path, a genuine fault inside it must show an increase
    there too; a flat contribution on the other direction refutes the
    hypothesis (it was spillover, not the fault). When exactly one
    hypothesis survives refutation it wins; otherwise the larger
    contribution increase wins, with the forward direction preferred on
    ties (it is the deployed measurement and does not depend on client
    cooperation).

    Args:
        forward_baseline, forward_current: Cloud-issued traceroutes.
        reverse_baseline, reverse_current: Rich-client traceroutes; pass
            None when unavailable (falls back to forward-only).
        min_delta_ms: Noise floor for either direction.
    """
    forward = localize_culprit(forward_baseline, forward_current, min_delta_ms)
    if reverse_baseline is None or reverse_current is None:
        return BidirectionalVerdict(
            verdict=forward, direction="forward", forward=forward, reverse=None
        )
    reverse = localize_culprit(reverse_baseline, reverse_current, min_delta_ms)

    def refuted_by_other(verdict: CulpritVerdict, other_pair) -> bool:
        if verdict.asn is None:
            return True
        cross = _delta_at(other_pair[0], other_pair[1], verdict.asn)
        return cross is not None and cross < min_delta_ms

    forward_refuted = refuted_by_other(
        forward, (reverse_baseline, reverse_current)
    )
    reverse_refuted = refuted_by_other(
        reverse, (forward_baseline, forward_current)
    )
    if forward.asn is None and reverse.asn is None:
        chosen, direction = forward, "forward"
    elif forward_refuted and not reverse_refuted:
        chosen, direction = reverse, "reverse"
    elif reverse_refuted and not forward_refuted:
        chosen, direction = forward, "forward"
    elif reverse.delta_ms > forward.delta_ms and reverse.asn is not None:
        chosen, direction = reverse, "reverse"
    else:
        chosen, direction = forward, "forward"
    return BidirectionalVerdict(
        verdict=chosen, direction=direction, forward=forward, reverse=reverse
    )
