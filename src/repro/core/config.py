"""Configuration for the BlameIt pipeline, with the paper's defaults."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class BlameItConfig:
    """Tunables of the two-phase localizer.

    Defaults follow the deployed values reported in the paper.

    Attributes:
        tau: Bad-fraction threshold for blaming an aggregate (§4.2 uses
            τ = 0.8; with medians as expected RTTs this tests a 30 %
            leftward distribution shift).
        min_aggregate_quartets: Minimum quartets at a cloud location or
            BGP path before its bad-fraction is trusted (Algorithm 1 uses
            5).
        min_quartet_samples: Minimum RTT samples inside a quartet (§2.1
            uses 10).
        history_days: Days of history for expected-RTT medians (§4.3 uses
            14).
        client_history_days: Days of history for the active-client
            predictor (§5.3 uses 3).
        run_interval_buckets: Cadence of the passive job in 5-minute
            buckets (§6.1: every 15 minutes → 3 buckets).
        probe_budget_per_window: On-demand traceroutes allowed per cloud
            location per run interval (§5.3's "budget").
        background_interval_buckets: Buckets between periodic background
            traceroutes of each ⟨location, BGP path⟩ (§5.4: twice a day →
            every 144 buckets).
        churn_triggered_probes: Whether BGP churn triggers background
            traceroutes (§5.4; Figure 13 ablates this off).
        use_reverse_traceroutes: Enable the §5.1 reverse-traceroute
            extension: rich clients measure the client-to-cloud path and
            localization compares both directions (off in the paper's
            deployed system; proposed as future work).
        probe_planner: How the on-demand prober spends its budget (see
            :mod:`repro.core.probeplan`): ``"paper"`` (§5.3
            impact-ranked, the default), ``"naive"`` (key order, no
            ranking — the ablation baseline), or ``"clustered"`` (the
            Less-is-More planner: targets whose anomalies co-occur are
            clustered, one representative probed per cluster, the
            verdict attributed back to all members).
        probe_cluster_floor: Minimum co-anomaly similarity (Jaccard over
            recent windows, in [0, 1]) for two targets to share a
            cluster. Values above 1.0 disable clustering exactly — the
            clustered planner then reproduces the paper planner
            byte-for-byte.
        probe_history_windows: Ring size of the co-anomaly history: how
            many recent non-empty anomaly windows similarity is computed
            over (bounded memory for year-scale runs).
    """

    tau: float = 0.8
    min_aggregate_quartets: int = 5
    min_quartet_samples: int = 10
    history_days: int = 14
    client_history_days: int = 3
    run_interval_buckets: int = 3
    probe_budget_per_window: int = 5
    background_interval_buckets: int = 144
    churn_triggered_probes: bool = True
    use_reverse_traceroutes: bool = False
    probe_planner: str = "paper"
    probe_cluster_floor: float = 0.6
    probe_history_windows: int = 48

    def __post_init__(self) -> None:
        if not 0.0 < self.tau <= 1.0:
            raise ValueError(f"tau must be in (0, 1], got {self.tau}")
        if self.min_aggregate_quartets < 1:
            raise ValueError("min_aggregate_quartets must be >= 1")
        if self.min_quartet_samples < 1:
            raise ValueError("min_quartet_samples must be >= 1")
        if self.history_days < 1:
            raise ValueError("history_days must be >= 1")
        if self.run_interval_buckets < 1:
            raise ValueError("run_interval_buckets must be >= 1")
        if self.probe_budget_per_window < 0:
            raise ValueError("probe_budget_per_window must be >= 0")
        if self.background_interval_buckets < 1:
            raise ValueError("background_interval_buckets must be >= 1")
        if self.probe_planner not in ("naive", "paper", "clustered"):
            raise ValueError(
                "probe_planner must be one of 'naive', 'paper', "
                f"'clustered', got {self.probe_planner!r}"
            )
        if self.probe_cluster_floor <= 0.0:
            raise ValueError(
                f"probe_cluster_floor must be > 0, got {self.probe_cluster_floor}"
            )
        if self.probe_history_windows < 1:
            raise ValueError("probe_history_windows must be >= 1")
