"""Deterministic fault plans: what breaks, where, and when.

A :class:`FaultPlan` is a frozen description of injected infrastructure
failures — shard worker crashes, slow shards, dropped/duplicated/
corrupted quartets, probe timeouts and losses, missing or stale
baselines. It is *not* a random process: every decision is a pure hash
of ``(plan seed, fault kind, the thing's identity)``, so

* the same seed produces the same faults, every run, on every machine;
* a decision does not depend on evaluation *order* — the sequential
  pipeline and a sharded run over any worker count inject the same
  faults into the same quartets and probes, keeping their reports
  byte-identical (the equivalence tests assert this);
* with every rate at zero the plan is inert and the instrumented code
  paths are exact no-ops.

The hash is a splitmix64-style mixer over 64-bit lanes; string
identities (location ids) enter via ``zlib.crc32`` — the same stable,
process-independent digest :meth:`BackgroundProber._due` staggers probe
schedules with.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, fields

import numpy as np

__all__ = ["ChaosKill", "ChaosWorkerCrash", "FaultPlan"]

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
#: 2**-53: maps the top 53 hash bits onto [0, 1).
_INV_2_53 = float(np.ldexp(1.0, -53))


def _mix(values: np.ndarray) -> np.ndarray:
    """Splitmix64 finalizer over a uint64 array (wrapping arithmetic)."""
    with np.errstate(over="ignore"):
        x = values + _GAMMA
        x = (x ^ (x >> np.uint64(30))) * _MIX1
        x = (x ^ (x >> np.uint64(27))) * _MIX2
        return x ^ (x >> np.uint64(31))


def _crc(text: str) -> int:
    return zlib.crc32(text.encode("utf-8"))


def uniforms(seed: int, kind: str, *cols: np.ndarray) -> np.ndarray:
    """Per-row uniforms in [0, 1) from a seed, a fault kind, and key columns.

    Every column is folded through the mixer in turn, so any change in
    any key lane produces an unrelated uniform; identical keys always
    produce the identical uniform regardless of their row position.
    """
    n = len(cols[0]) if cols else 1
    root = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
    state = np.full(n, root ^ (np.uint64(_crc(kind)) << np.uint64(32)))
    state = _mix(state)
    for col in cols:
        state = _mix(state ^ np.asarray(col).astype(np.uint64))
    return (state >> np.uint64(11)).astype(np.float64) * _INV_2_53


def uniform(seed: int, kind: str, *keys: int) -> float:
    """Scalar convenience wrapper over :func:`uniforms`."""
    return float(
        uniforms(seed, kind, *(np.array([key], dtype=np.int64) for key in keys))[0]
    )


class ChaosWorkerCrash(RuntimeError):
    """An injected shard-worker crash (picklable across process pools)."""


class ChaosKill(RuntimeError):
    """An injected whole-process kill at a planned bucket.

    Unlike :class:`ChaosWorkerCrash` (which the sharded driver's retry
    absorbs), a kill terminates the run itself — it models the machine
    dying mid-run. Pipelines raise it *after* writing any due checkpoint
    so a warm restart can resume from the kill point.
    """


@dataclass(frozen=True)
class FaultPlan:
    """Seeded, per-fault-kind rates describing what to break.

    All rates are probabilities in [0, 1]; a kind with rate 0 is never
    consulted, so its code path stays an exact no-op.

    Attributes:
        seed: Root of every fault decision.
        shard_crash_rate: Chance a shard's worker raises
            :class:`ChaosWorkerCrash` on a given attempt.
        shard_crash_max: Crash a shard on at most this many attempts —
            ``rate=1.0, max=1`` crashes every shard exactly once and lets
            the retry succeed (the deterministic recovery scenario).
        slow_shard_rate / slow_shard_ms: Chance a shard sleeps for the
            given wall-clock delay before running (exercises stragglers;
            never changes results).
        quartet_drop_rate: Chance a generated quartet is lost before the
            pipeline sees it.
        quartet_duplicate_rate: Chance a quartet is delivered twice
            (the copy lands adjacent to the original).
        quartet_corrupt_rate: Chance a quartet's mean RTT is mangled to a
            non-finite value — the sanitizer must catch and drop it.
        probe_timeout_rate: Chance a traceroute measurement is lost in
            flight (applies per attempt, so retries re-roll).
        probe_retry_attempts: Bounded retries after a timed-out probe.
            On-demand retries consume :class:`~repro.core.active.ProbeBudget`;
            in simulated bucket time the backoff between attempts is
            instantaneous, but each attempt re-rolls its own fate.
        baseline_missing_rate: Chance a target's bootstrap baseline probe
            never happens (the degraded passive/localization mode must
            absorb the hole).
        baseline_stale_rate / baseline_stale_age_buckets: Chance a
            target's bootstrap baseline is measured ``age`` buckets in
            the past instead of fresh.
        drop_expected_table: Start the run with an *empty* expected-RTT
            table — Algorithm 1 must degrade to Insufficient blames
            instead of crashing.
        kill_at_bucket: Raise :class:`ChaosKill` when the run reaches
            this bucket (after any checkpoint due at it is written), so
            the checkpoint/resume path can be exercised. A resumed run
            starting *at* the kill bucket does not re-kill, so
            kill-then-resume with an unchanged plan makes progress.
        window: Optional ``[start, end)`` bucket range outside which
            time-keyed faults (quartets, probes) do not fire; None means
            everywhere.
    """

    seed: int = 0
    shard_crash_rate: float = 0.0
    shard_crash_max: int = 1
    slow_shard_rate: float = 0.0
    slow_shard_ms: float = 1.0
    quartet_drop_rate: float = 0.0
    quartet_duplicate_rate: float = 0.0
    quartet_corrupt_rate: float = 0.0
    probe_timeout_rate: float = 0.0
    probe_retry_attempts: int = 1
    baseline_missing_rate: float = 0.0
    baseline_stale_rate: float = 0.0
    baseline_stale_age_buckets: int = 288
    drop_expected_table: bool = False
    kill_at_bucket: int | None = None
    window: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        for name in (
            "shard_crash_rate", "slow_shard_rate", "quartet_drop_rate",
            "quartet_duplicate_rate", "quartet_corrupt_rate",
            "probe_timeout_rate", "baseline_missing_rate",
            "baseline_stale_rate",
        ):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if self.shard_crash_max < 0:
            raise ValueError("shard_crash_max must be >= 0")
        if self.probe_retry_attempts < 0:
            raise ValueError("probe_retry_attempts must be >= 0")
        if self.slow_shard_ms < 0:
            raise ValueError("slow_shard_ms must be >= 0")
        if self.baseline_stale_age_buckets < 1:
            raise ValueError("baseline_stale_age_buckets must be >= 1")
        if self.kill_at_bucket is not None and self.kill_at_bucket < 0:
            raise ValueError("kill_at_bucket must be >= 0")
        if self.window is not None and self.window[0] >= self.window[1]:
            raise ValueError("window must be a non-empty [start, end) range")

    @classmethod
    def smoke(cls, seed: int = 0) -> "FaultPlan":
        """The documented everything-at-once plan for `diagnose --chaos`.

        Rates are high enough that a short CI run trips every fault kind
        at least a few times, low enough that the pipeline still has
        signal to localize: half the shards crash once (the retry must
        recover them), a quarter straggle, ~4 % of quartets are lost or
        mangled, a fifth of probes time out, and a fifth of baselines
        start missing or stale.
        """
        return cls(
            seed=seed,
            shard_crash_rate=0.5,
            shard_crash_max=1,
            slow_shard_rate=0.25,
            slow_shard_ms=1.0,
            quartet_drop_rate=0.02,
            quartet_duplicate_rate=0.01,
            quartet_corrupt_rate=0.01,
            probe_timeout_rate=0.2,
            probe_retry_attempts=2,
            baseline_missing_rate=0.1,
            baseline_stale_rate=0.1,
        )

    # -- activation ----------------------------------------------------

    @property
    def enabled(self) -> bool:
        """Whether any fault kind can fire at all."""
        if self.drop_expected_table or self.kill_at_bucket is not None:
            return True
        return any(
            getattr(self, f.name) > 0
            for f in fields(self)
            if f.name.endswith("_rate")
        )

    def in_window(self, time: int) -> bool:
        """Whether time-keyed faults may fire at bucket ``time``."""
        return self.window is None or self.window[0] <= time < self.window[1]

    def window_mask(self, times: np.ndarray) -> np.ndarray | bool:
        """Vectorized :meth:`in_window` (True when no window is set)."""
        if self.window is None:
            return True
        return (times >= self.window[0]) & (times < self.window[1])

    # -- shard faults --------------------------------------------------

    def _shard_in_window(self, start: int, end: int) -> bool:
        return self.window is None or (
            start < self.window[1] and end > self.window[0]
        )

    def shard_crashes(self, start: int, end: int, attempt: int) -> bool:
        """Whether the worker for shard ``[start, end)`` crashes now."""
        if self.shard_crash_rate <= 0 or attempt >= self.shard_crash_max:
            return False
        if not self._shard_in_window(start, end):
            return False
        return (
            uniform(self.seed, "shard.crash", start, end, attempt)
            < self.shard_crash_rate
        )

    def shard_delay_ms(self, start: int, end: int) -> float:
        """Injected straggler delay for a shard (0.0 = not slow)."""
        if self.slow_shard_rate <= 0 or not self._shard_in_window(start, end):
            return 0.0
        if uniform(self.seed, "shard.slow", start, end) < self.slow_shard_rate:
            return self.slow_shard_ms
        return 0.0

    # -- quartet faults ------------------------------------------------

    @property
    def touches_quartets(self) -> bool:
        """Whether the generation→passive path has anything to inject."""
        return (
            self.quartet_drop_rate > 0
            or self.quartet_duplicate_rate > 0
            or self.quartet_corrupt_rate > 0
        )

    def quartet_uniforms(
        self,
        kind: str,
        time: np.ndarray,
        prefix24: np.ndarray,
        mobile: np.ndarray,
        location_crc: np.ndarray,
    ) -> np.ndarray:
        """Per-quartet uniforms keyed by the quartet identity 4-tuple.

        ⟨time, /24, mobile, location⟩ is unique within a bucket, so the
        scalar and columnar injectors — and therefore the sequential and
        sharded pipelines — agree on every quartet's fate.
        """
        return uniforms(
            self.seed, kind, time, prefix24,
            np.asarray(mobile).astype(np.int64), location_crc,
        )

    # -- probe faults --------------------------------------------------

    def probe_times_out(
        self, kind: str, location_id: str, prefix24: int, time: int, attempt: int
    ) -> bool:
        """Whether one traceroute attempt's measurement is lost.

        ``kind`` separates the on-demand and background probe streams so
        their fates do not correlate; ``attempt`` gives each retry an
        independent roll.
        """
        if self.probe_timeout_rate <= 0 or not self.in_window(time):
            return False
        return (
            uniform(
                self.seed, kind, _crc(location_id), prefix24, time, attempt
            )
            < self.probe_timeout_rate
        )

    # -- baseline faults -----------------------------------------------

    def baseline_fate(self, location_id: str, prefix24: int) -> str:
        """Bootstrap fate of one target: ``"ok"``, ``"missing"``, or
        ``"stale"``.

        A single roll decides both outcomes (missing wins the low end of
        the interval) so raising one rate never flips targets between
        the other two fates.
        """
        if self.baseline_missing_rate <= 0 and self.baseline_stale_rate <= 0:
            return "ok"
        roll = uniform(self.seed, "baseline.fate", _crc(location_id), prefix24)
        if roll < self.baseline_missing_rate:
            return "missing"
        if roll < self.baseline_missing_rate + self.baseline_stale_rate:
            return "stale"
        return "ok"
