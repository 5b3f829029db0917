"""Predictors powering impact-prioritized probing (§5.3).

Two quantities feed the client-time product of a middle-segment issue:

* **Remaining duration** — from the empirical distribution of historical
  fault durations: given an issue has lasted ``t``, its expected
  additional duration is the mean residual life
  ``E[D - t | D > t] = Σ_T P(T | t) · T``. The long tail (§2.3) means the
  predictor only has to separate the few long-lived issues from the many
  fleeting ones, not be precise.
* **Impacted clients** — predicted from the same 5-minute window of the
  previous days (the paper found same-window-previous-days beats recent
  windows of the same day, and uses the past 3 days).
"""

from __future__ import annotations

from itertools import repeat
from typing import Hashable

import numpy as np

from repro.net.bgp import Timestamp

#: Buckets per day.
_BUCKETS_PER_DAY = 288


class DurationPredictor:
    """Mean-residual-life estimator over historical issue durations.

    Durations are in 5-minute buckets. Per-key (BGP path) histories are
    used when populated; a global pool is the fallback, and a configurable
    prior covers the cold start.
    """

    def __init__(self, min_key_history: int = 5, prior_mean_buckets: float = 3.0) -> None:
        """
        Args:
            min_key_history: Minimum per-key observations before the key's
                own history is trusted over the global pool.
            prior_mean_buckets: Expected duration when no history exists.
        """
        if min_key_history < 1:
            raise ValueError("min_key_history must be >= 1")
        if prior_mean_buckets <= 0:
            raise ValueError("prior_mean_buckets must be positive")
        self.min_key_history = min_key_history
        self.prior_mean_buckets = prior_mean_buckets
        self._global: list[int] = []
        self._by_key: dict[Hashable, list[int]] = {}
        # Sorted-array views per pool, rebuilt only when the pool grew:
        # id(pool) → (length at build, sorted durations, suffix sums).
        # Pool lists live as long as the predictor, so ids are stable.
        self._stats_cache: dict[int, tuple[int, np.ndarray, np.ndarray]] = {}

    def observe(self, duration: int, key: Hashable | None = None) -> None:
        """Record one completed issue's total duration.

        Args:
            duration: Total issue length in buckets (≥ 1).
            key: Optional BGP-path key for per-key history.
        """
        if duration < 1:
            raise ValueError("duration must be >= 1 bucket")
        self._global.append(duration)
        if key is not None:
            self._by_key.setdefault(key, []).append(duration)

    def _pool(self, key: Hashable | None) -> list[int]:
        if key is not None:
            history = self._by_key.get(key, [])
            if len(history) >= self.min_key_history:
                return history
        return self._global

    def _pool_stats(self, pool: list[int]) -> tuple[np.ndarray, np.ndarray]:
        """Sorted durations and suffix sums for a pool (cached).

        ``suffix[i]`` is the sum of ``sorted[i:]``, so the mean residual
        life reduces to ``searchsorted`` instead of an O(n) scan per call.
        Integer sums are order-independent and exact in int64, which is
        why the fast path returns the same floats as a list scan.
        """
        cached = self._stats_cache.get(id(pool))
        if cached is not None and cached[0] == len(pool):
            return cached[1], cached[2]
        durations = np.sort(np.asarray(pool, dtype=np.int64))
        suffix = np.zeros(len(durations) + 1, dtype=np.int64)
        if len(durations):
            suffix[:-1] = np.cumsum(durations[::-1])[::-1]
        self._stats_cache[id(pool)] = (len(pool), durations, suffix)
        return durations, suffix

    def expected_remaining(self, elapsed: int, key: Hashable | None = None) -> float:
        """Expected additional duration given the issue has lasted ``elapsed``.

        Returns the empirical mean residual life, or the prior when no
        historical duration exceeds ``elapsed``.
        """
        if elapsed < 0:
            raise ValueError("elapsed must be non-negative")
        durations, suffix = self._pool_stats(self._pool(key))
        idx = int(np.searchsorted(durations, elapsed, side="right"))
        alive = len(durations) - idx
        if alive == 0:
            return self.prior_mean_buckets
        return int(suffix[idx]) / alive - elapsed

    def state_dict(self, encode_key=None) -> dict:
        """JSON-safe snapshot of the duration histories.

        Args:
            encode_key: Maps each per-key pool's key to a JSON value
                (keys are opaque hashables here; the pipeline uses
                ⟨location, AS path⟩ pairs). Identity when None.
        """
        encode = encode_key or (lambda key: key)
        return {
            "global": list(self._global),
            "by_key": [
                [encode(key), list(history)]
                for key, history in self._by_key.items()
            ],
        }

    def load_state_dict(self, state: dict, decode_key=None) -> None:
        """Inverse of :meth:`state_dict`; replaces all current history.

        The stats cache is id-keyed on the pool lists and must start
        empty — restored lists have fresh identities.
        """
        decode = decode_key or (lambda key: key)
        self._global = [int(d) for d in state["global"]]
        self._by_key = {
            decode(encoded): [int(d) for d in history]
            for encoded, history in state["by_key"]
        }
        self._stats_cache = {}


class ClientCountPredictor:
    """Predicts active clients on a BGP path from same-window history.

    The paper: "we use the average number of clients that connected via
    the same middle BGP-path in the same time window in the past 3 days."
    """

    def __init__(self, history_days: int = 3) -> None:
        if history_days < 1:
            raise ValueError("history_days must be >= 1")
        self.history_days = history_days
        # Bucket → that bucket's per-key counts. Bulk observes store the
        # caller's (keys, counts) column pair as-is — O(1) per bucket —
        # and the first predict against the bucket materializes a dict
        # in place. Most buckets are never queried (only issue windows
        # look back), so most never pay for a dict at all.
        self._buckets: dict[Timestamp, dict | tuple[list, list]] = {}
        self._recent: dict[Hashable, tuple[Timestamp, int]] = {}
        self._evicted_before_day: int | None = None

    def _advance_day(self, time: Timestamp) -> None:
        """Lazy eviction hook: fires when the observed day advances."""
        day = time // _BUCKETS_PER_DAY
        if self._evicted_before_day is None:
            self._evicted_before_day = day
        elif day > self._evicted_before_day:
            self._evict(day)
            self._evicted_before_day = day

    def observe(self, key: Hashable, time: Timestamp, clients: int) -> None:
        """Record the active-client count of a path in one bucket.

        Entries too old to ever be read again are evicted lazily when the
        observed day advances, bounding the history to
        O(keys × history_days) instead of the full horizon.
        """
        if clients < 0:
            raise ValueError("clients must be non-negative")
        self._advance_day(time)
        self._bucket_dict(time)[key] = clients
        self._recent[key] = (time, clients)

    def observe_bucket(
        self, keys: list[Hashable], time: Timestamp, counts: list[int]
    ) -> None:
        """Record many paths' counts for one bucket in one call.

        State-identical to calling :meth:`observe` per pair (same bucket
        → the eviction check fires at most once either way; duplicate
        keys resolve last-wins in both). The caller's lists are stored
        by reference and must not be mutated afterwards — the columnar
        pipelines build them fresh per bucket. An empty batch is a
        no-op, like zero :meth:`observe` calls. The recent map is
        updated at C level: no Python code runs per key.
        """
        if not keys:
            return
        if min(counts) < 0:
            raise ValueError("clients must be non-negative")
        self._advance_day(time)
        existing = self._buckets.get(time)
        if existing is None:
            self._buckets[time] = (keys, counts)
        else:
            self._bucket_dict(time).update(zip(keys, counts))
        self._recent.update(zip(keys, zip(repeat(time), counts)))

    def _bucket_dict(self, time: Timestamp) -> dict:
        """The bucket's per-key dict, materializing stored columns."""
        bucket = self._buckets.get(time)
        if type(bucket) is not dict:
            bucket = dict(zip(*bucket)) if bucket is not None else {}
            self._buckets[time] = bucket
        return bucket

    def _evict(self, day: int) -> None:
        """Drop buckets no in-order query can reach anymore.

        ``predict(key, t)`` reads buckets back to
        ``t - history_days * _BUCKETS_PER_DAY``; for queries at or after
        day ``day`` (observations arrive in time order, and predictions
        are issued for the current window), anything more than
        ``history_days + 1`` days behind is unreadable. The extra day of
        slack tolerates predictions slightly behind the newest
        observation. ``_recent`` is left alone — it is O(keys) and backs
        the last-resort fallback.
        """
        horizon = (day - self.history_days - 1) * _BUCKETS_PER_DAY
        if horizon <= 0:
            return
        stale = [bucket for bucket in self._buckets if bucket < horizon]
        for bucket in stale:
            del self._buckets[bucket]

    def predict(self, key: Hashable, time: Timestamp) -> float:
        """Expected active clients for ``key`` in bucket ``time``.

        Average of the same bucket-of-day over the past ``history_days``
        days; falls back to the most recent observation for the key, then
        to zero (an unseen path has no predictable clients).
        """
        history = []
        for day in range(1, self.history_days + 1):
            past = time - day * _BUCKETS_PER_DAY
            if past in self._buckets:
                count = self._bucket_dict(past).get(key)
                if count is not None:
                    history.append(count)
        if history:
            return sum(history) / len(history)
        recent = self._recent.get(key)
        if recent is not None:
            return float(recent[1])
        return 0.0

    def state_dict(self, encode_key=None) -> dict:
        """JSON-safe snapshot of the client-count history.

        Stored column pairs serialize through the same dict view a
        prediction would materialize — semantically identical (buckets
        are only ever read through their dict), without mutating the
        live buckets.
        """
        encode = encode_key or (lambda key: key)
        buckets = []
        for time, bucket in self._buckets.items():
            if type(bucket) is not dict:
                bucket = dict(zip(*bucket))
            buckets.append(
                [time, [[encode(key), count] for key, count in bucket.items()]]
            )
        return {
            "buckets": buckets,
            "recent": [
                [encode(key), time, count]
                for key, (time, count) in self._recent.items()
            ],
            "evicted_before_day": self._evicted_before_day,
        }

    def load_state_dict(self, state: dict, decode_key=None) -> None:
        """Inverse of :meth:`state_dict`; replaces all current history."""
        decode = decode_key or (lambda key: key)
        self._buckets = {
            int(time): {decode(key): int(count) for key, count in pairs}
            for time, pairs in state["buckets"]
        }
        self._recent = {
            decode(key): (int(time), int(count))
            for key, time, count in state["recent"]
        }
        evicted = state["evicted_before_day"]
        self._evicted_before_day = None if evicted is None else int(evicted)
