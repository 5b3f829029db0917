"""Algorithm 1: coarse-grained fault localization from passive RTTs.

Hierarchical elimination over the three-way path segmentation:

1. *Cloud*: if ≥ τ of the IP-/24s connecting to a cloud location see RTTs
   above the location's learned expected RTT, blame the cloud (Insight-2:
   a small failure set is likelier than many independent ones).
2. *Middle*: otherwise, if ≥ τ of the quartets sharing the bad quartet's
   BGP path are above that path's expected RTT, blame the middle segment.
3. *Client*: otherwise blame the client — unless the same /24 saw good
   RTT to a different cloud location in the same window, which makes the
   evidence contradictory ("ambiguous").

At each aggregate step, fewer than ``min_aggregate_quartets`` quartets
yields "insufficient" (exactly the minimum is enough — the comparison is
strictly *fewer than*, per §4.2). Bad-fractions are deliberately
*unweighted* by sample counts so a few high-volume healthy /24s cannot
mask widespread badness (§4.2).

Comparison convention: a measurement is **bad when it is at or above its
reference** (``>=``) — both for the region badness target (``is_bad``)
and for the learned expected RTTs the aggregate bad-fractions are
computed against. A quartet sitting exactly on the threshold counts as
bad; "good elsewhere" requires being strictly *below* the target.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cloud.locations import RTTTargets
from repro.core.blame import BLAME_BY_CODE, Blame, BlameResult, BlameResultBatch
from repro.core.config import BlameItConfig
from repro.core.quartet import Quartet, QuartetBatch
from repro.core.thresholds import ExpectedRTTTable
from repro.net.asn import ASPath
from repro.obs import NULL_REGISTRY, MetricsRegistry


def _nan_if_none(value: float | None) -> float:
    """Encode an unknown expected RTT as NaN for the vectorized path."""
    return float("nan") if value is None else value


#: Stand-in when no expected-RTT table is available (degraded mode): every
#: lookup misses, so Algorithm 1 yields Insufficient for every bad quartet
#: instead of crashing on the absent table.
_EMPTY_TABLE = ExpectedRTTTable()


@dataclass
class _AggregateStats:
    """Counts for one aggregate (a cloud location or a BGP path)."""

    total: int = 0
    bad: int = 0
    judged: int = 0  # quartets with a known expected RTT

    @property
    def bad_fraction(self) -> float | None:
        """Fraction of judged quartets above expected RTT, None if none."""
        if self.judged == 0:
            return None
        return self.bad / self.judged


class PassiveLocalizer:
    """Runs Algorithm 1 over the quartets of 5-minute buckets.

    :meth:`assign_batch` (NumPy over a columnar batch) is what the
    pipeline runs; :meth:`assign` (a loop over :class:`Quartet` records)
    is the executable specification the tests hold it identical to.
    """

    def __init__(
        self,
        config: BlameItConfig,
        targets: RTTTargets,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.config = config
        self.targets = targets
        self.metrics = metrics or NULL_REGISTRY
        # Vocab-derived array caches for the vectorized path, keyed on
        # object identity. Values keep strong references to their key
        # objects so ids cannot be recycled while an entry is live; the
        # generator's vocab tuples are identity-stable across buckets, so
        # in steady state these rebuild only when the table rolls over.
        self._target_cache: dict[int, tuple[object, np.ndarray, np.ndarray]] = {}
        self._expected_cache: dict[
            tuple[int, int, str], tuple[object, object, np.ndarray, np.ndarray]
        ] = {}

    def _effective_table(self, table: ExpectedRTTTable | None) -> ExpectedRTTTable:
        """Harden against a missing table: degrade instead of raising."""
        if table is None:
            self.metrics.counter("passive.degraded_no_table").inc()
            return _EMPTY_TABLE
        return table

    def _count_results(self, gated_out: int, results: list[BlameResult]) -> None:
        """Record the sample gate and the blame mix for one bucket."""
        metrics = self.metrics
        metrics.counter("passive.gated_out").inc(gated_out)
        metrics.counter("passive.bad").inc(len(results))
        for result in results:
            metrics.counter(f"passive.blame.{result.blame.value}").inc()

    def _count_blames(self, gated_out: int, blames: BlameResultBatch) -> None:
        """Columnar twin of :meth:`_count_results` (same counter values)."""
        metrics = self.metrics
        metrics.counter("passive.gated_out").inc(gated_out)
        metrics.counter("passive.bad").inc(len(blames))
        if len(blames):
            counts = np.bincount(blames.code, minlength=len(BLAME_BY_CODE))
            for c, count in enumerate(counts.tolist()):
                if count:
                    metrics.counter(
                        f"passive.blame.{BLAME_BY_CODE[c].value}"
                    ).inc(count)

    # -- identity-keyed vocab-array caches -------------------------------

    def _region_targets(
        self, regions: tuple
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-region badness targets (fixed, mobile), cached by vocab."""
        entry = self._target_cache.get(id(regions))
        if entry is None or entry[0] is not regions:
            fixed = np.array([self.targets.target_ms(r, False) for r in regions])
            mobile = np.array([self.targets.target_ms(r, True) for r in regions])
            if len(self._target_cache) > 64:
                self._target_cache.clear()
            entry = (regions, fixed, mobile)
            self._target_cache[id(regions)] = entry
        return entry[1], entry[2]

    def _expected_arrays(
        self, table: ExpectedRTTTable, vocab: tuple, lookup, kind: str
    ) -> tuple[np.ndarray, np.ndarray]:
        """Expected RTT per vocab entry (fixed, mobile); NaN = unknown.

        Cached per (table, vocab) identity pair: tables are immutable
        once built and the generator's vocab tuples are identity-stable,
        so a steady-state bucket reuses the arrays instead of doing two
        dict lookups per vocab entry per bucket.
        """
        cache_key = (id(table), id(vocab), kind)
        entry = self._expected_cache.get(cache_key)
        if entry is None or entry[0] is not table or entry[1] is not vocab:
            fixed = np.array([_nan_if_none(lookup(key, False)) for key in vocab])
            mobile = np.array([_nan_if_none(lookup(key, True)) for key in vocab])
            if len(self._expected_cache) > 128:
                self._expected_cache.clear()
            entry = (table, vocab, fixed, mobile)
            self._expected_cache[cache_key] = entry
        return entry[2], entry[3]

    # -- public API -----------------------------------------------------

    def assign(
        self, quartets: list[Quartet], table: ExpectedRTTTable | None
    ) -> list[BlameResult]:
        """Blame every bad quartet in a single 5-minute bucket (the
        scalar reference).

        Args:
            quartets: All quartets of the bucket (good and bad); aggregate
                statistics need the good ones too.
            table: Learned expected RTTs; None (a missing learning-job
                output) degrades every blame to Insufficient.

        Returns:
            One :class:`BlameResult` per bad quartet (quartets passing the
            sample gate whose RTT breaches the region target).
        """
        table = self._effective_table(table)
        with self.metrics.span("passive.scalar"):
            gated = [
                q for q in quartets if q.n_samples >= self.config.min_quartet_samples
            ]
            cloud_stats = self._cloud_stats(gated, table)
            middle_stats = self._middle_stats(gated, table)
            good_elsewhere = self._good_elsewhere_index(gated)
            results: list[BlameResult] = []
            for quartet in gated:
                if not self.is_bad(quartet):
                    continue
                results.append(
                    self._assign_one(quartet, cloud_stats, middle_stats, good_elsewhere)
                )
        self._count_results(len(quartets) - len(gated), results)
        return results

    def assign_batch(
        self, batch: QuartetBatch, table: ExpectedRTTTable | None
    ) -> BlameResultBatch:
        """Vectorized Algorithm 1 over a columnar batch of one or more
        buckets.

        Array-ops equivalent of :meth:`assign`: the sample gate, the
        cloud/middle bad-fraction aggregates, the good-elsewhere index,
        and the decision chain are all computed with NumPy over the
        batch's columns. The bucket is a group key of every aggregate,
        so a batch holding several buckets blames each row exactly as a
        batch of its bucket alone would. Bad rows stay a row-subset
        batch plus code/fraction arrays (what shard workers ship to the
        fold); ``.to_results()`` gives records identical (same order,
        same blames, same fractions) to the scalar reference on each
        bucket's quartets — asserted by the property tests.
        """
        table = self._effective_table(table)
        with self.metrics.span("passive.vectorized"):
            gated_out, blames = self._assign_batch(batch, table)
        self._count_blames(gated_out, blames)
        return blames

    def _assign_batch(
        self, batch: QuartetBatch, table: ExpectedRTTTable
    ) -> tuple[int, BlameResultBatch]:
        config = self.config
        gate = np.nonzero(batch.n_samples >= config.min_quartet_samples)[0]
        if len(gate) == 0:
            return len(batch), BlameResultBatch.empty(batch)
        gated_out = len(batch) - len(gate)
        rtt = batch.mean_rtt_ms[gate]
        mobile = batch.mobile[gate]
        region_idx = batch.region_index[gate]
        prefix24 = batch.prefix24[gate]
        # The bucket joins every aggregate's key: one bucket's rows are
        # counted with no other bucket's. Buckets number densely in time
        # order.
        time = batch.time[gate]
        offset = time - time.min()
        dense = np.cumsum(np.bincount(offset) > 0) - 1
        bucket = dense[offset]
        n_buckets = int(dense[-1]) + 1

        # Region badness targets, per quartet.
        target_fixed, target_mobile = self._region_targets(batch.regions)
        target = np.where(mobile, target_mobile[region_idx], target_fixed[region_idx])
        bad = rtt >= target
        bad_rows = np.nonzero(bad)[0]
        if len(bad_rows) == 0:
            return gated_out, BlameResultBatch.empty(batch)

        n_loc = len(batch.locations)
        n_mid = len(batch.middles)
        loc_code = batch.location_index[gate]
        mid_code = batch.middle_index[gate]
        ec_fixed, ec_mobile = self._expected_arrays(
            table, batch.locations, table.expected_cloud, "cloud"
        )
        em_fixed, em_mobile = self._expected_arrays(
            table, batch.middles, table.expected_middle, "middle"
        )
        cloud_expected = np.where(mobile, ec_mobile[loc_code], ec_fixed[loc_code])
        middle_expected = np.where(mobile, em_mobile[mid_code], em_fixed[mid_code])
        cloud_known = ~np.isnan(cloud_expected)
        middle_known = ~np.isnan(middle_expected)

        # Aggregate totals / judged / bad counts (unweighted, §4.2), per
        # ⟨bucket, location⟩ and ⟨bucket, path⟩.
        loc_idx = bucket * n_loc + loc_code
        mid_idx = bucket * n_mid + mid_code
        n_loc_keys = n_buckets * n_loc
        n_mid_keys = n_buckets * n_mid
        cloud_total = np.bincount(loc_idx, minlength=n_loc_keys)
        cloud_judged = np.bincount(loc_idx[cloud_known], minlength=n_loc_keys)
        cloud_bad = np.bincount(
            loc_idx[cloud_known & (rtt >= cloud_expected)], minlength=n_loc_keys
        )
        middle_total = np.bincount(mid_idx, minlength=n_mid_keys)
        middle_judged = np.bincount(mid_idx[middle_known], minlength=n_mid_keys)
        middle_bad = np.bincount(
            mid_idx[middle_known & (rtt >= middle_expected)], minlength=n_mid_keys
        )

        # Good-elsewhere index: distinct locations with good RTT per
        # (bucket, prefix24, mobile); the ambiguity check asks whether a
        # bad quartet's pair saw good RTT at any *other* location in the
        # same bucket.
        good = rtt < target
        # /24 keys times the batch's buckets and locations fit well
        # under 2**62.
        pair_key = (prefix24 * 2 + mobile) * n_buckets + bucket
        good_pairs = np.unique(pair_key[good] * n_loc + loc_code[good])
        unique_good_pairs, good_loc_counts = np.unique(
            good_pairs // n_loc, return_counts=True
        )

        with np.errstate(invalid="ignore", divide="ignore"):
            cloud_frac_all = np.where(
                cloud_judged > 0, cloud_bad / np.maximum(cloud_judged, 1), np.nan
            )
            middle_frac_all = np.where(
                middle_judged > 0, middle_bad / np.maximum(middle_judged, 1), np.nan
            )

        # The decision chain, computed only for the bad rows (the
        # aggregates above already folded in every gated row).
        loc_b = loc_idx[bad_rows]
        mid_b = mid_idx[bad_rows]
        pair_b = pair_key[bad_rows]
        loc_code_b = loc_code[bad_rows]
        min_agg = config.min_aggregate_quartets
        cloud_frac = cloud_frac_all[loc_b]
        middle_frac = middle_frac_all[mid_b]
        insuff_cloud = (cloud_total[loc_b] < min_agg) | np.isnan(cloud_frac)
        is_cloud = ~insuff_cloud & (cloud_frac >= config.tau)
        after_cloud = ~insuff_cloud & ~is_cloud
        insuff_middle = after_cloud & (
            (middle_total[mid_b] < min_agg) | np.isnan(middle_frac)
        )
        is_middle = after_cloud & ~insuff_middle & (middle_frac >= config.tau)
        rest = after_cloud & ~insuff_middle & ~is_middle

        self_key = pair_b * n_loc + loc_code_b
        pos = np.searchsorted(good_pairs, self_key)
        in_bounds = pos < len(good_pairs)
        self_good = np.zeros(len(self_key), dtype=bool)
        if len(good_pairs):
            self_good[in_bounds] = (
                good_pairs[pos[in_bounds]] == self_key[in_bounds]
            )
        pair_pos = np.searchsorted(unique_good_pairs, pair_b)
        pair_in = pair_pos < len(unique_good_pairs)
        n_good = np.zeros(len(pair_b), dtype=np.int64)
        if len(unique_good_pairs):
            hit = pair_in.copy()
            hit[pair_in] = (
                unique_good_pairs[pair_pos[pair_in]] == pair_b[pair_in]
            )
            n_good[hit] = good_loc_counts[pair_pos[hit]]
        elsewhere = (n_good - self_good.astype(np.int64)) > 0
        is_ambiguous = rest & elsewhere

        # Blame codes (see :data:`repro.core.blame.BLAME_BY_CODE`). The
        # masks are mutually exclusive, so plain masked stores replace
        # np.select. Codes 0 and 1 stop before the middle step, so their
        # results carry no middle fraction (matching the scalar chain).
        code = np.full(len(bad_rows), 5, dtype=np.int64)
        code[is_ambiguous] = 4
        code[is_middle] = 3
        code[insuff_middle] = 2
        code[is_cloud] = 1
        code[insuff_cloud] = 0
        middle_out = middle_frac.copy()
        middle_out[code <= 1] = np.nan
        return gated_out, BlameResultBatch(
            batch=batch.take(gate[bad_rows]),
            code=code,
            cloud_fraction=cloud_frac,
            middle_fraction=middle_out,
        )

    def is_bad(self, quartet: Quartet) -> bool:
        """Whether a quartet's average RTT breaches its region target.

        At-or-above the target is bad (``>=``) — the same convention the
        aggregate statistics use against learned expected RTTs.
        """
        return quartet.mean_rtt_ms >= self.targets.target_ms(
            quartet.region, quartet.mobile
        )

    # -- aggregate statistics --------------------------------------------

    def _cloud_stats(
        self, quartets: list[Quartet], table: ExpectedRTTTable
    ) -> dict[str, _AggregateStats]:
        stats: dict[str, _AggregateStats] = {}
        for quartet in quartets:
            entry = stats.setdefault(quartet.location_id, _AggregateStats())
            entry.total += 1
            expected = table.expected_cloud(quartet.location_id, quartet.mobile)
            if expected is None:
                continue
            entry.judged += 1
            if quartet.mean_rtt_ms >= expected:
                entry.bad += 1
        return stats

    def _middle_stats(
        self, quartets: list[Quartet], table: ExpectedRTTTable
    ) -> dict[ASPath, _AggregateStats]:
        stats: dict[ASPath, _AggregateStats] = {}
        for quartet in quartets:
            entry = stats.setdefault(quartet.middle, _AggregateStats())
            entry.total += 1
            expected = table.expected_middle(quartet.middle, quartet.mobile)
            if expected is None:
                continue
            entry.judged += 1
            if quartet.mean_rtt_ms >= expected:
                entry.bad += 1
        return stats

    def _good_elsewhere_index(
        self, quartets: list[Quartet]
    ) -> dict[tuple[int, bool], set[str]]:
        """Locations where each (prefix24, mobile) saw *good* RTT."""
        index: dict[tuple[int, bool], set[str]] = {}
        for quartet in quartets:
            target = self.targets.target_ms(quartet.region, quartet.mobile)
            if quartet.mean_rtt_ms < target:
                index.setdefault((quartet.prefix24, quartet.mobile), set()).add(
                    quartet.location_id
                )
        return index

    # -- the decision chain ------------------------------------------------

    def _assign_one(
        self,
        quartet: Quartet,
        cloud_stats: dict[str, _AggregateStats],
        middle_stats: dict[ASPath, _AggregateStats],
        good_elsewhere: dict[tuple[int, bool], set[str]],
    ) -> BlameResult:
        config = self.config
        cloud = cloud_stats[quartet.location_id]
        cloud_fraction = cloud.bad_fraction
        if cloud.total < config.min_aggregate_quartets or cloud_fraction is None:
            return BlameResult(quartet, Blame.INSUFFICIENT, cloud_fraction, None)
        if cloud_fraction >= config.tau:
            return BlameResult(quartet, Blame.CLOUD, cloud_fraction, None)

        middle = middle_stats[quartet.middle]
        middle_fraction = middle.bad_fraction
        if middle.total < config.min_aggregate_quartets or middle_fraction is None:
            return BlameResult(
                quartet, Blame.INSUFFICIENT, cloud_fraction, middle_fraction
            )
        if middle_fraction >= config.tau:
            return BlameResult(quartet, Blame.MIDDLE, cloud_fraction, middle_fraction)

        good_locations = good_elsewhere.get((quartet.prefix24, quartet.mobile), set())
        if good_locations - {quartet.location_id}:
            return BlameResult(
                quartet, Blame.AMBIGUOUS, cloud_fraction, middle_fraction
            )
        return BlameResult(quartet, Blame.CLIENT, cloud_fraction, middle_fraction)
