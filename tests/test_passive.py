"""Tests for repro.core.passive: every branch of Algorithm 1, and its
row-order and monotonicity properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.locations import RTTTargets
from repro.core.blame import Blame, BlameResult
from repro.core.config import BlameItConfig
from repro.core.passive import PassiveLocalizer
from repro.core.quartet import Quartet, QuartetBatch
from repro.core.summary import group_bad_rows
from repro.core.thresholds import ExpectedRTTTable
from repro.net.geo import Region

from tests.row_fold import decode_pairs, grouped
from tests.test_perf import _random_quartets, _random_table

TARGET = 50.0


def _targets() -> RTTTargets:
    return RTTTargets(by_region={Region.USA: (TARGET, TARGET + 30.0)})


def _quartet(
    prefix=1,
    loc="edge-A",
    rtt=100.0,
    middle=(10,),
    n=20,
    mobile=False,
    asn=65000,
    time=0,
) -> Quartet:
    return Quartet(
        time=time,
        prefix24=prefix,
        location_id=loc,
        mobile=mobile,
        mean_rtt_ms=rtt,
        n_samples=n,
        users=10,
        client_asn=asn,
        middle=middle,
        region=Region.USA,
    )


def _table(cloud=30.0, middle=30.0) -> ExpectedRTTTable:
    return ExpectedRTTTable(
        cloud={("edge-A", False): cloud, ("edge-B", False): cloud},
        middle={((10,), False): middle, ((11,), False): middle},
    )


def _localizer(**overrides) -> PassiveLocalizer:
    return PassiveLocalizer(BlameItConfig(**overrides), _targets())


class TestCloudBranch:
    def test_cloud_blamed_when_location_wide(self):
        """All IP-/24s at the location above expected RTT → cloud."""
        quartets = [_quartet(prefix=i, rtt=90.0) for i in range(10)]
        results = _localizer().assign(quartets, _table())
        assert len(results) == 10
        assert all(r.blame is Blame.CLOUD for r in results)
        assert all(r.cloud_bad_fraction == pytest.approx(1.0) for r in results)

    def test_insufficient_when_few_quartets_at_location(self):
        quartets = [_quartet(prefix=i, rtt=90.0) for i in range(4)]
        results = _localizer().assign(quartets, _table())
        assert all(r.blame is Blame.INSUFFICIENT for r in results)

    def test_cloud_not_blamed_below_tau(self):
        """Only half the location's quartets bad → fall through."""
        bad = [_quartet(prefix=i, rtt=90.0, middle=(10,)) for i in range(6)]
        good = [_quartet(prefix=100 + i, rtt=20.0, middle=(11,)) for i in range(6)]
        results = _localizer().assign(bad + good, _table())
        assert all(r.blame is not Blame.CLOUD for r in results)

    def test_unweighted_by_samples(self):
        """A single high-volume healthy /24 cannot mask widespread badness
        (§4.2: CalcBadFraction does not weight by RTT sample counts)."""
        bad = [_quartet(prefix=i, rtt=90.0, n=10) for i in range(9)]
        whale = [_quartet(prefix=999, rtt=20.0, n=100_000)]
        results = _localizer().assign(bad + whale, _table())
        blamed = [r for r in results if r.quartet.prefix24 != 999]
        assert all(r.blame is Blame.CLOUD for r in blamed)

    def test_learned_threshold_catches_shift(self):
        """§4.3 example: RTTs in [40, 70] with target 50 but learned
        expected 40 → cloud correctly blamed."""
        rtts = [40 + 3 * i for i in range(11)]  # 40..70
        quartets = [
            _quartet(prefix=i, rtt=float(r)) for i, r in enumerate(rtts)
        ]
        results = _localizer().assign(quartets, _table(cloud=40.0))
        # Only quartets above the *target* are "bad" and get results...
        assert results
        assert all(r.blame is Blame.CLOUD for r in results)


class TestMiddleBranch:
    def test_middle_blamed_when_path_wide(self):
        """One path fully bad, the location otherwise healthy."""
        bad = [_quartet(prefix=i, rtt=90.0, middle=(10,)) for i in range(8)]
        good = [_quartet(prefix=100 + i, rtt=20.0, middle=(11,)) for i in range(12)]
        results = _localizer().assign(bad + good, _table())
        assert len(results) == 8
        assert all(r.blame is Blame.MIDDLE for r in results)
        assert all(r.middle_bad_fraction == pytest.approx(1.0) for r in results)

    def test_insufficient_when_path_thin(self):
        bad = [_quartet(prefix=i, rtt=90.0, middle=(10,)) for i in range(3)]
        good = [_quartet(prefix=100 + i, rtt=20.0, middle=(11,)) for i in range(12)]
        results = _localizer().assign(bad + good, _table())
        assert all(r.blame is Blame.INSUFFICIENT for r in results)

    def test_unknown_middle_expected_insufficient(self):
        """A path with no learned expected RTT cannot be judged."""
        bad = [_quartet(prefix=i, rtt=90.0, middle=(77,)) for i in range(8)]
        good = [_quartet(prefix=100 + i, rtt=20.0, middle=(11,)) for i in range(12)]
        results = _localizer().assign(bad + good, _table())
        assert all(r.blame is Blame.INSUFFICIENT for r in results)


class TestClientAndAmbiguous:
    def _mixed_path_quartets(self):
        """One bad client on a path where others are healthy."""
        bad = [_quartet(prefix=1, rtt=90.0, middle=(10,), asn=65001)]
        peers = [
            _quartet(prefix=100 + i, rtt=20.0, middle=(10,)) for i in range(8)
        ]
        filler = [
            _quartet(prefix=200 + i, rtt=20.0, middle=(11,)) for i in range(8)
        ]
        return bad, peers, filler

    def test_client_blamed(self):
        bad, peers, filler = self._mixed_path_quartets()
        results = _localizer().assign(bad + peers + filler, _table())
        assert len(results) == 1
        assert results[0].blame is Blame.CLIENT
        assert results[0].quartet.client_asn == 65001

    def test_ambiguous_when_good_elsewhere(self):
        bad, peers, filler = self._mixed_path_quartets()
        elsewhere = [_quartet(prefix=1, loc="edge-B", rtt=20.0, asn=65001)]
        results = _localizer().assign(bad + peers + filler + elsewhere, _table())
        blamed = [r for r in results if r.quartet.prefix24 == 1]
        assert len(blamed) == 1
        assert blamed[0].blame is Blame.AMBIGUOUS

    def test_bad_elsewhere_does_not_make_ambiguous(self):
        bad, peers, filler = self._mixed_path_quartets()
        elsewhere_bad = [_quartet(prefix=1, loc="edge-B", rtt=95.0, asn=65001)]
        results = _localizer().assign(bad + peers + filler + elsewhere_bad, _table())
        blamed = [r for r in results if r.quartet.location_id == "edge-A"]
        assert blamed[0].blame is Blame.CLIENT


class TestGating:
    def test_sample_gate_excludes_thin_quartets(self):
        thin = [_quartet(prefix=i, rtt=90.0, n=5) for i in range(10)]
        results = _localizer().assign(thin, _table())
        assert results == []

    def test_good_quartets_produce_no_results(self):
        good = [_quartet(prefix=i, rtt=20.0) for i in range(10)]
        assert _localizer().assign(good, _table()) == []

    def test_mobile_uses_mobile_target(self):
        """RTT between the fixed and mobile targets: bad only for fixed."""
        rtt = TARGET + 10.0  # below mobile target (TARGET + 30)
        fixed = [_quartet(prefix=i, rtt=rtt) for i in range(6)]
        mobile = [
            _quartet(prefix=100 + i, rtt=rtt, mobile=True) for i in range(6)
        ]
        table = ExpectedRTTTable(
            cloud={("edge-A", False): 30.0, ("edge-A", True): 30.0},
            middle={((10,), False): 30.0, ((10,), True): 30.0},
        )
        results = _localizer().assign(fixed + mobile, table)
        assert {r.quartet.mobile for r in results} == {False}


class TestBoundaries:
    """Exact-threshold behaviour of Algorithm 1 (§4.2 conventions)."""

    def test_exactly_min_aggregate_is_sufficient(self):
        """min_aggregate_quartets quartets is enough — the comparison is
        strictly *fewer than* the minimum."""
        quartets = [_quartet(prefix=i, rtt=90.0) for i in range(5)]
        results = _localizer().assign(quartets, _table())
        assert len(results) == 5
        assert all(r.blame is Blame.CLOUD for r in results)

    def test_one_below_min_aggregate_is_insufficient(self):
        quartets = [_quartet(prefix=i, rtt=90.0) for i in range(4)]
        results = _localizer().assign(quartets, _table())
        assert all(r.blame is Blame.INSUFFICIENT for r in results)

    def test_exactly_min_aggregate_on_middle_path(self):
        """The same boundary applies at the middle step."""
        bad = [_quartet(prefix=i, rtt=90.0, middle=(10,)) for i in range(5)]
        good = [_quartet(prefix=100 + i, rtt=20.0, middle=(11,)) for i in range(12)]
        results = _localizer().assign(bad + good, _table())
        assert len(results) == 5
        assert all(r.blame is Blame.MIDDLE for r in results)

    def test_bad_fraction_exactly_tau_blames(self):
        """A bad fraction of exactly τ fires (≥ τ, not > τ): 8 of 10
        judged quartets above the learned expected RTT."""
        above = [_quartet(prefix=i, rtt=90.0) for i in range(8)]
        below = [_quartet(prefix=100 + i, rtt=55.0) for i in range(2)]
        results = _localizer().assign(above + below, _table(cloud=60.0))
        assert len(results) == 10  # all breach the 50 ms target
        assert all(r.blame is Blame.CLOUD for r in results)
        assert all(r.cloud_bad_fraction == pytest.approx(0.8) for r in results)
        stricter = _localizer(tau=0.81).assign(above + below, _table(cloud=60.0))
        assert all(r.blame is not Blame.CLOUD for r in stricter)

    def test_rtt_exactly_at_expected_counts_bad(self):
        """At-or-above the learned expected RTT is bad (>= convention);
        under a strict > every quartet here would look good vs expected
        and the cloud step could never fire."""
        quartets = [_quartet(prefix=i, rtt=90.0) for i in range(6)]
        results = _localizer().assign(quartets, _table(cloud=90.0))
        assert len(results) == 6
        assert all(r.blame is Blame.CLOUD for r in results)
        assert all(r.cloud_bad_fraction == pytest.approx(1.0) for r in results)

    def test_rtt_exactly_at_target_is_bad(self):
        """Sitting exactly on the region badness target counts as bad."""
        quartets = [_quartet(prefix=i, rtt=TARGET) for i in range(6)]
        results = _localizer().assign(quartets, _table())
        assert len(results) == 6

    def test_rtt_just_below_target_is_good(self):
        quartets = [_quartet(prefix=i, rtt=TARGET - 0.001) for i in range(6)]
        assert _localizer().assign(quartets, _table()) == []


class TestWindowing:
    def test_tau_override(self):
        quartets = [_quartet(prefix=i, rtt=90.0) for i in range(6)] + [
            _quartet(prefix=50, rtt=20.0)
        ]
        strict = _localizer(tau=1.0).assign(quartets, _table())
        assert all(r.blame is not Blame.CLOUD for r in strict)
        lax = _localizer(tau=0.5).assign(quartets, _table())
        assert all(r.blame is Blame.CLOUD for r in lax)


def _bucket(seed: int, n: int) -> list[Quartet]:
    """A random bucket (see ``tests.test_perf._random_quartets``) whose
    rows are told apart by ``users`` (Algorithm 1 never reads it)."""
    rows = _random_quartets(np.random.default_rng(seed), n)
    return [row._replace(users=i + 1) for i, row in enumerate(rows)]


def _assign(quartets: list[Quartet], seed: int) -> list[BlameResult]:
    table = _random_table(np.random.default_rng(seed))
    batch = QuartetBatch.from_quartets(quartets)
    return _localizer().assign_batch(batch, table).to_results()


def _row(result: BlameResult) -> int:
    return result.quartet.users - 1


class TestAlgorithmOneProperties:
    """Properties of the vectorized Algorithm 1 over random buckets."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 120), data=st.data())
    def test_permuting_rows_permutes_the_verdicts(self, seed, n, data):
        rows = _bucket(seed, n)
        order = data.draw(st.permutations(range(n)))
        before = {_row(result): result for result in _assign(rows, seed)}
        permuted = _assign([rows[i] for i in order], seed)
        assert [_row(result) for result in permuted] == [
            i for i in order if i in before
        ]
        assert all(result == before[_row(result)] for result in permuted)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 120),
        data=st.data(),
        raise_ms=st.floats(0.001, 200.0),
    )
    def test_raising_one_rtt_keeps_cloud_verdicts_and_raises_fractions(
        self, seed, n, data, raise_ms
    ):
        rows = _bucket(seed, n)
        i = data.draw(st.integers(0, n - 1))
        raised = list(rows)
        raised[i] = rows[i]._replace(mean_rtt_ms=rows[i].mean_rtt_ms + raise_ms)
        after = {_row(result): result for result in _assign(raised, seed)}
        for was in _assign(rows, seed):
            now = after[_row(was)]  # a bad row stays bad when an RTT rises
            if was.blame is Blame.CLOUD:
                assert now.blame is Blame.CLOUD
            for field in ("cloud_bad_fraction", "middle_bad_fraction"):
                old, new = getattr(was, field), getattr(now, field)
                if old is not None and new is not None:
                    assert new >= old


EXPECTED = 60.0  # the edge aggregate's expected RTT, above TARGET


@st.composite
def _edge_bucket(draw, side: str, n: int, bad: int, exact: bool):
    """A bucket whose edge aggregate — location edge-A when ``side`` is
    "cloud", path (10,) when it is "middle" — holds ``n`` judged,
    region-bad quartets, ``bad`` of them at or above EXPECTED. ``exact``
    puts those on EXPECTED and the rest one ulp below it. Good filler
    quartets share /24s with the aggregate (so the ambiguity step has
    something to find) without entering it: at edge-B on the cloud
    side, at edge-A on path (11,) on the middle side, where they also
    lift the location past the minimum so the middle step is reached.
    """
    if exact:
        above = st.just(EXPECTED)
        below = st.just(float(np.nextafter(EXPECTED, -np.inf)))
    else:
        above = st.sampled_from(
            [EXPECTED, float(np.nextafter(EXPECTED, np.inf))]
        ) | st.floats(EXPECTED, 500.0)
        below = st.just(TARGET) | st.floats(TARGET, EXPECTED, exclude_max=True)
    rtts = [draw(above) for _ in range(bad)] + [draw(below) for _ in range(n - bad)]
    rtts = draw(st.permutations(rtts))
    quartets = [_quartet(prefix=i, rtt=rtt, middle=(10,)) for i, rtt in enumerate(rtts)]
    fillers = draw(st.integers(side == "middle", 6))
    filler_loc = "edge-B" if side == "cloud" else "edge-A"
    quartets += [
        _quartet(
            prefix=draw(st.integers(0, n + 2)), loc=filler_loc, rtt=20.0, middle=(11,)
        )
        for _ in range(fillers)
    ]
    cloud = EXPECTED if side == "cloud" else 1000.0
    table = ExpectedRTTTable(
        cloud={("edge-A", False): cloud, ("edge-B", False): 30.0},
        middle={((10,), False): EXPECTED, ((11,), False): 30.0},
    )
    return draw(st.permutations(quartets)), table


def _check_edge(data, n: int, bad: int, exact: bool = False, **overrides) -> None:
    """``assign_batch`` equals the per-row ``assign`` row for row on an
    edge bucket, and the edge aggregate is blamed exactly when the
    specification says: at least the minimum quartets, bad fraction at
    least τ."""
    side = data.draw(st.sampled_from(["cloud", "middle"]))
    quartets, table = data.draw(_edge_bucket(side, n, bad, exact))
    localizer = _localizer(**overrides)
    scalar = localizer.assign(quartets, table)
    batch = QuartetBatch.from_quartets(quartets)
    assert localizer.assign_batch(batch, table).to_results() == scalar
    config = localizer.config
    fires = n >= config.min_aggregate_quartets and bad / n >= config.tau
    blame = Blame.CLOUD if side == "cloud" else Blame.MIDDLE
    edge = [result for result in scalar if result.quartet.middle == (10,)]
    assert len(edge) == n
    assert all((result.blame is blame) == fires for result in edge)


class TestBoundaryProperties:
    """The vectorized Algorithm 1 against the per-row specification at
    its three edges, over generated aggregates on the cloud and the
    middle step."""

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(1, 8), step=st.sampled_from([-1, 0, 1]), data=st.data())
    def test_bad_fraction_at_tau(self, m, step, data):
        """k/n = 4m/5m is exactly τ = 0.8; one bad quartet fewer or
        more sits just below or above it."""
        _check_edge(data, n=5 * m, bad=4 * m + step)

    @settings(max_examples=60, deadline=None)
    @given(minimum=st.integers(2, 8), short=st.booleans(), data=st.data())
    def test_aggregate_at_min_quartets(self, minimum, short, data):
        """Exactly ``min_aggregate_quartets`` quartets, and one fewer."""
        n = minimum - short
        bad = data.draw(st.integers(0, n))
        _check_edge(data, n=n, bad=bad, min_aggregate_quartets=minimum)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 12), data=st.data())
    def test_rtts_exactly_at_expected(self, n, data):
        """RTTs exactly on the expected RTT (bad, by ``>=``) beside RTTs
        one ulp under it (good)."""
        bad = data.draw(st.integers(0, n))
        _check_edge(data, n=n, bad=bad, exact=True)


def _in_bucket(quartets: list[Quartet], time: int) -> list[Quartet]:
    return [q._replace(time=time) for q in quartets]


def _span_equals_buckets(localizer, buckets, table) -> list[BlameResult]:
    """``assign_batch`` over every bucket's rows in one batch gives each
    bucket's results — the per-row specification run on that bucket
    alone — concatenated in batch order: codes, both fractions, rows."""
    batch = QuartetBatch.from_quartets([q for bucket in buckets for q in bucket])
    mixed = localizer.assign_batch(batch, table).to_results()
    assert mixed == [r for bucket in buckets for r in localizer.assign(bucket, table)]
    return mixed


class TestSpanProperties:
    """``assign_batch`` over a batch of several buckets (the span
    kernel's one call per span): the bucket is a key of every
    aggregate, so no bucket's rows count in another's verdicts."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        sizes=st.lists(st.integers(1, 80), min_size=1, max_size=5),
        data=st.data(),
    )
    def test_mixed_buckets_equal_per_bucket_results(self, seed, sizes, data):
        """1–5 buckets cut from one random bucket, at distinct times in
        any order and with gaps between them, so /24s, locations and
        paths recur across buckets."""
        rows = _bucket(seed, sum(sizes))
        times = data.draw(
            st.lists(
                st.integers(0, 600),
                min_size=len(sizes),
                max_size=len(sizes),
                unique=True,
            )
        )
        cuts = np.cumsum([0, *sizes]).tolist()
        buckets = [
            _in_bucket(rows[lo:hi], time)
            for time, lo, hi in zip(times, cuts, cuts[1:])
        ]
        table = _random_table(np.random.default_rng(seed))
        _span_equals_buckets(_localizer(), buckets, table)

    @settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(2, 8),
        step=st.sampled_from([-1, 0, 1]),
        minimum=st.integers(2, 8),
        short=st.booleans(),
        n_exact=st.integers(1, 12),
        data=st.data(),
    )
    def test_boundaries_in_different_buckets(
        self, m, step, minimum, short, n_exact, data
    ):
        """``TestBoundaryProperties``' three edges — a bad fraction at τ,
        an aggregate at the minimum, RTTs on the expected RTT — each in
        its own bucket of one batch, over the same /24s: each bucket's
        edge aggregate is blamed exactly when its own counts say so."""
        side = data.draw(st.sampled_from(["cloud", "middle"]))
        n_min = minimum - short
        edges = [
            (5 * m, 4 * m + step, False),
            (n_min, data.draw(st.integers(0, n_min)), False),
            (n_exact, data.draw(st.integers(0, n_exact)), True),
        ]
        buckets = []
        for time, (n, bad, exact) in enumerate(edges):
            quartets, table = data.draw(_edge_bucket(side, n, bad, exact))
            buckets.append(_in_bucket(quartets, time))
        order = data.draw(st.permutations(range(len(buckets))))
        localizer = _localizer(min_aggregate_quartets=minimum)
        mixed = _span_equals_buckets(localizer, [buckets[i] for i in order], table)
        blame = Blame.CLOUD if side == "cloud" else Blame.MIDDLE
        for time, (n, bad, _) in enumerate(edges):
            fires = n >= minimum and bad / n >= localizer.config.tau
            edge = [
                r for r in mixed if r.quartet.time == time and r.quartet.middle == (10,)
            ]
            assert len(edge) == n
            assert all((r.blame is blame) == fires for r in edge)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        sizes=st.lists(st.integers(1, 80), min_size=1, max_size=5),
        data=st.data(),
    )
    def test_mixed_spans_group_like_single_buckets(self, seed, sizes, data):
        """A span of 1–5 buckets, some blamed by one ``assign_batch``
        call and grouped by one ``group_bad_rows`` call over the span
        (the fold's pre-pass), the others deferred and blamed and
        grouped alone (the flush): each bucket's groups are those of
        its own per-row results, grouped alone."""
        rows = _bucket(seed, sum(sizes))
        times = sorted(
            data.draw(
                st.lists(
                    st.integers(0, 600),
                    min_size=len(sizes),
                    max_size=len(sizes),
                    unique=True,
                )
            )
        )
        blamed = data.draw(
            st.lists(st.booleans(), min_size=len(sizes), max_size=len(sizes))
        )
        cuts = np.cumsum([0, *sizes]).tolist()
        buckets = [
            _in_bucket(rows[lo:hi], time)
            for time, lo, hi in zip(times, cuts, cuts[1:])
        ]
        table = _random_table(np.random.default_rng(seed))
        localizer = _localizer()
        span = [bucket for bucket, kept in zip(buckets, blamed) if kept]
        grouped_span = iter([])
        if span:
            blames = localizer.assign_batch(
                QuartetBatch.from_quartets([q for bucket in span for q in bucket]),
                table,
            )
            bad_cuts = np.searchsorted(
                blames.batch.time, [bucket[0].time for bucket in span]
            ).tolist() + [len(blames)]
            grouped_span = iter(group_bad_rows(blames, bad_cuts, decode_pairs))
        for bucket, kept in zip(buckets, blamed):
            if kept:
                got = next(grouped_span)
            else:
                alone = localizer.assign_batch(QuartetBatch.from_quartets(bucket), table)
                (got,) = group_bad_rows(alone, [0, len(alone)], decode_pairs)
            results = localizer.assign(bucket, table)
            assert got == (grouped(results) if results else None)

    def test_good_elsewhere_in_another_bucket_is_not_ambiguous(self):
        """A /24 bad at edge-A in bucket 0 and good at edge-B only in
        bucket 1 is blamed on its client; the same good quartet in
        bucket 0 makes it Ambiguous."""
        bad, peers, filler = TestClientAndAmbiguous()._mixed_path_quartets()
        elsewhere = [_quartet(prefix=1, loc="edge-B", rtt=20.0, asn=65001, time=1)]
        localizer = _localizer()
        for rows, blame in (
            (elsewhere, Blame.CLIENT),
            (_in_bucket(elsewhere, 0), Blame.AMBIGUOUS),
        ):
            batch = QuartetBatch.from_quartets(bad + peers + filler + rows)
            results = localizer.assign_batch(batch, _table()).to_results()
            assert [r.blame for r in results if r.quartet.prefix24 == 1] == [blame]
