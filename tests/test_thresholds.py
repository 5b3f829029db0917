"""Tests for repro.core.thresholds: expected-RTT learning.

Learner state is compared through its public surface only —
``state_arrays()`` (every reservoir's values, length, seen count and
RNG state, in creation order, plus the seed counter) and ``table()`` —
so the tests hold for any storage behind it.
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import thresholds
from repro.core.quartet import Quartet, QuartetBatch
from repro.core.thresholds import ExpectedRTTLearner, _Lane
from repro.net.geo import Region
from repro.rngstate import rng_state_dict

_PARENT_STATE = Path(__file__).parent / "golden" / "learner_state_v3.json"


def _quartet(time=0, rtt=40.0, loc="edge-X", mobile=False, middle=(10,)) -> Quartet:
    return Quartet(
        time=time,
        prefix24=1,
        location_id=loc,
        mobile=mobile,
        mean_rtt_ms=rtt,
        n_samples=20,
        users=10,
        client_asn=65000,
        middle=middle,
        region=Region.USA,
    )


class TestLearner:
    def test_median_learned(self):
        learner = ExpectedRTTLearner()
        for rtt in (10.0, 20.0, 30.0, 40.0, 50.0):
            learner.observe(_quartet(rtt=rtt))
        table = learner.table()
        assert table.expected_cloud("edge-X", False) == pytest.approx(30.0)
        assert table.expected_middle((10,), False) == pytest.approx(30.0)

    def test_mobile_separated(self):
        learner = ExpectedRTTLearner()
        learner.observe(_quartet(rtt=30.0, mobile=False))
        learner.observe(_quartet(rtt=90.0, mobile=True))
        table = learner.table()
        assert table.expected_cloud("edge-X", False) == pytest.approx(30.0)
        assert table.expected_cloud("edge-X", True) == pytest.approx(90.0)

    def test_unknown_key_is_none(self):
        table = ExpectedRTTLearner().table()
        assert table.expected_cloud("edge-X", False) is None
        assert table.expected_middle((99,), False) is None

    def test_rolling_window_excludes_old_days(self):
        learner = ExpectedRTTLearner(history_days=2)
        learner.observe(_quartet(time=0, rtt=10.0))  # day 0
        learner.observe(_quartet(time=3 * 288, rtt=100.0))  # day 3
        learner.observe(_quartet(time=4 * 288, rtt=110.0))  # day 4
        table = learner.table(as_of_day=4)
        # Days 3 and 4 only: median of (100, 110).
        assert table.expected_cloud("edge-X", False) == pytest.approx(105.0)

    def test_unwindowed_table_uses_everything(self):
        learner = ExpectedRTTLearner(history_days=2)
        learner.observe(_quartet(time=0, rtt=10.0))
        learner.observe(_quartet(time=5 * 288, rtt=100.0))
        table = learner.table()
        assert table.expected_cloud("edge-X", False) == pytest.approx(55.0)

    def test_prune(self):
        learner = ExpectedRTTLearner()
        learner.observe(_quartet(time=0, rtt=10.0))
        learner.observe(_quartet(time=10 * 288, rtt=50.0))
        learner.prune_before(day=5)
        table = learner.table()
        assert table.expected_cloud("edge-X", False) == pytest.approx(50.0)

    def test_section_43_worked_example(self):
        """§4.3: history uniform in [35, 45] learns ~40ms; a fault moving
        RTTs to [40, 70] leaves nearly all above the learned value but
        only a third above the 50ms badness target."""
        learner = ExpectedRTTLearner()
        for index, rtt in enumerate(range(35, 46)):
            learner.observe(_quartet(time=index, rtt=float(rtt)))
        expected = learner.table().expected_cloud("edge-X", False)
        assert expected == pytest.approx(40.0)
        faulty = [40 + 30 * i / 10 for i in range(11)]  # uniform [40, 70]
        above_learned = sum(1 for r in faulty if r > expected) / len(faulty)
        above_target = sum(1 for r in faulty if r > 50.0) / len(faulty)
        assert above_learned >= 0.8  # τ fires with the learned median
        assert above_target < 0.8  # τ never fires with the raw target

    def test_reservoir_bounded_memory(self):
        learner = ExpectedRTTLearner()
        for index in range(5000):
            learner.observe(_quartet(time=index % 288, rtt=float(index % 100)))
        _, arrays = learner.state_arrays()
        assert arrays["cloud_lengths"].tolist() == [256]
        assert arrays["middle_lengths"].tolist() == [256]
        assert arrays["cloud_values"].shape == (256,)
        # Median of 0..99 stream should still be close to 50.
        table = learner.table()
        assert table.expected_cloud("edge-X", False) == pytest.approx(50.0, abs=10)

    def test_validation(self):
        with pytest.raises(ValueError):
            ExpectedRTTLearner(history_days=0)


def _state(learner: ExpectedRTTLearner) -> tuple[str, dict[str, list]]:
    """A learner's full public state in directly comparable form."""
    meta, arrays = learner.state_arrays()
    return (
        json.dumps(meta),
        {name: [str(a.dtype), a.tolist()] for name, a in arrays.items()},
    )


def assert_learners_identical(a: ExpectedRTTLearner, b: ExpectedRTTLearner):
    """Full-state equality: keys in creation order, reservoir contents,
    counts, RNG streams, the seed counter — and the tables they yield."""
    assert _state(a) == _state(b)
    assert a.table() == b.table()


class TestColumnarLearner:
    """observe_batch must be byte-identical to the scalar row loop."""

    def _random_quartets(self, rng, n):
        return [
            _quartet(
                time=int(rng.integers(0, 3 * 288)),
                rtt=float(rng.uniform(10.0, 120.0)),
                loc=f"edge-{rng.integers(0, 4)}",
                mobile=bool(rng.integers(0, 2)),
                middle=(int(rng.integers(10, 14)),),
            )
            for _ in range(n)
        ]

    @pytest.mark.parametrize("seed", range(5))
    def test_batch_matches_scalar(self, seed):
        rng = np.random.default_rng(seed)
        quartets = self._random_quartets(rng, 400)
        scalar = ExpectedRTTLearner()
        batched = ExpectedRTTLearner()
        scalar.observe_all(quartets)
        batched.observe_batch(QuartetBatch.from_quartets(quartets))
        assert_learners_identical(scalar, batched)

    def test_reservoir_tie_breaking(self):
        """Past the reservoir size, replacement draws from each
        reservoir's own RNG stream; grouping the adds must consume those
        streams in exactly the scalar order, so a follow-up batch on the
        already-full reservoirs still matches value-for-value."""
        rng = np.random.default_rng(99)
        # One hot key so the reservoir overflows (256) within one batch.
        hot = [
            _quartet(time=i % 288, rtt=float(rng.uniform(10, 90)))
            for i in range(600)
        ]
        scalar = ExpectedRTTLearner()
        batched = ExpectedRTTLearner()
        scalar.observe_all(hot)
        batched.observe_batch(QuartetBatch.from_quartets(hot))
        assert_learners_identical(scalar, batched)
        # Second round on the now-full reservoirs: every add is a
        # replacement decision, so any RNG-stream skew would surface.
        more = [
            _quartet(time=i % 288, rtt=float(rng.uniform(10, 90)))
            for i in range(300)
        ]
        scalar.observe_all(more)
        batched.observe_batch(QuartetBatch.from_quartets(more))
        assert_learners_identical(scalar, batched)

    def test_seed_allocation_order(self):
        """New reservoirs take seeds in first-occurrence row order, cloud
        lane before middle lane — matching the scalar loop."""
        quartets = [
            _quartet(time=0, loc="edge-B", middle=(20,)),
            _quartet(time=0, loc="edge-A", middle=(21,)),
            _quartet(time=288, loc="edge-A", middle=(20,)),  # new day
        ]
        scalar = ExpectedRTTLearner()
        batched = ExpectedRTTLearner()
        scalar.observe_all(quartets)
        batched.observe_batch(QuartetBatch.from_quartets(quartets))
        assert_learners_identical(scalar, batched)

    def test_empty_batch_is_noop(self):
        learner = ExpectedRTTLearner()
        learner.observe_batch(QuartetBatch.from_quartets([]))
        assert_learners_identical(learner, ExpectedRTTLearner())


def _hot_history(seed: int, n: int, first: int, last: int) -> list[Quartet]:
    """``n`` time-ordered quartets over buckets ``[first, last]``, most
    of them on one hot ⟨location, middle⟩ so its reservoirs overflow."""
    rng = np.random.default_rng(seed)
    return [
        _quartet(
            time=first + i * (last - first + 1) // max(n, 1),
            rtt=round(float(rng.uniform(10.0, 120.0)), 1),
            loc="edge-0" if rng.random() < 0.8 else f"edge-{rng.integers(1, 3)}",
            mobile=bool(rng.random() < 0.1),
            middle=(10 if rng.random() < 0.8 else int(rng.integers(11, 13)),),
        )
        for i in range(n)
    ]


def _small_state() -> tuple[dict, dict]:
    """``state_arrays()`` after ``_hot_history(5, 50, 0, 10)``."""
    learner = ExpectedRTTLearner()
    learner.observe_all(_hot_history(5, 50, 0, 10))
    return learner.state_arrays()


class _ScalarReservoir:
    """One reservoir as the per-value algorithm defines it: past the
    fill, a scalar ``integers(0, seen)`` call on its own
    ``default_rng(seed)`` per value."""

    def __init__(self, seed: int, seen: int, day: int = 1):
        self.rng = np.random.default_rng(seed)
        self.seen = seen
        self.day = day
        self.values = [0.0] * min(seen, 256)

    def draw(self, high: int) -> int:
        return int(self.rng.integers(0, high))

    def add(self, value: float) -> None:
        self.seen += 1
        if self.seen <= 256:
            self.values.append(value)
        elif (slot := self.draw(self.seen)) < 256:
            self.values[slot] = value

    def state(self) -> tuple:
        return self.seen, rng_state_dict(self.rng), self.values


def _key_json(name: str, i: int, day: int) -> list:
    """Reservoir ``i``'s ⟨key, day⟩ as ``state_arrays()`` writes it:
    ``edge-i`` in the cloud lane, path ``(10 + i,)`` in the middle lane."""
    return [f"edge-{i}" if name == "cloud" else [10 + i], False, day]


def _payload(scalar: dict) -> tuple[dict, dict]:
    """A ``state_arrays()`` payload holding ``scalar``'s reservoirs."""
    meta: dict = {"history_days": 14, "seed": 1000}
    arrays = {}
    for name in ("cloud", "middle"):
        lane = [(i, res) for (of, i), res in scalar.items() if of == name]
        meta[f"{name}_keys"] = [_key_json(name, i, res.day) for i, res in lane]
        meta[f"{name}_seen"] = [res.seen for _, res in lane]
        meta[f"{name}_rng"] = [rng_state_dict(res.rng) for _, res in lane]
        arrays[f"{name}_values"] = np.array(
            [value for _, res in lane for value in res.values], dtype=np.float64
        )
        arrays[f"{name}_lengths"] = np.array(
            [len(res.values) for _, res in lane], dtype=np.int64
        )
    return meta, arrays


def _reservoirs(learner: ExpectedRTTLearner) -> dict:
    """Every reservoir of ``state_arrays()`` by lane and JSON key: its
    seen count, RNG state dict and live values."""
    meta, arrays = learner.state_arrays()
    found = {}
    for name in ("cloud", "middle"):
        live = np.split(
            arrays[f"{name}_values"], np.cumsum(arrays[f"{name}_lengths"])[:-1]
        )
        for key, seen, rng, values in zip(
            meta[f"{name}_keys"], meta[f"{name}_seen"], meta[f"{name}_rng"], live
        ):
            found[name, json.dumps(key)] = (seen, rng, values.tolist())
    return found


class TestLaneStorage:
    """The columnar lane behind both writers (DESIGN.md §4b)."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(0, 900),
        cuts=st.lists(st.integers(0, 900), max_size=6),
    )
    def test_any_chunking_matches_observe_all(self, seed, n, cuts):
        """Any split into consecutive ``observe_batch`` chunks leaves the
        state ``observe_all`` leaves. The history crosses the day-288
        boundary at 60 % and its hot reservoirs pass the 256 fill on
        both sides, so chunks straddle both kinds of boundary."""
        quartets = _hot_history(seed, n, 280, 292)
        scalar = ExpectedRTTLearner()
        scalar.observe_all(quartets)
        chunked = ExpectedRTTLearner()
        edges = [0, *sorted(min(cut, n) for cut in cuts), n]
        for begin, end in zip(edges, edges[1:]):
            chunked.observe_batch(QuartetBatch.from_quartets(quartets[begin:end]))
        assert_learners_identical(scalar, chunked)

    def test_prune_then_continue_matches_scalar(self):
        """Pruning compacts the lanes; rows opened and values folded
        afterwards land as they do for the per-row writer."""
        scalar = ExpectedRTTLearner()
        batched = ExpectedRTTLearner()
        for seed, first, last, prune in ((3, 0, 600, 1), (4, 500, 900, 2)):
            quartets = _hot_history(seed, 800, first, last)
            scalar.observe_all(quartets)
            batched.observe_batch(QuartetBatch.from_quartets(quartets))
            scalar.prune_before(prune)
            batched.prune_before(prune)
            assert_learners_identical(scalar, batched)
        meta, _ = batched.state_arrays()
        assert {day for _, _, day in meta["cloud_keys"]} == {2, 3}

    @pytest.mark.parametrize("writer", ["observe_all", "observe_batch"])
    def test_parent_payload_restores_and_continues(self, writer):
        """``tests/golden/learner_state_v3.json`` holds ``state_arrays()``
        payloads written by the list-per-reservoir learner this storage
        replaced (its ``meta`` still carries the dropped ``version``):
        ``before`` after ``_hot_history(1, 700, 0, 287)``, ``after`` once
        ``_hot_history(2, 500, 200, 400)`` was folded on top. Restoring
        the first and continuing must land exactly on the second."""
        frozen = json.loads(_PARENT_STATE.read_text(encoding="utf-8"))

        def expected(name):
            meta = dict(frozen[name]["meta"])
            del meta["version"]
            return json.dumps(meta), frozen[name]["arrays"]

        learner = ExpectedRTTLearner()
        learner.restore_arrays(
            frozen["before"]["meta"],
            {
                name: np.asarray(values, dtype=dtype)
                for name, (dtype, values) in frozen["before"]["arrays"].items()
            },
        )
        assert _state(learner) == expected("before")
        more = _hot_history(2, 500, 200, 400)
        if writer == "observe_batch":
            learner.observe_batch(QuartetBatch.from_quartets(more))
        else:
            learner.observe_all(more)
        assert _state(learner) == expected("after")

    def test_restore_rejects_lengths_that_disagree_with_seen(self):
        """A reservoir's live length is ``min(seen, 256)``; a payload
        that says otherwise is corrupt, not a state to continue from."""
        meta, arrays = _small_state()
        meta["cloud_seen"][0] += 1
        with pytest.raises(ValueError, match="disagree"):
            ExpectedRTTLearner().restore_arrays(meta, arrays)

    @pytest.mark.parametrize("part", ["keys", "seen", "rng", "lengths"])
    @pytest.mark.parametrize("name", ["cloud", "middle"])
    def test_restore_rejects_columns_of_different_lengths(self, name, part):
        """One entry short and the rows no longer line up: a short RNG
        list used to restore, and the next new row then took an
        existing row's place."""
        meta, arrays = _small_state()
        if part == "lengths":
            arrays[f"{name}_lengths"] = arrays[f"{name}_lengths"][:-1]
        else:
            meta[f"{name}_{part}"].pop()
        with pytest.raises(ValueError, match=f"{name} lane: "):
            ExpectedRTTLearner().restore_arrays(meta, arrays)

    def test_restore_rejects_a_repeated_key(self):
        """Two rows under one ⟨key, day⟩ leave one of them unreachable
        (5 rows over 6 RNG streams)."""
        meta, arrays = _small_state()
        meta["middle_keys"][1] = list(meta["middle_keys"][0])
        with pytest.raises(ValueError, match="middle lane repeats"):
            ExpectedRTTLearner().restore_arrays(meta, arrays)

    @pytest.mark.parametrize("has_uint32", [2, -1])
    def test_restore_rejects_a_bad_half_word_flag(self, has_uint32):
        meta, arrays = _small_state()
        meta["cloud_rng"][0]["has_uint32"] = has_uint32
        restored = ExpectedRTTLearner()
        with pytest.raises(ValueError, match="cloud lane: has_uint32"):
            restored.restore_arrays(meta, arrays)
        assert_learners_identical(restored, ExpectedRTTLearner())

    @pytest.mark.parametrize("seed", range(12))
    def test_lane_draws_match_scalar_integers(self, seed, monkeypatch):
        """A replacement draw is ``integers(0, seen)`` on the reservoir's
        own ``default_rng``. The lane computes it from raw PCG64 words in
        one pass per fold; its draws and every stream's full state (the
        spare half-word, and the stale one left once it is spent) must
        equal one scalar ``integers`` call per draw. Covered: small
        bounds, bounds in [3·2³⁰, 2³²] where about an eighth of draws
        reject, odd and even draw counts (so the spare carries across
        folds), both writers, ``prune_before`` and a JSON round trip
        through ``state_arrays`` → ``restore_arrays`` mid-stream."""
        rng = np.random.default_rng(seed)
        redraws = []
        redraw = _Lane._redraw

        def counted_redraw(lane, *args):
            redraws.append(args[0])
            return redraw(lane, *args)

        monkeypatch.setattr(_Lane, "_redraw", counted_redraw)
        small = [256 + int(rng.integers(0, 500)) for _ in range(3)]
        big = [int(rng.integers(3 * 2**30, 2**32 - 10_000)) for _ in range(3)]
        scalar = {
            (name, i): _ScalarReservoir(seed * 100 + lane_no * 50 + i, seen)
            for lane_no, name in enumerate(("cloud", "middle"))
            for i, seen in enumerate(small + big)
        }
        # Day-0 reservoirs nothing observes, for prune_before to drop.
        scalar["cloud", 6] = _ScalarReservoir(7, 3, day=0)
        scalar["middle", 6] = _ScalarReservoir(8, 3, day=0)
        learner = ExpectedRTTLearner()
        learner.restore_arrays(*_payload(scalar))
        ops = ["batch", "draw", "rows", "batch", "prune", "batch", "restore"]
        for op in ops + ["draw", "rows", "batch", "draw"]:
            if op in ("batch", "rows"):
                per_key = rng.integers(0, 8, size=6)
                quartets = [
                    _quartet(
                        time=293,
                        rtt=round(float(rng.uniform(10, 90)), 1),
                        loc=f"edge-{i}",
                        middle=(10 + i,),
                    )
                    for i in rng.permutation(np.repeat(np.arange(6), per_key)).tolist()
                ]
                for quartet in quartets:
                    i = quartet.middle[0] - 10
                    scalar["cloud", i].add(quartet.mean_rtt_ms)
                    scalar["middle", i].add(quartet.mean_rtt_ms)
                if op == "batch":
                    learner.observe_batch(QuartetBatch.from_quartets(quartets))
                else:
                    learner.observe_all(quartets)
            elif op == "draw":
                for name, lane in (("cloud", learner._cloud), ("middle", learner._middle)):
                    picked = rng.permutation(6)[: rng.integers(1, 7)].tolist()
                    counts = rng.integers(1, 8, size=len(picked))
                    n = int(counts.sum())
                    highs = np.where(
                        rng.random(n) < 0.5,
                        rng.integers(2, 2**10, size=n),
                        rng.integers(3 * 2**30, 2**32 + 1, size=n),
                    )
                    # Rows keep payload order through prune and restore,
                    # and the stale day-0 reservoir is the last row.
                    rows = np.array(picked)
                    expected = []
                    for i, chunk in zip(picked, np.split(highs, np.cumsum(counts)[:-1])):
                        expected += [scalar[name, i].draw(h) for h in chunk.tolist()]
                    assert lane.draw(rows, counts, highs).tolist() == expected
            elif op == "prune":
                learner.prune_before(1)
                del scalar["cloud", 6], scalar["middle", 6]
            else:
                meta, arrays = learner.state_arrays()
                learner = ExpectedRTTLearner()
                learner.restore_arrays(json.loads(json.dumps(meta)), arrays)
            assert _reservoirs(learner) == {
                (name, json.dumps(_key_json(name, i, reservoir.day))): reservoir.state()
                for (name, i), reservoir in scalar.items()
            }
        assert redraws

    def test_a_draw_bound_past_32_bits_raises(self):
        """NumPy draws bounds above 2³² by a different method; the lane
        refuses rather than silently switching streams. The batch only
        queues, so the refusal surfaces at the read that folds it."""
        scalar = {
            (name, 0): _ScalarReservoir(1, 2**32) for name in ("cloud", "middle")
        }
        learner = ExpectedRTTLearner()
        learner.restore_arrays(*_payload(scalar))
        with pytest.raises(ValueError, match="draw bound above"):
            learner.observe_batch(
                QuartetBatch.from_quartets([_quartet(time=288, loc="edge-0")])
            )
            learner.table()

    @pytest.mark.parametrize(
        "field, value, match",
        [("history_days", 0, "history_days"), ("seed", -5, "seed"), ("seed", 7, "seed")],
    )
    def test_restore_rejects_a_field_that_breaks_the_learner_later(
        self, field, value, match
    ):
        """``history_days: 0`` leaves every windowed table empty (the
        constructor refuses it); a seed below the reservoirs held has
        not been issued, and a negative one fails at the first new
        reservoir, far from its cause. ``_small_state`` holds 8."""
        meta, arrays = _small_state()
        meta[field] = value
        restored = ExpectedRTTLearner()
        restored.observe_batch(QuartetBatch.from_quartets(_hot_history(9, 30, 0, 5)))
        reference = ExpectedRTTLearner()
        reference.observe_all(_hot_history(9, 30, 0, 5))
        with pytest.raises(ValueError, match=match):
            restored.restore_arrays(meta, arrays)
        assert_learners_identical(restored, reference)


#: One vocabulary object shared by every batch, as a generator's is.
_LOCATIONS = ("edge-2", "edge-0", "edge-1")
_MIDDLES = ((12,), (10,), (11,))


def _shared_vocabulary(batch: QuartetBatch) -> QuartetBatch:
    """``batch`` re-coded against ``_LOCATIONS`` and ``_MIDDLES``."""
    return dataclasses.replace(
        batch,
        location_index=np.array(
            [_LOCATIONS.index(v) for v in batch.locations], dtype=np.int64
        )[batch.location_index],
        locations=_LOCATIONS,
        middle_index=np.array(
            [_MIDDLES.index(v) for v in batch.middles], dtype=np.int64
        )[batch.middle_index],
        middles=_MIDDLES,
    )


class TestFoldQueue:
    """Observations queue and fold when the queue fills or anything
    reads the learner; every read sees the state a fold per call
    leaves."""

    @pytest.mark.parametrize("fold_rows", [8192, 150])
    @pytest.mark.parametrize("seed", range(4))
    def test_queued_fold_equals_a_fold_after_every_call(
        self, seed, fold_rows, monkeypatch
    ):
        """A seeded mix of shared- and local-vocabulary batches (some
        empty, some across a day boundary), windowed and unwindowed
        tables, pruning, a JSON round trip and per-row observes. The
        reference reads its state after every observe; the queued
        learner's input arrays are overwritten as soon as it returns."""
        monkeypatch.setattr(thresholds, "_FOLD_ROWS", fold_rows)
        rng = np.random.default_rng(seed)
        queued = ExpectedRTTLearner(history_days=2)
        eager = ExpectedRTTLearner(history_days=2)
        ops = ("shared", "local", "table", "window", "prune", "restore", "row")
        time = 250
        for step in range(60):
            op = ops[rng.choice(len(ops), p=[0.3, 0.3, 0.08, 0.08, 0.1, 0.05, 0.09])]
            if op in ("shared", "local"):
                span, rows = int(rng.integers(0, 30)), int(rng.integers(0, 300))
                batch = QuartetBatch.from_quartets(
                    _hot_history(seed * 100 + step, rows, time, time + span)
                )
                if op == "shared":
                    batch = _shared_vocabulary(batch)
                eager.observe_batch(batch)
                eager.state_arrays()
                queued.observe_batch(batch)
                for column in (batch.time, batch.location_index, batch.middle_index):
                    column[:] = 0
                batch.mobile[:] = True
                batch.mean_rtt_ms[:] = -1.0
                time += span + int(rng.integers(0, 10))
            elif op == "table":
                assert queued.table() == eager.table()
            elif op == "window":
                day = time // 288 - int(rng.integers(0, 2))
                assert queued.table(as_of_day=day) == eager.table(as_of_day=day)
            elif op == "prune":
                day = time // 288 + 1 - int(rng.integers(0, 3))  # up to all of it
                queued.prune_before(day)
                eager.prune_before(day)
                assert queued.table() == eager.table()
            elif op == "restore":
                # A snapshot, then rows the restore must discard.
                meta, arrays = queued.state_arrays()
                meta = json.loads(json.dumps(meta))
                extra = QuartetBatch.from_quartets(_hot_history(seed, 50, time, time))
                for learner in (queued, eager):
                    learner.observe_batch(extra)
                    learner.restore_arrays(meta, arrays)
            else:
                quartet = _quartet(time=time, rtt=float(rng.uniform(10, 90)))
                queued.observe(quartet)
                eager.observe(quartet)
        assert_learners_identical(queued, eager)

    def test_a_full_queue_folds(self, monkeypatch):
        """The queue folds on its own once it holds ``_FOLD_ROWS`` rows."""
        monkeypatch.setattr(thresholds, "_FOLD_ROWS", 100)
        folds = []
        fold = _Lane.fold
        monkeypatch.setattr(
            _Lane, "fold", lambda lane, *args: folds.append(1) or fold(lane, *args)
        )
        learner = ExpectedRTTLearner()
        batches = [QuartetBatch.from_quartets(_hot_history(s, 30, 0, 5)) for s in range(4)]
        for batch in batches[:3]:  # 90 rows
            learner.observe_batch(batch)
        assert folds == []
        learner.observe_batch(batches[3])
        assert len(folds) == 2  # one per lane
        learner.table()
        assert len(folds) == 2


class TestTableCache:
    """There is no snapshot cache: every ``table()`` reads the lanes."""

    def test_observe_invalidates(self):
        learner = ExpectedRTTLearner()
        learner.observe(_quartet(rtt=40.0))
        before = learner.table()
        learner.observe(_quartet(rtt=90.0, time=288))
        after = learner.table()
        assert after.expected_cloud("edge-X", False) != before.expected_cloud(
            "edge-X", False
        )

    def test_prune_invalidates(self):
        learner = ExpectedRTTLearner()
        learner.observe(_quartet(rtt=40.0, time=0))
        learner.observe(_quartet(rtt=90.0, time=20 * 288))
        before = learner.table()
        learner.prune_before(day=10)
        after = learner.table()
        assert before.expected_cloud("edge-X", False) == pytest.approx(65.0)
        assert after.expected_cloud("edge-X", False) == pytest.approx(90.0)


class TestDistributionShiftDetector:
    def _trained(self, rng_seed=0):
        from repro.core.thresholds import DistributionShiftDetector
        import numpy as np

        detector = DistributionShiftDetector(ks_threshold=0.3)
        rng = np.random.default_rng(rng_seed)
        for _ in range(400):
            detector.observe_reference(("loc",), float(rng.normal(40.0, 4.0)))
        return detector, rng

    def test_detects_upward_shift(self):
        detector, rng = self._trained()
        shifted = [float(rng.normal(60.0, 4.0)) for _ in range(30)]
        assert detector.shifted(("loc",), shifted) is True

    def test_quiet_on_same_distribution(self):
        detector, rng = self._trained()
        same = [float(rng.normal(40.0, 4.0)) for _ in range(30)]
        assert detector.shifted(("loc",), same) is False

    def test_one_sided_ignores_improvement(self):
        """RTTs getting *better* must not raise a badness flag."""
        detector, rng = self._trained()
        improved = [float(rng.normal(20.0, 4.0)) for _ in range(30)]
        assert detector.shifted(("loc",), improved) is False

    def test_no_reference_no_decision(self):
        detector, _ = self._trained()
        assert detector.shifted(("unknown",), [50.0, 60.0]) is None
        assert detector.shifted(("loc",), []) is None

    def test_reference_bounded(self):
        detector, rng = self._trained()
        for _ in range(5000):
            detector.observe_reference(("loc",), 40.0)
        assert len(detector._reference[("loc",)]) <= 4 * 256

    def test_threshold_validation(self):
        from repro.core.thresholds import DistributionShiftDetector

        with pytest.raises(ValueError):
            DistributionShiftDetector(ks_threshold=0.0)
