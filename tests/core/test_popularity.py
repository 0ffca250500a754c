"""Tests for the query popularity model (classes, Zipf, hot-set drift)."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.popularity import (
    BodyTailZipf,
    QueryClassId,
    QueryUniverse,
    _top_ranked,
    region_class_probabilities,
    top_n_overlap,
    zipf_for_class,
)
from repro.core.regions import Region
from universe_reference import ReferenceUniverse

RNG = np.random.default_rng(17)


class TestRegionClassProbabilities:
    def test_own_class_dominates(self):
        # Section 4.6: own-region class with probability 0.97.
        for region in (Region.NORTH_AMERICA, Region.EUROPE, Region.ASIA):
            probs = region_class_probabilities(region)
            own = max(probs.values())
            assert own == pytest.approx(0.97, abs=1e-9)

    def test_probabilities_sum_to_one(self):
        probs = region_class_probabilities(Region.EUROPE)
        assert sum(probs.values()) == pytest.approx(1.0, abs=1e-9)

    def test_region_sees_only_its_classes(self):
        probs = region_class_probabilities(Region.ASIA)
        assert QueryClassId.NA_EU not in probs
        assert QueryClassId.AS_ONLY in probs
        assert QueryClassId.ALL in probs

    def test_other_aliases_na(self):
        assert region_class_probabilities(Region.OTHER) == region_class_probabilities(
            Region.NORTH_AMERICA
        )


class TestBodyTailZipf:
    def test_pmf_normalizes(self):
        bt = BodyTailZipf(0.453, 4.67, split=45, n=100)
        assert sum(bt.pmf(r) for r in range(1, 101)) == pytest.approx(1.0, abs=1e-12)

    def test_tail_steeper_than_body(self):
        bt = BodyTailZipf(0.453, 4.67, split=45, n=100)
        body_ratio = bt.pmf(1) / bt.pmf(45)
        tail_ratio = bt.pmf(46) / bt.pmf(100)
        # Body spans 45 ranks with a shallow slope; the 54 tail ranks drop
        # far more steeply.
        assert tail_ratio > body_ratio

    def test_continuous_at_split(self):
        bt = BodyTailZipf(0.5, 4.0, split=10, n=50)
        # No discontinuity jump: pmf(11)/pmf(10) stays close to 1.
        assert 0.5 < bt.pmf(11) / bt.pmf(10) < 1.0

    def test_sampling_in_support(self):
        bt = BodyTailZipf(0.453, 4.67, split=45, n=100)
        s = bt.sample(RNG, 5000)
        assert s.min() >= 1 and s.max() <= 100

    def test_rejects_bad_split(self):
        with pytest.raises(ValueError):
            BodyTailZipf(0.5, 4.0, split=100, n=100)


class TestZipfForClass:
    def test_na_uses_published_alpha(self):
        z = zipf_for_class(QueryClassId.NA_ONLY, 100)
        assert z.alpha == pytest.approx(0.386)

    def test_intersection_uses_body_tail(self):
        z = zipf_for_class(QueryClassId.NA_EU, 100)
        assert isinstance(z, BodyTailZipf)

    def test_small_intersection_falls_back(self):
        z = zipf_for_class(QueryClassId.NA_EU, 10)
        assert not isinstance(z, BodyTailZipf)

    def test_rejects_empty_class(self):
        with pytest.raises(ValueError):
            zipf_for_class(QueryClassId.ALL, 0)


class TestQueryUniverse:
    def test_daily_sizes_match_table3(self):
        u = QueryUniverse(period_days=1, seed=1)
        assert u.daily_size(QueryClassId.NA_ONLY) == 1990 - 56 - 5 - 2
        assert u.daily_size(QueryClassId.ALL) == 2

    def test_scale_factor(self):
        u = QueryUniverse(seed=1, scale=0.1)
        assert u.daily_size(QueryClassId.NA_ONLY) == pytest.approx(193, abs=2)

    def test_rankings_are_deterministic(self):
        a = QueryUniverse(seed=5).daily_ranking(3, QueryClassId.EU_ONLY)
        b = QueryUniverse(seed=5).daily_ranking(3, QueryClassId.EU_ONLY)
        assert a == b

    def test_rankings_depend_on_seed(self):
        a = QueryUniverse(seed=5).daily_ranking(0, QueryClassId.NA_ONLY)
        b = QueryUniverse(seed=6).daily_ranking(0, QueryClassId.NA_ONLY)
        assert a != b

    def test_out_of_order_day_access(self):
        u = QueryUniverse(seed=5)
        late = u.daily_ranking(4, QueryClassId.NA_ONLY)
        early = u.daily_ranking(2, QueryClassId.NA_ONLY)
        u2 = QueryUniverse(seed=5)
        assert u2.daily_ranking(2, QueryClassId.NA_ONLY) == early
        assert u2.daily_ranking(4, QueryClassId.NA_ONLY) == late

    def test_hot_set_drift_band(self):
        # Fig. 10(a): for ~80% of days at most 4 of the top 10 appear in
        # the next day's top 100.
        u = QueryUniverse(seed=11)
        overlaps = [
            top_n_overlap(
                u.daily_ranking(d, QueryClassId.NA_ONLY),
                u.daily_ranking(d + 1, QueryClassId.NA_ONLY),
                (1, 10), 100,
            )
            for d in range(40)
        ]
        frac_low = np.mean([o <= 4 for o in overlaps])
        assert 0.55 <= frac_low <= 0.98

    def test_sample_returns_class_member(self):
        u = QueryUniverse(seed=2)
        sampled = u.sample(RNG, day=0, region=Region.EUROPE)
        ranking = u.daily_ranking(0, sampled.query_class)
        assert sampled.keywords in ranking
        assert ranking[sampled.rank - 1] == sampled.keywords

    def test_sample_mostly_own_class(self):
        u = QueryUniverse(seed=2)
        own = sum(
            u.sample(RNG, day=0, region=Region.NORTH_AMERICA).query_class
            is QueryClassId.NA_ONLY
            for _ in range(800)
        )
        assert own / 800 == pytest.approx(0.97, abs=0.03)

    def test_rejects_bad_period(self):
        with pytest.raises(ValueError):
            QueryUniverse(period_days=3)

    def test_rejects_bad_persistence(self):
        with pytest.raises(ValueError):
            QueryUniverse(persistence=1.0)

    def test_rejects_negative_day(self):
        with pytest.raises(ValueError):
            QueryUniverse().daily_ranking(-1, QueryClassId.NA_ONLY)

    def test_ranking_array_is_the_listed_ranking(self):
        u = QueryUniverse(seed=5)
        for cls in QueryClassId:
            arr = u.ranking_array(2, cls)
            listed = u.daily_ranking(2, cls)
            assert arr.tolist() == listed
            # The width np.array(list) gives: part of the frame bytes.
            assert arr.dtype == np.array(listed, dtype=np.str_).dtype

    @staticmethod
    def ranked_days(u, cls):
        """Days ``cls`` holds a ranking for, each an int32 index array."""
        days = sorted(d for c, d in u._rankings if c is cls)
        assert all(u._rankings[(cls, d)].dtype == np.int32 for d in days)
        return days

    def test_score_chain_keeps_only_its_head(self):
        u = QueryUniverse(seed=5)
        cls = QueryClassId.NA_ONLY
        u.ranking_array(5, cls)  # draws days 0-5 and ranks each
        assert list(u._heads) == [cls] and u._heads[cls][0] == 5
        assert self.ranked_days(u, cls) == [0, 1, 2, 3, 4, 5]
        state = u._rng.bit_generator.state
        u.ranking_array(2, cls)  # already ranked: no draw
        assert u._rng.bit_generator.state == state
        assert u.held_days() == [0, 1, 2, 3, 4, 5]
        u.ranking_array(7, cls)  # draws days 6-7 from the head
        assert list(u._heads) == [cls] and u._heads[cls][0] == 7
        assert self.ranked_days(u, cls) == [0, 1, 2, 3, 4, 5, 6, 7]
        assert u.held_days() == [0, 1, 2, 3, 4, 5, 6, 7]
        fresh = QueryUniverse(seed=5)
        for day in (5, 2, 7, 0, 6):
            assert fresh.daily_ranking(day, cls) == u.daily_ranking(day, cls)

    def test_dropped_days_raise_and_later_days_are_unchanged(self):
        keep = QueryUniverse(seed=9).prebuild(1)
        drop = QueryUniverse(seed=9).prebuild(1)
        drop.drop_days_before(1)
        assert drop.held_days() == [1]
        with pytest.raises(ValueError, match="dropped"):
            drop.daily_ranking(0, QueryClassId.EU_ONLY)
        with pytest.raises(ValueError, match="dropped"):
            drop.lookup(0, "eu_only-q00001")
        for day in (1, 2, 4):
            for cls in QueryClassId:
                assert drop.daily_ranking(day, cls) == keep.daily_ranking(day, cls)

    def test_a_chain_behind_the_dropped_days_keeps_none_of_them(self):
        u = QueryUniverse(seed=9)
        cls = QueryClassId.AS_ONLY
        u.ranking_array(1, cls)
        u.drop_days_before(4)
        assert u._heads[cls][0] == 1  # the head, ranked and dropped
        assert self.ranked_days(u, cls) == []
        assert u.held_days() == []
        u.ranking_array(6, cls)  # draws days 2-6 from day 1, ranks 4-6
        assert list(u._heads) == [cls] and u._heads[cls][0] == 6
        assert self.ranked_days(u, cls) == [4, 5, 6]
        assert u.held_days() == [4, 5, 6]
        assert u.daily_ranking(6, cls) == QueryUniverse(seed=9).daily_ranking(6, cls)

    def test_keywords_are_rows_of_the_ranking(self):
        u = QueryUniverse(seed=5)
        ranks = np.array([3, 1, 3, 7])
        for cls in QueryClassId:
            rows = u.keywords(4, cls, np.minimum(ranks, u.daily_size(cls)))
            whole = u.ranking_array(4, cls)
            assert rows.dtype == whole.dtype
            assert rows.tolist() == whole[np.minimum(ranks, whole.size) - 1].tolist()
            assert u.ranking_width(4, cls) == whole.dtype.itemsize // 4


#: NA_ONLY's pool then ends at q100004, so some days rank a six-digit
#: string and some do not: the ranking's width varies by day.
WIDE_SCALE = 20001 / 1927

CLASSES = st.sampled_from(list(QueryClassId))
universe_calls = st.lists(
    st.one_of(
        st.tuples(st.just("ranking_array"), st.integers(-1, 8), CLASSES),
        st.tuples(st.just("daily_ranking"), st.integers(-1, 8), CLASSES),
        st.tuples(st.just("lookup"), st.integers(-1, 8), CLASSES, st.integers(0, 120)),
        st.tuples(st.just("drop_days_before"), st.integers(0, 8)),
    ),
    max_size=12,
)


def outcome(universe, call):
    """What one call returns (arrays as list and dtype), or the error it raises."""
    name, day, *args = call
    try:
        if name == "lookup":
            cls, index = args
            return universe.lookup(day, f"{cls.value}-q{index:05d}")
        result = getattr(universe, name)(day, *args)
    except ValueError as exc:
        return "ValueError", str(exc)
    if isinstance(result, np.ndarray):
        return result.tolist(), result.dtype
    return result


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 3), scale=st.sampled_from([0.05, WIDE_SCALE]), calls=universe_calls)
@example(  # NA_ONLY's day-4 ranking is one character narrower than its pool
    seed=1, scale=WIDE_SCALE, calls=[
        ("ranking_array", 4, QueryClassId.NA_ONLY),
        ("ranking_array", 2, QueryClassId.NA_ONLY),
        ("drop_days_before", 3),
        ("lookup", 5, QueryClassId.EU_ONLY, 7),
        ("ranking_array", 2, QueryClassId.NA_ONLY),
    ],
)
def test_index_memo_answers_like_the_string_memo(seed, scale, calls):
    universe = QueryUniverse(seed=seed, scale=scale)
    reference = ReferenceUniverse(seed=seed, scale=scale)
    for call in calls:
        assert outcome(universe, call) == outcome(reference, call), call
        assert universe.held_days() == reference.held_days(), call
        assert universe._rng.bit_generator.state == reference._rng.bit_generator.state


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 300), data=st.data())
@example(seed=0, n=300, data=None)  # ties the partition orders unlike the full sort
def test_top_ranked_is_the_head_of_a_full_sort(seed, n, data):
    rng = np.random.default_rng(seed)
    scores = rng.integers(-3, 4, size=n).astype(float)  # ties
    if data is None:
        k = 290
    else:
        k = data.draw(st.integers(1, n - 1), label="k")
        if data.draw(st.booleans(), label="tie-free"):
            scores += rng.standard_normal(n)
    got = _top_ranked(scores, k)
    assert got.dtype == np.int32
    assert got.tolist() == np.argsort(-scores)[:k].tolist()


class TestTopNOverlap:
    def test_full_overlap(self):
        ranking = [f"q{i}" for i in range(100)]
        assert top_n_overlap(ranking, ranking, (1, 10), 100) == 10

    def test_disjoint(self):
        a = [f"a{i}" for i in range(50)]
        b = [f"b{i}" for i in range(50)]
        assert top_n_overlap(a, b, (1, 10), 50) == 0

    def test_rank_range_selects_slice(self):
        a = [f"q{i}" for i in range(30)]
        b = list(reversed(a))
        # ranks 11-20 of a are q10..q19; b's top 10 are q29..q20.
        assert top_n_overlap(a, b, (11, 20), 10) == 0
        assert top_n_overlap(a, b, (21, 30), 10) == 10

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            top_n_overlap([], [], (0, 5), 10)
