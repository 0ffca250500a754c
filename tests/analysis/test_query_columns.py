"""X1-X4's streamed query columns vs the SessionRecord reference functions.

``run_streaming(..., query_columns=True)`` folds :class:`QueryColumns`
shard by shard.  Every X1-X4 measure computed from those columns must
equal the reference function on the record view of the same trace,
exactly: the popularity deciles depend on how count ties are ordered,
X2's downloads on the order of its RNG draws, and X4's mean duration on
the order of its float sum.
"""

import numpy as np
import pytest

from repro.analysis import run_streaming
from repro.analysis.availability import (
    aggregate_availability,
    availability_from_lifetimes,
    churn_by_hour,
    churn_from_lifetimes,
    concurrency_curve,
    concurrency_from_lifetimes,
)
from repro.analysis.caching import (
    cache_hit_rates,
    coded_query_stream,
    query_stream,
    stream_hit_rates,
)
from repro.analysis.hits import (
    HitRateSummary,
    decile_hit_rates,
    hit_rate_by_popularity_decile,
    hit_rate_by_region,
    hit_rate_summary,
    hits_ccdf,
    region_hit_rates,
)
from repro.analysis.streaming import StreamingQueryColumns
from repro.core.events import QueryRecord, SessionRecord
from repro.core.regions import Region
from repro.core.stats import empirical_ccdf
from repro.filtering import StreamingFilter, apply_filters
from repro.measurement import ColumnarTrace, Trace
from repro.synthesis import SynthesisConfig, TraceSynthesizer
from repro.transfers import DownloadModel

#: Five 6-hour shards over 1.25 days: two calendar days, so popularity
#: ranks (and their ties) are per day, and sessions outlive their shard.
CONFIG = SynthesisConfig(days=1.25, mean_arrival_rate=0.25, seed=9191, shard_days=0.25)


@pytest.fixture(scope="module")
def sharded(tmp_path_factory):
    dest = tmp_path_factory.mktemp("query-columns") / "trace"
    return TraceSynthesizer(CONFIG).run_sharded(dest)


@pytest.fixture(scope="module")
def columns(sharded):
    return run_streaming(sharded, query_columns=True).queries


@pytest.fixture(scope="module")
def trace(sharded):
    return sharded.concat().to_trace()


@pytest.fixture(scope="module")
def user_sessions(trace):
    return apply_filters(trace.sessions).sessions


def _ccdf_equal(a, b):
    return np.array_equal(a.x, b.x) and np.array_equal(a.fraction, b.fraction)


class TestFixture:
    def test_is_multi_chunk_and_multi_day(self, sharded, columns):
        assert sharded.n_shards >= 4
        assert np.unique(columns.user.timestamp // 86400.0).size == 2

    def test_sessions_outlive_their_arrival_shard(self, sharded):
        outlived = 0
        for index, shard in enumerate(sharded.iter_shards()):
            if index + 1 < sharded.n_shards:
                window_end = sharded.shards[index + 1].start
                outlived += int(np.count_nonzero(shard.query_timestamp >= window_end))
        assert outlived > 0

    def test_count_ties_span_regions(self, columns):
        user = columns.user
        region = user.query_region()
        day = (user.timestamp // 86400.0).astype(np.int64)
        first_region = {}
        counts = {}
        for d, code, key in zip(day.tolist(), region.tolist(), user.keyword.tolist()):
            first_region.setdefault((d, key), code)
            counts[d, key] = counts.get((d, key), 0) + 1
        tied_regions = {}
        for (d, key), count in counts.items():
            tied_regions.setdefault((d, count), set()).add(first_region[d, key])
        assert any(len(regions) > 1 for regions in tied_regions.values())


class TestWindowAndLifetimes:
    def test_window_is_the_trace_window(self, columns, trace):
        assert (columns.start_time, columns.end_time) == (trace.start_time, trace.end_time)

    def test_churn(self, columns, trace):
        ours = churn_from_lifetimes(
            columns.session_start, columns.session_end, end_time=columns.end_time
        )
        ref = churn_by_hour(trace.sessions, end_time=trace.end_time)
        assert np.array_equal(ours.bin_hours, ref.bin_hours)
        assert np.array_equal(ours.arrivals, ref.arrivals)
        assert np.array_equal(ours.departures, ref.departures)
        assert (ours.total_arrivals, ours.total_departures) == (
            ref.total_arrivals, ref.total_departures,
        )

    def test_concurrency(self, columns, trace):
        for step in (300.0, 900.0):
            times, counts = concurrency_from_lifetimes(
                columns.session_start, columns.session_end, step_seconds=step
            )
            ref_times, ref_counts = concurrency_curve(trace.sessions, step_seconds=step)
            assert np.array_equal(times, ref_times)
            assert counts.dtype == ref_counts.dtype
            assert np.array_equal(counts, ref_counts)

    def test_availability(self, columns, trace):
        span = columns.end_time - columns.start_time
        assert availability_from_lifetimes(
            columns.session_start, columns.session_end, span
        ) == aggregate_availability(trace.sessions, trace.end_time - trace.start_time)

    def test_lifetime_validation(self):
        empty = np.empty(0)
        with pytest.raises(ValueError):
            churn_from_lifetimes(empty, empty)
        with pytest.raises(ValueError):
            concurrency_from_lifetimes(np.ones(1), np.ones(1), step_seconds=0)
        with pytest.raises(ValueError):
            availability_from_lifetimes(np.ones(1), np.ones(1), 0.0)


class TestHitRates:
    def test_summaries(self, columns, trace, user_sessions):
        raw = columns.raw
        assert HitRateSummary.from_hits(columns.user.hits) == hit_rate_summary(user_sessions)
        assert HitRateSummary.from_hits(raw.hits[raw.sha1]) == hit_rate_summary(
            trace.sessions, sha1=True
        )
        assert HitRateSummary.from_hits(raw.hits[~raw.sha1]) == hit_rate_summary(
            trace.sessions, sha1=False
        )

    def test_by_region(self, columns, user_sessions):
        user = columns.user
        assert region_hit_rates(user.hits, user.query_region()) == hit_rate_by_region(
            user_sessions
        )

    def test_hits_ccdf(self, columns, user_sessions):
        assert _ccdf_equal(empirical_ccdf(columns.user.hits), hits_ccdf(user_sessions))

    @pytest.mark.parametrize("n_bins", [10, 7, 2])
    def test_popularity_deciles(self, columns, user_sessions, n_bins):
        user = columns.user
        ours = decile_hit_rates(
            user.timestamp, user.keyword, user.query_region(), user.hits, n_bins=n_bins
        )
        assert ours == hit_rate_by_popularity_decile(user_sessions, n_bins=n_bins)
        assert len(ours) == n_bins

    def test_decile_validation(self):
        empty = np.empty(0)
        with pytest.raises(ValueError):
            decile_hit_rates(empty, empty, empty, empty, n_bins=1)
        assert decile_hit_rates(empty, empty, np.empty(0, np.int8), empty) == []


def _session(region, start, queries):
    return SessionRecord(
        peer_ip=f"10.0.0.{int(start) % 250 + 1}", region=region, start=start,
        end=start + 1000.0,
        queries=tuple(
            QueryRecord(timestamp=start + 10.0 * (i + 1), keywords=kw, hits=hits)
            for i, (kw, hits) in enumerate(queries)
        ),
    )


class TestTieRule:
    """Count ties rank by first occurrence: North American queries in
    trace order first, then European, then Asian -- not by string order,
    and not by trace order across regions."""

    DAY = 86400.0
    DAY0 = [
        _session(Region.NORTH_AMERICA, 0.0, [("zeta", 5), ("yak", 0)]),
        _session(Region.EUROPE, 100.0, [("xray", 0), ("zeta", 5)]),
        _session(Region.ASIA, 200.0, [("walrus", 3)]),
        _session(Region.OTHER, 300.0, [("zeta", 1)]),  # binned, not counted
    ]
    DAY1 = [
        _session(Region.EUROPE, DAY, [("aardvark", 2)]),
        _session(Region.NORTH_AMERICA, DAY + 100.0, [("beta", 0)]),
    ]

    def _columns(self):
        filt = StreamingFilter()
        reducer = StreamingQueryColumns()
        for start, sessions in ((0.0, self.DAY0), (self.DAY, self.DAY1)):
            chunk = ColumnarTrace.from_trace(Trace(start, start + self.DAY, sessions=sessions))
            reducer.update(filt.push(chunk))
        return reducer.finalize()

    def test_reference_pins_first_occurrence(self):
        # Day 0: zeta (2) | yak (NA), xray (EU), walrus (AS); day 1: beta
        # (NA) | aardvark (EU), although aardvark is seen first.
        rows = hit_rate_by_popularity_decile(self.DAY0 + self.DAY1, n_bins=2)
        assert rows == [(1, 3 / 5, 11 / 5), (2, 2 / 3, 5 / 3)]

    def test_columns_follow_the_same_rule(self):
        user = self._columns().user
        rows = decile_hit_rates(
            user.timestamp, user.keyword, user.query_region(), user.hits, n_bins=2
        )
        assert rows == hit_rate_by_popularity_decile(self.DAY0 + self.DAY1, n_bins=2)


class TestCaching:
    def test_coded_stream_is_the_query_stream(self, columns, trace, user_sessions):
        lowered = {}
        for code, key in zip(columns.cache_key.tolist(), columns.keywords.tolist()):
            lowered.setdefault(code, key.lower())
            assert lowered[code] == key.lower()
        for table, sessions in ((columns.raw, trace.sessions), (columns.user, user_sessions)):
            times, codes = coded_query_stream(table.timestamp, columns.cache_key[table.keyword])
            assert list(zip(times, (lowered[code] for code in codes))) == query_stream(sessions)

    def test_cache_key_order_is_lowered_string_order(self, columns):
        lowered = [k.lower() for k in columns.keywords.tolist()]
        order = np.argsort(columns.cache_key, kind="stable")
        assert [lowered[i] for i in order] == sorted(lowered)

    def test_hit_rates(self, columns, trace, user_sessions):
        raw, user = columns.raw, columns.user
        ours = stream_hit_rates(
            coded_query_stream(raw.timestamp, columns.cache_key[raw.keyword]),
            coded_query_stream(user.timestamp, columns.cache_key[user.keyword]),
        )
        assert ours == cache_hit_rates(trace.sessions, user_sessions)


class TestDownloads:
    @pytest.mark.parametrize("seed", [20040322, 5])
    def test_downloads_equal(self, columns, user_sessions, seed):
        ours = DownloadModel(seed=seed).generate_from_columns(columns.user, columns.keywords)
        ref = DownloadModel(seed=seed).generate(user_sessions)
        assert ours and ours == ref
