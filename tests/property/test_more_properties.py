"""Property-based tests over the substrate layers (hypothesis)."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.analysis.caching import LruResultCache
from repro.core.popularity import QueryClassId, QueryUniverse
from repro.core.regions import Region
from repro.measurement import IDLE_CLOSE_SECONDS, IDLE_PROBE_SECONDS, MeasurementNode
from repro.viz.axes import LinearScale, LogScale, nice_linear_ticks
from gnutella_reference.qrp import QueryRouteTable, keyword_hash

# -- QRP: never a false negative ------------------------------------------------

file_names = st.lists(
    st.text(alphabet=st.characters(min_codepoint=97, max_codepoint=122), min_size=1, max_size=12),
    min_size=1, max_size=20,
).map(lambda words: " ".join(words))


@given(names=st.lists(file_names, min_size=1, max_size=30),
       log_size=st.integers(6, 16))
def test_qrp_no_false_negatives(names, log_size):
    table = QueryRouteTable(log_size=log_size)
    table.add_library(names)
    for name in names:
        assert table.might_match(name)


@given(word=st.text(min_size=1, max_size=30), bits=st.integers(1, 32))
def test_keyword_hash_in_range(word, bits):
    value = keyword_hash(word, bits)
    assert 0 <= value < (1 << bits)


# -- monitor accounting ----------------------------------------------------------

session_specs = st.lists(
    st.tuples(
        st.floats(0.0, 10_000.0),            # open time
        st.floats(0.1, 5_000.0),             # lifetime
        st.integers(0, 5),                   # queries
        st.booleans(),                       # bye?
    ),
    min_size=0, max_size=20,
)


@settings(max_examples=50)
@given(specs=session_specs)
def test_monitor_session_accounting(specs):
    node = MeasurementNode(max_slots=None)
    expected = 0
    for index, (opened, lifetime, n_queries, bye) in enumerate(sorted(specs)):
        conn = node.open_connection(
            opened, peer_ip=f"64.0.{index // 200}.{index % 200 + 1}",
            region=Region.EUROPE, user_agent="X",
        )
        assert conn is not None
        expected += 1
        for k in range(n_queries):
            node.receive_query(conn, opened + (k + 1) * lifetime / (n_queries + 1), f"q{k}")
        end = opened + lifetime
        if bye:
            session = node.client_bye(conn, end)
            assert session.end == pytest.approx(max(end, session.queries[-1].timestamp) if session.queries else end)
        else:
            session = node.client_departed(conn, end)
            assert session.end >= end + IDLE_PROBE_SECONDS + IDLE_CLOSE_SECONDS - 1e-9
        assert session.query_count == n_queries
    assert len(node.finalize(1e6)) == expected


# -- query universe ----------------------------------------------------------------

@settings(max_examples=20)
@given(day=st.integers(0, 6), seed=st.integers(0, 5))
def test_universe_lookup_consistent_with_ranking(day, seed):
    universe = QueryUniverse(seed=seed, scale=0.05)
    for cls in (QueryClassId.NA_ONLY, QueryClassId.AS_ONLY):
        ranking = universe.daily_ranking(day, cls)
        for rank, query in enumerate(ranking[:10], start=1):
            located = universe.lookup(day, query)
            assert located == (cls, rank)


@settings(max_examples=20)
@given(day=st.integers(0, 4))
def test_universe_daily_sets_disjoint_across_classes(day):
    universe = QueryUniverse(seed=3, scale=0.05)
    seen = set()
    for cls in QueryClassId:
        ranking = set(universe.daily_ranking(day, cls))
        assert not (ranking & seen)  # string pools are disjoint by class
        seen |= ranking


# -- LRU cache ----------------------------------------------------------------------

cache_ops = st.lists(
    st.tuples(st.integers(0, 8), st.floats(0.0, 1000.0)),
    min_size=1, max_size=60,
)


@given(ops=cache_ops, capacity=st.integers(1, 6))
def test_lru_cache_capacity_invariant(ops, capacity):
    cache = LruResultCache(capacity=capacity, ttl=1e9)
    for key, raw_time in sorted(ops, key=lambda o: o[1]):
        cache.lookup(f"k{key}", raw_time)
        assert len(cache) <= capacity
    assert cache.hits + cache.misses == len(ops)


# -- axis scales -----------------------------------------------------------------------

@given(
    lo=st.floats(-1e6, 1e6), span=st.floats(1e-3, 1e6),
    value=st.floats(-1e6, 1e6),
)
def test_linear_scale_monotone(lo, span, value):
    scale = LinearScale(lo, lo + span, 0.0, 100.0)
    v2 = value + span / 10
    assert scale.transform(value) <= scale.transform(v2) + 1e-9


@given(lo=st.floats(1e-3, 1e3), ratio=st.floats(1.5, 1e6))
def test_log_scale_decade_spacing(lo, ratio):
    scale = LogScale(lo, lo * ratio, 0.0, 100.0)
    mid = (lo * lo * ratio) ** 0.5  # geometric midpoint
    assert scale.transform(mid) == pytest.approx(50.0, abs=1.0)


@given(lo=st.floats(-1e4, 1e4), span=st.floats(0.1, 1e4))
def test_linear_ticks_inside_range(lo, span):
    ticks = nice_linear_ticks(lo, lo + span)
    assume(ticks)
    assert all(lo - 1e-6 <= t <= lo + span + 1e-6 for t in ticks)
