"""Property-based tests (hypothesis) on the core invariants."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.distributions import (
    Lognormal,
    Pareto,
    Spliced,
    Truncated,
    Weibull,
    Zipf,
)
from repro.core.events import QueryRecord, SessionRecord
from repro.core.regions import Region
from repro.core.stats import empirical_ccdf
from repro.filtering import apply_filters, rule2_duplicates, rule45_interarrival_marks
from gnutella_reference.messages import Query, decode, new_guid
from gnutella_reference.routing import RoutingTable

# -- distribution laws ---------------------------------------------------------

finite_mu = st.floats(min_value=-5.0, max_value=8.0, allow_nan=False)
sigma = st.floats(min_value=0.05, max_value=4.0, allow_nan=False)
probability = st.floats(min_value=0.001, max_value=0.999, allow_nan=False)


@given(mu=finite_mu, s=sigma, q=probability)
def test_lognormal_ppf_inverts_cdf(mu, s, q):
    dist = Lognormal(mu, s)
    assert dist.cdf(dist.ppf(q)) == pytest.approx(q, abs=1e-6)


@given(mu=finite_mu, s=sigma, x1=st.floats(0.01, 1e5), x2=st.floats(0.01, 1e5))
def test_lognormal_cdf_monotone(mu, s, x1, x2):
    dist = Lognormal(mu, s)
    lo, hi = min(x1, x2), max(x1, x2)
    assert dist.cdf(lo) <= dist.cdf(hi) + 1e-12


@given(alpha=st.floats(0.2, 5.0), lam=st.floats(1e-5, 1.0), q=probability)
def test_weibull_ppf_inverts_cdf(alpha, lam, q):
    dist = Weibull(alpha, lam)
    assert dist.cdf(dist.ppf(q)) == pytest.approx(q, abs=1e-6)


@given(alpha=st.floats(0.3, 5.0), beta=st.floats(0.5, 1e4), q=probability)
def test_pareto_support_and_inverse(alpha, beta, q):
    dist = Pareto(alpha, beta)
    x = dist.ppf(q)
    assert x >= beta - 1e-9
    assert dist.cdf(x) == pytest.approx(q, abs=1e-9)


@given(
    mu=st.floats(0.0, 4.0), s=st.floats(0.2, 3.0),
    low=st.floats(1.0, 50.0), width=st.floats(1.0, 200.0),
    q=probability,
)
def test_truncated_stays_in_window(mu, s, low, width, q):
    base = Lognormal(mu, s)
    assume(base.cdf(low + width) - base.cdf(low) > 1e-6)
    dist = Truncated(base, low, low + width)
    x = dist.ppf(q)
    assert low - 1e-6 <= x <= low + width + 1e-6


@given(
    weight=st.floats(0.05, 0.95),
    boundary=st.floats(10.0, 500.0),
    q=probability,
)
def test_spliced_cdf_hits_weight_at_boundary(weight, boundary, q):
    dist = Spliced(Lognormal(2.0, 2.0), Lognormal(6.0, 2.0), boundary, weight)
    assert dist.cdf(boundary) == pytest.approx(weight, abs=1e-9)
    x = dist.ppf(q)
    if q < weight:
        assert x <= boundary + 1e-6
    else:
        assert x >= boundary - 1e-6


@given(alpha=st.floats(0.0, 3.0), n=st.integers(1, 500))
def test_zipf_pmf_sums_to_one(alpha, n):
    z = Zipf(alpha, n)
    assert sum(z.pmf(r) for r in range(1, n + 1)) == pytest.approx(1.0, abs=1e-9)


@given(values=st.lists(st.floats(0.1, 1e6), min_size=1, max_size=200))
def test_empirical_ccdf_bounds_and_monotone(values):
    ccdf = empirical_ccdf(values)
    assert np.all(ccdf.fraction >= 0.0) and np.all(ccdf.fraction < 1.0)
    assert np.all(np.diff(ccdf.fraction) <= 1e-12)
    assert ccdf.at(max(values)) == 0.0
    assert ccdf.at(min(values) - 1.0) == 1.0


# -- codec ---------------------------------------------------------------------

@given(
    keywords=st.text(
        alphabet=st.characters(blacklist_characters="\x00", blacklist_categories=("Cs",)),
        max_size=80,
    ),
    ttl=st.integers(0, 255),
    hops=st.integers(0, 255),
    min_speed=st.integers(0, 65535),
)
def test_query_codec_roundtrip(keywords, ttl, hops, min_speed):
    q = Query(guid=new_guid(), ttl=ttl, hops=hops, keywords=keywords, min_speed=min_speed)
    decoded, rest = decode(q.encode())
    assert rest == b""
    assert decoded == q


# -- routing table -------------------------------------------------------------

@given(st.lists(st.tuples(st.integers(0, 20), st.floats(0.0, 100.0)), max_size=60))
def test_routing_table_never_exceeds_capacity(events):
    table = RoutingTable(ttl_seconds=30.0, max_entries=10)
    now = 0.0
    guids = [new_guid() for _ in range(21)]
    for idx, dt in sorted(events, key=lambda e: e[1]):
        now = max(now, dt)
        table.record(guids[idx], "peer", now)
        assert len(table) <= 10


# -- filtering invariants --------------------------------------------------------

query_times = st.lists(
    st.floats(min_value=0.0, max_value=10_000.0, allow_nan=False),
    min_size=0, max_size=30,
).map(sorted)


@given(times=query_times)
def test_rule2_output_unique(times):
    queries = [
        QueryRecord(timestamp=t, keywords=f"kw{i % 5}") for i, t in enumerate(times)
    ]
    kept, removed = rule2_duplicates(queries)
    keys = [frozenset(k.keywords.split()) for k in kept]
    assert len(keys) == len(set(keys))
    assert len(kept) + removed == len(queries)


@given(times=query_times)
def test_rule45_eligible_subset_and_gaps(times):
    queries = [QueryRecord(timestamp=t, keywords=f"u{i}") for i, t in enumerate(times)]
    eligible, r4, r5 = rule45_interarrival_marks(queries)
    assert len(eligible) + 0 <= len(queries)
    assert r4 >= 0 and r5 >= 0
    eligible_times = [q.timestamp for q in eligible]
    assert eligible_times == sorted(eligible_times)


@settings(max_examples=30)
@given(
    spec=st.lists(
        st.tuples(
            st.floats(0.0, 5000.0),        # start
            st.floats(1.0, 5000.0),        # duration
            st.integers(0, 6),             # number of queries
        ),
        max_size=12,
    )
)
def test_filter_pipeline_accounting_always_balances(spec):
    sessions = []
    for start, duration, n_queries in spec:
        times = np.linspace(start + 0.5, start + duration - 0.1, n_queries)
        assume(all(t >= start for t in times))
        queries = tuple(
            QueryRecord(timestamp=float(t), keywords=f"k{i}") for i, t in enumerate(times)
        )
        sessions.append(
            SessionRecord(peer_ip="1.1.1.1", region=Region.EUROPE,
                          start=start, end=start + duration, queries=queries)
        )
    report = apply_filters(sessions).report
    assert (
        report.initial_queries
        - report.rule1_removed_queries
        - report.rule2_removed_queries
        - report.rule3_removed_queries
        == report.final_queries
    )
    assert (
        report.final_queries
        - report.rule4_removed_queries
        - report.rule5_removed_queries
        == report.final_interarrival_queries
    )
