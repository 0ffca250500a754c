"""Unit tests for the analysis modules on hand-crafted sessions."""

import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import (
    active_sessions,
    daily_region_counts,
    drift_counts,
    drift_distribution,
    passive_duration_ccdf_by_region,
    passive_fraction_by_hour,
    query_class_sizes,
    query_load,
    sessions_by_region,
)
from repro.analysis.common import MAJOR, session_start_period
from repro.analysis.popularity import daily_class_ranking
from repro.core.events import QueryRecord, SessionRecord
from repro.core.popularity import QueryClassId
from repro.core.regions import KeyPeriod, Region
from repro.filtering import apply_filters


def q(t, keywords="query"):
    return QueryRecord(timestamp=t, keywords=keywords)


def session(region, start, duration, queries=()):
    return SessionRecord(
        peer_ip="64.0.0.1", region=region, start=start, end=start + duration,
        queries=tuple(queries),
    )


class TestCommon:
    def test_session_start_period(self):
        s = session(Region.EUROPE, 3 * 3600.0 + 5, 100.0)
        assert session_start_period(s) is KeyPeriod.H03
        s2 = session(Region.EUROPE, 5 * 3600.0, 100.0)
        assert session_start_period(s2) is None

    def test_sessions_by_region_drops_other(self):
        sessions = [
            session(Region.EUROPE, 0.0, 100.0),
            session(Region.OTHER, 0.0, 100.0),
        ]
        grouped = sessions_by_region(sessions)
        assert len(grouped[Region.EUROPE]) == 1
        assert Region.OTHER not in grouped


class TestPassiveAnalysis:
    def test_fraction_by_hour(self):
        sessions = [
            session(Region.ASIA, 3600.0, 100.0),                     # passive, hour 1
            session(Region.ASIA, 3700.0, 100.0, [q(3750.0)]),        # active, hour 1
        ]
        profiles = passive_fraction_by_hour(sessions)
        assert profiles[Region.ASIA].average[1] == pytest.approx(0.5)

    def test_duration_ccdf_only_passive(self):
        sessions = [
            session(Region.EUROPE, 0.0, 100.0),
            session(Region.EUROPE, 0.0, 300.0),
            session(Region.EUROPE, 0.0, 999.0, [q(10.0)]),  # active: excluded
        ]
        ccdf = passive_duration_ccdf_by_region(sessions)[Region.EUROPE]
        assert ccdf.at(200.0) == pytest.approx(0.5)
        assert ccdf.at(400.0) == 0.0


class TestActiveViews:
    def make_filtered(self):
        sessions = [
            session(Region.NORTH_AMERICA, 0.0, 500.0,
                    [q(50.0, "a"), q(150.0, "b"), q(300.0, "c")]),
            session(Region.NORTH_AMERICA, 0.0, 400.0),  # passive
        ]
        return apply_filters(sessions)

    def test_view_measures(self):
        views = active_sessions(self.make_filtered())
        assert len(views) == 1
        v = views[0]
        assert v.n_queries == 3
        assert v.time_until_first == pytest.approx(50.0)
        assert v.time_after_last == pytest.approx(200.0)
        assert v.interarrivals == pytest.approx((100.0, 150.0))

    def test_last_query_period(self):
        s = session(Region.EUROPE, 11 * 3600.0, 500.0, [q(11 * 3600.0 + 60.0, "x")])
        views = active_sessions(apply_filters([s]))
        assert views[0].last_query_period is KeyPeriod.H11


class TestLoad:
    def test_load_binning(self):
        sessions = [
            session(Region.EUROPE, 0.0, 200.0, [q(30.0 * 60), q(40.0 * 60)]),
            session(Region.NORTH_AMERICA, 0.0, 200.0, [q(100.0)]),
            session(Region.ASIA, 0.0, 200.0, [q(50.0)]),
        ]
        profiles = query_load(sessions)
        eu = profiles[Region.EUROPE]
        assert eu.average[1] == pytest.approx(2.0)  # bin 00:30-01:00

    def test_requires_queries(self):
        with pytest.raises(ValueError):
            query_load([session(Region.EUROPE, 0.0, 100.0)])


class TestPopularityAnalysis:
    def make_sessions(self):
        day = 86400.0
        out = []
        # Day 0: NA issues a, b; EU issues b, c; AS issues d.
        out.append(session(Region.NORTH_AMERICA, 10.0, 300.0,
                           [q(20.0, "a"), q(120.0, "b")]))
        out.append(session(Region.EUROPE, 10.0, 300.0,
                           [q(30.0, "b"), q(130.0, "c")]))
        out.append(session(Region.ASIA, 10.0, 300.0, [q(40.0, "d")]))
        # Day 1: NA issues a only.
        out.append(session(Region.NORTH_AMERICA, day + 10.0, 300.0, [q(day + 20.0, "a")]))
        return out

    def test_daily_region_counts(self):
        daily = daily_region_counts(self.make_sessions())
        assert daily[0][Region.NORTH_AMERICA]["a"] == 1
        assert daily[0][Region.EUROPE]["c"] == 1
        assert 1 in daily

    def test_class_membership(self):
        daily = daily_region_counts(self.make_sessions())
        na_only = daily_class_ranking(daily, 0, QueryClassId.NA_ONLY)
        assert [x for x, _ in na_only] == ["a"]
        na_eu = daily_class_ranking(daily, 0, QueryClassId.NA_EU)
        assert [x for x, _ in na_eu] == ["b"]
        # b's count sums both regions' observations.
        assert na_eu[0][1] == 2

    def test_query_class_sizes(self):
        sizes = query_class_sizes(self.make_sessions(), period_days=1)
        assert sizes.na_eu == pytest.approx(1, abs=1)
        assert sizes.as_only >= 0

    def test_period_longer_than_trace_rejected(self):
        with pytest.raises(ValueError):
            query_class_sizes(self.make_sessions(), period_days=4)

    def test_drift_counts(self):
        counts = drift_counts(self.make_sessions(), Region.NORTH_AMERICA,
                              rank_range=(1, 10), top_n=10)
        assert counts == [1]  # "a" survives to day 1's top 10

    def test_drift_counts_ignore_key_order(self):
        # Count ties rank by query string, whatever order the daily
        # dictionaries hold their keys in (first occurrence on records,
        # ascending on the streamed counts).
        def two_days(order):
            days = ({"a": 2, "z": 1, "m": 1, "b": 1}, {"z": 2, "b": 1, "m": 1})
            return {
                day: {
                    r: Counter({k: counts[k] for k in order(counts)})
                    if r is Region.NORTH_AMERICA else Counter()
                    for r in MAJOR
                }
                for day, counts in enumerate(days)
            }

        forward, backward = two_days(list), two_days(lambda c: list(c)[::-1])
        assert forward == backward
        for rank in range(1, 5):
            for top_n in range(1, 4):
                args = (Region.NORTH_AMERICA, (rank, rank), top_n)
                assert drift_counts(forward, *args) == drift_counts(backward, *args)
        # Day 0 ranks a, b, m, z; day 1 ranks z, b, m.
        assert drift_counts(forward, Region.NORTH_AMERICA, (2, 2), 2) == [1]
        assert drift_counts(forward, Region.NORTH_AMERICA, (4, 4), 1) == [1]

    def test_class_ranking_ignores_hash_seed(self):
        # Eight tied NA-only queries: the ranking must not follow set
        # iteration order, which changes with PYTHONHASHSEED.
        script = (
            "from collections import Counter\n"
            "from repro.analysis.popularity import daily_class_ranking\n"
            "from repro.core.popularity import QueryClassId\n"
            "from repro.core.regions import Region\n"
            "na = Counter({q: 1 for q in ['kw%d' % i for i in (7, 3, 5, 0, 6, 1, 4, 2)]})\n"
            "daily = {0: {Region.NORTH_AMERICA: na, Region.EUROPE: Counter(),"
            " Region.ASIA: Counter()}}\n"
            "print([q for q, _ in daily_class_ranking(daily, 0, QueryClassId.NA_ONLY)])\n"
        )
        src = str(Path(__file__).resolve().parents[2] / "src")
        orders = []
        for seed in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed}
            proc = subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            orders.append(proc.stdout.strip())
        assert orders == [str(["kw%d" % i for i in range(8)])] * 2

    def test_drift_distribution(self):
        dist = drift_distribution([0, 1, 2, 5, 5])
        assert dist[0] == pytest.approx(0.8)   # P[> 0]
        assert dist[4] == pytest.approx(0.4)   # P[> 4]

    def test_drift_distribution_empty(self):
        with pytest.raises(ValueError):
            drift_distribution([])
