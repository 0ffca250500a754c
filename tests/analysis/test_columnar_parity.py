"""The in-memory streaming pass must equal the record functions.

An in-memory context runs ``run_streaming`` over the columnar trace as
one chunk.  Its products -- daily counts, Table 3 class sizes, the
active-session views, the passive CCDFs by region and by period -- are
compared here with the ``SessionRecord`` reference functions over the
record-loop :class:`FilterResult` of the same trace, for equality:
values, not approximations.
"""

import pytest

from repro.analysis import active_sessions, run_streaming
from repro.analysis.common import MAJOR
from repro.analysis.passive import (
    passive_duration_ccdf_by_period,
    passive_duration_ccdf_by_region,
)
from repro.analysis.popularity import daily_region_counts, query_class_sizes
from repro.measurement import ColumnarTrace


@pytest.fixture(scope="module")
def streamed(small_trace):
    return run_streaming([ColumnarTrace.from_trace(small_trace)])


class TestDailyRegionCounts:
    def test_counts_equal(self, filtered, streamed):
        assert daily_region_counts(filtered.sessions) == streamed.daily

    def test_query_class_sizes_equal(self, filtered, streamed):
        assert query_class_sizes(filtered.sessions) == query_class_sizes(streamed.daily)


class TestActiveSessions:
    def test_views_equal(self, filtered, streamed):
        loop = active_sessions(filtered)
        assert len(loop) > 0
        assert loop == streamed.active.views()


class TestPassiveCcdfs:
    def test_by_region_equal(self, filtered, streamed):
        loop = passive_duration_ccdf_by_region(filtered.sessions)
        columnar = streamed.passive.by_region()
        assert set(loop) == set(columnar)
        for region, ccdf in loop.items():
            assert ccdf.x.tolist() == columnar[region].x.tolist()
            assert ccdf.fraction.tolist() == columnar[region].fraction.tolist()

    @pytest.mark.parametrize("region", sorted(MAJOR, key=lambda r: r.value))
    def test_by_period_equal(self, filtered, streamed, region):
        loop = passive_duration_ccdf_by_period(filtered.sessions, region)
        columnar = streamed.passive.by_period(region)
        assert set(loop) == set(columnar)
        for period, ccdf in loop.items():
            assert ccdf.x.tolist() == columnar[period].x.tolist()
            assert ccdf.fraction.tolist() == columnar[period].fraction.tolist()
