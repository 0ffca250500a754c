"""Figures 6-9: active session characteristics.

All timing measures follow the paper's convention ("the analysis ... is
based on the number of queries with filter rules 4 and 5 applied"): the
per-session query stream used here is the rule-4/5 *eligible* stream
from the filter pipeline; the rules-1-3 stream is kept for the Figure
6(c) variant ("filter rules 4 & 5 not applied").

Measures per active session:

* number of queries (Fig. 6, Table A.2),
* time until first query (Fig. 7, Table A.3),
* query interarrival times (Fig. 8, Table A.4),
* time after last query (Fig. 9, Table A.5),

each conditioned on geographic region, key time-of-day period, and the
session's query-count class where the paper finds correlations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.parameters import (
    first_query_class,
    interarrival_query_class,
    last_query_class,
)
from repro.core.regions import KeyPeriod, Region, hour_of_day
from repro.core.stats import Ccdf, empirical_ccdf
from repro.filtering import FilterResult

from .common import MAJOR, session_start_period

__all__ = [
    "ActiveSession",
    "active_sessions",
    "queries_per_session_ccdf",
    "queries_per_session_ccdf_unfiltered",
    "first_query_ccdf",
    "interarrival_ccdf",
    "time_after_last_ccdf",
]


@dataclass(frozen=True)
class ActiveSession:
    """Per-session measures derived from the eligible query stream."""

    region: Region
    start: float
    duration: float
    n_queries: int            # rules 4-5 applied (the paper's default)
    n_queries_unfiltered: int  # rules 1-3 only (Fig. 6c variant)
    time_until_first: float
    time_after_last: float
    interarrivals: tuple
    start_period: Optional[KeyPeriod]
    last_query_hour: int

    @property
    def last_query_period(self) -> Optional[KeyPeriod]:
        """Key period containing the last query (Fig. 9c conditions on it)."""
        for period in KeyPeriod:
            if period.start_hour == self.last_query_hour:
                return period
        return None


def active_sessions(result: FilterResult) -> List[ActiveSession]:
    """Extract the active-session views from a filter result.

    The per-session reference loop; the streaming pass builds the same
    measures as arrays
    (:class:`~repro.analysis.streaming.ActiveArrays`, whose ``views()``
    equal this list).
    """
    views: List[ActiveSession] = []
    for session, eligible in zip(result.sessions, result.interarrival_queries):
        if not eligible:
            continue
        times = [q.timestamp for q in eligible]
        views.append(
            ActiveSession(
                region=session.region,
                start=session.start,
                duration=session.duration,
                n_queries=len(eligible),
                n_queries_unfiltered=session.query_count,
                time_until_first=times[0] - session.start,
                time_after_last=session.end - times[-1],
                interarrivals=tuple(b - a for a, b in zip(times, times[1:])),
                start_period=session_start_period(session),
                last_query_hour=hour_of_day(times[-1]),
            )
        )
    return views


def _by_region(views: Sequence[ActiveSession], measure) -> Dict[Region, Ccdf]:
    out: Dict[Region, Ccdf] = {}
    for region in MAJOR:
        values = [v for view in views if view.region is region for v in measure(view)]
        if values:
            out[region] = empirical_ccdf(values)
    return out


def _by_period(views: Sequence[ActiveSession], region: Region, measure, period_of) -> Dict[KeyPeriod, Ccdf]:
    out: Dict[KeyPeriod, Ccdf] = {}
    for period in KeyPeriod:
        values = [
            v
            for view in views
            if view.region is region and period_of(view) is period
            for v in measure(view)
        ]
        if values:
            out[period] = empirical_ccdf(values)
    return out


# -- Figure 6: number of queries per active session ---------------------------

def queries_per_session_ccdf(
    views: Sequence[ActiveSession],
    region: Optional[Region] = None,
    period: Optional[KeyPeriod] = None,
):
    """Fig. 6(a) per region (region=None) or 6(b) per period for a region."""
    measure = lambda view: (view.n_queries,)
    if region is None:
        return _by_region(views, measure)
    return _by_period(views, region, measure, lambda v: v.start_period)


def queries_per_session_ccdf_unfiltered(views: Sequence[ActiveSession]) -> Dict[Region, Ccdf]:
    """Fig. 6(c): query counts without rules 4 and 5 applied."""
    return _by_region(views, lambda view: (view.n_queries_unfiltered,))


# -- Figure 7: time until first query -----------------------------------------

def first_query_ccdf(
    views: Sequence[ActiveSession],
    region: Optional[Region] = None,
    by_query_class: bool = False,
):
    """Fig. 7(a) per region; 7(b) per query-count class for ``region``;
    7(c) per key period for ``region`` (when neither flag set but region
    given without classes, period split is returned)."""
    measure = lambda view: (max(view.time_until_first, 1e-3),)
    if region is None:
        return _by_region(views, measure)
    if by_query_class:
        out: Dict[str, Ccdf] = {}
        for label in ("<3", "=3", ">3"):
            values = [
                view.time_until_first
                for view in views
                if view.region is region and first_query_class(view.n_queries) == label
            ]
            if values:
                out[label] = empirical_ccdf([max(v, 1e-3) for v in values])
        return out
    return _by_period(views, region, measure, lambda v: v.start_period)


# -- Figure 8: query interarrival time ----------------------------------------

def interarrival_ccdf(
    views: Sequence[ActiveSession],
    region: Optional[Region] = None,
    by_query_class: bool = False,
):
    """Fig. 8(a) per region; 8(b) per query-count class for ``region``;
    8(c) per key period for ``region``."""
    measure = lambda view: view.interarrivals
    if region is None:
        return _by_region(views, measure)
    if by_query_class:
        out: Dict[str, Ccdf] = {}
        for label in ("=2", "3-7", ">7"):
            values = [
                gap
                for view in views
                if view.region is region
                and interarrival_query_class(view.n_queries) == label
                for gap in view.interarrivals
            ]
            if values:
                out[label] = empirical_ccdf(values)
        return out
    return _by_period(views, region, measure, lambda v: v.start_period)


# -- Figure 9: time after last query --------------------------------------------

def time_after_last_ccdf(
    views: Sequence[ActiveSession],
    region: Optional[Region] = None,
    by_query_class: bool = False,
):
    """Fig. 9(a) per region; 9(b) per query-count class for ``region``;
    9(c) per key period of the *last query* for ``region``."""
    measure = lambda view: (max(view.time_after_last, 1e-3),)
    if region is None:
        return _by_region(views, measure)
    if by_query_class:
        out: Dict[str, Ccdf] = {}
        for label in ("1", "2-7", ">7"):
            values = [
                view.time_after_last
                for view in views
                if view.region is region and last_query_class(view.n_queries) == label
            ]
            if values:
                out[label] = empirical_ccdf([max(v, 1e-3) for v in values])
        return out
    return _by_period(views, region, measure, lambda v: v.last_query_period)
