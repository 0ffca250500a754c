"""Peer availability and churn (after Bhagwan, Savage & Voelker, IPTPS'02).

The paper cites Bhagwan et al.'s characterization of "the fraction of
time that hosts are available as well as the frequency of arrivals and
departures, including time of day effects".  This module computes those
measures from the trace:

* arrival and departure rates per time-of-day bin,
* the concurrent-connection curve (how many one-hop peers are online),
* the aggregate availability (peer-seconds online / trace span).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.events import SessionRecord
from repro.core.stats import SECONDS_PER_HOUR, TimeOfDayBinner

__all__ = [
    "ChurnProfile", "churn_by_hour", "concurrency_curve", "aggregate_availability",
    "churn_from_lifetimes", "concurrency_from_lifetimes", "availability_from_lifetimes",
]


@dataclass
class ChurnProfile:
    """Arrivals and departures per hour-of-day bin (day-averaged curves
    plus raw totals)."""

    bin_hours: np.ndarray
    arrivals: np.ndarray
    departures: np.ndarray
    total_arrivals: int
    total_departures: int

    @property
    def peak_arrival_hour(self) -> int:
        return int(self.bin_hours[int(np.argmax(self.arrivals))])

    @property
    def churn_balance(self) -> float:
        """Total arrivals / total departures (>= 1; the excess is peers
        still connected when the trace ends)."""
        if not self.total_departures:
            return float("inf")
        return self.total_arrivals / self.total_departures


def churn_by_hour(
    sessions: Sequence[SessionRecord], end_time: float = float("inf")
) -> ChurnProfile:
    """Arrival/departure rates per hour of day.

    Sessions whose recorded end coincides with (or exceeds) ``end_time``
    were truncated by the trace boundary, not by a real departure, and
    are excluded from the departure counts.
    """
    if not sessions:
        raise ValueError("no sessions")
    arrivals = TimeOfDayBinner()
    departures = TimeOfDayBinner()
    total_departures = 0
    for session in sessions:
        arrivals.add(session.start)
        if session.end < end_time:
            departures.add(session.end)
            total_departures += 1
    return ChurnProfile(
        bin_hours=arrivals.bin_starts_hours(),
        arrivals=arrivals.average(),
        departures=departures.average() if total_departures else np.zeros(24),
        total_arrivals=len(sessions),
        total_departures=total_departures,
    )


def concurrency_curve(
    sessions: Sequence[SessionRecord], step_seconds: float = 300.0
) -> Tuple[np.ndarray, np.ndarray]:
    """(times, online_count): concurrent one-hop connections over the trace.

    Computed by sweeping session start/end events, sampled every
    ``step_seconds`` -- the "up to 200 connections" load curve of the
    measurement node.
    """
    if not sessions:
        raise ValueError("no sessions")
    if step_seconds <= 0:
        raise ValueError("step_seconds must be positive")
    events: List[Tuple[float, int]] = []
    for session in sessions:
        events.append((session.start, +1))
        events.append((session.end, -1))
    events.sort()
    t_start = events[0][0]
    t_end = events[-1][0]
    times = np.arange(t_start, t_end + step_seconds, step_seconds)
    counts = np.zeros_like(times)
    level = 0
    index = 0
    for slot, t in enumerate(times):
        while index < len(events) and events[index][0] <= t:
            level += events[index][1]
            index += 1
        counts[slot] = level
    return times, counts


def aggregate_availability(
    sessions: Sequence[SessionRecord], trace_span_seconds: float
) -> float:
    """Mean fraction of the trace a connected peer stays online.

    Bhagwan et al. report host availability well under 10% over day
    scales; with single-connection peers this is mean session duration
    over the trace span.
    """
    if trace_span_seconds <= 0:
        raise ValueError("trace_span_seconds must be positive")
    if not sessions:
        raise ValueError("no sessions")
    durations = np.array([s.duration for s in sessions])
    return float(np.mean(durations) / trace_span_seconds)


# -- per-session (start, end) columns -------------------------------------------
#
# The same three measures over flat lifetime columns in trace order, as
# the streaming pass collects them.


def churn_from_lifetimes(
    start: np.ndarray, end: np.ndarray, end_time: float = float("inf")
) -> ChurnProfile:
    """:func:`churn_by_hour` over per-session ``start``/``end`` columns."""
    if not start.size:
        raise ValueError("no sessions")
    arrivals = TimeOfDayBinner()
    arrivals.add_array(start)
    departed = end[end < end_time]
    departures = TimeOfDayBinner()
    departures.add_array(departed)
    return ChurnProfile(
        bin_hours=arrivals.bin_starts_hours(),
        arrivals=arrivals.average(),
        departures=departures.average() if departed.size else np.zeros(24),
        total_arrivals=int(start.size),
        total_departures=int(departed.size),
    )


def concurrency_from_lifetimes(
    start: np.ndarray, end: np.ndarray, step_seconds: float = 300.0
) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`concurrency_curve` over per-session ``start``/``end`` columns.

    The sweep's level at a sample time is the number of starts at or
    before it minus the number of ends at or before it.
    """
    if not start.size:
        raise ValueError("no sessions")
    if step_seconds <= 0:
        raise ValueError("step_seconds must be positive")
    t_start = min(start.min(), end.min())
    t_end = max(start.max(), end.max())
    times = np.arange(t_start, t_end + step_seconds, step_seconds)
    online = np.searchsorted(np.sort(start), times, side="right") - np.searchsorted(
        np.sort(end), times, side="right"
    )
    return times, online.astype(times.dtype)


def availability_from_lifetimes(
    start: np.ndarray, end: np.ndarray, trace_span_seconds: float
) -> float:
    """:func:`aggregate_availability` over per-session ``start``/``end``
    columns (in trace order: the mean is order-sensitive)."""
    if trace_span_seconds <= 0:
        raise ValueError("trace_span_seconds must be positive")
    if not start.size:
        raise ValueError("no sessions")
    return float(np.mean(end - start) / trace_span_seconds)
