"""Experiments X3-X4: systems implications (caching and churn).

X3 quantifies the paper's closing claim about result caching; X4
characterizes peer availability and churn (the Bhagwan et al. measures
the paper cites as related work).
"""

from __future__ import annotations

import numpy as np

from repro.analysis.availability import (
    availability_from_lifetimes,
    churn_from_lifetimes,
    concurrency_from_lifetimes,
)
from repro.analysis.caching import coded_query_stream, stream_hit_rates

from .base import ExperimentContext, ExperimentResult

__all__ = ["run_caching", "run_availability"]


def run_caching(ctx: ExperimentContext) -> ExperimentResult:
    """X3: result-cache effectiveness, raw vs. user query streams.

    Paper: "caching of responses will be more effective in systems that
    use aggressive automated re-query features than in systems that only
    issue queries on the users action."
    """
    result = ExperimentResult("X3", "Result caching vs. automated re-queries")
    queries = ctx.queries
    raw, user = queries.raw, queries.user
    rows = stream_hit_rates(
        coded_query_stream(raw.timestamp, queries.cache_key[raw.keyword]),
        coded_query_stream(user.timestamp, queries.cache_key[user.keyword]),
    )
    for row in rows:
        result.add(
            cache_capacity=row["capacity"],
            raw_stream_hit_rate=row["raw_hit_rate"],
            user_stream_hit_rate=row["user_hit_rate"],
            ratio=(row["raw_hit_rate"] / row["user_hit_rate"]
                   if row["user_hit_rate"] > 0 else float("inf")),
        )
    biggest = rows[-1]
    ok = biggest["raw_hit_rate"] > 2 * biggest["user_hit_rate"]
    result.note(
        f"caching claim (raw stream caches far better than user stream): "
        f"{'OK' if ok else 'VIOLATED'}"
    )
    result.note(
        "Sripanidkulchai's 3.7x traffic-reduction result was measured on an "
        "unfiltered stream; the user-only hit rate shows the true headroom"
    )
    return result


def run_availability(ctx: ExperimentContext) -> ExperimentResult:
    """X4: peer availability and churn (Bhagwan et al.'s measures)."""
    result = ExperimentResult("X4", "Peer availability and churn (extension)")
    lifetimes = ctx.queries
    start, end = lifetimes.session_start, lifetimes.session_end
    churn = churn_from_lifetimes(start, end, end_time=lifetimes.end_time)
    result.add(
        measure="peak arrival hour (measurement-node time)",
        value=churn.peak_arrival_hour,
        reference="evenings of the dominant (NA) population",
    )
    result.add(
        measure="arrivals/departures balance",
        value=churn.churn_balance,
        reference="~1.0 in steady state",
    )
    times, counts = concurrency_from_lifetimes(start, end)
    result.add(
        measure="mean concurrent connections",
        value=float(np.mean(counts)),
        reference="the paper's node held up to 200",
    )
    result.add(
        measure="peak concurrent connections",
        value=float(np.max(counts)),
        reference="",
    )
    span = lifetimes.end_time - lifetimes.start_time
    result.add(
        measure="mean per-connection availability",
        value=availability_from_lifetimes(start, end, span),
        reference="well under 10% over day scales (Bhagwan et al.)",
    )
    swing = (np.max(churn.arrivals) - np.min(churn.arrivals)) / max(np.mean(churn.arrivals), 1e-9)
    result.note(f"diurnal arrival swing (peak-trough)/mean = {swing:.2f}")
    return result
