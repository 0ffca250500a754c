"""Experiments T1-T3: Tables 1, 2, and 3."""

from __future__ import annotations

from repro.analysis import query_class_sizes, table1_comparison, table2_comparison
from repro.core.parameters import QUERY_CLASS_SIZES

from .base import ExperimentContext, ExperimentResult

__all__ = ["run_table1", "run_table2", "run_table3"]


def run_table1(ctx: ExperimentContext) -> ExperimentResult:
    """Table 1: overall trace characteristics.

    Absolute counts scale with the synthesis size, so the comparison is
    per-connection ratios (message mix), which are scale-free.
    """
    result = ExperimentResult("T1", "Overall trace characteristics")
    # table1 only reads counters/connection/query totals, which the
    # shard manifest carries -- no shard is loaded.
    for row, values in table1_comparison(ctx.shards).items():
        result.add(
            measure=row,
            paper=values["paper"],
            ours=values["ours"],
            paper_per_conn=values["paper_per_connection"],
            ours_per_conn=values["ours_per_connection"],
        )
    result.note(
        f"synthesized {ctx.config.days:g} days at {ctx.config.mean_arrival_rate:g} conn/s "
        f"vs. the paper's 40 days at ~1.26 conn/s; compare the per-connection columns"
    )
    result.note(
        "our hop-1 queries per connection exceed the paper's 0.40 because the "
        "synthesis follows Table A.2's queries-per-session model, which is "
        "internally inconsistent with Table 1/2's low query totals (see the "
        "reading guide); background message ratios are anchored to Table 1"
    )
    return result


def run_table2(ctx: ExperimentContext) -> ExperimentResult:
    """Table 2: queries and sessions removed by each filter rule."""
    result = ExperimentResult("T2", "Filtered queries (rules 1-5)")
    for row, values in table2_comparison(ctx.streaming.report).items():
        result.add(
            measure=row,
            paper=values["paper"],
            ours=values["ours"],
            paper_frac=values["paper_fraction"],
            ours_frac=values["ours_fraction"],
        )
    result.note("fractions are relative to the initial query/session counts")
    return result


def run_table3(ctx: ExperimentContext) -> ExperimentResult:
    """Table 3: query class sizes for 1- and 2-day periods.

    The 4-day row needs a trace of at least 4 days; it is included
    automatically when the context is big enough.
    """
    result = ExperimentResult("T3", "Query class sizes")
    available_days = int(ctx.config.days)
    for period in (1, 2, 4):
        if period > available_days:
            result.note(f"{period}-day period skipped: trace spans only {available_days} day(s)")
            continue
        ours = query_class_sizes(ctx.streaming.daily, period)
        paper = QUERY_CLASS_SIZES[period]
        for name in ("na_only", "eu_only", "as_only", "na_eu", "na_as", "eu_as", "all_three"):
            result.add(
                period_days=period,
                query_class=name,
                paper=getattr(paper, name),
                ours=getattr(ours, name),
            )
    result.note(
        "paper counts come from ~43k user queries/day; ours scale with the "
        "synthesis rate -- orderings (NA~EU >> AS >> intersections) are the target"
    )
    return result
