"""Experiment X1: query hit-rate characterization (paper's future work).

The paper closes with: "Future work includes characterizing the query
hit rate of the peers, including the correlation of hit rate with other
measures."  This experiment carries out that program on the synthesized
trace: overall hit rate, responder-count tail, regional split, the
popularity/hit-rate correlation, and the user-vs-automated contrast.

There are no published values to compare against; the rows record the
extension's findings with the qualitative expectations stated inline.
"""

from __future__ import annotations

from repro.analysis.hits import HitRateSummary, decile_hit_rates, region_hit_rates
from repro.core.stats import empirical_ccdf

from .base import ExperimentContext, ExperimentResult

__all__ = ["run_hit_rate"]


def run_hit_rate(ctx: ExperimentContext) -> ExperimentResult:
    result = ExperimentResult("X1", "Query hit rate (extension: paper's future work)")
    queries = ctx.queries
    raw, user = queries.raw, queries.user
    user_region = user.query_region()

    overall = HitRateSummary.from_hits(user.hits)
    result.add(
        measure="all user queries",
        n=overall.n_queries,
        hit_rate=overall.hit_rate,
        mean_hits=overall.mean_hits,
        mean_hits_answered=overall.mean_hits_answered,
    )
    # SHA1 source searches only exist pre-filtering; measure on raw trace.
    raw_sha1 = HitRateSummary.from_hits(raw.hits[raw.sha1])
    raw_user = HitRateSummary.from_hits(raw.hits[~raw.sha1])
    result.add(
        measure="raw keyword queries", n=raw_user.n_queries,
        hit_rate=raw_user.hit_rate, mean_hits=raw_user.mean_hits,
        mean_hits_answered=raw_user.mean_hits_answered,
    )
    result.add(
        measure="raw SHA1 source searches", n=raw_sha1.n_queries,
        hit_rate=raw_sha1.hit_rate, mean_hits=raw_sha1.mean_hits,
        mean_hits_answered=raw_sha1.mean_hits_answered,
    )
    for region, summary in region_hit_rates(user.hits, user_region).items():
        result.add(
            measure=f"queries from {region.short}", n=summary.n_queries,
            hit_rate=summary.hit_rate, mean_hits=summary.mean_hits,
            mean_hits_answered=summary.mean_hits_answered,
        )

    deciles = decile_hit_rates(user.timestamp, user.keyword, user_region, user.hits)
    if len(deciles) >= 2:
        top = deciles[0]
        bottom = deciles[-1]
        result.note(
            f"popularity correlation: decile 1 hit rate {top[1]:.3f} vs decile "
            f"{bottom[0]} hit rate {bottom[1]:.3f} (expected: popular queries hit more)"
        )
    ccdf = empirical_ccdf(user.hits)
    result.note(
        f"responder tail: P[hits > 5] = {ccdf.at(5):.3f}, P[hits > 20] = {ccdf.at(20):.3f}"
    )
    result.note(
        "SHA1 source searches mostly miss -- which is exactly why clients "
        "re-send them, the behaviour filter rule 1 removes"
    )
    return result
