"""Experiment C1: the paper's headline correlation structure.

Introduction: "We also find a significant correlation between session
duration and the number of queries issued during the session, but not
between query interarrival time and number of queries issued."  Section
4.5 adds the Europe-only negative interarrival correlation and the
positive time-after-last correlation (Fig. 9b).
"""

from __future__ import annotations

from repro.core.regions import Region

from .base import ExperimentContext, ExperimentResult

__all__ = ["run_correlations"]


def run_correlations(ctx: ExperimentContext) -> ExperimentResult:
    result = ExperimentResult("C1", "Workload correlation structure")
    expectations = {
        ("NA", "duration vs #queries"): "strong positive",
        ("NA", "median interarrival vs #queries"): "none (paper: no significant correlation)",
        ("NA", "time-after-last vs #queries"): "positive (Fig. 9b)",
        ("EU", "duration vs #queries"): "strong positive",
        ("EU", "median interarrival vs #queries"): "negative (Fig. 8b)",
        ("EU", "time-after-last vs #queries"): "positive",
    }
    for region in (Region.NORTH_AMERICA, Region.EUROPE):
        for corr in ctx.streaming.active.correlations(region=region):
            result.add(
                region=region.short,
                correlation=corr.name,
                spearman_rho=corr.rho,
                n=corr.n,
                significant=corr.significant,
                paper=expectations.get((region.short, corr.name), ""),
            )
    na = {c.name: c for c in ctx.streaming.active.correlations(region=Region.NORTH_AMERICA)}
    duration = na.get("duration vs #queries")
    gaps = na.get("median interarrival vs #queries")
    if duration and gaps:
        ok = duration.significant and abs(duration.rho) > abs(gaps.rho)
        result.note(
            f"headline claim (duration correlates, interarrival much less): "
            f"{'OK' if ok else 'VIOLATED'} "
            f"(rho {duration.rho:.2f} vs {gaps.rho:.2f})"
        )
    return result
