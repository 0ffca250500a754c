"""Experiments F4-F5: passive peers."""

from __future__ import annotations

from repro.core.regions import KeyPeriod, Region
from repro.core.stats import empirical_ccdf

from .base import ExperimentContext, ExperimentResult

__all__ = ["run_fig4", "run_fig5"]

#: Paper Figure 4 bands per region.
_PAPER_PASSIVE_BANDS = {
    Region.NORTH_AMERICA: (0.80, 0.85),
    Region.EUROPE: (0.75, 0.80),
    Region.ASIA: (0.80, 0.90),
}

#: Paper Section 4.4 anchors: P[duration > x] for passive sessions.
_PAPER_DURATION_ANCHORS = {
    # region: (P[> 2 min], P[> 200 min])
    Region.NORTH_AMERICA: (0.25, 0.06),
    Region.EUROPE: (0.45, 0.10),
    Region.ASIA: (0.15, 0.03),
}


def run_fig4(ctx: ExperimentContext) -> ExperimentResult:
    """Figure 4: fraction of connected peers that are passive."""
    result = ExperimentResult("F4", "Fraction of passive peers")
    for region, profile in ctx.streaming.passive_fraction.items():
        lo, hi = _PAPER_PASSIVE_BANDS[region]
        result.add(
            region=region.short,
            paper_band=f"{lo:.2f}-{hi:.2f}",
            ours_average=profile.overall_average,
            ours_diurnal_swing=profile.diurnal_swing,
        )
    result.note("paper: fraction fluctuates only ~5% over time of day")
    return result


def run_fig5(ctx: ExperimentContext) -> ExperimentResult:
    """Figure 5: passive session duration CCDFs.

    (a) per region with the Section 4.4 anchors; (b)/(c) per key period
    for Europe, checking that early-morning sessions run longer.
    """
    result = ExperimentResult("F5", "Passive session duration")
    passive = ctx.streaming.passive
    for region, ccdf in passive.by_region().items():
        paper_2min, paper_200min = _PAPER_DURATION_ANCHORS[region]
        result.add(
            region=region.short,
            paper_gt_2min=paper_2min,
            ours_gt_2min=ccdf.at(120),
            paper_gt_200min=paper_200min,
            ours_gt_200min=ccdf.at(12000),
        )
    # Panels (b)/(c): duration conditioned on the start period.  Paper
    # anchors: for Europe, P[duration > 90 min] is ~0.15 for 03:00 starts
    # vs ~0.07 for 13:00 starts.
    for region, paper_anchor in ((Region.NORTH_AMERICA, None), (Region.EUROPE, (0.15, 0.07))):
        by_period = passive.by_period(region)
        for period in KeyPeriod:
            if period not in by_period:
                continue
            result.add(
                region=region.short,
                period=period.label,
                ours_gt_90min=by_period[period].at(5400),
                n=len(by_period[period]),
            )
        if paper_anchor and KeyPeriod.H03 in by_period and KeyPeriod.H13 in by_period:
            morning = by_period[KeyPeriod.H03].at(5400)
            afternoon = by_period[KeyPeriod.H13].at(5400)
            result.note(
                f"EU single-period anchors: 03:00 {morning:.3f} vs 13:00 "
                f"{afternoon:.3f} (paper {paper_anchor[0]} vs {paper_anchor[1]}; "
                f"single key-period bins are small at reduced scale)"
            )
    # The statistically robust version of the (b)/(c) ordering pools all
    # peak vs non-peak start hours (Table A.1's actual conditioning).
    for region in (Region.NORTH_AMERICA, Region.EUROPE):
        peak_durs, off_durs = passive.peak_split(region)
        if len(peak_durs) > 30 and len(off_durs) > 30:
            peak_p = empirical_ccdf(peak_durs).at(5400)
            off_p = empirical_ccdf(off_durs).at(5400)
            ok = off_p > peak_p
            result.note(
                f"{region.short} P[duration > 90 min]: non-peak starts {off_p:.3f} vs "
                f"peak starts {peak_p:.3f} (paper: off-peak sessions longer): "
                f"{'OK' if ok else 'VIOLATED'}"
            )
    return result
