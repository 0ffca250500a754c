"""Render the paper's figures as SVG from a synthesized trace.

One function per figure builds a :class:`~repro.viz.plot.LinePlot` from
the products of the context's streaming pass (``ctx.streaming``), the
same ones the experiments read, so ``figures --stream`` runs in bounded
memory; :func:`render_all` regenerates the full set into a directory,
axis conventions matching the paper (CCDFs on log-log axes, time-of-day
curves on linear axes, popularity pmf on log-log).
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List

import numpy as np

from repro.analysis import drift_counts, drift_distribution
from repro.analysis.availability import concurrency_from_lifetimes
from repro.analysis.popularity import popularity_pmf
from repro.core.fitting import fit_zipf
from repro.core.popularity import QueryClassId
from repro.core.regions import Region
from repro.core.stats import Ccdf, empirical_ccdf
from repro.experiments import ExperimentContext

from .plot import LinePlot

__all__ = ["build_figures", "render_all"]

_MAJOR = (Region.NORTH_AMERICA, Region.EUROPE, Region.ASIA)
_REGION_LABEL = {
    Region.NORTH_AMERICA: "North America",
    Region.EUROPE: "Europe",
    Region.ASIA: "Asia",
}


def _add_ccdf(plot: LinePlot, label: str, ccdf: Ccdf, x_scale: float = 1.0) -> None:
    plot.add(label, [x * x_scale for x in ccdf.x], list(ccdf.fraction))


def _fig1(ctx: ExperimentContext) -> Dict[str, LinePlot]:
    profile = ctx.streaming.geographic
    out = {}
    for region in _MAJOR:
        plot = LinePlot(
            title=f"Fig. 1 ({_REGION_LABEL[region]}): one-hop vs all peers",
            xlabel="Time of Day at Measurement Peer (h)",
            ylabel="Fraction of Peers",
            y_range=(0.0, 0.9),
        )
        plot.add("All Peers", list(profile.hours), list(profile.all_peers[region]))
        plot.add("1-hop Peers", list(profile.hours), list(profile.one_hop[region]))
        out[f"fig01_{region.short.lower()}"] = plot
    return out


def _fig2(ctx: ExperimentContext) -> Dict[str, LinePlot]:
    profile = ctx.streaming.shared_files
    plot = LinePlot(
        title="Fig. 2: shared files of one-hop vs all peers",
        xlabel="Number of Shared Files",
        ylabel="Fraction of Peers",
        log_y=True,
    )
    plot.add("All Peers", list(profile.counts), list(profile.all_peers))
    plot.add("1-hop Peers", list(profile.counts), list(profile.one_hop))
    return {"fig02": plot}


def _fig3(ctx: ExperimentContext) -> Dict[str, LinePlot]:
    profiles = ctx.streaming.load
    out = {}
    for region, profile in profiles.items():
        plot = LinePlot(
            title=f"Fig. 3 ({_REGION_LABEL[region]}): query load vs time of day",
            xlabel="Time of Day at Measurement Peer (h)",
            ylabel="# Queries (30 min bins)",
        )
        plot.add("Max", list(profile.bin_hours), list(profile.maximum))
        plot.add("Average", list(profile.bin_hours), list(profile.average))
        plot.add("Min", list(profile.bin_hours), list(profile.minimum))
        out[f"fig03_{region.short.lower()}"] = plot
    return out


def _fig4(ctx: ExperimentContext) -> Dict[str, LinePlot]:
    profiles = ctx.streaming.passive_fraction
    out = {}
    for region, profile in profiles.items():
        plot = LinePlot(
            title=f"Fig. 4 ({_REGION_LABEL[region]}): fraction of passive peers",
            xlabel="Time of Day at Measurement Peer (h)",
            ylabel="Fraction of Passive Peers",
            y_range=(0.0, 1.0),
        )
        hours = list(profile.bin_hours)
        plot.add("Max", hours, np.nan_to_num(profile.maximum, nan=0.0))
        plot.add("Average", hours, np.nan_to_num(profile.average, nan=0.0))
        plot.add("Min", hours, np.nan_to_num(profile.minimum, nan=0.0))
        out[f"fig04_{region.short.lower()}"] = plot
    return out


def _fig5(ctx: ExperimentContext) -> Dict[str, LinePlot]:
    out = {}
    passive = ctx.streaming.passive
    plot = LinePlot(
        title="Fig. 5(a): passive session duration by region",
        xlabel="Session Duration, x (min)",
        ylabel="Fraction of Sessions with Duration > x",
        log_x=True, log_y=True,
    )
    for region, ccdf in passive.by_region().items():
        _add_ccdf(plot, _REGION_LABEL[region], ccdf, x_scale=1 / 60.0)
    out["fig05a"] = plot
    by_period = passive.by_period(Region.EUROPE)
    if len(by_period) >= 2:
        plot_c = LinePlot(
            title="Fig. 5(c): passive duration by key period (Europe)",
            xlabel="Session Duration, x (min)",
            ylabel="Fraction of Sessions with Duration > x",
            log_x=True, log_y=True,
        )
        for period, ccdf in by_period.items():
            _add_ccdf(plot_c, f"Start at {period.label}", ccdf, x_scale=1 / 60.0)
        out["fig05c"] = plot_c
    return out


def _fig6(ctx: ExperimentContext) -> Dict[str, LinePlot]:
    plot = LinePlot(
        title="Fig. 6(a): queries per active session",
        xlabel="Number of Queries, x",
        ylabel="Fraction of Sessions with #Queries > x",
        log_x=True, log_y=True,
    )
    for region, ccdf in ctx.streaming.active.queries_per_session_ccdf().items():
        _add_ccdf(plot, _REGION_LABEL[region], ccdf)
    return {"fig06a": plot}


def _fig7(ctx: ExperimentContext) -> Dict[str, LinePlot]:
    plot = LinePlot(
        title="Fig. 7(a): time until first query",
        xlabel="Time Until First Query, x (sec)",
        ylabel="Fraction of Sessions with Time > x",
        log_x=True, log_y=True,
    )
    active = ctx.streaming.active
    for region, ccdf in active.first_query_ccdf().items():
        _add_ccdf(plot, _REGION_LABEL[region], ccdf)
    out = {"fig07a": plot}
    by_class = active.first_query_ccdf(region=Region.NORTH_AMERICA, by_query_class=True)
    if len(by_class) >= 2:
        plot_b = LinePlot(
            title="Fig. 7(b): first query vs session length (NA)",
            xlabel="Time Until First Query, x (sec)",
            ylabel="Fraction of Sessions with Time > x",
            log_x=True, log_y=True,
        )
        for label, ccdf in by_class.items():
            _add_ccdf(plot_b, f"{label} Queries", ccdf)
        out["fig07b"] = plot_b
    return out


def _fig8(ctx: ExperimentContext) -> Dict[str, LinePlot]:
    plot = LinePlot(
        title="Fig. 8(a): query interarrival time",
        xlabel="Interarrival Time, x (sec)",
        ylabel="Fraction of Queries with Interarrival Time > x",
        log_x=True, log_y=True,
    )
    for region, ccdf in ctx.streaming.active.interarrival_ccdf().items():
        _add_ccdf(plot, _REGION_LABEL[region], ccdf)
    return {"fig08a": plot}


def _fig9(ctx: ExperimentContext) -> Dict[str, LinePlot]:
    plot = LinePlot(
        title="Fig. 9(a): time after last query",
        xlabel="Time After Last Query, x (sec)",
        ylabel="Fraction of Sessions with Time > x",
        log_x=True, log_y=True,
    )
    for region, ccdf in ctx.streaming.active.time_after_last_ccdf().items():
        _add_ccdf(plot, _REGION_LABEL[region], ccdf)
    return {"fig09a": plot}


def _fig10(ctx: ExperimentContext) -> Dict[str, LinePlot]:
    daily = ctx.streaming.daily
    counts = drift_counts(daily, Region.NORTH_AMERICA)
    if len(counts) < 2:
        return {}
    plot = LinePlot(
        title="Fig. 10(a): drift of the top-10 queries (NA)",
        xlabel="Number of Queries, x",
        ylabel="Fraction of Days with > x in Top N on Day n+1",
        y_range=(0.0, 1.0),
    )
    xs = list(range(5))
    for top_n in (100, 20, 10):
        dist = drift_distribution(drift_counts(daily, Region.NORTH_AMERICA, top_n=top_n))
        plot.add(f"N={top_n}", xs, list(dist))
    return {"fig10a": plot}


def _fig11(ctx: ExperimentContext) -> Dict[str, LinePlot]:
    out = {}
    for cls, name in ((QueryClassId.NA_ONLY, "na"), (QueryClassId.EU_ONLY, "eu")):
        pmf = popularity_pmf(ctx.streaming.daily, cls)
        if pmf.size < 5:
            continue
        fit = fit_zipf(pmf)
        ranks = np.arange(1, pmf.size + 1, dtype=float)
        fitted = np.exp(fit.intercept) * ranks**-fit.alpha
        plot = LinePlot(
            title=f"Fig. 11 ({name.upper()}-only queries): per-day popularity",
            xlabel="Query Rank, r",
            ylabel="Frequency of Query r",
            log_x=True, log_y=True,
        )
        plot.add("Measured pmf", list(ranks), list(pmf))
        plot.add(f"Fitted Zipf (alpha={fit.alpha:.3f})", list(ranks), list(fitted))
        out[f"fig11_{name}"] = plot
    return out


def _fig_extensions(ctx: ExperimentContext) -> Dict[str, LinePlot]:
    """Extension figures: hit-count CCDF (X1) and the concurrency curve (X4)."""
    out = {}
    queries = ctx.queries
    try:
        ccdf = empirical_ccdf(queries.user.hits)
    except ValueError:
        ccdf = None
    if ccdf is not None and len(ccdf) >= 3:
        plot = LinePlot(
            title="Ext. X1: QUERYHIT responders per user query",
            xlabel="Responders, x",
            ylabel="Fraction of Queries with Hits > x",
            log_y=True,
        )
        plot.add("All user queries", [x + 1.0 for x in ccdf.x], list(ccdf.fraction))
        if plot.series:
            out["ext_x1_hits"] = plot
    times, counts = concurrency_from_lifetimes(
        queries.session_start, queries.session_end, step_seconds=900.0
    )
    plot = LinePlot(
        title="Ext. X4: concurrent one-hop connections",
        xlabel="Trace Time (h)",
        ylabel="Open Connections",
    )
    plot.add("Online peers", [t / 3600.0 for t in times], list(counts))
    if plot.series:
        out["ext_x4_concurrency"] = plot
    return out


_BUILDERS = (_fig1, _fig2, _fig3, _fig4, _fig5, _fig6, _fig7, _fig8, _fig9, _fig10,
             _fig11, _fig_extensions)


def build_figures(ctx: ExperimentContext) -> Dict[str, LinePlot]:
    """Build every renderable figure for a context (name -> plot)."""
    # The extension figures read the X1/X4 query columns: one pass.
    ctx._plan(True)
    figures: Dict[str, LinePlot] = {}
    for builder in _BUILDERS:
        figures.update(builder(ctx))
    return figures


def render_all(ctx: ExperimentContext, outdir) -> List[Path]:
    """Render every figure into ``outdir``; returns the written paths."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written = []
    for name, plot in sorted(build_figures(ctx).items()):
        path = outdir / f"{name}.svg"
        plot.save(path)
        written.append(path)
    return written
