"""Experiment X2: the derived download workload (extension).

Uses the transfer layer to derive downloads from the filtered trace's
answered queries and reports the measures the related work publishes
for this layer: size distribution, per-peer time between downloads, and
completion/throughput by access-link class.
"""

from __future__ import annotations

import numpy as np

from repro.transfers import (
    DownloadModel,
    completion_rate_by_class,
    download_size_ccdf,
    throughput_by_class,
    time_between_downloads,
)
from repro.transfers.bandwidth import BANDWIDTH_PROFILES, BandwidthClass, link_kbps

from .base import ExperimentContext, ExperimentResult

__all__ = ["run_downloads"]


def run_downloads(ctx: ExperimentContext) -> ExperimentResult:
    result = ExperimentResult("X2", "Derived download workload (extension)")
    model = DownloadModel(seed=ctx.config.seed + 7)
    queries = ctx.queries
    downloads = model.generate_from_columns(queries.user, queries.keywords)
    if not downloads:
        result.note("no answered queries at this scale; enlarge the trace")
        return result

    sizes = download_size_ccdf(downloads)
    result.add(
        measure="downloads derived",
        value=len(downloads),
        reference="answered non-SHA1 user queries x download_prob",
    )
    result.add(
        measure="median size (MB)",
        value=float(np.median([d.size_bytes for d in downloads])) / 1e6,
        reference="~3.7 MB (MP3-era median, Gummadi et al.)",
    )
    result.add(
        measure="P[size > 100 MB]",
        value=sizes.at(1e8),
        reference="small video tail",
    )
    gaps = time_between_downloads(downloads)
    if gaps:
        result.add(
            measure="median time between downloads (s)",
            value=float(np.median(gaps)),
            reference="per-peer gaps (Sen & Wang's measure)",
        )
    completion = completion_rate_by_class(downloads)
    for cls, rate in sorted(completion.items(), key=lambda kv: kv[0].value):
        result.add(
            measure=f"completion rate ({cls.value})",
            value=rate,
            reference="abort model is class-independent",
        )
    throughput = throughput_by_class(downloads)
    if BandwidthClass.DIALUP in throughput:
        down, _ = link_kbps(BandwidthClass.DIALUP)
        result.note(
            f"dialup median throughput {throughput[BandwidthClass.DIALUP]:.0f} kbps "
            f"bottlenecks near its own {down:.0f} kbps link"
        )
    if BandwidthClass.T3 in throughput:
        result.note(
            f"T3 median throughput {throughput[BandwidthClass.T3]:.0f} kbps "
            f"bottlenecks on responder uplinks instead (Saroiu et al. asymmetry)"
        )
    return result
