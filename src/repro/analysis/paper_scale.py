"""Paper-scale out-of-core gate, shared by benchmarks and smoke tests.

:func:`measure_paper_scale` runs the full streaming pipeline at the
paper's measurement scale -- 40 days at ~1.26 connections/second, the
one configuration the in-memory record path cannot hold comfortably --
and returns a report proving two things at once:

* **it fits**: synthesis spills time-ordered shards to disk, rules 1-5
  and every Fig. 1-11 reducer run in a single bounded-memory pass, and
  the process's peak RSS stays under a laptop-class budget;
* **it's right**: at a scale where both pipelines run
  (``equivalence_days``), the streamed Table 2 report and every figure
  product are *bit-identical* to the in-memory record functions
  (tolerance 0.0 -- the reducers are engineered for identical reduction
  order, not KS-approximate agreement).

The real gate (``benchmarks/bench_paper_scale.py``) runs it at the full
40 days and emits ``BENCH_paper_scale.json``; the tier-1 smoke test and
the CI gate run the same code at ``days=2.0``.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from dataclasses import replace
from pathlib import Path
from typing import Optional, Union

import numpy as np

from repro.core import host_block, peak_rss_mb
from repro.core.popularity import QueryClassId
from repro.core.regions import Region
from repro.filtering import apply_filters_columnar
from repro.synthesis import SynthesisConfig, TraceSynthesizer, scenario_config

from .active import active_sessions
from .correlations import session_correlations
from .geographic import geographic_distribution
from .load import query_load
from .passive import (
    passive_duration_ccdf_by_period,
    passive_duration_ccdf_by_region,
    passive_fraction_by_hour,
)
from .popularity import daily_region_counts, fit_class_popularity, query_class_sizes
from .shared_files import shared_files_distribution
from .streaming import run_streaming

__all__ = ["DEFAULT_RSS_BUDGET_MB", "measure_paper_scale", "streamed_equivalence_checks"]

#: The acceptance budget: the full 40-day paper scenario must complete
#: synthesis + filtering + Fig. 1-11 analyses under 2 GiB of peak RSS.
DEFAULT_RSS_BUDGET_MB = 2048.0

_MAJOR = (Region.NORTH_AMERICA, Region.EUROPE, Region.ASIA)


def _arrays_equal(a, b) -> bool:
    """Exact equality, treating NaN == NaN (both sides compute the same NaNs)."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        return False
    if a.dtype.kind == "f" or b.dtype.kind == "f":
        af = a.astype(np.float64)
        bf = b.astype(np.float64)
        return bool(np.all((af == bf) | (np.isnan(af) & np.isnan(bf))))
    return bool(np.array_equal(a, b))


def _ccdfs_equal(a, b) -> bool:
    return _arrays_equal(a.x, b.x) and _arrays_equal(a.fraction, b.fraction)


def _ccdf_dicts_equal(a, b) -> bool:
    if set(a) != set(b):
        return False
    return all(_ccdfs_equal(a[k], b[k]) for k in a)


def _traces_identical(a, b) -> bool:
    """Field-by-field exact equality of two ``ColumnarTrace`` bundles."""
    import dataclasses

    for f in dataclasses.fields(a):
        va, vb = getattr(a, f.name), getattr(b, f.name)
        if isinstance(va, np.ndarray):
            if va.dtype != vb.dtype or not np.array_equal(va, vb):
                return False
        elif va != vb:
            return False
    return True


def streamed_equivalence_checks(config: SynthesisConfig, workdir: Union[str, Path]) -> dict:
    """Streamed products vs. the record functions at the SAME config:
    exact equality.

    The references are the ``SessionRecord`` functions over the
    in-memory trace and its filter result.  Both pipelines must run the
    same configuration (including ``shard_days``): the shard windows
    partition the synthesis RNG streams, so a sharded config compared
    against an unsharded one would legitimately differ.  With the config
    held fixed, every product is required to match bit for bit -- the
    returned ``tolerance`` is 0.0 by construction, recorded so the report
    states what "equal" meant.
    """
    workdir = Path(workdir)
    sharded = TraceSynthesizer(config).run_sharded(workdir / "equivalence-trace")
    streamed = run_streaming(sharded)

    full = TraceSynthesizer(config).run_columnar()
    block = apply_filters_columnar(full)
    record = full.to_trace()
    filtered = block.to_filter_result()
    views = active_sessions(filtered)

    checks = {}
    checks["trace_concat_byte_identical"] = _traces_identical(sharded.concat(), full)
    checks["table2_report"] = streamed.report.as_dict() == block.report.as_dict()

    geo = geographic_distribution(record)
    checks["f1_geographic"] = all(
        _arrays_equal(streamed.geographic.one_hop[r], geo.one_hop[r])
        and _arrays_equal(streamed.geographic.all_peers[r], geo.all_peers[r])
        for r in _MAJOR
    )
    shared = shared_files_distribution(record)
    checks["f2_shared_files"] = _arrays_equal(
        streamed.shared_files.one_hop, shared.one_hop
    ) and _arrays_equal(streamed.shared_files.all_peers, shared.all_peers)
    load = query_load(record.sessions)
    checks["f3_load"] = set(streamed.load) == set(load) and all(
        _arrays_equal(streamed.load[r].average, load[r].average)
        and _arrays_equal(streamed.load[r].minimum, load[r].minimum)
        and _arrays_equal(streamed.load[r].maximum, load[r].maximum)
        for r in load
    )
    frac = passive_fraction_by_hour(filtered.sessions)
    checks["f4_passive_fraction"] = set(streamed.passive_fraction) == set(frac) and all(
        _arrays_equal(streamed.passive_fraction[r].average, frac[r].average)
        for r in frac
    )
    checks["f5_passive_durations"] = _ccdf_dicts_equal(
        streamed.passive.by_region(), passive_duration_ccdf_by_region(filtered.sessions)
    ) and all(
        _ccdf_dicts_equal(
            streamed.passive.by_period(region),
            passive_duration_ccdf_by_period(filtered.sessions, region),
        )
        for region in (Region.NORTH_AMERICA, Region.EUROPE)
    )

    active = streamed.active
    from .active import (
        first_query_ccdf,
        interarrival_ccdf,
        queries_per_session_ccdf,
        queries_per_session_ccdf_unfiltered,
        time_after_last_ccdf,
    )

    checks["f6_queries_per_session"] = _ccdf_dicts_equal(
        active.queries_per_session_ccdf(), queries_per_session_ccdf(views)
    ) and _ccdf_dicts_equal(
        active.queries_per_session_ccdf_unfiltered(),
        queries_per_session_ccdf_unfiltered(views),
    )
    checks["f7_first_query"] = _ccdf_dicts_equal(
        active.first_query_ccdf(), first_query_ccdf(views)
    ) and _ccdf_dicts_equal(
        active.first_query_ccdf(region=Region.NORTH_AMERICA, by_query_class=True),
        first_query_ccdf(views, region=Region.NORTH_AMERICA, by_query_class=True),
    )
    checks["f8_interarrival"] = _ccdf_dicts_equal(
        active.interarrival_ccdf(), interarrival_ccdf(views)
    ) and _ccdf_dicts_equal(
        active.interarrival_ccdf(region=Region.EUROPE, by_query_class=True),
        interarrival_ccdf(views, region=Region.EUROPE, by_query_class=True),
    )
    checks["f9_time_after_last"] = _ccdf_dicts_equal(
        active.time_after_last_ccdf(), time_after_last_ccdf(views)
    ) and _ccdf_dicts_equal(
        active.time_after_last_ccdf(region=Region.NORTH_AMERICA, by_query_class=True),
        time_after_last_ccdf(views, region=Region.NORTH_AMERICA, by_query_class=True),
    )
    checks["c1_correlations"] = all(
        [
            (c.name, c.rho, c.n, c.significant)
            for c in active.correlations(region=region)
        ]
        == [
            (c.name, c.rho, c.n, c.significant)
            for c in session_correlations(views, region=region)
        ]
        for region in (None, *_MAJOR)
    )
    checks["t3_f10_f11_daily_counts"] = streamed.daily == daily_region_counts(
        filtered.sessions
    )

    return {
        "days": config.days,
        "tolerance": 0.0,
        "checks": checks,
        "all_identical": all(checks.values()),
    }


def measure_paper_scale(
    days: Optional[float] = None,
    shard_hours: float = 24.0,
    seed: int = 20040315,
    jobs: int = 1,
    equivalence_days: float = 2.0,
    rss_budget_mb: float = DEFAULT_RSS_BUDGET_MB,
    workdir: Optional[Union[str, Path]] = None,
) -> dict:
    """Run the streamed paper scenario end to end and report on it.

    ``days=None`` runs the paper's full 40-day window (the ``paper``
    scenario); the CI gate passes ``days=2.0``.  ``workdir`` holds the
    shard spill (a private temporary directory when omitted).  Peak RSS
    is the *process* high-water mark -- run this in a fresh process for
    a meaningful budget check, as ``benchmarks/bench_paper_scale.py``
    does.
    """
    config = scenario_config("paper", seed=seed, jobs=jobs)
    if days is not None:
        config = replace(config, days=float(days))
    config = replace(config, shard_days=float(shard_hours) / 24.0)

    tmpdir: Optional[str] = None
    if workdir is None:
        tmpdir = tempfile.mkdtemp(prefix="repro-p2p-paper-scale-")
        workdir = tmpdir
    workdir = Path(workdir)

    report = {
        "scale": {
            "days": config.days,
            "mean_arrival_rate": config.mean_arrival_rate,
            "seed": seed,
            "shard_hours": shard_hours,
            "jobs": jobs,
        },
        "host": host_block(),
        "runs": {},
    }
    try:
        # -- phase 1: streamed synthesis ----------------------------------
        t0 = time.perf_counter()
        sharded = TraceSynthesizer(config).run_sharded(workdir / "trace")
        elapsed = time.perf_counter() - t0
        shard_bytes = sum(
            (sharded.root / info.file).stat().st_size for info in sharded.shards
        )
        report["runs"]["synthesize_stream"] = {
            "days": config.days,
            "connections": sharded.n_connections,
            "hop1_queries": sharded.hop1_query_count(),
            "n_shards": sharded.n_shards,
            "shard_bytes_on_disk": shard_bytes,
            "seconds": round(elapsed, 4),
            "connections_per_second": round(
                sharded.n_connections / max(elapsed, 1e-9), 1
            ),
            "peak_rss_mb": round(peak_rss_mb(), 1),
        }

        # -- phase 2: one streaming pass, rules 1-5 + every figure --------
        t0 = time.perf_counter()
        streamed = run_streaming(sharded)
        active = streamed.active
        # Finalize-side figure products (cheap array reductions; they are
        # part of the "analyze the whole trace" claim, so stay timed).
        figures = {
            "f1_regions": len(streamed.geographic.one_hop),
            "f2_bins": int(streamed.shared_files.counts.size),
            "f3_regions": len(streamed.load),
            "f4_regions": len(streamed.passive_fraction),
            "f5_region_ccdfs": len(streamed.passive.by_region()),
            "f6_region_ccdfs": len(active.queries_per_session_ccdf()),
            "f7_region_ccdfs": len(active.first_query_ccdf()),
            "f8_region_ccdfs": len(active.interarrival_ccdf()),
            "f9_region_ccdfs": len(active.time_after_last_ccdf()),
            "c1_correlations": len(active.correlations()),
            "t3_days": len(streamed.daily),
        }
        if int(config.days) >= 1:
            figures["t3_class_sizes_1day"] = query_class_sizes(streamed.daily, 1).na_only
            try:
                figures["f11_na_alpha"] = round(
                    fit_class_popularity(streamed.daily, QueryClassId.NA_ONLY).fit.alpha, 4
                )
            except ValueError:
                figures["f11_na_alpha"] = None
        elapsed = time.perf_counter() - t0
        report["runs"]["filter_analyze_stream"] = {
            "seconds": round(elapsed, 4),
            "final_sessions": streamed.report.final_sessions,
            "final_queries": streamed.report.final_queries,
            "active_sessions": int(active.region.size),
            "figures": figures,
            "peak_rss_mb": round(peak_rss_mb(), 1),
        }
        report["table2"] = streamed.report.as_dict()

        # -- phase 3: exactness at a scale both pipelines can run ---------
        t0 = time.perf_counter()
        report["equivalence"] = streamed_equivalence_checks(
            replace(config, days=float(equivalence_days)), workdir
        )
        report["equivalence"]["seconds"] = round(time.perf_counter() - t0, 4)
    finally:
        if tmpdir is not None:
            shutil.rmtree(tmpdir, ignore_errors=True)

    peak = round(peak_rss_mb(), 1)
    report["host"]["peak_rss_mb"] = peak
    report["budget"] = {
        "rss_budget_mb": rss_budget_mb,
        "peak_rss_mb": peak,
        "within_budget": bool(peak <= rss_budget_mb),
    }
    return report
