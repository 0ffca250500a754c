"""Equivalence oracles the fast engines are held to.

Two kinds of contract:

* **Same law, different realization.**  The columnar synthesis engine
  and the columnar Fig. 12 generator consume random draws in a batched
  order, so for a fixed seed they produce a different *realization* of
  the same process than the event reference engines.
  :func:`columnar_ks_checks` and :func:`generator_ks_checks` compare the
  distributions the paper's tables and the Fig. 12 recipe depend on,
  with one two-sample KS statistic (:func:`ks_statistic`) held against
  the asymptotic critical value at alpha~0.001 plus a small floor, so a
  large sample is not held to sampling noise below modelling fidelity.
* **Same bytes.**  :func:`streamed_equivalence_checks` requires every
  streamed Table 2 / Fig. 1-11 product to equal the ``SessionRecord``
  function over the in-memory trace bit for bit, and
  :func:`compare_runs` every observable of the columnar overlay engine
  to equal its event reference's (``event_reference``).
"""

import dataclasses
import math
from pathlib import Path
from typing import Union

import numpy as np

from repro.analysis import run_streaming
from repro.analysis.active import (
    active_sessions,
    first_query_ccdf,
    interarrival_ccdf,
    queries_per_session_ccdf,
    queries_per_session_ccdf_unfiltered,
    time_after_last_ccdf,
)
from repro.analysis.correlations import session_correlations
from repro.analysis.geographic import geographic_distribution
from repro.analysis.load import query_load
from repro.analysis.passive import (
    passive_duration_ccdf_by_period,
    passive_duration_ccdf_by_region,
    passive_fraction_by_hour,
)
from repro.analysis.popularity import daily_region_counts
from repro.analysis.shared_files import shared_files_distribution
from repro.core.generator_columnar import ColumnarWorkload
from repro.core.regions import Region
from repro.filtering import apply_filters_columnar
from repro.gnutella.columnar_overlay import OverlayRunResult
from repro.measurement import ColumnarTrace
from repro.synthesis import SynthesisConfig, TraceSynthesizer

_MAJOR = (Region.NORTH_AMERICA, Region.EUROPE, Region.ASIA)


# ---------------------------------------------------------------------------
# Same law: two-sample KS
# ---------------------------------------------------------------------------


def ks_statistic(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov statistic (max CDF gap)."""
    a = np.sort(np.asarray(a, dtype=np.float64))
    b = np.sort(np.asarray(b, dtype=np.float64))
    grid = np.concatenate([a, b])
    grid.sort(kind="stable")
    cdf_a = np.searchsorted(a, grid, side="right") / max(a.size, 1)
    cdf_b = np.searchsorted(b, grid, side="right") / max(b.size, 1)
    return float(np.abs(cdf_a - cdf_b).max()) if grid.size else 0.0


def _critical(n1: int, n2: int) -> float:
    """KS critical value at alpha~0.001, plus the +0.02 fidelity floor."""
    n1, n2 = max(n1, 1), max(n2, 1)
    return 1.95 * math.sqrt((n1 + n2) / (n1 * n2)) + 0.02


def _ks_entry(ref_vals: np.ndarray, cand_vals: np.ndarray) -> dict:
    stat = ks_statistic(ref_vals, cand_vals)
    crit = _critical(len(ref_vals), len(cand_vals))
    return {"statistic": round(stat, 4), "critical": round(crit, 4), "ok": stat <= crit}


def columnar_ks_checks(reference: ColumnarTrace, candidate: ColumnarTrace) -> dict:
    """Distributional-equivalence report between two trace realizations.

    Session durations and queries per session (two-sample KS), the
    Fig. 1 region mix (max per-region share gap, within 0.05), and the
    Table 2 rule proportions (share of initial queries each filter rule
    removes, within 0.08).
    """
    checks: dict = {
        "session_duration_ks": _ks_entry(
            reference.session_end - reference.session_start,
            candidate.session_end - candidate.session_start,
        ),
        "queries_per_session_ks": _ks_entry(
            np.diff(reference.query_offsets), np.diff(candidate.query_offsets)
        ),
    }

    n1, n2 = max(reference.n_sessions, 1), max(candidate.n_sessions, 1)
    ref_mix = np.bincount(reference.session_region, minlength=4) / n1
    cand_mix = np.bincount(candidate.session_region, minlength=4) / n2
    gap = float(np.abs(ref_mix - cand_mix).max())
    checks["region_mix_max_gap"] = {
        "statistic": round(gap, 4),
        "critical": 0.05,
        "ok": gap <= 0.05,
    }

    ref_t2 = apply_filters_columnar(reference).report.as_dict()
    cand_t2 = apply_filters_columnar(candidate).report.as_dict()
    rule_checks = {}
    for rule in range(1, 6):
        key = f"rule{rule}_removed_queries"
        ref_frac = ref_t2[key] / max(ref_t2["initial_queries"], 1)
        cand_frac = cand_t2[key] / max(cand_t2["initial_queries"], 1)
        diff = abs(ref_frac - cand_frac)
        rule_checks[key] = {
            "reference_fraction": round(ref_frac, 4),
            "candidate_fraction": round(cand_frac, 4),
            "abs_diff": round(diff, 4),
            "ok": diff <= 0.08,
        }
    checks["table2_rule_fractions"] = rule_checks

    checks["ok"] = all(c["ok"] for c in rule_checks.values()) and all(
        checks[k]["ok"]
        for k in ("session_duration_ks", "queries_per_session_ks", "region_mix_max_gap")
    )
    return checks


def _interarrival_gaps(workload: ColumnarWorkload) -> np.ndarray:
    """All within-session query interarrival gaps, one flat array."""
    if workload.n_queries < 2:
        return np.empty(0, dtype=np.float64)
    same = np.diff(workload.query_session) == 0
    return np.diff(workload.query_offset)[same]


def _first_last_gaps(workload: ColumnarWorkload):
    """(time to first query, time after last query) per session with queries."""
    counts = workload.query_counts()
    has_queries = counts > 0
    index = workload.query_index()
    first = workload.query_offset[index[:-1][has_queries]]
    last = workload.query_offset[index[1:][has_queries] - 1]
    after = workload.session_duration[has_queries] - last
    return first, after


def _hourly_shares(workload: ColumnarWorkload):
    """Per-hour-of-day region shares and session totals."""
    hours = ((workload.session_start % 86400.0) // 3600.0).astype(np.intp)
    table = np.zeros((24, 4), dtype=np.float64)
    totals = np.zeros(24, dtype=np.int64)
    for hour in range(24):
        mask = hours == hour
        totals[hour] = int(mask.sum())
        if totals[hour]:
            table[hour] = np.bincount(
                workload.session_region[mask], minlength=4
            ) / totals[hour]
    return table, totals


def generator_ks_checks(
    reference: ColumnarWorkload, candidate: ColumnarWorkload
) -> dict:
    """Distributional-equivalence report between two workload realizations.

    Session duration, queries per active session, query interarrival
    time, time to first query and time after the last query (two-sample
    KS), and the Fig. 1 region mix per hour of day.
    """
    ref_first, ref_after = _first_last_gaps(reference)
    cand_first, cand_after = _first_last_gaps(candidate)
    checks: dict = {
        "session_duration_ks": _ks_entry(
            reference.session_duration, candidate.session_duration
        ),
        "queries_per_session_ks": _ks_entry(
            reference.query_counts()[~reference.session_passive],
            candidate.query_counts()[~candidate.session_passive],
        ),
        "interarrival_ks": _ks_entry(
            _interarrival_gaps(reference), _interarrival_gaps(candidate)
        ),
        "first_query_gap_ks": _ks_entry(ref_first, cand_first),
        "last_query_gap_ks": _ks_entry(ref_after, cand_after),
    }

    # Fig. 1: the region mix is conditioned on the hour of day; compare
    # per-region shares hour by hour wherever both sides have enough
    # sessions for the share to be meaningful.  Each hour gets its own
    # sample-size-dependent critical value (same asymptotic form as the
    # KS entries); the reported statistic is the worst gap/critical
    # ratio, so ok means every hour passed its own bound.
    ref_table, ref_totals = _hourly_shares(reference)
    cand_table, cand_totals = _hourly_shares(candidate)
    usable = (ref_totals >= 30) & (cand_totals >= 30)
    worst_ratio = 0.0
    for hour in np.nonzero(usable)[0]:
        crit = _critical(int(ref_totals[hour]), int(cand_totals[hour]))
        gap = float(np.abs(ref_table[hour] - cand_table[hour]).max())
        worst_ratio = max(worst_ratio, gap / crit)
    checks["region_mix_by_hour_worst_ratio"] = {
        "statistic": round(worst_ratio, 4),
        "critical": 1.0,
        "hours_compared": int(usable.sum()),
        "ok": worst_ratio <= 1.0,
    }

    checks["ok"] = all(entry["ok"] for entry in checks.values())
    return checks


# ---------------------------------------------------------------------------
# Same bytes: streamed products vs. the record functions
# ---------------------------------------------------------------------------


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


def _traces_identical(a: ColumnarTrace, b: ColumnarTrace) -> bool:
    """Field-by-field exact equality of two ``ColumnarTrace`` bundles."""
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


# ---------------------------------------------------------------------------
# Same bytes: the overlay engine against its event reference
# ---------------------------------------------------------------------------


def compare_runs(a: OverlayRunResult, b: OverlayRunResult) -> dict:
    """The overlay equivalence battery: every observable must match."""
    checks = {
        "query_messages": bool(np.array_equal(a.query_messages, b.query_messages)),
        "query_hits": bool(np.array_equal(a.query_hits, b.query_hits)),
        "query_reach": bool(np.array_equal(a.query_reach, b.query_reach)),
        "messages_total": a.messages_total == b.messages_total,
        "hop1_stream": (
            np.array_equal(a.hop1_session, b.hop1_session)
            and np.array_equal(a.hop1_time, b.hop1_time)
            and np.array_equal(a.hop1_code, b.hop1_code)
        ),
        "sessions": all(
            np.array_equal(getattr(a, name), getattr(b, name))
            for name in (
                "session_start", "session_end_observed", "session_n_queries",
                "session_region", "session_ultrapeer", "session_shared_files",
            )
        ),
        "keepalives": (
            a.keepalive_pings == b.keepalive_pings
            and a.keepalive_pongs == b.keepalive_pongs
        ),
    }
    if a.reach_query is not None and b.reach_query is not None:
        checks["reach_sets"] = (
            np.array_equal(a.reach_query, b.reach_query)
            and np.array_equal(a.reach_node, b.reach_node)
            and np.array_equal(a.reach_depth, b.reach_depth)
        )
    checks["ok"] = all(checks.values())
    return checks
