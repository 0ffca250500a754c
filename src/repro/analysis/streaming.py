"""Single-pass streaming accumulators for the Figure 1-11 analyses.

Each reducer here folds one filtered trace chunk at a time
(``update``) into running state whose cross-chunk merge is *exact* --
integer counts, per-session scalars, and array concatenations in chunk
order -- and finalizes (``finalize``) into the same product the
in-memory analysis functions compute over the whole trace at once.

Exactness relies on two properties of the sharded pipeline:

* shards arrive in canonical global order (a shard's sessions all start
  before the next shard's), so concatenating per-chunk per-session
  arrays reproduces the full-trace session order, and
* every accumulated quantity is either order-independent
  (:func:`empirical_ccdf` sorts; ``Counter`` merges sum; time-of-day
  bins hold exact float64 integer counts) or per-session (medians,
  first/last anchors) and therefore local to one chunk.

The streamed outputs are asserted *equal* -- not approximately equal --
to the in-memory path by the equivalence suite
(``tests/analysis/test_streaming_parity.py``).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

from repro.core.kernels import merge_vocabularies
from repro.core.regions import PEAK_HOURS, KeyPeriod, Region
from repro.core.stats import (
    Ccdf,
    TimeOfDayBinner,
    empirical_ccdf,
    ratio_binner_fraction,
)
from repro.filtering.columnar import ColumnarFilterResult
from repro.filtering.pipeline import FilterReport
from repro.filtering.streaming import StreamingFilter
from repro.measurement.columnar import REGION_CODE, REGION_ORDER, ColumnarTrace

from .active import ActiveSession
from .common import MAJOR
from .correlations import CorrelationResult, spearman
from .geographic import GeographicProfile
from .load import LoadProfile
from .passive import PassiveFractionProfile
from .shared_files import SharedFilesProfile

__all__ = [
    "ActiveArrays",
    "KeptQueries",
    "PassiveDurations",
    "QueryColumns",
    "QueryTable",
    "StreamingActive",
    "StreamingAnalysis",
    "StreamingGeographic",
    "StreamingPassiveDurations",
    "StreamingPassiveFraction",
    "StreamingPopularity",
    "StreamingQueryColumns",
    "StreamingQueryLoad",
    "StreamingSharedFiles",
    "run_streaming",
]

_N_REGIONS = len(REGION_ORDER)


def _hour_of_day_array(timestamps: np.ndarray) -> np.ndarray:
    """Vectorized :func:`repro.core.regions.hour_of_day`."""
    return ((np.asarray(timestamps) % 86400.0) // 3600.0).astype(np.int64)


# -- Figure 1: geographic distribution ----------------------------------------

class StreamingGeographic:
    """Streaming :func:`~repro.analysis.geographic.geographic_distribution`.

    Pure integer (region, hour) counts over all sessions and all
    PONG/QUERYHIT observations; the normalization happens once at
    finalize, on totals identical to the in-memory pass.
    """

    def __init__(self) -> None:
        self._one_hop = np.zeros((_N_REGIONS, 24), dtype=np.int64)
        self._all = np.zeros((_N_REGIONS, 24), dtype=np.int64)

    def update(self, block: ColumnarFilterResult) -> None:
        trace = block.trace
        if trace.n_sessions:
            code = np.asarray(trace.session_region, dtype=np.int64)
            np.add.at(self._one_hop, (code, _hour_of_day_array(trace.session_start)), 1)
        for prefix in ("pong", "hit"):
            ts = np.asarray(getattr(trace, prefix + "_timestamp"))
            if ts.size:
                code = np.asarray(getattr(trace, prefix + "_region"), dtype=np.int64)
                np.add.at(self._all, (code, _hour_of_day_array(ts)), 1)

    def finalize(self) -> GeographicProfile:
        def normalize(counts: np.ndarray) -> np.ndarray:
            total = np.maximum(counts.astype(float).sum(axis=0), 1.0)
            return counts.astype(float) / total

        one_hop = normalize(self._one_hop)
        all_peers = normalize(self._all)
        code = {r: REGION_CODE[r] for r in MAJOR}
        return GeographicProfile(
            hours=np.arange(24),
            one_hop={r: one_hop[code[r]] for r in MAJOR},
            all_peers={r: all_peers[code[r]] for r in MAJOR},
        )


# -- Figure 2: shared files ----------------------------------------------------

class StreamingSharedFiles:
    """Streaming :func:`~repro.analysis.shared_files.shared_files_distribution`."""

    def __init__(self, max_files: int = 100) -> None:
        if max_files < 1:
            raise ValueError(f"max_files must be >= 1, got {max_files}")
        self.max_files = max_files
        self._one_hop = np.zeros(max_files + 1, dtype=np.int64)
        self._all = np.zeros(max_files + 1, dtype=np.int64)
        self._n_one_hop = 0
        self._n_all = 0

    def _fold(self, hist: np.ndarray, values: np.ndarray) -> int:
        values = np.asarray(values)
        small = values[values <= self.max_files]
        if small.size:
            hist += np.bincount(small, minlength=self.max_files + 1)
        return int(values.size)

    def update(self, block: ColumnarFilterResult) -> None:
        self._n_one_hop += self._fold(self._one_hop, block.trace.session_shared_files)
        self._n_all += self._fold(self._all, block.trace.pong_shared_files)

    def finalize(self) -> SharedFilesProfile:
        if self._n_one_hop == 0 or self._n_all == 0:
            raise ValueError("trace has no sessions or no PONG samples")
        return SharedFilesProfile(
            counts=np.arange(self.max_files + 1),
            one_hop=self._one_hop.astype(float) / self._n_one_hop,
            all_peers=self._all.astype(float) / self._n_all,
        )


# -- Figure 3: query load -------------------------------------------------------

class StreamingQueryLoad:
    """Streaming :func:`~repro.analysis.load.query_load` (raw hop-1 stream)."""

    def __init__(self, bin_minutes: int = 30) -> None:
        self._binners = {r: TimeOfDayBinner(bin_seconds=bin_minutes * 60) for r in MAJOR}

    def update(self, block: ColumnarFilterResult) -> None:
        trace = block.trace
        if not trace.n_queries:
            return
        qts = np.asarray(trace.query_timestamp)
        code = np.asarray(trace.session_region)[block.session_index]
        for region in MAJOR:
            mask = code == REGION_CODE[region]
            if mask.any():
                self._binners[region].add_array(qts[mask])

    def finalize(self) -> Dict[Region, LoadProfile]:
        profiles: Dict[Region, LoadProfile] = {}
        for region, binner in self._binners.items():
            if not binner.days:
                raise ValueError(f"no queries observed for {region}")
            profiles[region] = LoadProfile(
                region=region,
                bin_hours=binner.bin_starts_hours(),
                average=binner.average(),
                minimum=binner.minimum(),
                maximum=binner.maximum(),
            )
        return profiles


# -- Figure 4: passive fraction by hour -----------------------------------------

class StreamingPassiveFraction:
    """Streaming :func:`~repro.analysis.passive.passive_fraction_by_hour`."""

    def __init__(self) -> None:
        self._passive = {r: TimeOfDayBinner() for r in MAJOR}
        self._total = {r: TimeOfDayBinner() for r in MAJOR}

    def update(self, block: ColumnarFilterResult) -> None:
        trace = block.trace
        rows = np.flatnonzero(block.session_mask)
        if not rows.size:
            return
        kept = np.bincount(
            block.session_index[block.query_mask], minlength=trace.n_sessions
        )
        start = np.asarray(trace.session_start)[rows]
        code = np.asarray(trace.session_region)[rows]
        # Active sessions contribute 0.0 so every day with sessions is
        # present in both binners (the loop path does the same).
        passive = (kept[rows] == 0).astype(np.float64)
        for region in MAJOR:
            mask = code == REGION_CODE[region]
            if mask.any():
                self._total[region].add_array(start[mask])
                self._passive[region].add_array(start[mask], passive[mask])

    def finalize(self) -> Dict[Region, PassiveFractionProfile]:
        profiles: Dict[Region, PassiveFractionProfile] = {}
        for region in MAJOR:
            if not self._total[region].days:
                continue
            avg, lo, hi = ratio_binner_fraction(self._passive[region], self._total[region])
            profiles[region] = PassiveFractionProfile(
                region=region,
                bin_hours=self._total[region].bin_starts_hours(),
                average=avg,
                minimum=lo,
                maximum=hi,
            )
        return profiles


# -- Figure 5: passive durations --------------------------------------------------

@dataclass
class PassiveDurations:
    """(region, start, duration) columns of every passive rule-3 survivor."""

    region_code: np.ndarray
    start: np.ndarray
    duration: np.ndarray

    def by_region(self) -> Dict[Region, Ccdf]:
        """Streamed :func:`~repro.analysis.passive.passive_duration_ccdf_by_region`."""
        out: Dict[Region, Ccdf] = {}
        for region in MAJOR:
            durations = self.duration[self.region_code == REGION_CODE[region]]
            if durations.size:
                out[region] = empirical_ccdf(durations)
        return out

    def by_period(self, region: Region) -> Dict[KeyPeriod, Ccdf]:
        """Streamed :func:`~repro.analysis.passive.passive_duration_ccdf_by_period`."""
        out: Dict[KeyPeriod, Ccdf] = {}
        in_region = self.region_code == REGION_CODE[region]
        hour = _hour_of_day_array(self.start)
        for period in KeyPeriod:
            durations = self.duration[in_region & (hour == period.start_hour)]
            if durations.size:
                out[period] = empirical_ccdf(durations)
        return out

    def peak_split(self, region: Region) -> Tuple[np.ndarray, np.ndarray]:
        """(peak, off-peak) durations of ``region``'s passive sessions, in
        trace order, split by :func:`~repro.core.regions.is_peak_hour` of
        the session start (Table A.1's conditioning)."""
        in_region = self.region_code == REGION_CODE[region]
        peak = np.isin(_hour_of_day_array(self.start), sorted(PEAK_HOURS[region]))
        return self.duration[in_region & peak], self.duration[in_region & ~peak]


class StreamingPassiveDurations:
    """Accumulates the Figure 5 passive-session columns chunk by chunk."""

    def __init__(self) -> None:
        self._parts: List[tuple] = []

    def update(self, block: ColumnarFilterResult) -> None:
        trace = block.trace
        kept = np.bincount(
            block.session_index[block.query_mask], minlength=trace.n_sessions
        )
        # Passive: a rule-3 survivor whose rules 1-3 kept query stream is
        # empty, exactly ``is_passive`` on the filtered records.
        rows = np.flatnonzero(block.session_mask & (kept == 0))
        if rows.size:
            start = trace.session_start[rows]
            self._parts.append(
                (trace.session_region[rows], start, trace.session_end[rows] - start)
            )

    def finalize(self) -> PassiveDurations:
        if not self._parts:
            return PassiveDurations(
                region_code=np.empty(0, np.int8),
                start=np.empty(0, np.float64),
                duration=np.empty(0, np.float64),
            )
        return PassiveDurations(
            region_code=np.concatenate([p[0] for p in self._parts]),
            start=np.concatenate([p[1] for p in self._parts]),
            duration=np.concatenate([p[2] for p in self._parts]),
        )


# -- Figures 6-9: active sessions ---------------------------------------------

_EMPTY_ACTIVE = {
    "region": np.empty(0, np.int8),
    "start": np.empty(0, np.float64),
    "duration": np.empty(0, np.float64),
    "n_queries": np.empty(0, np.int64),
    "n_unfiltered": np.empty(0, np.int64),
    "until_first": np.empty(0, np.float64),
    "after_last": np.empty(0, np.float64),
    "start_hour": np.empty(0, np.int64),
    "last_hour": np.empty(0, np.int64),
    "median_gap": np.empty(0, np.float64),
    "gaps": np.empty(0, np.float64),
}


@dataclass
class ActiveArrays:
    """Per-active-session columns: the array form of the ``ActiveSession``
    view list, carrying everything the Figure 6-9 CCDFs and the
    correlation measures need without per-session Python objects.

    ``gaps`` is the flat eligible-interarrival column in session-major
    order; session ``i`` owns ``n_queries[i] - 1`` consecutive gaps.
    """

    region: np.ndarray        # REGION_CODE per active session
    start: np.ndarray
    duration: np.ndarray
    n_queries: np.ndarray     # rules 4-5 applied (the paper's default)
    n_unfiltered: np.ndarray  # rules 1-3 only (Fig. 6c variant)
    until_first: np.ndarray
    after_last: np.ndarray
    start_hour: np.ndarray
    last_hour: np.ndarray
    median_gap: np.ndarray    # NaN for single-query sessions
    gaps: np.ndarray

    def __len__(self) -> int:
        return int(self.region.size)

    # Per-gap owner attributes, for the Figure 8 groupings.
    def _gap_owner(self, column: np.ndarray) -> np.ndarray:
        return np.repeat(column, np.maximum(self.n_queries - 1, 0))

    def _region_mask(self, region: Region) -> np.ndarray:
        return self.region == REGION_CODE[region]

    def _ccdf_by_region(self, values: np.ndarray, owner_region: np.ndarray) -> Dict[Region, Ccdf]:
        out: Dict[Region, Ccdf] = {}
        for region in MAJOR:
            selected = values[owner_region == REGION_CODE[region]]
            if selected.size:
                out[region] = empirical_ccdf(selected)
        return out

    def _ccdf_by_period(
        self,
        values: np.ndarray,
        owner_region: np.ndarray,
        owner_hour: np.ndarray,
        region: Region,
    ) -> Dict[KeyPeriod, Ccdf]:
        out: Dict[KeyPeriod, Ccdf] = {}
        in_region = owner_region == REGION_CODE[region]
        for period in KeyPeriod:
            selected = values[in_region & (owner_hour == period.start_hour)]
            if selected.size:
                out[period] = empirical_ccdf(selected)
        return out

    def _ccdf_by_class(
        self, values: np.ndarray, classes: Dict[str, np.ndarray], in_region: np.ndarray
    ) -> Dict[str, Ccdf]:
        out: Dict[str, Ccdf] = {}
        for label, mask in classes.items():
            selected = values[in_region & mask]
            if selected.size:
                out[label] = empirical_ccdf(selected)
        return out

    # -- session selections -----------------------------------------------------

    def peak_sessions(self, region: Region, peak: bool = True) -> np.ndarray:
        """Mask of ``region``'s sessions started in (``peak=True``) or
        outside its peak hours: :func:`~repro.core.regions.is_peak_hour`
        of the session start, the Appendix tables' conditioning."""
        in_peak = np.isin(self.start_hour, sorted(PEAK_HOURS[region]))
        return self._region_mask(region) & (in_peak == peak)

    def first_query_classes(self) -> Dict[str, np.ndarray]:
        """:func:`~repro.core.parameters.first_query_class` as one
        session mask per class (Fig. 7b, Table A.3)."""
        n = self.n_queries
        return {"<3": n < 3, "=3": n == 3, ">3": n > 3}

    def interarrival_classes(self) -> Dict[str, np.ndarray]:
        """:func:`~repro.core.parameters.interarrival_query_class` as one
        session mask per class (Fig. 8b)."""
        n = self.n_queries
        return {"=2": n <= 2, "3-7": (n >= 3) & (n <= 7), ">7": n > 7}

    def last_query_classes(self) -> Dict[str, np.ndarray]:
        """:func:`~repro.core.parameters.last_query_class` as one session
        mask per class (Fig. 9b, Table A.5)."""
        n = self.n_queries
        return {"1": n <= 1, "2-7": (n >= 2) & (n <= 7), ">7": n > 7}

    def gaps_of(self, sessions: np.ndarray) -> np.ndarray:
        """The interarrival gaps owned by the sessions a boolean mask
        selects, in session-major order."""
        return self.gaps[self._gap_owner(sessions)]

    # -- Figure 6 -----------------------------------------------------------

    def queries_per_session_ccdf(self, region: Optional[Region] = None):
        """Streamed :func:`~repro.analysis.active.queries_per_session_ccdf`."""
        if region is None:
            return self._ccdf_by_region(self.n_queries, self.region)
        return self._ccdf_by_period(self.n_queries, self.region, self.start_hour, region)

    def queries_per_session_ccdf_unfiltered(self) -> Dict[Region, Ccdf]:
        """Streamed :func:`~repro.analysis.active.queries_per_session_ccdf_unfiltered`."""
        return self._ccdf_by_region(self.n_unfiltered, self.region)

    # -- Figure 7 -----------------------------------------------------------

    def first_query_ccdf(self, region: Optional[Region] = None, by_query_class: bool = False):
        """Streamed :func:`~repro.analysis.active.first_query_ccdf`."""
        values = np.maximum(self.until_first, 1e-3)
        if region is None:
            return self._ccdf_by_region(values, self.region)
        if by_query_class:
            return self._ccdf_by_class(
                values, self.first_query_classes(), self._region_mask(region)
            )
        return self._ccdf_by_period(values, self.region, self.start_hour, region)

    # -- Figure 8 -----------------------------------------------------------

    def interarrival_ccdf(self, region: Optional[Region] = None, by_query_class: bool = False):
        """Streamed :func:`~repro.analysis.active.interarrival_ccdf`."""
        gap_region = self._gap_owner(self.region)
        if region is None:
            return self._ccdf_by_region(self.gaps, gap_region)
        if by_query_class:
            classes = {
                label: self._gap_owner(mask)
                for label, mask in self.interarrival_classes().items()
            }
            return self._ccdf_by_class(
                self.gaps, classes, gap_region == REGION_CODE[region]
            )
        return self._ccdf_by_period(
            self.gaps, gap_region, self._gap_owner(self.start_hour), region
        )

    # -- Figure 9 -----------------------------------------------------------

    def time_after_last_ccdf(self, region: Optional[Region] = None, by_query_class: bool = False):
        """Streamed :func:`~repro.analysis.active.time_after_last_ccdf`."""
        values = np.maximum(self.after_last, 1e-3)
        if region is None:
            return self._ccdf_by_region(values, self.region)
        if by_query_class:
            return self._ccdf_by_class(
                values, self.last_query_classes(), self._region_mask(region)
            )
        return self._ccdf_by_period(values, self.region, self.last_hour, region)

    # -- correlations ---------------------------------------------------------

    def correlations(self, region: Optional[Region] = None) -> List[CorrelationResult]:
        """Streamed :func:`~repro.analysis.correlations.session_correlations`."""
        selected = (
            np.ones(len(self), dtype=bool) if region is None else self._region_mask(region)
        )
        with_gaps = selected & (self.n_queries >= 2)
        results: List[CorrelationResult] = []
        n_selected = int(selected.sum())
        if n_selected >= 3:
            results.append(
                CorrelationResult(
                    name="duration vs #queries",
                    rho=spearman(self.duration[selected], self.n_queries[selected]),
                    n=n_selected,
                )
            )
            results.append(
                CorrelationResult(
                    name="time-after-last vs #queries",
                    rho=spearman(self.after_last[selected], self.n_queries[selected]),
                    n=n_selected,
                )
            )
        n_gaps = int(with_gaps.sum())
        if n_gaps >= 3:
            results.append(
                CorrelationResult(
                    name="median interarrival vs #queries",
                    rho=spearman(self.median_gap[with_gaps], self.n_queries[with_gaps]),
                    n=n_gaps,
                )
            )
        return results

    # -- record views ---------------------------------------------------------

    def views(self) -> List[ActiveSession]:
        """Materialize the ``ActiveSession`` record views.

        The explicit opt-out of streaming for consumers that still want
        per-session objects; identical to
        ``active_sessions(apply_filters(trace.sessions))`` on the full
        trace.  Costs O(total gaps) Python objects -- avoid at paper
        scale.
        """
        period_by_hour = {p.start_hour: p for p in KeyPeriod}
        if not len(self):
            return []
        per_session_gaps = np.split(self.gaps, np.cumsum(self.n_queries - 1)[:-1])
        cols = [
            col.tolist()  # repro: noqa[MEM501] -- record views are the explicit opt-out of streaming
            for col in (
                self.region, self.start, self.duration, self.n_queries,
                self.n_unfiltered, self.until_first, self.after_last,
                self.start_hour, self.last_hour,
            )
        ]
        rows = zip(*cols[:7], per_session_gaps, *cols[7:])
        return [
            ActiveSession(
                region=REGION_ORDER[code],
                start=start,
                duration=duration,
                n_queries=n,
                n_queries_unfiltered=n_unfiltered,
                time_until_first=until_first,
                time_after_last=after_last,
                interarrivals=tuple(gaps.tolist()),  # repro: noqa[MEM501] -- one session's gaps, bounded
                start_period=period_by_hour.get(start_hour),
                last_query_hour=last_hour,
            )
            for (
                code, start, duration, n, n_unfiltered,
                until_first, after_last, gaps, start_hour, last_hour,
            ) in rows
        ]


class StreamingActive:
    """Accumulates :class:`ActiveArrays` one filtered chunk at a time.

    The per-chunk extraction is :func:`~repro.analysis.active.active_sessions`
    as ``searchsorted``/``bincount``/``diff`` reductions over the flat
    query table: everything per-session (first/last anchors, gap
    medians) is computed inside the owning chunk, so concatenation in
    chunk order reproduces the full-trace arrays exactly.
    """

    def __init__(self) -> None:
        self._chunks: List[Dict[str, np.ndarray]] = []

    def update(self, block: ColumnarFilterResult) -> None:
        trace = block.trace
        eligible_rows = np.flatnonzero(block.eligible_mask)
        if not eligible_rows.size:
            return
        seg = block.session_index[eligible_rows]
        ts = np.asarray(trace.query_timestamp)[eligible_rows]
        n_eligible = np.bincount(seg, minlength=trace.n_sessions)
        active_rows = np.flatnonzero(n_eligible > 0)
        # seg is sorted (queries are session-major), so the first/last
        # eligible timestamp of each active session is a searchsorted pair.
        first_ts = ts[np.searchsorted(seg, active_rows, side="left")]
        last_ts = ts[np.searchsorted(seg, active_rows, side="right") - 1]
        n_kept = np.bincount(
            block.session_index[block.query_mask], minlength=trace.n_sessions
        )
        start = np.asarray(trace.session_start)[active_rows]
        end = np.asarray(trace.session_end)[active_rows]
        counts = n_eligible[active_rows]
        gaps = np.diff(ts)[seg[1:] == seg[:-1]]
        per_session = np.split(gaps, np.cumsum(counts - 1)[:-1])
        medians = np.array(
            [np.median(g) if g.size else np.nan for g in per_session],
            dtype=np.float64,
        )
        self._chunks.append(
            {
                "region": np.asarray(trace.session_region)[active_rows],
                "start": start,
                "duration": end - start,
                "n_queries": counts.astype(np.int64),
                "n_unfiltered": n_kept[active_rows].astype(np.int64),
                "until_first": first_ts - start,
                "after_last": end - last_ts,
                "start_hour": _hour_of_day_array(start),
                "last_hour": _hour_of_day_array(last_ts),
                "median_gap": medians,
                "gaps": gaps,
            }
        )

    def finalize(self) -> ActiveArrays:
        if not self._chunks:
            return ActiveArrays(**_EMPTY_ACTIVE)
        return ActiveArrays(
            **{
                name: np.concatenate([chunk[name] for chunk in self._chunks])
                for name in _EMPTY_ACTIVE
            }
        )


# -- Figures 10-11 / Table 3: popularity ----------------------------------------

class StreamingPopularity:
    """Streaming :func:`~repro.analysis.popularity.daily_region_counts`.

    Each chunk's rules 1-3 kept queries of the major regions reduce to
    (day, region, query) counts in one ``np.unique`` over a combined key
    of integer codes; codes sort like the strings of the chunk's sorted
    vocabulary, so the counters fill in (day, region, string) order.
    The counts merge across chunks by summation.
    """

    def __init__(self) -> None:
        self._acc: Dict[int, Dict[Region, Counter]] = {}

    def update(self, block: ColumnarFilterResult) -> None:
        trace = block.trace
        rows = np.flatnonzero(block.query_mask)
        region_code = trace.session_region[block.session_index[rows]]
        major = np.isin(region_code, [REGION_CODE[r] for r in MAJOR])
        rows = rows[major]
        if not rows.size:
            return
        region_code = region_code[major].astype(np.int64)
        day = (trace.query_timestamp[rows] // 86400.0).astype(np.int64)
        keywords = trace.keyword_vocab
        kw_code = trace.query_keyword[rows].astype(np.int64)
        n_regions = np.int64(_N_REGIONS)
        n_keywords = np.int64(keywords.size)
        combined = (day * n_regions + region_code) * n_keywords + kw_code
        unique, counts = np.unique(combined, return_counts=True)
        u_keyword = keywords[unique % n_keywords]
        u_region = (unique // n_keywords) % n_regions
        u_day = unique // (n_keywords * n_regions)
        columns = [
            col.tolist()  # repro: noqa[MEM501] -- one entry per distinct (day, region, query)
            for col in (u_day, u_region, u_keyword, counts)
        ]
        for d, code, keyword, count in zip(*columns):
            self._acc.setdefault(d, {r: Counter() for r in MAJOR})[REGION_ORDER[code]][
                keyword
            ] += count

    def finalize(self) -> Dict[int, Dict[Region, Counter]]:
        return {day: self._acc[day] for day in sorted(self._acc)}


# -- X1-X4: query and session-lifetime columns ------------------------------------

@dataclass
class QueryTable:
    """Flat per-query columns in trace order; ``keyword`` indexes
    :attr:`QueryColumns.keywords`."""

    timestamp: np.ndarray
    keyword: np.ndarray
    hits: np.ndarray
    sha1: np.ndarray


@dataclass
class KeptQueries(QueryTable):
    """The rules 1-3 kept queries of the rule-3 survivors, session-major:
    the queries of ``FilterResult.sessions`` as flat columns.

    Only sessions that kept a query appear.  Session ``j`` owns query
    rows ``offsets[j]:offsets[j + 1]`` and carries its REGION_CODE,
    ultrapeer flag and peer address.
    """

    offsets: np.ndarray
    region: np.ndarray
    ultrapeer: np.ndarray
    peer_ip: np.ndarray

    def query_region(self) -> np.ndarray:
        """The owning session's REGION_CODE, per query."""
        return np.repeat(self.region, np.diff(self.offsets))


@dataclass
class QueryColumns:
    """Compact whole-trace columns for the extension experiments X1-X4.

    ``raw`` holds every hop-1 query, ``user`` the filtered ones, and
    ``session_start``/``session_end`` every session's lifetime, all in
    trace order; ``start_time``/``end_time`` is the trace window.  Query
    strings are codes into the sorted vocabulary ``keywords``;
    ``cache_key[code]`` numbers the string's ``lower()`` form in sorted
    order, so (timestamp, cache key) sorts like (timestamp, lowered
    string).
    """

    start_time: float
    end_time: float
    session_start: np.ndarray
    session_end: np.ndarray
    keywords: np.ndarray
    cache_key: np.ndarray
    raw: QueryTable
    user: KeptQueries


def _concat(parts: List[np.ndarray], dtype) -> np.ndarray:
    return np.concatenate(parts) if parts else np.empty(0, dtype)


class StreamingQueryColumns:
    """Accumulates :class:`QueryColumns` one filtered chunk at a time.

    Each chunk contributes compact copies: its keyword codes and its own
    vocabulary; finalize re-codes them onto one merged vocabulary and
    concatenates in chunk order.  For whole-session shards that is the
    concatenated trace's order, which the order-sensitive consumers --
    X2's per-query RNG draws, X4's mean duration -- depend on.
    """

    def __init__(self) -> None:
        self._chunks: List[Dict[str, np.ndarray]] = []
        self._window: Optional[Tuple[float, float]] = None

    def update(self, block: ColumnarFilterResult) -> None:
        trace = block.trace
        start, end = self._window or (trace.start_time, trace.end_time)
        self._window = (float(start), max(float(end), float(trace.end_time)))
        kept = np.flatnonzero(block.query_mask)
        owners, owned = np.unique(block.session_index[kept], return_counts=True)
        self._chunks.append(
            {
                "session_start": np.array(trace.session_start),
                "session_end": np.array(trace.session_end),
                "vocabulary": np.array(trace.keyword_vocab),
                "timestamp": np.array(trace.query_timestamp),
                "keyword": np.array(trace.query_keyword),
                "hits": np.array(trace.query_hits),
                "sha1": np.array(trace.query_sha1),
                "kept": kept,
                "owned": owned,
                "region": trace.session_region[owners],
                "ultrapeer": trace.session_ultrapeer[owners],
                "peer_ip": trace.session_peer_ip[owners],
            }
        )

    def finalize(self) -> QueryColumns:
        chunks = self._chunks
        start_time, end_time = self._window or (0.0, 0.0)

        def cat(name: str, dtype) -> np.ndarray:
            return _concat([chunk[name] for chunk in chunks], dtype)

        keywords, recoded = merge_vocabularies(
            [chunk["vocabulary"] for chunk in chunks],
            [chunk["keyword"] for chunk in chunks],
        )
        query_base = np.cumsum([0] + [chunk["timestamp"].size for chunk in chunks])
        keyword = _concat(recoded, np.int32)
        kept = _concat(
            [chunk["kept"] + query_base[i] for i, chunk in enumerate(chunks)], np.int64
        )
        # str.lower, the record path's normalization, on distinct strings only.
        vocabulary = keywords.tolist()  # repro: noqa[MEM501] -- distinct strings, not a per-query column
        lowered = np.array([k.lower() for k in vocabulary], dtype=np.str_)
        raw = QueryTable(
            timestamp=cat("timestamp", np.float64),
            keyword=keyword,
            hits=cat("hits", np.int64),
            sha1=cat("sha1", np.bool_),
        )
        owned = cat("owned", np.int64)
        return QueryColumns(
            start_time=start_time,
            end_time=end_time,
            session_start=cat("session_start", np.float64),
            session_end=cat("session_end", np.float64),
            keywords=keywords,
            cache_key=np.unique(lowered, return_inverse=True)[1],
            raw=raw,
            user=KeptQueries(
                timestamp=raw.timestamp[kept],
                keyword=raw.keyword[kept],
                hits=raw.hits[kept],
                sha1=raw.sha1[kept],
                offsets=np.concatenate(([0], np.cumsum(owned))).astype(np.int64),
                region=cat("region", np.int8),
                ultrapeer=cat("ultrapeer", np.bool_),
                peer_ip=cat("peer_ip", np.str_),
            ),
        )


# -- one-pass driver -------------------------------------------------------------

@dataclass
class StreamingAnalysis:
    """Everything the Figure 1-11 / Table 2-3 consumers need, from one pass.

    ``queries`` is filled only on request (``run_streaming(...,
    query_columns=True)``); it feeds the extension experiments X1-X4.
    """

    report: FilterReport
    geographic: GeographicProfile
    shared_files: SharedFilesProfile
    load: Dict[Region, LoadProfile]
    passive_fraction: Dict[Region, PassiveFractionProfile]
    passive: PassiveDurations
    active: ActiveArrays
    daily: Dict[int, Dict[Region, Counter]]
    queries: Optional[QueryColumns] = None


def run_streaming(
    shards: Union[Iterable[ColumnarTrace], "object"],
    query_columns: bool = False,
) -> StreamingAnalysis:
    """Filter and analyze a sharded trace in one bounded-memory pass.

    ``shards`` is a :class:`~repro.measurement.shards.ShardedTrace` (its
    shards are visited memory-mapped, one at a time) or any iterable of
    time-ordered :class:`ColumnarTrace` chunks of whole sessions (a
    chunk that cuts a session raises ``ValueError``, see
    :class:`~repro.filtering.streaming.StreamingFilter`).
    ``query_columns=True`` also folds :class:`QueryColumns` in the same
    pass; its columns grow with the trace, so callers that do not run
    X1-X4 leave it off.
    """
    chunks = shards.iter_shards() if hasattr(shards, "iter_shards") else iter(shards)
    filt = StreamingFilter()
    geographic = StreamingGeographic()
    shared_files = StreamingSharedFiles()
    load = StreamingQueryLoad()
    passive_fraction = StreamingPassiveFraction()
    passive = StreamingPassiveDurations()
    active = StreamingActive()
    popularity = StreamingPopularity()
    columns = StreamingQueryColumns() if query_columns else None
    reducers = (
        geographic, shared_files, load, passive_fraction, passive, active, popularity,
    ) + ((columns,) if columns else ())
    for chunk in chunks:
        block = filt.push(chunk)
        for reducer in reducers:
            reducer.update(block)
        # Unbind the shard and its filtered block before the next one is
        # mapped, so one shard is resident at a time.
        del chunk, block
    return StreamingAnalysis(
        report=filt.report,
        geographic=geographic.finalize(),
        shared_files=shared_files.finalize(),
        load=load.finalize(),
        passive_fraction=passive_fraction.finalize(),
        passive=passive.finalize(),
        active=active.finalize(),
        daily=popularity.finalize(),
        queries=columns.finalize() if columns else None,
    )
