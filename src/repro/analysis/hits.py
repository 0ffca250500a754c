"""Query hit-rate characterization (the paper's stated future work).

"Future work includes characterizing the query hit rate of the peers,
including the correlation of hit rate with other measures."  This module
implements that characterization on a trace whose queries carry QUERYHIT
response counts:

* the overall hit rate (fraction of queries answered at all) and the
  responder-count CCDF;
* hit rate conditioned on geographic region;
* hit rate conditioned on popularity rank (do popular queries hit more?);
* hit rate of user vs. automated traffic (SHA1 source searches mostly
  miss, which is why clients re-send them).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.events import SessionRecord
from repro.core.regions import Region
from repro.core.stats import Ccdf, empirical_ccdf
from repro.measurement.columnar import REGION_CODE

from .common import MAJOR

__all__ = [
    "HitRateSummary",
    "hit_rate_summary",
    "hit_rate_by_region",
    "hits_ccdf",
    "hit_rate_by_popularity_decile",
    "region_hit_rates",
    "decile_hit_rates",
]

_SECONDS_PER_DAY = 86400.0


@dataclass(frozen=True)
class HitRateSummary:
    """Aggregate hit statistics over a query population."""

    n_queries: int
    hit_rate: float        # fraction of queries with >= 1 responder
    mean_hits: float
    mean_hits_answered: float  # mean over answered queries only

    @classmethod
    def from_hits(cls, hits: Sequence[int]) -> "HitRateSummary":
        if len(hits) == 0:
            raise ValueError("no queries")
        arr = np.asarray(hits, dtype=float)
        answered = arr[arr > 0]
        return cls(
            n_queries=int(arr.size),
            hit_rate=float((arr > 0).mean()),
            mean_hits=float(arr.mean()),
            mean_hits_answered=float(answered.mean()) if answered.size else 0.0,
        )


def _all_hits(sessions: Sequence[SessionRecord], sha1: Optional[bool] = None) -> List[int]:
    return [
        q.hits
        for s in sessions
        for q in s.queries
        if sha1 is None or q.sha1 == sha1
    ]


def hit_rate_summary(
    sessions: Sequence[SessionRecord], sha1: Optional[bool] = None
) -> HitRateSummary:
    """Overall hit statistics; ``sha1`` restricts to (non-)source searches."""
    return HitRateSummary.from_hits(_all_hits(sessions, sha1=sha1))


def hit_rate_by_region(sessions: Sequence[SessionRecord]) -> Dict[Region, HitRateSummary]:
    """Hit statistics split by the querying peer's region."""
    out: Dict[Region, HitRateSummary] = {}
    for region in MAJOR:
        hits = [q.hits for s in sessions if s.region is region for q in s.queries]
        if hits:
            out[region] = HitRateSummary.from_hits(hits)
    return out


def hits_ccdf(sessions: Sequence[SessionRecord]) -> Ccdf:
    """CCDF of responder counts over all queries."""
    hits = _all_hits(sessions)
    if not hits:
        raise ValueError("no queries in sessions")
    return empirical_ccdf([float(h) for h in hits])


def hit_rate_by_popularity_decile(
    sessions: Sequence[SessionRecord], n_bins: int = 10
) -> List[Tuple[int, float, float]]:
    """Hit rate as a function of the query's same-day popularity decile.

    Returns ``(decile, hit_rate, mean_hits)`` rows, decile 1 being the
    most popular queries of each day.  A positive popularity/hit-rate
    correlation is the expected signature: replication follows demand.

    Each day's query strings are ranked by their count over the major
    regions, descending.  Ties go to first occurrence: the string seen
    first in that day's North American queries (trace order), then the
    European ones, then the Asian ones.
    """
    if n_bins < 2:
        raise ValueError("need at least 2 bins")
    counts: Dict[int, Counter] = {}
    first_seen: Dict[int, Dict[str, Tuple[int, int]]] = {}
    position = 0
    for session in sessions:
        if session.region not in MAJOR:
            continue
        region_order = MAJOR.index(session.region)
        for query in session.queries:
            day = int(query.timestamp // _SECONDS_PER_DAY)
            counts.setdefault(day, Counter())[query.keywords] += 1
            tie = (region_order, position)
            seen = first_seen.setdefault(day, {})
            if seen.setdefault(query.keywords, tie) > tie:
                seen[query.keywords] = tie
            position += 1
    day_rank: Dict[int, Dict[str, int]] = {}
    for day, counter in counts.items():
        tie_key = first_seen[day]
        ranked = sorted(counter, key=lambda query: (-counter[query], tie_key[query]))
        day_rank[day] = {query: idx for idx, query in enumerate(ranked)}
    bins: List[List[int]] = [[] for _ in range(n_bins)]
    for session in sessions:
        for query in session.queries:
            day = int(query.timestamp // _SECONDS_PER_DAY)
            ranks = day_rank.get(day)
            if not ranks or query.keywords not in ranks:
                continue
            position = ranks[query.keywords] / max(len(ranks), 1)
            bins[min(int(position * n_bins), n_bins - 1)].append(query.hits)
    rows: List[Tuple[int, float, float]] = []
    for index, hits in enumerate(bins, start=1):
        if not hits:
            continue
        arr = np.asarray(hits, dtype=float)
        rows.append((index, float((arr > 0).mean()), float(arr.mean())))
    return rows


# -- flat per-query columns ----------------------------------------------------
#
# The same measures over flat columns in trace order (session-major), as
# the streaming pass collects them.  ``region_code`` is the owning
# session's REGION_CODE per query.  Overall summaries and the responder
# CCDF need no twin: HitRateSummary.from_hits and empirical_ccdf take
# the hits column directly.


def region_hit_rates(
    hits: np.ndarray, region_code: np.ndarray
) -> Dict[Region, HitRateSummary]:
    """:func:`hit_rate_by_region` over per-query columns."""
    out: Dict[Region, HitRateSummary] = {}
    for region in MAJOR:
        selected = hits[region_code == REGION_CODE[region]]
        if selected.size:
            out[region] = HitRateSummary.from_hits(selected)
    return out


def decile_hit_rates(
    timestamp: np.ndarray,
    keyword: np.ndarray,
    region_code: np.ndarray,
    hits: np.ndarray,
    n_bins: int = 10,
) -> List[Tuple[int, float, float]]:
    """:func:`hit_rate_by_popularity_decile` over per-query columns.

    ``keyword`` is any non-negative integer code of the query string.
    The tie rule is the record function's, with a query's row index as
    its trace position.
    """
    if n_bins < 2:
        raise ValueError("need at least 2 bins")
    day = (np.asarray(timestamp) // _SECONDS_PER_DAY).astype(np.int64)
    keyword = np.asarray(keyword, dtype=np.int64)
    n_keywords = np.int64(keyword.max() + 1 if keyword.size else 1)
    pair = day * n_keywords + keyword  # (day, string) identity
    region_order = np.full(region_code.shape, -1, dtype=np.int64)
    for order, region in enumerate(MAJOR):
        region_order[region_code == REGION_CODE[region]] = order
    major = np.flatnonzero(region_order >= 0)
    if not major.size:
        return []
    pairs, inverse, counts = np.unique(pair[major], return_inverse=True, return_counts=True)
    # First occurrence: the first major region issuing the string, then
    # its first row there.
    first = np.full(pairs.size, np.iinfo(np.int64).max)
    np.minimum.at(first, inverse, region_order[major] * np.int64(pair.size) + major)
    pair_day = pairs // n_keywords
    ranked = np.lexsort((first, -counts, pair_day))  # per day: count desc, first
    ranked_day = pair_day[ranked]
    day_lo = np.searchsorted(ranked_day, ranked_day, side="left")
    rank = np.empty(pairs.size, dtype=np.int64)
    rank[ranked] = np.arange(pairs.size) - day_lo
    n_ranked = np.empty(pairs.size, dtype=np.int64)
    n_ranked[ranked] = np.searchsorted(ranked_day, ranked_day, side="right") - day_lo
    slot = np.minimum(np.searchsorted(pairs, pair), pairs.size - 1)
    found = np.flatnonzero(pairs[slot] == pair)
    position = rank[slot[found]] / n_ranked[slot[found]]
    decile = np.minimum((position * n_bins).astype(np.int64), n_bins - 1)
    binned_hits = np.asarray(hits)[found]
    rows: List[Tuple[int, float, float]] = []
    for index in range(n_bins):
        arr = binned_hits[decile == index].astype(float)
        if arr.size:
            rows.append((index + 1, float((arr > 0).mean()), float(arr.mean())))
    return rows
