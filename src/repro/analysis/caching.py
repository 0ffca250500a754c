"""Query-result caching analysis (the paper's closing systems claim).

Section 4.6 ends with: "As a consequence of the small Zipf parameters,
caching of responses will be more effective in systems that use
aggressive automated re-query features than in systems that only issue
queries on the users action."  This module quantifies that claim: an LRU
result cache with entry expiry is driven once by the raw query stream
(automated traffic included) and once by the filtered user stream.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Hashable, Iterable, List, Sequence, Tuple

import numpy as np

from repro.core.events import SessionRecord

__all__ = [
    "LruResultCache", "query_stream", "cache_hit_rates",
    "coded_query_stream", "stream_hit_rates",
]

#: Default result-cache entry lifetime; cached responses go stale fast in
#: a churning network -- 10 minutes matches the GUID routing horizon.
DEFAULT_TTL_SECONDS = 600.0


class LruResultCache:
    """LRU cache of query results with per-entry expiry."""

    def __init__(self, capacity: int, ttl: float = DEFAULT_TTL_SECONDS):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if ttl <= 0:
            raise ValueError(f"ttl must be positive, got {ttl}")
        self.capacity = capacity
        self.ttl = ttl
        self._entries: "OrderedDict[Hashable, float]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def lookup(self, key: Hashable, now: float) -> bool:
        """Look up (and on miss, insert) a query; returns hit/miss."""
        stored = self._entries.get(key)
        if stored is not None and now - stored <= self.ttl:
            self._entries.move_to_end(key)
            self.hits += 1
            return True
        self.misses += 1
        if stored is not None:
            del self._entries[key]  # expired
        self._entries[key] = now
        self._entries.move_to_end(key)
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
        return False

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __len__(self) -> int:
        return len(self._entries)


def query_stream(sessions: Iterable[SessionRecord]) -> List[Tuple[float, str]]:
    """Time-ordered (timestamp, normalized keywords) pairs of a trace."""
    stream = [
        (q.timestamp, q.keywords.lower()) for s in sessions for q in s.queries
    ]
    stream.sort()
    return stream


def coded_query_stream(
    timestamp: np.ndarray, key: np.ndarray
) -> Tuple[List[float], List[int]]:
    """:func:`query_stream` over flat columns, as two flat lists
    ``(times, keys)`` with integer cache keys.

    ``key`` codes must sort like the normalized strings they stand for
    (codes into a sorted vocabulary); the cache itself only compares
    keys for equality, so the hit rates equal the string stream's.
    """
    order = np.lexsort((key, timestamp))
    return timestamp[order].tolist(), key[order].tolist()


def cache_hit_rates(
    raw_sessions: Sequence[SessionRecord],
    user_sessions: Sequence[SessionRecord],
    capacities: Sequence[int] = (8, 64, 512),
    ttl: float = DEFAULT_TTL_SECONDS,
) -> List[Dict[str, float]]:
    """Cache hit rate rows for raw vs. filtered-user query streams."""
    raw, user = query_stream(raw_sessions), query_stream(user_sessions)
    return stream_hit_rates(
        ([t for t, _ in raw], [k for _, k in raw]),
        ([t for t, _ in user], [k for _, k in user]),
        capacities,
        ttl,
    )


def stream_hit_rates(
    raw: Tuple[Sequence[float], Sequence[Hashable]],
    user: Tuple[Sequence[float], Sequence[Hashable]],
    capacities: Sequence[int] = (8, 64, 512),
    ttl: float = DEFAULT_TTL_SECONDS,
) -> List[Dict[str, float]]:
    """Cache hit rate rows for two time-ordered streams, each given as
    parallel ``(times, keys)`` sequences."""
    if not len(raw[0]) or not len(user[0]):
        raise ValueError("both streams must contain queries")
    rows = []
    for capacity in capacities:
        raw_cache = LruResultCache(capacity, ttl)
        for now, key in zip(*raw):
            raw_cache.lookup(key, now)
        user_cache = LruResultCache(capacity, ttl)
        for now, key in zip(*user):
            user_cache.lookup(key, now)
        rows.append({
            "capacity": capacity,
            "raw_hit_rate": raw_cache.hit_rate,
            "user_hit_rate": user_cache.hit_rate,
        })
    return rows
