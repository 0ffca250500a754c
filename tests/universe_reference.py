"""The string-memo query universe: the reference the index-coded one is held to.

:class:`repro.core.popularity.QueryUniverse` keeps each (class, day)
ranking as int32 indices into the class pool, ranks a day as soon as
its AR(1) chain draws it, and keeps one score vector per class.  The
form it replaced -- rankings memoized as unicode arrays, and a score
chain that keeps every day drawn but not yet ranked -- lives only here,
as the tests' reference: the two must answer every ranking, listing and
lookup alike, hold the same days and leave the shared RNG in the same
state after any sequence of calls.
"""

import math
from typing import Dict, List, Tuple

import numpy as np

from repro.core.parameters import QUERY_CLASS_SIZES
from repro.core.popularity import QueryClassId, _class_size


class ReferenceUniverse:
    """The ranking memo of :class:`~repro.core.popularity.QueryUniverse`, as strings."""

    def __init__(
        self,
        period_days: int = 1,
        seed: int = 20040315,
        pool_factor: float = 5.0,
        persistence: float = 0.55,
        scale: float = 1.0,
    ):
        self.persistence = persistence
        self._rng = np.random.default_rng(seed)
        sizes = QUERY_CLASS_SIZES[period_days]
        self._daily_size: Dict[QueryClassId, int] = {}
        self._pool_arrays: Dict[QueryClassId, np.ndarray] = {}
        self._base_weight: Dict[QueryClassId, np.ndarray] = {}
        self._scores: Dict[QueryClassId, Dict[int, np.ndarray]] = {}
        self._ranking_arrays: Dict[Tuple[QueryClassId, int], np.ndarray] = {}
        self._lookup_index: Dict[int, Dict[str, Tuple[QueryClassId, int]]] = {}
        self._noise_sigma = 2.0
        self._first_day = 0
        for cls in QueryClassId:
            size = max(1, int(round(_class_size(sizes, cls) * scale)))
            pool_size = max(size + 2, int(round(size * pool_factor)))
            self._daily_size[cls] = size
            self._pool_arrays[cls] = np.char.add(
                f"{cls.value}-q",
                np.char.zfill(np.arange(pool_size, dtype=np.int64).astype("U11"), 5),
            )
            ranks = np.arange(1, pool_size + 1, dtype=float)
            self._base_weight[cls] = -0.3 * np.log(ranks)
            self._scores[cls] = {}

    def lookup(self, day: int, keywords: str):
        index = self._lookup_index.get(day)
        if index is None:
            index = {}
            for cls in QueryClassId:
                for rank, query in enumerate(self.daily_ranking(day, cls), start=1):
                    index[query] = (cls, rank)
            self._lookup_index[day] = index
        return index.get(keywords)

    def daily_ranking(self, day: int, cls: QueryClassId) -> List[str]:
        return self.ranking_array(day, cls).tolist()

    def ranking_array(self, day: int, cls: QueryClassId) -> np.ndarray:
        if day < 0:
            raise ValueError(f"day must be >= 0, got {day}")
        if day < self._first_day:
            raise ValueError(f"day {day} was dropped (days before {self._first_day})")
        key = (cls, day)
        arr = self._ranking_arrays.get(key)
        if arr is None:
            chain = self._scores[cls]
            scores = self._scores_for(cls, day)
            order = np.argsort(-scores)[: self._daily_size[cls]]
            arr = self._pool_arrays[cls][order]
            arr = arr.astype(f"U{int(np.char.str_len(arr).max())}", copy=False)
            self._ranking_arrays[key] = arr
            if day != max(chain):  # ranked and not the head: no longer needed
                del chain[day]
        return arr

    def drop_days_before(self, day: int) -> None:
        if day <= self._first_day:
            return
        self._first_day = day
        for key in [k for k in self._ranking_arrays if k[1] < day]:
            del self._ranking_arrays[key]
        for d in [d for d in self._lookup_index if d < day]:
            del self._lookup_index[d]
        for chain in self._scores.values():
            if chain:
                head = max(chain)
                for d in [d for d in chain if d < day and d != head]:
                    del chain[d]

    def held_days(self) -> List[int]:
        days = {d for _, d in self._ranking_arrays} | set(self._lookup_index)
        for chain in self._scores.values():
            if chain:
                head = max(chain)
                days.update(d for d in chain if d != head)
        return sorted(days)

    def _scores_for(self, cls: QueryClassId, day: int) -> np.ndarray:
        cache = self._scores[cls]
        if day in cache:
            return self._base_weight[cls] + self._noise_sigma * cache[day]
        start = day
        while start > 0 and (start - 1) not in cache:
            start -= 1
        rho = self.persistence
        innovation_scale = math.sqrt(1.0 - rho * rho)
        n = self._pool_arrays[cls].size
        for d in range(start, day + 1):
            fresh = self._rng.standard_normal(n)
            if d == 0 or (d - 1) not in cache:
                cache[d] = fresh
            else:
                cache[d] = rho * cache[d - 1] + innovation_scale * fresh
        for d in range(start - 1, day):
            if d in cache and (d < self._first_day or (cls, d) in self._ranking_arrays):
                del cache[d]
        return self._base_weight[cls] + self._noise_sigma * cache[day]
