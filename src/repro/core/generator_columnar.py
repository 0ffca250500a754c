"""Vectorized columnar backend for the Figure 12 workload generator.

The event backend (:class:`~repro.core.generator.SyntheticWorkloadGenerator`
with ``backend="event"``) walks a heap of per-slot Python tuples and
draws every random quantity with a scalar ``sample()`` call.  This
module generates the *same steady-state model* -- region choice by the
Fig. 1 per-hour mix, the passive/active split, query counts, first-query
/ interarrival / last-query offsets, and query identities -- as whole
NumPy batches, emitting a :class:`ColumnarWorkload` struct-of-arrays
with no per-session or per-query Python objects.

Wave algorithm
--------------

A steady-state system of ``n_peers`` slots replaces each finished
session immediately (Section 4.7).  Instead of a priority queue popping
one slot at a time, generation proceeds in *waves*: every wave samples
one full session for every slot still inside the window, advances all
slot clocks by the sampled durations in one vectorized step, and drops
slots whose clocks passed the window end.  The number of waves equals
the longest per-slot session chain; every wave is a handful of batched
RNG draws grouped by the model's conditioning keys, visited in fixed
(region, peak, class) order so output is deterministic for a seed.

Sharding
--------

Large ``n_peers`` runs split the slots into fixed-size shards of
:data:`SLOTS_PER_SHARD`; each shard draws from its own
``SeedSequence(seed).spawn(n_shards)[index]`` stream and is generated
independently (possibly in a worker-process pool capped by
:func:`~repro.core.runtime.available_cpus`).  The shard count depends
only on ``n_peers`` -- never on the worker count -- so output is
byte-identical regardless of ``jobs``.  Workers never touch the query
universe: they emit ``(class, rank, day)`` integer codes via a
:class:`~repro.core.popularity.ClassRankSampler` snapshot, and the
parent resolves codes to strings once, after the merge, in sorted
(day, class) order.

Equivalence contract
--------------------

Every random quantity is drawn from the same distribution as the event
backend, but batched draws consume the stream in a different order, so
a fixed seed yields a different, equally-distributed realization.  The
test suite holds the two backends to KS equivalence on session
durations, queries per session, interarrival times, first/last-query
gaps, and the per-hour region mix (see docs/METHODOLOGY.md section 8).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from .distributions import DistributionStack
from .events import GeneratedQuery, GeneratedSession
from .kernels import (
    CategoricalTableStack,
    group_slices,
    pool_map,
    resolve_workers,
    segmented_cumsum,
    segmented_offsets_base,
    shard_sizes,
    spawn_shard_streams,
)
from .model import (
    WorkloadModel,
    first_query_class_codes,
    interarrival_class_codes,
    last_query_class_codes,
)
from .popularity import CLASS_ORDER, ClassRankSampler, QueryUniverse
from .regions import MAJOR_REGIONS, PEAK_HOURS, Region

__all__ = [
    "SLOTS_PER_SHARD",
    "WORKLOAD_REGION_ORDER",
    "WORKLOAD_REGION_CODE",
    "ColumnarWorkload",
    "GeneratorTables",
    "generate_columnar_workload",
    "major_region_cum",
]

_SECONDS_PER_DAY = 86400.0

#: Slots per generation shard.  Fixed (never derived from the worker
#: count) so a workload is byte-identical for any ``jobs`` value; small
#: enough that a 10k-peer run fans out across several cores.
SLOTS_PER_SHARD = 2048

#: Region <-> small-integer code table for the session column.  The
#: generator itself only emits the three characterized regions, but the
#: round-trip constructors accept OTHER so any session list columnarizes.
WORKLOAD_REGION_ORDER: Tuple[Region, ...] = MAJOR_REGIONS + (Region.OTHER,)
WORKLOAD_REGION_CODE: Dict[Region, int] = {
    r: i for i, r in enumerate(WORKLOAD_REGION_ORDER)
}

_CLASS_VALUE_CODE: Dict[str, int] = {c.value: i for i, c in enumerate(CLASS_ORDER)}

#: (region code, hour) -> peak flag, from the static Section 4.2 periods.
_PEAK_TABLE = np.array(
    [[h in PEAK_HOURS[r] for h in range(24)] for r in MAJOR_REGIONS], dtype=bool
)


def major_region_cum(model: WorkloadModel) -> np.ndarray:
    """Per-hour cumulative weights over the three characterized regions.

    The OTHER share is folded into the major regions by normalization,
    exactly as the scalar ``_choose_region`` did per session (Section
    4.1); rebuilding the weight dict per draw was the generator's
    hottest line.  ``searchsorted(cum[hour], u)`` yields a region index.
    """
    weights = np.empty((24, len(MAJOR_REGIONS)), dtype=np.float64)
    for hour in range(24):
        mix = model.geographic_mix(hour)
        weights[hour] = [mix[r] for r in MAJOR_REGIONS]
    weights /= weights.sum(axis=1, keepdims=True, dtype=np.float64)
    cum = np.cumsum(weights, axis=1, dtype=np.float64)
    cum[:, -1] = 1.0
    return cum


@dataclass
class GeneratorTables:
    """Picklable snapshot of everything a generation shard samples from.

    Distribution objects (not the model's factory callables) plus the
    precomputed per-hour tables, so shards work for fitted models whose
    factories are unpicklable closures.  Each conditional table is a
    :class:`~repro.core.distributions.DistributionStack` indexed by the
    integer key the wave computes (see
    :meth:`WorkloadModel.conditional_grid` for the codes), so one wave
    evaluates a whole table in one pass.
    """

    region_cum: np.ndarray                    # (24, 3) cumulative Fig. 1 mix
    passive_prob: np.ndarray                  # (3, 24) Fig. 4 passive fraction
    peak: np.ndarray                          # (3, 24) peak-hour flags
    queries_per_session: DistributionStack    # region
    passive_duration: DistributionStack       # region * 2 + peak
    first_query: DistributionStack            # (region * 2 + peak) * 3 + class
    interarrival: DistributionStack
    last_query: DistributionStack
    sampler: ClassRankSampler
    #: O(1) per-hour region draw table over ``region_cum`` (built lazily
    #: so unpickled snapshots from older callers keep working).
    region_table: Optional[CategoricalTableStack] = field(default=None, repr=False)

    def region_stack(self) -> CategoricalTableStack:
        if self.region_table is None:
            self.region_table = CategoricalTableStack(self.region_cum)
        return self.region_table

    @classmethod
    def from_model(
        cls, model: WorkloadModel, universe: QueryUniverse
    ) -> "GeneratorTables":
        grid = model.conditional_grid()
        # Sorted grid keys -- region, then peak (False first), then class
        # -- enumerate exactly the integer keys the wave encodes.
        stacks = {
            name: DistributionStack([table[key] for key in sorted(table)])
            for name, table in grid.items()
        }
        passive_prob = np.empty((len(MAJOR_REGIONS), 24), dtype=np.float64)
        for code, region in enumerate(MAJOR_REGIONS):
            for hour in range(24):
                passive_prob[code, hour] = model.passive_fraction(region, hour)
        region_cum = major_region_cum(model)
        return cls(
            region_cum=region_cum,
            passive_prob=passive_prob,
            peak=_PEAK_TABLE.copy(),
            sampler=universe.batch_sampler(),
            region_table=CategoricalTableStack(region_cum),
            **stacks,
        )


# ---------------------------------------------------------------------------
# The columnar session/query table
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class ColumnarWorkload:
    """A generated workload as a struct-of-arrays (session + query table).

    Sessions are sorted by start time; queries are grouped contiguously
    per session (``query_session`` is nondecreasing) and time-sorted
    within each group, mirroring the event backend's yield order.  The
    representation round-trips losslessly to
    :class:`~repro.core.events.GeneratedSession` objects and to ``.npz``
    files via :mod:`repro.core.workload_io`.
    """

    session_region: np.ndarray     # int8, WORKLOAD_REGION_ORDER codes
    session_start: np.ndarray      # float64, seconds since trace epoch
    session_duration: np.ndarray   # float64, seconds
    session_passive: np.ndarray    # bool
    query_session: np.ndarray      # int64, row index into the session table
    query_offset: np.ndarray       # float64, seconds since session start
    query_rank: np.ndarray         # int64, 1-based rank within the class
    query_class: np.ndarray        # int8, CLASS_ORDER codes
    query_keywords: np.ndarray     # unicode

    ARRAY_FIELDS = (
        "session_region", "session_start", "session_duration", "session_passive",
        "query_session", "query_offset", "query_rank", "query_class",
        "query_keywords",
    )

    @property
    def n_sessions(self) -> int:
        return int(self.session_start.size)

    @property
    def n_queries(self) -> int:
        return int(self.query_offset.size)

    def query_counts(self) -> np.ndarray:
        """Queries per session (aligned with the session table)."""
        return np.bincount(self.query_session, minlength=self.n_sessions).astype(
            np.int64
        )

    def query_index(self) -> np.ndarray:
        """Prefix offsets: session ``i`` owns query rows ``[idx[i], idx[i+1])``."""
        index = np.zeros(self.n_sessions + 1, dtype=np.int64)
        np.cumsum(self.query_counts(), out=index[1:])
        return index

    def validate(self) -> "ColumnarWorkload":
        """Check the structural invariants; returns ``self`` for chaining."""
        n, q = self.n_sessions, self.n_queries
        for name in ("session_region", "session_duration", "session_passive"):
            if getattr(self, name).size != n:
                raise ValueError(f"{name} has {getattr(self, name).size} rows, expected {n}")
        for name in ("query_offset", "query_rank", "query_class", "query_keywords"):
            if getattr(self, name).size != q:
                raise ValueError(f"{name} has {getattr(self, name).size} rows, expected {q}")
        if q:
            if self.query_session.min() < 0 or self.query_session.max() >= n:
                raise ValueError("query_session indexes outside the session table")
            if (np.diff(self.query_session) < 0).any():
                raise ValueError("query rows must be grouped by session")
            if self.query_offset.min() < 0 or self.query_rank.min() < 1:
                raise ValueError("query offsets must be >= 0 and ranks >= 1")
            if self.query_class.min() < 0 or self.query_class.max() >= len(CLASS_ORDER):
                raise ValueError("query_class codes out of range")
            if self.session_passive[self.query_session].any():
                raise ValueError("passive sessions must not carry queries")
        if n and self.session_duration.min() < 0:
            raise ValueError("session durations must be non-negative")
        return self

    def equals(self, other: "ColumnarWorkload") -> bool:
        """Exact (byte-level) equality of all columns."""
        return all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in self.ARRAY_FIELDS
        )

    # -- round trip to record objects ---------------------------------------

    def iter_sessions(self) -> Iterator[GeneratedSession]:
        """Yield :class:`GeneratedSession` objects one at a time."""
        index = self.query_index()
        for i in range(self.n_sessions):
            lo, hi = int(index[i]), int(index[i + 1])
            queries = [
                GeneratedQuery(
                    offset=float(self.query_offset[j]),
                    keywords=str(self.query_keywords[j]),
                    rank=int(self.query_rank[j]),
                    query_class=CLASS_ORDER[int(self.query_class[j])].value,
                )
                for j in range(lo, hi)
            ]
            yield GeneratedSession(
                region=WORKLOAD_REGION_ORDER[int(self.session_region[i])],
                start=float(self.session_start[i]),
                duration=float(self.session_duration[i]),
                passive=bool(self.session_passive[i]),
                queries=queries,
            )

    def to_sessions(self) -> List[GeneratedSession]:
        """Materialize :meth:`iter_sessions` into a list."""
        return list(self.iter_sessions())

    @classmethod
    def from_sessions(cls, sessions) -> "ColumnarWorkload":
        """Columnarize an iterable of :class:`GeneratedSession` objects."""
        sessions = list(sessions)
        n = len(sessions)
        region = np.empty(n, dtype=np.int8)
        start = np.empty(n, dtype=np.float64)
        duration = np.empty(n, dtype=np.float64)
        passive = np.empty(n, dtype=bool)
        q_sess: List[int] = []
        q_off: List[float] = []
        q_rank: List[int] = []
        q_cls: List[int] = []
        q_kw: List[str] = []
        for i, session in enumerate(sessions):
            code = WORKLOAD_REGION_CODE.get(session.region)
            if code is None:
                raise ValueError(f"unknown region {session.region!r}")
            region[i] = code
            start[i] = session.start
            duration[i] = session.duration
            passive[i] = session.passive
            for query in session.queries:
                cls_code = _CLASS_VALUE_CODE.get(query.query_class)
                if cls_code is None:
                    raise ValueError(f"unknown query class {query.query_class!r}")
                q_sess.append(i)
                q_off.append(query.offset)
                q_rank.append(query.rank)
                q_cls.append(cls_code)
                q_kw.append(query.keywords)
        width = max([1] + [len(k) for k in q_kw])
        return cls(
            session_region=region,
            session_start=start,
            session_duration=duration,
            session_passive=passive,
            query_session=np.asarray(q_sess, dtype=np.int64),
            query_offset=np.asarray(q_off, dtype=np.float64),
            query_rank=np.asarray(q_rank, dtype=np.int64),
            query_class=np.asarray(q_cls, dtype=np.int8),
            query_keywords=np.asarray(q_kw, dtype=f"U{width}"),
        ).validate()


# ---------------------------------------------------------------------------
# Shard engine (wave algorithm)
# ---------------------------------------------------------------------------


def _draw_grouped(rng, table: DistributionStack, keys: np.ndarray) -> np.ndarray:
    """One draw from ``table.dists[key]`` per element of ``keys``.

    Uniforms are consumed group by group in ascending key order,
    positions ascending within a group (the :func:`group_slices`
    contract, and the order one uniform batch per group would consume
    them in), then the whole table is evaluated in one
    :meth:`DistributionStack.ppf` pass.
    """
    order = group_slices(keys)[0]
    out = np.empty(keys.size, dtype=np.float64)
    out[order] = table.ppf(rng.random(keys.size), keys[order])
    return out


def _generate_shard(
    tables: GeneratorTables,
    n_slots: int,
    start_time: float,
    end_time: float,
    cap: float,
    seed_seq: np.random.SeedSequence,
) -> dict:
    """Run the wave algorithm for one shard of peer slots.

    Returns flat column arrays; query identities stay integer codes
    (class, rank, day) for the parent to resolve after the merge.
    """
    rng = np.random.default_rng(seed_seq)
    clocks = np.full(n_slots, float(start_time), dtype=np.float64)
    alive = np.arange(n_slots, dtype=np.int64)

    s_cols: List[Tuple[np.ndarray, ...]] = []
    q_cols: List[Tuple[np.ndarray, ...]] = []
    emitted = 0

    while alive.size:
        starts = clocks[alive]
        n = alive.size
        hours = ((starts % _SECONDS_PER_DAY) // 3600.0).astype(np.intp)

        # Step 1: region, conditioned on time of day (Fig. 1).
        region = tables.region_stack().sample(rng, hours)
        region = np.minimum(region, len(MAJOR_REGIONS) - 1).astype(np.int8)
        peak = tables.peak[region, hours]

        # Step 2: passive vs. active, conditioned on region and hour.
        passive = rng.random(n) < tables.passive_prob[region, hours]
        durations = np.empty(n, dtype=np.float64)

        # Step 3: passive connected-session durations (Table A.1).
        pas = np.nonzero(passive)[0]
        if pas.size:
            draws = _draw_grouped(
                rng, tables.passive_duration, region[pas].astype(np.int64) * 2 + peak[pas]
            )
            durations[pas] = np.clip(draws, 0.0, cap)

        # Step 4: active sessions -- counts, offsets, identities.
        act = np.nonzero(~passive)[0]
        if act.size:
            r_act = region[act].astype(np.int64)
            pk_act = peak[act].astype(np.int64)

            # 4a: number of queries (ceil of the continuous lognormal).
            draws = _draw_grouped(rng, tables.queries_per_session, r_act)
            nq = np.maximum(1, np.ceil(draws)).astype(np.int64)

            base_key = (r_act * 2 + pk_act) * 3
            # 4b: time until the first query.
            t_first = np.clip(_draw_grouped(
                rng, tables.first_query, base_key + first_query_class_codes(nq)
            ), 0.0, cap)
            # 4c(i): interarrival gaps, flat over all sessions' queries.
            gap_counts = nq - 1
            total_gaps = int(gap_counts.sum())
            if total_gaps:
                gap_keys = np.repeat(
                    base_key + interarrival_class_codes(nq), gap_counts
                )
                gaps = np.clip(
                    _draw_grouped(rng, tables.interarrival, gap_keys), 0.0, cap
                )
            else:
                gaps = np.zeros(0, dtype=np.float64)
            # 4d: time after the last query.
            t_after = np.clip(_draw_grouped(
                rng, tables.last_query, base_key + last_query_class_codes(nq)
            ), 0.0, cap)

            gap_cum = segmented_cumsum(gaps, gap_counts)
            last_off = t_first.copy()
            has_gaps = gap_counts > 0
            if has_gaps.any():
                ends = np.cumsum(gap_counts)
                last_off[has_gaps] = t_first[has_gaps] + gap_cum[ends[has_gaps] - 1]
            dur_act = np.minimum(last_off + t_after, cap)
            durations[act] = dur_act

            # Flat query rows: offset = first + per-session gap cumsum,
            # clamped to the session duration like the event path.
            offs = segmented_offsets_base(t_first, gaps, nq)
            offs = np.minimum(offs, np.repeat(dur_act, nq))

            # 4c(ii)-(iii): class and rank codes; the sample day is the
            # day the (clamped) first query lands on, as in the event path.
            day = (
                (starts[act] + np.minimum(t_first, dur_act)) // _SECONDS_PER_DAY
            ).astype(np.int64)
            q_region = np.repeat(r_act, nq).astype(np.int8)
            cls_codes, ranks = tables.sampler.sample(rng, q_region)

            q_cols.append((
                emitted + np.repeat(act, nq),
                offs,
                cls_codes,
                ranks,
                np.repeat(day, nq),
            ))

        s_cols.append((region, starts, durations, passive))
        emitted += n
        clocks[alive] = starts + durations
        alive = alive[clocks[alive] < end_time]

    region, starts, durations, passive = (
        np.concatenate(cols) for cols in zip(*s_cols)
    )
    if q_cols:
        q_sess, q_off, q_cls, q_rank, q_day = (
            np.concatenate(cols) for cols in zip(*q_cols)
        )
    else:  # pragma: no cover - an all-passive wave sequence
        q_sess = np.empty(0, dtype=np.int64)
        q_off = np.empty(0, dtype=np.float64)
        q_cls = np.empty(0, dtype=np.int8)
        q_rank = np.empty(0, dtype=np.int64)
        q_day = np.empty(0, dtype=np.int64)
    return {
        "region": region, "start": starts, "duration": durations,
        "passive": passive, "q_sess": q_sess, "q_off": q_off,
        "q_cls": q_cls, "q_rank": q_rank, "q_day": q_day,
    }


def _shard_task(task) -> dict:
    return _generate_shard(*task)


# ---------------------------------------------------------------------------
# Fan-out, merge, and string resolution
# ---------------------------------------------------------------------------


def _resolve_keywords(
    universe: QueryUniverse,
    q_cls: np.ndarray,
    q_rank: np.ndarray,
    q_day: np.ndarray,
) -> np.ndarray:
    """Resolve (class, rank, day) codes to query strings per group.

    Groups are visited in sorted (day, class) order, so the universe's
    lazily built rankings are consumed canonically regardless of how
    the codes were produced (or across how many workers).
    """
    if q_cls.size == 0:
        return np.empty(0, dtype="U1")
    order, keys, bounds = group_slices(q_day * len(CLASS_ORDER) + q_cls)
    rankings = [
        universe.ranking_array(
            int(key) // len(CLASS_ORDER), CLASS_ORDER[int(key) % len(CLASS_ORDER)]
        )
        for key in keys
    ]
    width = max(a.dtype.itemsize // 4 for a in rankings)
    out = np.empty(q_cls.size, dtype=f"U{width}")
    for g, ranking in enumerate(rankings):
        idx = order[bounds[g]:bounds[g + 1]]
        out[idx] = ranking[np.minimum(q_rank[idx], ranking.size) - 1]
    return out


def generate_columnar_workload(
    model: WorkloadModel,
    universe: QueryUniverse,
    n_peers: int,
    seed: int,
    duration_seconds: float,
    start_time: float = 0.0,
    max_session_seconds: float = 40 * _SECONDS_PER_DAY,
    jobs: int = 1,
    tables: Optional[GeneratorTables] = None,
) -> ColumnarWorkload:
    """Generate a steady-state workload as a :class:`ColumnarWorkload`.

    Stateless: the same arguments always produce the same workload,
    byte for byte, independent of ``jobs`` (which only sizes the worker
    pool over the fixed :data:`SLOTS_PER_SHARD` shard grid).  ``tables``
    is ``GeneratorTables.from_model(model, universe)``, built here unless
    a caller generating many windows of one model passes it in.
    """
    if duration_seconds <= 0:
        raise ValueError("duration_seconds must be positive")
    if n_peers < 1:
        raise ValueError(f"n_peers must be >= 1, got {n_peers}")
    if tables is None:
        tables = GeneratorTables.from_model(model, universe)
    n_shards = max(1, math.ceil(n_peers / SLOTS_PER_SHARD))
    slot_counts = shard_sizes(n_peers, n_shards)
    seeds = spawn_shard_streams(seed, n_shards)
    end_time = start_time + duration_seconds
    cap = float(max_session_seconds)
    tasks = [
        (tables, slot_counts[i], float(start_time), end_time, cap, seeds[i])
        for i in range(n_shards)
    ]
    parts = pool_map(_shard_task, tasks, resolve_workers(jobs, n_shards))

    session_base = np.cumsum([0] + [p["start"].size for p in parts])
    region = np.concatenate([p["region"] for p in parts])
    start = np.concatenate([p["start"] for p in parts])
    duration = np.concatenate([p["duration"] for p in parts])
    passive = np.concatenate([p["passive"] for p in parts])
    q_sess = np.concatenate(
        [p["q_sess"] + session_base[i] for i, p in enumerate(parts)]
    )
    q_off = np.concatenate([p["q_off"] for p in parts])
    q_cls = np.concatenate([p["q_cls"] for p in parts])
    q_rank = np.concatenate([p["q_rank"] for p in parts])
    q_day = np.concatenate([p["q_day"] for p in parts])

    # Global start-time order (the event backend's yield order); the
    # stable sort keeps the shard/slot order deterministic across ties.
    order = np.argsort(start, kind="stable")
    inverse = np.empty(order.size, dtype=np.int64)
    inverse[order] = np.arange(order.size)
    region, start, duration, passive = (
        a[order] for a in (region, start, duration, passive)
    )
    new_sess = inverse[q_sess]
    q_order = np.argsort(new_sess, kind="stable")
    q_sess = new_sess[q_order]
    q_off, q_cls, q_rank, q_day = (a[q_order] for a in (q_off, q_cls, q_rank, q_day))

    return ColumnarWorkload(
        session_region=region.astype(np.int8),
        session_start=start,
        session_duration=duration,
        session_passive=passive,
        query_session=q_sess,
        query_offset=q_off,
        query_rank=q_rank,
        query_class=q_cls,
        query_keywords=_resolve_keywords(universe, q_cls, q_rank, q_day),
    ).validate()
