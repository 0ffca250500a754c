"""Vectorized columnar synthesis: the whole trace as NumPy batches.

This module synthesizes the generative model -- arrivals, identities,
quick disconnects, session plans, the four client-automation rules,
monitor end/keep-alive semantics, and background samples -- as
whole-shard array operations, emitting a
:class:`~repro.measurement.columnar.ColumnarTrace` directly: no per-event
tuples, no ``Trace`` record objects, no JSONL hop.

Equivalence contract
--------------------

The test suite keeps a per-event reference (``synthesize_event`` in
``tests/event_reference.py``), which walks a heap of event tuples
through the record :class:`~repro.measurement.monitor.MeasurementNode`.
Every random quantity here is drawn from the *same distribution* as
that loop, but batched RNG calls consume the streams in a different
order, so for a fixed seed the columnar trace is a different,
equally-distributed realization (see METHODOLOGY.md section 8).
Deterministic quantities are replicated exactly:

* arrival times (same ``ArrivalProcess`` batch draw, same stream);
* IP allocation (same per-region counters, arrival order, disjoint
  per-shard ranges);
* monitor semantics in closed form: silent departures overshoot by the
  idle probe + close window, socket closes and BYEs end exactly, sessions
  open at the global trace end are truncated to it, and keep-alive
  PING/PONG exchanges are one per 15 s of continuous idleness;
* the Table 2 automation machinery (re-query trains, SHA1 spawns,
  pre-connect bursts, fixed-interval metronomes) with the same rates.

The renewal re-query train is drawn as its equivalent Poisson form:
``N ~ Poisson(span / interval)`` events placed uniformly over the span
(the count cap of ``_MAX_REQUERY_REPEATS`` is applied to ``N``); the
final per-session time sort restores the order the renewal walk would
have produced.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.agents import ArrivalProcess, PeerPopulation, UserBehavior
from repro.agents.population import sample_shared_files_batch
from repro.core.kernels import (
    CategoricalTableStack,
    group_slices,
    merge_vocabularies,
    segmented_arange,
    segmented_offsets_scatter,
)
from repro.core.model import WorkloadModel
from repro.core.parameters import (
    IDLE_CLOSE_SECONDS,
    IDLE_PROBE_SECONDS,
    MIN_SESSION_SECONDS,
    geographic_mix_arrays,
)
from repro.core.popularity import CLASS_ORDER, QueryUniverse
from repro.gnutella.clients import (
    _MAX_REQUERY_REPEATS,
    CLIENT_PROFILES,
    profile_attribute_arrays,
    sha1_urns_for,
)
from repro.measurement.columnar import REGION_CODE, REGION_ORDER, ColumnarTrace

from .hits import HitModel

__all__ = ["ColumnarShardEngine", "shard_wiring", "synthesize_shard_columnar"]

_SECONDS_PER_DAY = 86400.0

#: Per-hour Figure 1 region-mix draw table, shared by every shard engine
#: (the mix is a process-wide constant).  Exact-equivalent to counting
#: ``mix_cum[hour] < u`` -- same draws, same regions, O(1) per sample.
_REGION_MIX_STACK: Optional[CategoricalTableStack] = None


def _region_mix_stack() -> CategoricalTableStack:
    global _REGION_MIX_STACK
    if _REGION_MIX_STACK is None:
        _, _, mix_cum = geographic_mix_arrays()
        _REGION_MIX_STACK = CategoricalTableStack(mix_cum)
    return _REGION_MIX_STACK


def shard_wiring(
    config, n_shards: int, index: int,
    population: Optional[PeerPopulation] = None,
) -> tuple:
    """The default wiring of time shard ``index`` of ``n_shards``.

    Returns what a shard engine takes after the config, each on its own
    seed stream: the model, the prebuilt universe, the population (the
    caller's, or a fresh one over the shard's disjoint IP range), the
    user behaviour, the arrivals, the hit model and the engine RNG.
    Every call builds fresh state, so a rerun repeats its shard; a
    caller-supplied population carries its state (RNG, IP counters)
    from one run into the next.

    Each worker builds its own model and universe deterministically (the
    canonical-order :meth:`~repro.core.popularity.QueryUniverse.prebuild`
    makes every worker's universe identical) instead of paying to pickle
    them across the process boundary.
    """
    from .synthesizer import _prebuild_day, _shard_ip_range, _shard_streams

    streams = _shard_streams(config.seed, n_shards, index)
    model = WorkloadModel.paper()
    universe = QueryUniverse(seed=config.seed + 1).prebuild(_prebuild_day(config))
    if population is None:
        population = PeerPopulation(seed=streams[0], **_shard_ip_range(n_shards, index))
    return (
        model, universe, population,
        UserBehavior(model=model, universe=universe, seed=streams[1]),
        ArrivalProcess(config.mean_arrival_rate, seed=streams[2]),
        HitModel(universe), np.random.default_rng(streams[3]),
    )


def synthesize_shard_columnar(
    config, n_shards: int, index: int, start: float, end: float,
    population: Optional[PeerPopulation] = None,
) -> ColumnarTrace:
    """Synthesize time shard ``index`` of ``n_shards`` with
    :func:`shard_wiring` (the worker-process entry point)."""
    wiring = shard_wiring(config, n_shards, index, population)
    return ColumnarShardEngine(config, *wiring).run(start, end)


class ColumnarShardEngine:
    """Vectorized synthesis of one time shard into a ColumnarTrace.

    Owns connections *arriving* in ``[start, end)``; their sessions may
    extend past ``end`` up to the global trace end, so shard merges need
    no warm-up margin.
    """

    def __init__(self, config, model, universe, population, behavior,
                 arrivals, hit_model, rng):
        self.config = config
        self.model = model
        self.universe = universe
        self.population = population
        self.behavior = behavior
        self.arrivals = arrivals
        self.hit_model = hit_model
        self._rng = rng

    def run(self, start: float, end: float) -> ColumnarTrace:
        cfg = self.config
        rng = self._rng
        global_end = cfg.end_time
        t_arr = np.asarray(self.arrivals.arrival_times(start, end), dtype=np.float64)
        n = t_arr.size
        ident = self.population.spawn_batch(t_arr)
        attrs = profile_attribute_arrays(self.population.profiles)
        pool = self.population.profiles or CLIENT_PROFILES

        # -- connection fate ------------------------------------------------
        quick = rng.random(n) < attrs["quick_disconnect_prob"][ident.profile_index]
        nq_idx = np.nonzero(~quick)[0]
        q_idx = np.nonzero(quick)[0]

        dur_quick = self._quick_durations(q_idx.size)
        stray = rng.random(q_idx.size) < cfg.quick_query_prob
        silent = rng.random(nq_idx.size) >= cfg.bye_prob

        plans = self.behavior.plan_sessions_batch(
            ident.region_code[nq_idx], t_arr[nq_idx]
        )
        duration = np.maximum(plans.duration, 1.0)
        overshoot = (IDLE_PROBE_SECONDS + IDLE_CLOSE_SECONDS) * silent
        depart_at = np.maximum(duration - overshoot, 0.5)

        # -- query stream (flat rows over all connections) ------------------
        rows: List[Tuple[np.ndarray, ...]] = []

        def emit(sess, t_off, cls, rank, day, sha1, automated):
            """Queue flat query rows: (session row, offset, code, flags)."""
            sess = np.asarray(sess, dtype=np.int64)
            rows.append((
                sess,
                np.asarray(t_off, dtype=np.float64),
                np.asarray(cls, dtype=np.int8),
                np.asarray(rank, dtype=np.int64),
                np.asarray(day, dtype=np.int64),
                np.full(sess.size, sha1, dtype=bool),
                np.full(sess.size, automated, dtype=bool),
            ))

        self._emit_stray_queries(emit, q_idx, t_arr, ident, dur_quick, stray)
        self._emit_planned_queries(
            emit, nq_idx, plans, duration, depart_at, attrs, ident
        )

        if rows:
            q_sess, q_off, q_cls, q_rank, q_day, q_sha1, q_auto = (
                np.concatenate(cols) for cols in zip(*rows)
            )
        else:
            q_sess = np.empty(0, dtype=np.int64)
            q_off = np.empty(0, dtype=np.float64)
            q_cls = np.empty(0, dtype=np.int8)
            q_rank = np.empty(0, dtype=np.int64)
            q_day = np.empty(0, dtype=np.int64)
            q_sha1 = np.empty(0, dtype=bool)
            q_auto = np.empty(0, dtype=bool)

        # Absolute time; drop rows at/after the global trace end (the
        # event loop skips those events and finalize truncates).
        q_time = t_arr[q_sess] + q_off
        keep = q_time < global_end
        q_sess, q_time, q_cls, q_rank, q_day, q_sha1, q_auto = (
            a[keep] for a in (q_sess, q_time, q_cls, q_rank, q_day, q_sha1, q_auto)
        )
        order = np.lexsort((q_time, q_sess))
        q_sess, q_time, q_cls, q_rank, q_day, q_sha1, q_auto = (
            a[order] for a in (q_sess, q_time, q_cls, q_rank, q_day, q_sha1, q_auto)
        )
        counts = np.bincount(q_sess, minlength=n).astype(np.int64)
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])

        keyword_vocab, keyword = self._keyword_codes(q_cls, q_rank, q_day, q_sha1)
        hits = self._sample_hits(
            q_time, q_cls, q_rank, q_day, q_sha1, keyword_vocab, keyword
        )
        agent_vocab, (agent,) = merge_vocabularies(
            [attrs["user_agent"]], [ident.profile_index]
        )

        # -- session end times ---------------------------------------------
        session_end = np.empty(n, dtype=np.float64)
        session_end[q_idx] = np.minimum(t_arr[q_idx] + dur_quick, global_end)
        close_t = t_arr[nq_idx] + depart_at
        idle_extra = IDLE_PROBE_SECONDS + IDLE_CLOSE_SECONDS
        session_end[nq_idx] = np.where(
            close_t < global_end,
            np.where(silent, close_t + idle_extra, close_t),
            global_end,
        )

        # -- keep-alive accounting (closed form of the monitor) -------------
        # Activity sequence per session: open, kept queries, final probe
        # point (close time capped at the global end).  One PING/PONG
        # exchange per 15 s of continuous idleness between neighbours.
        final_at = np.empty(n, dtype=np.float64)
        final_at[q_idx] = np.minimum(t_arr[q_idx] + dur_quick, global_end)
        final_at[nq_idx] = np.minimum(close_t, global_end)
        prev = np.insert(q_time, offsets[:-1], t_arr)
        nxt = np.insert(q_time, offsets[1:], final_at)
        gaps = nxt - prev
        idle = gaps > IDLE_PROBE_SECONDS
        exchanges = int(np.floor(gaps[idle] / IDLE_PROBE_SECONDS).sum())
        # Silent departures noticed before the trace end cost one extra,
        # unanswered probe PING each.
        extra_pings = int((silent & (close_t < global_end)).sum())

        trace = ColumnarTrace(
            start_time=start,
            end_time=global_end,
            session_peer_ip=ident.ip,
            session_region=ident.region_code,
            session_start=t_arr,
            session_end=session_end,
            session_agent=agent,
            session_ultrapeer=ident.ultrapeer,
            session_shared_files=ident.shared_files,
            query_offsets=offsets,
            query_timestamp=q_time,
            query_keyword=keyword,
            query_sha1=q_sha1,
            query_hops=np.full(q_time.size, 1, dtype=np.uint8),
            query_ttl=np.full(q_time.size, 6, dtype=np.uint8),
            query_automated=q_auto,
            query_hits=hits,
            keyword_vocab=keyword_vocab,
            agent_vocab=agent_vocab,
            counters={
                "_raw_keepalive_pings": exchanges + extra_pings,
                "_raw_keepalive_pongs": exchanges,
                "rejected_connections": 0,
            },
        )
        self._emit_background_samples(trace, start, min(end, global_end))
        return trace

    # -- connection fate helpers -------------------------------------------

    def _quick_durations(self, count: int) -> np.ndarray:
        """Rule-3 quick-disconnect durations, two uniforms per draw like
        the scalar path: 41% under 10 s, 46% in 10-35 s, rest to 64 s."""
        rng = self._rng
        u1 = rng.random(count)
        u2 = rng.random(count)
        return np.where(
            u1 < 0.41,
            1.0 + u2 * 9.0,
            np.where(
                u1 < 0.87,
                10.0 + u2 * 25.0,
                35.0 + u2 * (MIN_SESSION_SECONDS - 35.0 - 1e-3),
            ),
        )

    def _emit_stray_queries(self, emit, q_idx, t_arr, ident, dur_quick, stray):
        """The occasional automated query a quick disconnect still fires."""
        rng = self._rng
        s_idx = q_idx[stray]
        if s_idx.size == 0:
            return
        t_off = rng.random(s_idx.size) * dur_quick[stray]
        day = (t_arr[s_idx] // _SECONDS_PER_DAY).astype(np.int64)
        cls = np.empty(s_idx.size, dtype=np.int8)
        rank = np.empty(s_idx.size, dtype=np.int64)
        order, codes, bounds = group_slices(ident.region_code[s_idx])
        for g in range(codes.size):
            idx = order[bounds[g]:bounds[g + 1]]
            cls[idx], rank[idx] = self.universe.sample_batch_codes(
                rng, REGION_ORDER[int(codes[g])], idx.size
            )
        emit(s_idx, t_off, cls, rank, day, False, True)

    # -- client automation ---------------------------------------------------

    def _emit_planned_queries(
        self, emit, nq_idx, plans, duration, depart_at, attrs, ident
    ):
        """User queries plus the four automation rules for one shard.

        All offsets are clamped to just before the client's quiet point
        (``depart_at - 1e-3``), mirroring the event engine's per-event
        clamp, so the recorded close time is always ``depart_at``.
        """
        rng = self._rng
        n_nq = nq_idx.size
        if n_nq == 0:
            return
        profile = ident.profile_index[nq_idx]
        interval = attrs["requery_interval_seconds"][profile]
        window = attrs["requery_window_seconds"][profile]
        sha1_rate = attrs["sha1_per_query"][profile]
        burst_prob = attrs["burst_prob"][profile]
        fixed_prob = attrs["fixed_interval_prob"][profile]
        fixed_period = attrs["fixed_interval_seconds"][profile]

        nq_counts = plans.n_queries
        q_total = int(nq_counts.sum())
        clamp = depart_at - 1e-3

        # Flat user-query rows: session-local index + per-row gathers.
        u_sess_local = np.repeat(np.arange(n_nq, dtype=np.int64), nq_counts)
        u_sess = nq_idx[u_sess_local]
        u_off = plans.q_time
        u_day = plans.sample_day[u_sess_local]
        u_dur = duration[u_sess_local]
        u_clamp = clamp[u_sess_local]
        emit(u_sess, np.minimum(u_off, u_clamp), plans.q_cls, plans.q_rank,
             u_day, False, False)

        remaining = u_dur - u_off

        # Rule 2: automated re-query train per open search.  Renewal walk
        # with Exp(interval) gaps over [offset, horizon) == Poisson count
        # with uniform placements; the cap applies to the count.
        u_interval = interval[u_sess_local]
        span = np.minimum(u_dur, u_off + window[u_sess_local]) - u_off
        live = (u_interval > 0) & (remaining > 0) & (span > 0)
        if live.any():
            counts = np.zeros(q_total, dtype=np.int64)
            counts[live] = np.minimum(
                rng.poisson(span[live] / u_interval[live]), _MAX_REQUERY_REPEATS
            )
            total = int(counts.sum())
            if total:
                parent = np.repeat(np.arange(q_total, dtype=np.int64), counts)
                t = u_off[parent] + rng.random(total) * span[parent]
                emit(u_sess[parent], np.minimum(t, u_clamp[parent]),
                     plans.q_cls[parent], plans.q_rank[parent],
                     u_day[parent], False, True)

        # Rule 1: SHA1 source-search spawns per user query.
        live = (sha1_rate[u_sess_local] > 0) & (remaining > 0)
        if live.any():
            counts = np.zeros(q_total, dtype=np.int64)
            counts[live] = rng.poisson(sha1_rate[u_sess_local][live])
            total = int(counts.sum())
            if total:
                parent = np.repeat(np.arange(q_total, dtype=np.int64), counts)
                t = u_off[parent] + rng.random(total) * remaining[parent]
                emit(u_sess[parent], np.minimum(t, u_clamp[parent]),
                     plans.q_cls[parent], plans.q_rank[parent],
                     u_day[parent], True, True)

        # Rule 4: pre-connect queries re-sent back-to-back after connect.
        pre_counts = plans.pre_offsets[1:] - plans.pre_offsets[:-1]
        has_pre = pre_counts > 0
        if has_pre.any():
            burst = np.zeros(n_nq, dtype=bool)
            burst[has_pre] = (
                rng.random(int(has_pre.sum())) < burst_prob[has_pre]
            )
            b_counts = np.where(burst, pre_counts, 0)
            total = int(b_counts.sum())
            if total:
                t0 = 0.05 + rng.random(int(burst.sum())) * 0.2
                gaps = 0.1 + rng.random(total) * 0.8
                pos = segmented_arange(b_counts)
                # The gap drawn for each first slot is discarded (the
                # scalar path draws it too), keeping the streams aligned.
                t = segmented_offsets_scatter(t0, gaps[pos != 0], b_counts)
                sess_local = np.repeat(np.arange(n_nq, dtype=np.int64), b_counts)
                keep = t < duration[sess_local]
                if keep.any():
                    src = plans.pre_offsets[:-1][sess_local] + pos
                    emit(nq_idx[sess_local[keep]],
                         np.minimum(t[keep], clamp[sess_local[keep]]),
                         plans.pre_cls[src[keep]], plans.pre_rank[src[keep]],
                         plans.sample_day[sess_local[keep]], False, True)

        # Rule 5: fixed-interval metronome over the session's open-search
        # list (pre-connect + user queries, order-preserving dedup).
        # Only sessions that issued queries hold a non-empty list.
        active = nq_counts > 0
        if active.any():
            metro = np.zeros(n_nq, dtype=bool)
            metro[active] = rng.random(int(active.sum())) < fixed_prob[active]
            m_idx = np.nonzero(metro)[0]
            if m_idx.size:
                max_repeats = rng.integers(5, 25, size=m_idx.size)
                period = fixed_period[m_idx]
                slots = np.ceil(duration[m_idx] / period) - 1
                kept = np.minimum(max_repeats, np.maximum(slots, 0)).astype(np.int64)
                total = int(kept.sum())
                if total:
                    sess_pos = np.repeat(np.arange(m_idx.size, dtype=np.int64), kept)
                    step = segmented_arange(kept)  # 0-based repeat index
                    t = period[sess_pos] * (step + 1)
                    m_cls = np.empty(total, dtype=np.int8)
                    m_rank = np.empty(total, dtype=np.int64)
                    for j, local in enumerate(m_idx.tolist()):
                        list_cls, list_rank = self._search_list(plans, local)
                        take = np.nonzero(sess_pos == j)[0]
                        idx = step[take] % list_cls.size
                        m_cls[take] = list_cls[idx]
                        m_rank[take] = list_rank[idx]
                    sess_local = m_idx[sess_pos]
                    emit(nq_idx[sess_local],
                         np.minimum(t, clamp[sess_local]),
                         m_cls, m_rank, plans.sample_day[sess_local],
                         False, True)

    @staticmethod
    def _search_list(plans, local: int) -> Tuple[np.ndarray, np.ndarray]:
        """Order-preserving dedup of a session's (class, rank) codes.

        Within one session all codes resolve against the same sample
        day, so code equality coincides with string equality.
        """
        cls = np.concatenate([
            plans.pre_cls[plans.pre_offsets[local]:plans.pre_offsets[local + 1]],
            plans.q_cls[plans.q_offsets[local]:plans.q_offsets[local + 1]],
        ])
        rank = np.concatenate([
            plans.pre_rank[plans.pre_offsets[local]:plans.pre_offsets[local + 1]],
            plans.q_rank[plans.q_offsets[local]:plans.q_offsets[local + 1]],
        ])
        seen = set()
        keep = []
        for i, code in enumerate(zip(cls.tolist(), rank.tolist())):
            if code not in seen:
                seen.add(code)
                keep.append(i)
        keep = np.asarray(keep, dtype=np.int64)
        return cls[keep], rank[keep]

    # -- strings and hits ----------------------------------------------------

    def _keyword_codes(self, q_cls, q_rank, q_day, q_sha1):
        """Code each query row into the sorted vocabulary of its strings.

        Returns ``(vocab, codes)``.  Rows are keyed by integers -- (day,
        class, rank, SHA1 flag) -- and only the distinct keys resolve to
        strings: a plain key to its ranking entry, a SHA1 key to the
        source-search urn hashed from that *parent* string, matching the
        event path's derivation.  Distinct keys may name one string (a
        query keeps its text across days), which the vocabulary merge
        folds into one code.
        """
        if q_cls.size == 0:
            return np.empty(0, dtype="U1"), np.empty(0, dtype=np.int32)
        n_classes = len(CLASS_ORDER)
        group = q_day * n_classes + q_cls
        rank_span = np.int64(q_rank.max())
        keys, inverse = np.unique(
            (group * rank_span + (q_rank - 1)) * 2 + q_sha1, return_inverse=True
        )
        sha1 = (keys & 1).astype(bool)
        entry_rank = (keys >> 1) % rank_span
        # Rankings are fetched once per (day, class) group, in ascending
        # group order: building a ranking the universe does not hold yet
        # draws from its shared RNG, so the order is part of the trace.
        order, groups, bounds = group_slices((keys >> 1) // rank_span)
        strings = np.concatenate([
            self.universe.keywords(
                key // n_classes, CLASS_ORDER[key % n_classes],
                entry_rank[order[bounds[g]:bounds[g + 1]]] + 1,
            )
            for g, key in enumerate(groups.tolist())
        ])
        # Wide enough for the 40-hex SHA1 urns too.
        entries = np.empty(keys.size, dtype=f"U{max(strings.dtype.itemsize // 4, 40)}")
        entries[order] = strings
        if sha1.any():
            entries[sha1] = sha1_urns_for(entries[sha1])
        vocab, (codes,) = merge_vocabularies([entries], [inverse])
        return vocab, codes

    def _sample_hits(self, q_time, q_cls, q_rank, q_day, q_sha1, vocab, keyword):
        """Poisson responder counts with vectorized same-day means.

        The event path resolves each query string on its *event* day;
        rows whose event day matches their sample day (the vast
        majority) use the code-indexed mean table, midnight-crossing
        rows fall back to the per-string lookup.
        """
        if q_time.size == 0:
            return np.empty(0, dtype=np.int64)
        means = np.empty(q_time.size, dtype=np.float64)
        means[q_sha1] = self.hit_model.sha1_hit_mean
        event_day = (q_time // _SECONDS_PER_DAY).astype(np.int64)
        plain = ~q_sha1
        same = plain & (event_day == q_day)
        means[same] = self.hit_model.mean_for_codes(q_cls[same], q_rank[same])
        cross = np.nonzero(plain & (event_day != q_day))[0]
        if cross.size:
            # expected_hits is deterministic in (day, string), so one
            # scalar lookup per *unique* pair covers every cross row.
            # Codes sort like their strings, so pairs come in the same
            # (day, string) order as a unique over the strings.
            codes, inverse = np.unique(keyword[cross], return_inverse=True)
            strings = vocab[codes]
            pair = event_day[cross] * np.int64(strings.size) + inverse
            pairs, pair_inv = np.unique(pair, return_inverse=True)
            lookups = np.array([
                self.hit_model.expected_hits(
                    int(p // strings.size), str(strings[p % strings.size]), sha1=False
                )
                for p in pairs.tolist()
            ], dtype=np.float64)
            means[cross] = lookups[pair_inv]
        return self._rng.poisson(means).astype(np.int64)

    # -- background traffic --------------------------------------------------

    def _emit_background_samples(self, trace: ColumnarTrace, start: float, end: float):
        """Figure 1/2 all-peers PONG/QUERYHIT samples, fully columnar."""
        per_hour = self.config.background_samples_per_hour
        if per_hour <= 0 or end <= start:
            return
        rng = self._rng
        gap = 3600.0 / per_hour
        times = np.arange(start + rng.random() * gap, end, gap)
        if times.size == 0:
            return
        regions, _, _ = geographic_mix_arrays()
        codes = np.array([REGION_CODE[r] for r in regions], dtype=np.int8)
        hours = ((times % _SECONDS_PER_DAY) // 3600.0).astype(np.intp)
        region_idx = _region_mix_stack().sample(rng, hours)
        shared = sample_shared_files_batch(rng, times.size).astype(np.int64)
        is_hit = rng.random(times.size) < _queryhit_sample_prob()
        ips = np.empty(times.size, dtype="U15")
        for index in np.unique(region_idx):
            positions = np.nonzero(region_idx == index)[0]
            ips[positions] = self.population.allocate_ip_array(
                regions[index], positions.size
            )
        trace.pong_timestamp = times
        trace.pong_ip = ips
        trace.pong_region = codes[region_idx]
        trace.pong_shared_files = shared
        trace.pong_one_hop = np.zeros(times.size, dtype=bool)
        trace.hit_timestamp = times[is_hit]
        trace.hit_ip = ips[is_hit]
        trace.hit_region = codes[region_idx[is_hit]]
        trace.hit_one_hop = np.zeros(int(is_hit.sum()), dtype=bool)


def _queryhit_sample_prob() -> float:
    from .synthesizer import _QUERYHIT_SAMPLE_PROB

    return _QUERYHIT_SAMPLE_PROB
