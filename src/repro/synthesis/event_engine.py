"""The event synthesis engine: the per-event reference loop.

Each time shard is one heap of ``(time, seq, kind, payload)`` events --
connects, queries, socket closes, BYEs and silent departures -- driven
through the record :class:`~repro.measurement.monitor.MeasurementNode`,
whose idle detection and slot accounting decide what the trace records.
The columnar engine (:mod:`.columnar_engine`) realizes the same model in
whole-shard array operations and is checked against this one.  This
engine is the only one for the configurations the columnar engine does
not vectorize (slot caps, caller-supplied populations or models,
subclassed universes: see
:attr:`~.synthesizer.TraceSynthesizer.effective_backend`).

Only :meth:`~.synthesizer.TraceSynthesizer.run_event` imports this
module, so a columnar run never loads the monitor or the handshake layer
it negotiates with.
"""

from __future__ import annotations

import heapq
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.agents import ArrivalProcess, PeerPopulation, UserBehavior
from repro.agents.population import sample_shared_files_batch
from repro.core.kernels import pool_map, resolve_workers
from repro.core.model import WorkloadModel
from repro.core.parameters import (
    IDLE_CLOSE_SECONDS,
    IDLE_PROBE_SECONDS,
    MIN_SESSION_SECONDS,
    geographic_mix_arrays,
)
from repro.core.popularity import QueryUniverse
from repro.core.regions import hour_of_day
from repro.gnutella.clients import expand_user_session
from repro.measurement.monitor import MeasurementNode
from repro.measurement.trace import (
    PongObservation,
    QueryHitObservation,
    Trace,
    merge_traces,
)

from .config import SynthesisConfig
from .hits import HitModel
from .synthesizer import (
    _QUERYHIT_SAMPLE_PROB,
    _RAW_PINGS,
    _RAW_PONGS,
    _finalize_counter_dict,
    _prebuild_day,
    _shard_ip_range,
    _shard_streams,
)

__all__ = ["EventShardEngine", "synthesize_shard_event", "synthesize_shards_event"]


def synthesize_shards_event(
    config: SynthesisConfig,
    windows: Sequence[Tuple[float, float]],
    model: Optional[WorkloadModel] = None,
    universe: Optional[QueryUniverse] = None,
) -> Trace:
    """Every time shard through its own engine, merged in shard order."""
    n = len(windows)
    tasks = [
        (config, n, index, start, end, model, universe)
        for index, (start, end) in enumerate(windows)
    ]
    # Worker count never affects trace content (the shard count does),
    # so cap it at the CPUs actually available: on a single-core host
    # the serial shard loop beats a process pool by skipping the result
    # pickling and scheduler churn.
    shards = pool_map(_synthesize_shard_task, tasks, resolve_workers(config.jobs, n))
    merged = merge_traces(shards)
    merged.start_time, merged.end_time = 0.0, config.end_time
    return merged


def _synthesize_shard_task(task) -> Trace:
    return synthesize_shard_event(*task)


def synthesize_shard_event(
    config: SynthesisConfig,
    n_shards: int,
    index: int,
    start: float,
    end: float,
    model: Optional[WorkloadModel] = None,
    universe: Optional[QueryUniverse] = None,
) -> Trace:
    """Synthesize one time shard (worker-process entry point).

    A ``None`` universe/model means "default wiring": each worker builds
    its own copy deterministically (the canonical-order
    :meth:`~repro.core.popularity.QueryUniverse.prebuild` makes every
    worker's universe identical) instead of paying to pickle it across
    the process boundary.
    """
    streams = _shard_streams(config.seed, n_shards, index)
    model = model or WorkloadModel.paper()
    if universe is None:
        universe = QueryUniverse(seed=config.seed + 1).prebuild(_prebuild_day(config))
    population = PeerPopulation(seed=streams[0], **_shard_ip_range(n_shards, index))
    behavior = UserBehavior(model=model, universe=universe, seed=streams[1])
    arrivals = ArrivalProcess(config.mean_arrival_rate, seed=streams[2])
    engine = EventShardEngine(
        config, model, universe, population, behavior, arrivals,
        HitModel(universe), np.random.default_rng(streams[3]),
    )
    return engine.run(start, end)


class EventShardEngine:
    """Event-driven synthesis of one time shard.

    Owns connections *arriving* in ``[start, end)``; their sessions may
    extend beyond ``end`` up to the global trace end, where the monitor's
    finalization truncates them exactly like the sequential path.
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

    def run(self, start: float, end: float) -> Trace:
        cfg = self.config
        global_end = cfg.end_time
        monitor = MeasurementNode(max_slots=cfg.max_slots)
        trace = Trace(start_time=start, end_time=global_end)

        # Global event heap keeps monitor slot accounting time-ordered.
        # Events: (time, seq, kind, payload).  Arrivals are batch-drawn
        # and ascending, so the initial list is already a valid heap.
        arrival_times = self.arrivals.arrival_times(start, end)
        heap: List[Tuple[float, int, str, tuple]] = [
            (t, seq, "connect", (t,)) for seq, t in enumerate(arrival_times)
        ]
        self._seq = len(heap)

        def push(when: float, kind: str, payload: tuple) -> None:
            heapq.heappush(heap, (when, self._seq, kind, payload))
            self._seq += 1

        for when, kind, payload in self._drain_events(heap, global_end):
            if kind == "connect":
                self._handle_connect(monitor, push, payload[0])
            elif kind == "query":
                conn_id, keywords, sha1, automated = payload
                hits = self.hit_model.sample_hits(
                    self._rng, day=int(when // 86400.0), keywords=keywords, sha1=sha1
                )
                monitor.receive_query(
                    conn_id, when, keywords, sha1=sha1, automated=automated, hits=hits
                )
            elif kind == "close":
                monitor.client_closed(payload[0], when)
            elif kind == "bye":
                monitor.client_bye(payload[0], when)
            elif kind == "depart":
                monitor.client_departed(payload[0], when)
            else:  # pragma: no cover - defensive
                raise RuntimeError(f"unknown event kind {kind}")

        trace.sessions = monitor.finalize(global_end)
        self._emit_background_samples(trace, start, min(end, global_end))
        trace.counters[_RAW_PINGS] = monitor.keepalive_pings_sent
        trace.counters[_RAW_PONGS] = monitor.keepalive_pongs_received
        trace.counters["rejected_connections"] = monitor.rejected_connections
        return trace

    @staticmethod
    def _drain_events(heap, end_time: float) -> Iterator[Tuple[float, str, tuple]]:
        """Pop every queued event in time order, yielding in-window ones.

        Out-of-window events (``when >= end_time``) are *skipped*, not
        used as a stop signal: breaking on the first one would silently
        drop any still-queued in-window events ordered after it, so the
        boundary stays exact even for event sources that are not
        strictly time-sorted.
        """
        while heap:
            when, _, kind, payload = heapq.heappop(heap)
            if when >= end_time:
                continue  # past the window; finalize() truncates its session
            yield when, kind, payload

    # -- per-connection logic ---------------------------------------------------

    def _handle_connect(self, monitor: MeasurementNode, push, t: float) -> None:
        rng = self._rng
        identity = self.population.spawn(hour_of_day(t))
        conn_id = monitor.open_connection(
            t,
            peer_ip=identity.ip,
            region=identity.region,
            user_agent=identity.profile.user_agent,
            ultrapeer=identity.ultrapeer,
            shared_files=identity.shared_files,
        )
        if conn_id is None:
            return  # all slots busy; the arrival is lost
        if rng.random() < identity.profile.quick_disconnect_prob:
            duration = self._quick_disconnect_duration()
            # A few quick connections still fire a stray (automated) query.
            if rng.random() < self.config.quick_query_prob:
                day = int(t // 86400)
                keywords = self.universe.sample(rng, day=day, region=identity.region).keywords
                push(t + rng.random() * duration, "query", (conn_id, keywords, False, True))
            # Quick system disconnects tear the TCP connection down, so
            # their recorded duration is exact (no +30 s idle penalty).
            push(t + duration, "close", (conn_id,))
            return
        plan = self.behavior.plan_session(identity.region, t)
        duration = max(plan.duration, 1.0)
        # Most clients leave silently, so the monitor's idle detection
        # adds ~30 s to the recorded duration; the workload model was
        # fitted to *recorded* durations, so the client goes quiet 30 s
        # before the planned (recorded) session end.
        silent = rng.random() >= self.config.bye_prob
        overshoot = IDLE_PROBE_SECONDS + IDLE_CLOSE_SECONDS if silent else 0.0
        depart_at = max(duration - overshoot, 0.5)
        stream = expand_user_session(
            plan.queries, duration, identity.profile, rng,
            pre_connect_queries=plan.pre_connect_queries,
        )
        last_query_offset = 0.0
        for item in stream:
            offset = min(item.offset, depart_at - 1e-3)
            last_query_offset = max(last_query_offset, offset)
            push(t + offset, "query", (conn_id, item.keywords, item.sha1, item.automated))
        push(t + max(depart_at, last_query_offset + 1e-3), "bye" if not silent else "depart", (conn_id,))

    def _quick_disconnect_duration(self) -> float:
        """Rule-3 quick disconnect durations: 29% of *all* connections end
        under 10 s and 32% within the next 20-25 s, i.e. of the ~70%
        quick connections ~41% are <10 s, ~46% land in 10-35 s, and the
        rest stretch to the 64 s cutoff."""
        u = self._rng.random()
        if u < 0.41:
            return 1.0 + self._rng.random() * 9.0
        if u < 0.87:
            return 10.0 + self._rng.random() * 25.0
        return 35.0 + self._rng.random() * (MIN_SESSION_SECONDS - 35.0 - 1e-3)

    # -- background traffic -------------------------------------------------------

    def _emit_background_samples(self, trace: Trace, start: float, end: float) -> None:
        """The Figure 1/2 all-peers PONG/QUERYHIT samples for the window.

        One vectorized pass: sample times are spread uniformly over the
        shard, regions come from the precomputed per-hour Figure 1 mix
        (one inverse-CDF gather instead of a weight-dict rebuild and
        ``rng.choice`` per sample), library sizes and the QUERYHIT coin
        are batch-drawn, and addresses are allocated through the
        population's public per-region API.  Regions follow the same mix
        as one-hop peers: the paper verifies one-hop peers are
        representative.
        """
        per_hour = self.config.background_samples_per_hour
        if per_hour <= 0 or end <= start:
            return
        rng = self._rng
        gap = 3600.0 / per_hour
        times = np.arange(start + rng.random() * gap, end, gap)
        if times.size == 0:
            return
        from .columnar_engine import _region_mix_stack

        regions, _, _ = geographic_mix_arrays()
        hours = ((times % 86400.0) // 3600.0).astype(np.intp)
        region_idx = _region_mix_stack().sample(rng, hours)
        shared = sample_shared_files_batch(rng, times.size)
        is_hit = rng.random(times.size) < _QUERYHIT_SAMPLE_PROB
        ips: List[Optional[str]] = [None] * times.size
        for index in np.unique(region_idx):
            positions = np.nonzero(region_idx == index)[0]
            for pos, ip in zip(
                positions, self.population.allocate_ips(regions[index], positions.size)
            ):
                ips[pos] = ip
        for i in range(times.size):
            region = regions[region_idx[i]]
            trace.pongs.append(
                PongObservation(
                    timestamp=float(times[i]), ip=ips[i], region=region,
                    shared_files=int(shared[i]), one_hop=False,
                )
            )
            if is_hit[i]:
                trace.queryhits.append(
                    QueryHitObservation(
                        timestamp=float(times[i]), ip=ips[i], region=region, one_hop=False
                    )
                )


def _finalize_counters(trace: Trace) -> None:
    """Record-trace front end of :func:`_finalize_counter_dict`."""
    observed_hits = sum(q.hits for s in trace.sessions for q in s.queries)
    _finalize_counter_dict(
        trace.counters, trace.hop1_query_count(), trace.n_connections, observed_hits
    )
