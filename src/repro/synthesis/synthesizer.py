"""Trace synthesis: the substitute for 40 days of live Gnutella measurement.

Drives the ground-truth layers against the measurement node:

1. connection arrivals follow a diurnal Poisson process
   (:class:`~repro.agents.diurnal.ArrivalProcess`);
2. each connection gets an identity from the
   :class:`~repro.agents.population.PeerPopulation` (region by the
   Figure 1 mix, unique IP, client profile, ultrapeer flag, library size);
3. ~70% of connections are quick system disconnects under 64 seconds
   (Section 3.3 rule 3: 29% under 10 s, another 32% within the next
   20-25 s);
4. surviving connections carry a ground-truth user session plan
   (:class:`~repro.agents.user_model.UserBehavior`) expanded through the
   client profile's automation (:func:`~repro.gnutella.clients.expand_user_session`)
   into the observable query stream;
5. the measurement node records sessions with its idle-detection end
   semantics, and background overlay traffic (relayed queries, PING/PONG,
   QUERYHIT) is accounted at the Table 1 ratios, with PONG/QUERYHIT
   address samples drawn for the Figures 1-2 all-peers comparisons.

The result is a :class:`~repro.measurement.trace.Trace` whose *user*
layer follows the paper's fitted model and whose *system* layer carries
every anomaly class the filter rules target.

Sharded synthesis
-----------------

With ``SynthesisConfig.jobs > 1`` (or an explicit ``shard_days``) the
measurement window is split into equal-width time shards, each
synthesized by an independent worker process -- the same
divide-by-time-slice strategy the distributed eDonkey captures used
across collectors.  Shard independence rests on three invariants:

* **RNG streams**: every shard derives its generators from
  ``np.random.SeedSequence(seed).spawn(n_shards)[index]``, so streams
  are statistically independent and a run is byte-reproducible for a
  fixed ``(config, seed, shard count)``.  Different shard counts yield
  different (equally distributed) realizations; the test suite checks
  KS equivalence between 1-shard and N-shard runs.
* **Content universe**: all shards share one
  :class:`~repro.core.popularity.QueryUniverse`, prebuilt in canonical
  (day, class) order so every worker holds identical daily rankings.
* **Boundary handling**: a connection belongs to the shard its *arrival*
  falls in, but its session may outlive the shard window -- events are
  processed up to the *global* trace end, so no warm-up margin or
  deduplication is needed and merged sessions are exactly the sessions a
  single sequential node would have recorded (restriction of a Poisson
  process to disjoint windows is again Poisson).  Peer IPs stay
  globally unique because each shard allocates from a disjoint
  per-region counter range (``SHARD_IP_STRIDE`` addresses wide).

Slot-capped runs (``max_slots``) need global concurrent-connection
accounting and therefore fall back to a single shard, as do runs with a
caller-supplied population (its RNG and allocator cannot be partitioned).
"""

from __future__ import annotations

import heapq
import math
import warnings
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.agents import ArrivalProcess, PeerPopulation, UserBehavior
from repro.core.kernels import (
    pool_map,
    pool_map_windowed,
    resolve_workers,
    spawn_shard_streams,
)
from repro.core.model import WorkloadModel
from repro.core.parameters import MIN_SESSION_SECONDS, geographic_mix_arrays
from repro.core.popularity import QueryUniverse
from repro.core.regions import Region, hour_of_day
from repro.core.runtime import available_cpus
from repro.agents.population import sample_shared_files_batch
from repro.gnutella.clients import expand_user_session

from .config import SynthesisConfig, shard_windows
from .hits import HitModel
from repro.measurement import (
    IDLE_CLOSE_SECONDS,
    IDLE_PROBE_SECONDS,
    MeasurementNode,
    PongObservation,
    QueryHitObservation,
    Trace,
    merge_traces,
)

__all__ = [
    "SHARD_IP_STRIDE",
    "SynthesisConfig",
    "TraceSynthesizer",
    "shard_windows",
    "synthesize_trace",
]


#: Table 1 ratios relative to the hop-1 query count / connection count.
#: relayed QUERYs: (34,425,154 - 1,735,538) / 1,735,538; QUERYHITs per
#: hop-1 query; PING/PONG per direct connection.
BACKGROUND_RATIOS = {
    "relayed_queries_per_hop1": 18.84,
    "queryhits_per_hop1": 0.772,
    "pings_per_connection": 6.23,
    "pongs_per_connection": 4.08,
}

#: Width of the per-shard, per-region IP allocator counter range.  Each
#: shard may observe at most this many distinct peers per region (the
#: paper-scale run needs ~100k per shard); with the 16-block /8 regions
#: this supports up to ~125 shards before the address space runs out.
SHARD_IP_STRIDE = 1 << 21

#: Fraction of background PONG samples that also yield a QUERYHIT
#: observation (QUERYHITs are rarer than PONGs -- Table 1).
_QUERYHIT_SAMPLE_PROB = 0.35

#: Private counter keys carrying raw monitor totals from shard traces to
#: the merge step; replaced by the Table 1 counters at finalization.
_RAW_PINGS = "_raw_keepalive_pings"
_RAW_PONGS = "_raw_keepalive_pongs"


def _shard_streams(seed: int, n_shards: int, index: int):
    """The four per-shard RNG streams (population, behavior, arrivals,
    synthesizer), spawned from the root seed so shards never overlap."""
    return spawn_shard_streams(seed, n_shards, index, substreams=4)


def _prebuild_day(config: SynthesisConfig) -> int:
    """Last universe day materialized up front.

    Covers the window plus a margin for sessions whose first query falls
    shortly after the trace ends.  (Queries landing beyond the margin
    fall back to lazy ranking construction, which in multi-shard runs
    may diverge between workers -- harmless for those vanishing-tail
    events, and impossible inside the window itself.)
    """
    return int(math.ceil(config.days)) + 2


class TraceSynthesizer:
    """Produces a complete synthetic measurement trace.

    ``model``/``universe``/``population`` override the default wiring
    (used by sensitivity sweeps).  A caller-supplied population forces a
    single shard; a caller-supplied model or universe is shipped to the
    workers as-is and must be picklable.
    """

    def __init__(
        self,
        config: Optional[SynthesisConfig] = None,
        model: Optional[WorkloadModel] = None,
        universe: Optional[QueryUniverse] = None,
        population: Optional[PeerPopulation] = None,
    ):
        self.config = config or SynthesisConfig()
        self._custom_model = model is not None
        self._custom_universe = universe is not None
        self._custom_population = population is not None
        self._windows = shard_windows(self.config)
        if len(self._windows) > 1:
            reason = None
            if self._custom_population:
                reason = "a caller-supplied population cannot be partitioned"
            elif self.config.max_slots is not None:
                reason = "slot caps need global concurrent-connection accounting"
            if reason:
                warnings.warn(
                    f"sharded synthesis disabled ({reason}); running one shard",
                    RuntimeWarning,
                    stacklevel=2,
                )
                self._windows = [(0.0, self.config.end_time)]
        seed = self.config.seed
        n_shards = len(self._windows)
        self.model = model or WorkloadModel.paper()
        self.universe = universe or QueryUniverse(seed=seed + 1)
        if n_shards == 1 or self._custom_universe:
            self.universe.prebuild(_prebuild_day(self.config))
        streams = _shard_streams(seed, n_shards, 0)
        self.population = population or PeerPopulation(
            seed=streams[0], **_shard_ip_range(n_shards, 0)
        )
        self.behavior = UserBehavior(model=self.model, universe=self.universe, seed=streams[1])
        self.arrivals = ArrivalProcess(self.config.mean_arrival_rate, seed=streams[2])
        self.hit_model = HitModel(self.universe)
        self._rng = np.random.default_rng(streams[3])

    @property
    def n_shards(self) -> int:
        return len(self._windows)

    @property
    def effective_backend(self) -> str:
        """The engine actually used: the fast path only covers default
        wiring.  Slot caps need event-ordered accounting, custom
        populations/models expose scalar-only hooks, and a subclassed
        universe may override sampling the batch path would bypass."""
        if self.config.backend == "event":
            return "event"
        if self._custom_population or self._custom_model:
            return "event"
        if self.config.max_slots is not None:
            return "event"
        if self._custom_universe and type(self.universe) is not QueryUniverse:
            return "event"
        return "columnar"

    def run(self) -> Trace:
        """Synthesize the full trace (in parallel when configured)."""
        if self.effective_backend == "columnar":
            return self.run_columnar().to_trace()
        return self._run_event()

    def _run_event(self) -> Trace:
        cfg = self.config
        if len(self._windows) == 1:
            start, end = self._windows[0]
            trace = _ShardEngine(
                cfg, self.model, self.universe, self.population,
                self.behavior, self.arrivals, self.hit_model, self._rng,
            ).run(start, end)
        else:
            trace = self._run_sharded()
        _finalize_counters(trace)
        return trace

    def run_columnar(self):
        """Synthesize directly into a ColumnarTrace (no record objects).

        Falls back to columnarizing the event engine's output when the
        configuration needs it (see :attr:`effective_backend`).
        """
        from repro.measurement.columnar import ColumnarTrace, ColumnarTraceBuilder

        if self.effective_backend == "event":
            return ColumnarTrace.from_trace(self._run_event())

        from .columnar_engine import ColumnarShardEngine, synthesize_shard_columnar

        cfg = self.config
        if len(self._windows) == 1:
            start, end = self._windows[0]
            self.universe.prebuild(_prebuild_day(cfg))
            parts = [
                ColumnarShardEngine(
                    cfg, self.model, self.universe, self.population,
                    self.behavior, self.arrivals, self.hit_model, self._rng,
                ).run(start, end)
            ]
        else:
            n = len(self._windows)
            universe = self.universe if self._custom_universe else None
            tasks = [
                (cfg, n, index, start, end, None, universe)
                for index, (start, end) in enumerate(self._windows)
            ]
            parts = pool_map(
                _columnar_shard_task, tasks, resolve_workers(cfg.jobs, n)
            )
        builder = ColumnarTraceBuilder()
        for part in parts:
            builder.append(part)
        trace = builder.build()
        trace.start_time, trace.end_time = 0.0, cfg.end_time
        _finalize_counters_columnar(trace)
        return trace

    def run_sharded(self, dest):
        """Synthesize straight to a :class:`~repro.measurement.shards.ShardedTrace`.

        The out-of-core twin of :meth:`run_columnar`: each time shard is
        synthesized (in parallel when configured), canonically sorted,
        and spilled to ``dest/shard-NNNNN.npz`` the moment it is ready --
        at no point does more than roughly ``workers + 1`` shards' worth
        of trace live in memory.  ``ShardedTrace.concat()`` of the result
        is byte-identical to :meth:`run_columnar` for the same config.

        Only the columnar fast path can shard to disk; configurations
        that fall back to the event engine (slot caps, custom
        populations/models) must use :meth:`run` instead.
        """
        from repro.measurement.shards import ShardWriter

        if self.effective_backend != "columnar":
            raise ValueError(
                "run_sharded() requires the columnar backend; this configuration "
                f"falls back to the event engine (backend={self.config.backend!r})"
            )
        from .columnar_engine import ColumnarShardEngine, synthesize_shard_columnar

        cfg = self.config
        writer = ShardWriter(dest, 0.0, cfg.end_time)
        if len(self._windows) == 1:
            start, end = self._windows[0]
            self.universe.prebuild(_prebuild_day(cfg))
            writer.append(
                ColumnarShardEngine(
                    cfg, self.model, self.universe, self.population,
                    self.behavior, self.arrivals, self.hit_model, self._rng,
                ).run(start, end)
            )
        else:
            n = len(self._windows)
            universe = self.universe if self._custom_universe else None
            tasks = [
                (cfg, n, index, start, end, None, universe)
                for index, (start, end) in enumerate(self._windows)
            ]
            # Bounded in-flight window, consumed in shard order: the
            # writer sees at most ~workers + 1 completed parts at once,
            # keeping the out-of-core RSS budget intact.
            pool_map_windowed(
                _columnar_shard_task, tasks, resolve_workers(cfg.jobs, n),
                writer.append,
            )
        counters = dict(writer.raw_counters)
        _finalize_counter_dict(
            counters,
            hop1=writer.total_queries,
            connections=writer.total_sessions,
            observed_hits=writer.total_observed_hits,
        )
        return writer.close(counters)

    def _run_sharded(self) -> Trace:
        cfg = self.config
        n = len(self._windows)
        model = self.model if self._custom_model else None
        universe = self.universe if self._custom_universe else None
        tasks = [
            (cfg, n, index, start, end, model, universe)
            for index, (start, end) in enumerate(self._windows)
        ]
        # Worker count never affects trace content (the shard count does),
        # so cap it at the CPUs actually available: on a single-core host
        # the serial shard loop beats a process pool by skipping the
        # result pickling and scheduler churn.
        shards = pool_map(
            _synthesize_shard_task, tasks, resolve_workers(cfg.jobs, n)
        )
        merged = merge_traces(shards)
        merged.start_time, merged.end_time = 0.0, cfg.end_time
        return merged


def _shard_ip_range(n_shards: int, index: int) -> dict:
    """Population kwargs giving shard ``index`` a disjoint IP pool."""
    if n_shards <= 1:
        return {}
    return {
        "ip_counter_start": index * SHARD_IP_STRIDE,
        "ip_counter_limit": (index + 1) * SHARD_IP_STRIDE,
    }


#: Shared CPU-budget helper (see :func:`repro.core.runtime.available_cpus`);
#: kept under the old private name for existing callers.
_available_cpus = available_cpus


def _columnar_shard_task(task):
    from .columnar_engine import synthesize_shard_columnar

    return synthesize_shard_columnar(*task)


def _synthesize_shard_task(task) -> Trace:
    return _synthesize_shard(*task)


def _synthesize_shard(
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
    engine = _ShardEngine(
        config, model, universe, population, behavior, arrivals,
        HitModel(universe), np.random.default_rng(streams[3]),
    )
    return engine.run(start, end)


class _ShardEngine:
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


def _finalize_counter_dict(
    counters: dict, hop1: int, connections: int, observed_hits: int
) -> None:
    """Table 1 counters: measured quantities plus background ratios.

    Consumes the raw keep-alive totals the shard engines left in
    ``counters`` (summed across shards in shard order) and writes the
    final keys in one fixed insertion order, so every synthesis path --
    event, columnar, sharded-on-disk -- produces an identical dict.
    """
    keepalive_pings = counters.pop(_RAW_PINGS, 0)
    keepalive_pongs = counters.pop(_RAW_PONGS, 0)
    ratios = BACKGROUND_RATIOS
    counters.update(
        {
            "direct_connections": connections,
            "hop1_query_messages": hop1,
            "hop1_queryhits": observed_hits,
            "query_messages": hop1 + int(round(hop1 * ratios["relayed_queries_per_hop1"])),
            "queryhit_messages": observed_hits
            + int(round(hop1 * ratios["queryhits_per_hop1"])),
            "ping_messages": keepalive_pings
            + int(round(connections * ratios["pings_per_connection"])),
            "pong_messages": keepalive_pongs
            + int(round(connections * ratios["pongs_per_connection"])),
            "rejected_connections": counters.get("rejected_connections", 0),
        }
    )


def _finalize_counters(trace: Trace) -> None:
    """Record-trace front end of :func:`_finalize_counter_dict`."""
    observed_hits = sum(q.hits for s in trace.sessions for q in s.queries)
    _finalize_counter_dict(
        trace.counters, trace.hop1_query_count(), trace.n_connections, observed_hits
    )


def _finalize_counters_columnar(trace) -> None:
    """Array form of :func:`_finalize_counters` for a ColumnarTrace."""
    hop1 = trace.n_queries
    observed_hits = int(trace.query_hits.sum()) if hop1 else 0
    _finalize_counter_dict(trace.counters, hop1, trace.n_sessions, observed_hits)


def synthesize_trace(
    days: float = 2.0,
    mean_arrival_rate: float = 0.35,
    seed: int = 20040315,
    **kwargs,
) -> Trace:
    """Convenience wrapper: synthesize a trace with default wiring.

    Extra keyword arguments (``jobs``, ``shard_days``, ``max_slots``,
    ...) forward to :class:`SynthesisConfig`.
    """
    config = SynthesisConfig(days=days, mean_arrival_rate=mean_arrival_rate, seed=seed, **kwargs)
    return TraceSynthesizer(config).run()
