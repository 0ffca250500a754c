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

Two engines realize this model.  The columnar engine
(:mod:`.columnar_engine`) synthesizes whole shards as array batches and
runs every default-wiring configuration; the event engine
(:mod:`.event_engine`), a per-event loop through the record monitor, is
its reference and runs the configurations the columnar engine does not
vectorize (see :attr:`TraceSynthesizer.effective_backend`).

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

import math
import warnings
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.agents import ArrivalProcess, PeerPopulation, UserBehavior
from repro.core.kernels import pool_map_windowed, resolve_workers, spawn_shard_streams
from repro.core.model import WorkloadModel
from repro.core.popularity import QueryUniverse

from .config import SynthesisConfig, shard_windows
from .hits import HitModel

if TYPE_CHECKING:
    from repro.measurement.trace import Trace

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
        """The engine :meth:`run` uses: the columnar fast path covers
        default wiring only.  Slot caps need event-ordered accounting,
        custom populations/models expose scalar-only hooks, and a
        subclassed universe may override sampling the batch path would
        bypass; those run the event engine."""
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
        return self.run_event()

    def run_event(self) -> Trace:
        """Synthesize with the event engine, the per-event reference loop.

        :meth:`run` falls back to it for the configurations named in
        :attr:`effective_backend`; parity tests call it directly.  A
        fixed seed gives a different, equally distributed realization
        from the columnar engine's (their RNG consumption orders differ).
        """
        from .event_engine import (
            EventShardEngine,
            _finalize_counters,
            synthesize_shards_event,
        )

        cfg = self.config
        if len(self._windows) == 1:
            start, end = self._windows[0]
            trace = EventShardEngine(
                cfg, self.model, self.universe, self.population,
                self.behavior, self.arrivals, self.hit_model, self._rng,
            ).run(start, end)
        else:
            trace = synthesize_shards_event(
                cfg, self._windows,
                self.model if self._custom_model else None,
                self.universe if self._custom_universe else None,
            )
        _finalize_counters(trace)
        return trace

    def run_columnar(self):
        """Synthesize directly into a ColumnarTrace (no record objects).

        Falls back to columnarizing the event engine's output when the
        configuration needs it (see :attr:`effective_backend`).
        """
        from repro.measurement.columnar import ColumnarTrace, ColumnarTraceBuilder

        if self.effective_backend == "event":
            return ColumnarTrace.from_trace(self.run_event())
        builder = ColumnarTraceBuilder()
        self._synthesize_parts(builder.append)
        trace = builder.build()
        trace.start_time, trace.end_time = 0.0, self.config.end_time
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

        A configuration on the event engine (slot caps, custom wiring;
        see :attr:`effective_backend`) spills its whole trace as one
        shard.
        """
        from repro.measurement.columnar import ColumnarTrace
        from repro.measurement.shards import ShardWriter

        writer = ShardWriter(dest, 0.0, self.config.end_time)
        if self.effective_backend == "event":
            trace = self.run_event()
            writer.append(ColumnarTrace.from_trace(trace))
            return writer.close(trace.counters)
        self._synthesize_parts(writer.append)
        counters = dict(writer.raw_counters)
        _finalize_counter_dict(
            counters,
            hop1=writer.total_queries,
            connections=writer.total_sessions,
            observed_hits=writer.total_observed_hits,
        )
        return writer.close(counters)

    def _synthesize_parts(self, consume) -> None:
        """Feed each shard window's raw columnar part to ``consume``, in
        shard order (in parallel when configured)."""
        from .columnar_engine import ColumnarShardEngine

        cfg = self.config
        if len(self._windows) == 1:
            start, end = self._windows[0]
            self.universe.prebuild(_prebuild_day(cfg))
            consume(
                ColumnarShardEngine(
                    cfg, self.model, self.universe, self.population,
                    self.behavior, self.arrivals, self.hit_model, self._rng,
                ).run(start, end)
            )
            return
        n = len(self._windows)
        universe = self.universe if self._custom_universe else None
        tasks = [
            (cfg, n, index, start, end, None, universe)
            for index, (start, end) in enumerate(self._windows)
        ]
        # Bounded in-flight window, consumed in shard order: at most
        # ~workers + 1 completed parts are alive at once, keeping the
        # out-of-core RSS budget intact.
        pool_map_windowed(
            _columnar_shard_task, tasks, resolve_workers(cfg.jobs, n), consume
        )


def _shard_ip_range(n_shards: int, index: int) -> dict:
    """Population kwargs giving shard ``index`` a disjoint IP pool."""
    if n_shards <= 1:
        return {}
    return {
        "ip_counter_start": index * SHARD_IP_STRIDE,
        "ip_counter_limit": (index + 1) * SHARD_IP_STRIDE,
    }


def _columnar_shard_task(task):
    from .columnar_engine import synthesize_shard_columnar

    return synthesize_shard_columnar(*task)


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


def _finalize_counters_columnar(trace) -> None:
    """:func:`_finalize_counter_dict` for a ColumnarTrace."""
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
