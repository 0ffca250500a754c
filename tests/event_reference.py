"""Event-driven references the columnar overlay, generator and synthesizer are held to.

* :func:`simulate_workload_event` builds the overlay backbone from the
  Gnutella object stack (``gnutella_reference``), checks it equals the
  arrays :func:`repro.gnutella.columnar_overlay._prepare` draws, and
  replays the seeded plan of
  :func:`~repro.gnutella.columnar_overlay.simulate_workload` through
  real ``PeerNode``/``EventScheduler`` machinery and the record
  ``MeasurementNode``, with zero link latency, so every flood is a
  strict BFS.  ``compare_runs`` in ``equivalence_reference`` requires
  its observables to equal the columnar engine's.
* :func:`flood_context_from_overlay` builds the batched flood tables
  over an object :class:`~gnutella_reference.overlay.OverlayNetwork`,
  so one flood can be checked against ``OverlayNetwork.flood_query``.
* :class:`EventWorkloadGenerator` is the scalar Fig. 12 loop: a heap of
  steady-state peer slots, one ``sample()`` call per random quantity.
  :func:`columnar_from_sessions` turns its sessions into a
  :class:`~repro.core.generator_columnar.ColumnarWorkload`, the form
  ``generator_ks_checks`` compares with the columnar generator's.
* :func:`synthesize_event` is the per-event trace synthesizer: one heap
  of connects, queries, closes, BYEs and silent departures over the
  whole window, driven through the record ``MeasurementNode`` with no
  slot cap.  ``columnar_ks_checks`` holds
  :meth:`~repro.synthesis.TraceSynthesizer.run_columnar` to its trace.
"""

import heapq
import math
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.agents import PeerPopulation
from repro.agents.population import sample_shared_files_batch
from repro.core.events import GeneratedQuery, GeneratedSession
from repro.core.generator_columnar import (
    WORKLOAD_REGION_CODE,
    WORKLOAD_REGION_ORDER,
    ColumnarWorkload,
    major_region_cum,
)
from repro.core.kernels import sorted_lookup
from repro.core.model import WorkloadModel
from repro.core.parameters import (
    IDLE_CLOSE_SECONDS,
    IDLE_PROBE_SECONDS,
    MIN_SESSION_SECONDS,
    geographic_mix_arrays,
)
from repro.core.popularity import CLASS_ORDER, QueryUniverse
from repro.core.regions import MAJOR_REGIONS, Region, hour_of_day, is_peak_hour
from repro.gnutella.clients import expand_user_session
from repro.gnutella.columnar_overlay import (
    MONITOR_ID,
    QRP_LOG_SIZE,
    FloodContext,
    OverlayConfig,
    OverlayPlan,
    OverlayRunResult,
    _flood_context,
    _prepare,
    _round_groups,
)
from repro.measurement import MeasurementNode
from repro.measurement.trace import PongObservation, QueryHitObservation, Trace
from repro.synthesis import SynthesisConfig
from repro.synthesis.columnar_engine import _region_mix_stack, shard_wiring
from repro.synthesis.synthesizer import (
    _QUERYHIT_SAMPLE_PROB,
    _RAW_PINGS,
    _RAW_PONGS,
    _finalize_counter_dict,
)

from gnutella_reference.backbone import (
    build_object_backbone,
    check_backbone,
    from_overlay,
    library_entries,
)
from gnutella_reference.messages import Query, QueryHit
from gnutella_reference.overlay import OverlayNetwork
from gnutella_reference.peer import PeerMode, PeerNode
from gnutella_reference.simulator import EventScheduler

#: User agent every churn peer presents to the record monitor.
USER_AGENT = "repro-sim/1.0"

_SECONDS_PER_DAY = 86400.0

_CLASS_VALUE_CODE: Dict[str, int] = {c.value: i for i, c in enumerate(CLASS_ORDER)}


# ---------------------------------------------------------------------------
# The event overlay
# ---------------------------------------------------------------------------


def session_lib_codes(plan: OverlayPlan, i: int) -> np.ndarray:
    """Vocabulary codes of churn session ``i``'s planned library."""
    lo = plan.lib_offsets[i]
    return plan.lib_codes[lo: lo + plan.lib_counts[i]]


def simulate_workload_event(
    workload: ColumnarWorkload,
    run_seconds: float,
    config: Optional[OverlayConfig] = None,
    record_reach: bool = False,
) -> OverlayRunResult:
    """The columnar engine's plan through real PeerNode/EventScheduler machinery.

    Rounds are driven procedurally (connect batch, flood the round's
    queries through the scheduler, disconnect batch); only the floods
    themselves are event-driven.  Zero latency makes delivery strict
    BFS, which is what the columnar engine computes directly.
    """
    config, backbone, plan = _prepare(workload, run_seconds, config)
    overlay, ups = build_object_backbone(plan.vocab)
    check_backbone(backbone, overlay, ups, plan.vocab)
    node_ids = sorted(overlay.nodes)
    index_of = {node_id: i for i, node_id in enumerate(node_ids)}
    base = len(node_ids)
    n = plan.n_sessions
    # Each session's address, from its workload row; only this engine
    # (its PeerNodes and the record monitor) identifies peers by string.
    peer_ip = [
        f"10.{(int(r) >> 16) & 255}.{(int(r) >> 8) & 255}.{int(r) & 255}"
        for r in plan.session_rows
    ]
    scheduler = EventScheduler()
    monitor = MeasurementNode(max_slots=None)
    msgs = np.zeros(plan.n_queries, dtype=np.int64)
    hits = np.zeros(plan.n_queries, dtype=np.int64)
    guid_of: Dict[bytes, int] = {}
    origin_of: Dict[bytes, str] = {}
    conn_of: Dict[str, int] = {}
    session_node: Dict[int, str] = {}
    reach_min: Dict[Tuple[int, int], int] = {}
    hop1_count = 0

    def node_index(node_id: str) -> int:
        if node_id in index_of:
            return index_of[node_id]
        return base + int(node_id[1:])

    def deliver(dest: str, message, sender: str) -> None:
        nonlocal hop1_count
        target = overlay.nodes.get(dest)
        if target is None or sender not in target.neighbours:
            return
        now = scheduler.now
        k = guid_of.get(message.guid)
        if isinstance(message, Query) and k is not None:
            key = (k, node_index(dest))
            if key not in reach_min:
                reach_min[key] = int(message.hops)
            if dest == MONITOR_ID and message.hops == 1 and sender in conn_of:
                hop1_count += 1
                monitor.receive_query(
                    conn_of[sender], now, keywords=message.keywords,
                    sha1=message.has_sha1,
                )
        if (
            isinstance(message, QueryHit)
            and k is not None
            and dest == origin_of[message.guid]
        ):
            hits[k] += message.n_hits
            target.handle(message, sender, now)
            return
        dispatch(dest, target.handle(message, sender, now), k)

    def dispatch(sender: str, actions, k: Optional[int]) -> None:
        for dest, message in actions:
            if k is not None:
                msgs[k] += 1
            scheduler.schedule(
                scheduler.now,
                lambda dest=dest, message=message, sender=sender: deliver(
                    dest, message, sender
                ),
            )

    def emit(k: int) -> None:
        node = overlay.nodes[session_node[int(plan.query_session[k])]]
        query, actions = node.originate_query(
            str(plan.vocab[plan.query_code[k]]), now=scheduler.now,
            ttl=config.ttl,
        )
        guid_of[query.guid] = k
        origin_of[query.guid] = node.node_id
        reach_min[(k, node_index(node.node_id))] = 0
        dispatch(node.node_id, actions, k)

    starts_order = np.argsort(plan.first_round, kind="stable")
    starts_off = _round_groups(plan.first_round, plan.n_rounds, starts_order)
    dep_ids = np.flatnonzero(plan.departs)
    dep_sort = np.lexsort((dep_ids, plan.end_true[dep_ids],
                           plan.last_round[dep_ids]))
    dep_order = dep_ids[dep_sort]
    dep_off = _round_groups(
        plan.last_round[dep_ids], plan.n_rounds, dep_sort
    )
    q_off = np.zeros(plan.n_rounds + 1, dtype=np.int64)
    np.cumsum(
        np.bincount(plan.query_round, minlength=plan.n_rounds), out=q_off[1:]
    )

    for r in range(plan.n_rounds):
        for i in starts_order[starts_off[r]: starts_off[r + 1]]:
            i = int(i)
            node_id = f"s{i:07d}"
            library = {
                str(plan.vocab[c]) for c in session_lib_codes(plan, i)
            }
            node = PeerNode(
                node_id=node_id, ip=peer_ip[i],
                mode=(PeerMode.ULTRAPEER if plan.ultrapeer[i]
                      else PeerMode.LEAF),
                library=library, max_connections=2 ** 31,
            )
            overlay.nodes[node_id] = node
            region = WORKLOAD_REGION_ORDER[int(plan.region_code[i])]
            overlay.region_of[node_id] = region
            conn = monitor.open_connection(
                float(plan.start[i]), peer_ip=peer_ip[i], region=region,
                user_agent=USER_AGENT,
                ultrapeer=bool(plan.ultrapeer[i]),
                shared_files=int(plan.lib_counts[i]),
            )
            if conn is None:
                raise AssertionError("monitor rejected a planned session")
            conn_of[node_id] = conn
            session_node[i] = node_id
            overlay.connect(node_id, MONITOR_ID)
            overlay.connect(node_id, ups[int(plan.attach_pos[i])])
            if not node.is_ultrapeer:
                table = node.build_qrp_table(QRP_LOG_SIZE)
                for neighbour_id in node.neighbours:
                    overlay.nodes[neighbour_id].install_leaf_table(
                        node_id, table
                    )
        for k in range(int(q_off[r]), int(q_off[r + 1])):
            scheduler.schedule(float(plan.query_te[k]), lambda k=k: emit(k))
        scheduler.run(max_events=10 ** 9)
        for i in dep_order[dep_off[r]: dep_off[r + 1]]:
            i = int(i)
            node_id = session_node[i]
            node = overlay.nodes.pop(node_id)
            for neighbour in list(node.neighbours):
                if neighbour in overlay.nodes:
                    overlay.nodes[neighbour].remove_neighbour(node_id)
            monitor.client_departed(conn_of.pop(node_id), float(plan.end_true[i]))

    records = monitor.finalize(plan.run_seconds)
    if hop1_count != plan.n_queries:
        raise AssertionError("monitor missed a hop-1 query")

    # Reassemble plan-order arrays from the monitor's session records.
    by_ip = {ip: i for i, ip in enumerate(peer_ip)}
    end_obs = np.zeros(n, dtype=np.float64)
    start_obs = np.zeros(n, dtype=np.float64)
    n_queries = np.zeros(n, dtype=np.int64)
    region_code = np.zeros(n, dtype=np.int64)
    ultrapeer = np.zeros(n, dtype=bool)
    shared = np.zeros(n, dtype=np.int64)
    hop1_parts: List[Tuple[int, List]] = []
    if len(records) != n:
        raise AssertionError("monitor session count does not match the plan")
    for record in records:
        i = by_ip[record.peer_ip]
        start_obs[i] = record.start
        end_obs[i] = record.end
        n_queries[i] = len(record.queries)
        region_code[i] = WORKLOAD_REGION_CODE[record.region]
        ultrapeer[i] = record.ultrapeer
        shared[i] = record.shared_files
        hop1_parts.append((i, list(record.queries)))
    hop1_parts.sort(key=lambda item: item[0])
    h_sess = np.concatenate(
        [np.full(len(qs), i, dtype=np.int64) for i, qs in hop1_parts]
    ) if hop1_parts else np.zeros(0, dtype=np.int64)
    h_time = np.asarray(
        [q.timestamp for _, qs in hop1_parts for q in qs], dtype=np.float64
    )
    h_kw = [q.keywords for _, qs in hop1_parts for q in qs]
    if h_kw:
        kw_mask, h_code = sorted_lookup(
            plan.vocab, np.asarray(h_kw, dtype=np.str_)
        )
        if not kw_mask.all():
            raise AssertionError("monitor recorded an unknown keyword")
    else:
        h_code = np.zeros(0, dtype=np.int64)

    result = OverlayRunResult(
        run_seconds=plan.run_seconds,
        n_rounds=plan.n_rounds, peers_simulated=base + n,
        messages_total=int(msgs.sum()),
        query_messages=msgs, query_hits=hits,
        query_reach=np.bincount(
            np.asarray([k for k, _ in reach_min], dtype=np.int64),
            minlength=plan.n_queries,
        ).astype(np.int64) if reach_min else np.zeros(
            plan.n_queries, dtype=np.int64
        ),
        hop1_session=h_sess, hop1_time=h_time, hop1_code=h_code,
        session_start=start_obs, session_end_observed=end_obs,
        session_n_queries=n_queries, session_region=region_code,
        session_ultrapeer=ultrapeer, session_shared_files=shared,
        keepalive_pings=monitor.keepalive_pings_sent,
        keepalive_pongs=monitor.keepalive_pongs_received,
    )
    if record_reach:
        triples = np.asarray(
            [(k, node, depth) for (k, node), depth in reach_min.items()],
            dtype=np.int64,
        ).reshape(-1, 3)
        order = np.lexsort((triples[:, 1], triples[:, 0]))
        result.reach_query = triples[order, 0]
        result.reach_node = triples[order, 1]
        result.reach_depth = triples[order, 2]
    return result


def flood_context_from_overlay(
    overlay: OverlayNetwork,
    extra_vocab: Sequence[str] = (),
    log_size: int = 12,
    capacity: Optional[int] = None,
) -> Tuple[FloodContext, List[str]]:
    """A :class:`FloodContext` over a scalar overlay's current state.

    The vocabulary is the union of every node's library with
    ``extra_vocab`` (include the query texts you intend to flood).
    Returns ``(context, node_ids)`` with the same index mapping as
    :func:`~gnutella_reference.backbone.from_overlay`.
    """
    topo, node_ids = from_overlay(overlay, capacity=capacity)
    words = {w for node in overlay.nodes.values() for w in node.library}
    words.update(str(w).lower() for w in extra_vocab)
    vocab = np.unique(np.asarray(sorted(words), dtype=np.str_))
    rows, codes, is_leaf = library_entries(overlay, node_ids, vocab)
    return _flood_context(topo, vocab, rows, codes, is_leaf, log_size), node_ids


# ---------------------------------------------------------------------------
# The scalar Fig. 12 generator
# ---------------------------------------------------------------------------


class EventWorkloadGenerator:
    """The Figure 12 algorithm one session and one draw at a time.

    Same model, universe and parameters as
    :class:`~repro.core.generator.SyntheticWorkloadGenerator`; the draws
    come in per-session order from one ``default_rng(seed)`` stream, so
    a fixed seed gives a different realization of the same law than the
    columnar generator.
    """

    def __init__(
        self,
        model: Optional[WorkloadModel] = None,
        universe: Optional[QueryUniverse] = None,
        n_peers: int = 200,
        seed: int = 42,
        max_session_seconds: float = 40 * _SECONDS_PER_DAY,
    ):
        if n_peers < 1:
            raise ValueError(f"n_peers must be >= 1, got {n_peers}")
        if max_session_seconds <= 0:
            raise ValueError("max_session_seconds must be positive")
        self.model = model or WorkloadModel.paper()
        self.universe = universe or QueryUniverse()
        self.n_peers = n_peers
        self.max_session_seconds = float(max_session_seconds)
        self._rng = np.random.default_rng(seed)
        # Per-hour cumulative region weights (Fig. 1), precomputed once.
        self._region_cum = major_region_cum(self.model)

    # -- single session -----------------------------------------------------

    def generate_session(self, start_time: float) -> GeneratedSession:
        """Generate one peer session starting at ``start_time``."""
        rng = self._rng
        hour = hour_of_day(start_time)
        region = self._choose_region(hour)
        # Step 2: passive vs. active, conditioned on region (and hour).
        if rng.random() < self.model.passive_fraction(region, hour):
            duration = self._bounded(self.model.passive_duration(region, is_peak_hour(region, start_time)).sample(rng))
            return GeneratedSession(region=region, start=start_time, duration=duration, passive=True)
        return self._generate_active(region, start_time)

    def _generate_active(self, region: Region, start_time: float) -> GeneratedSession:
        rng = self._rng
        peak = is_peak_hour(region, start_time)
        # Step 4a: number of queries (ceil of the continuous lognormal).
        n_queries = max(1, int(math.ceil(self.model.queries_per_session(region).sample(rng))))
        # Step 4b: time until the first query.
        t_first = self._bounded(self.model.first_query(region, peak, n_queries).sample(rng))
        offsets: List[float] = [t_first]
        # Step 4c(i): interarrival gaps between successive queries.
        for _ in range(n_queries - 1):
            gap = self._bounded(self.model.interarrival(region, peak, n_queries).sample(rng))
            offsets.append(offsets[-1] + gap)
        # Step 4d: time after the last query.
        t_after = self._bounded(self.model.last_query(region, peak, n_queries).sample(rng))
        duration = min(offsets[-1] + t_after, self.max_session_seconds)
        offsets = [min(o, duration) for o in offsets]
        day = int((start_time + offsets[0]) // _SECONDS_PER_DAY)
        queries: List[GeneratedQuery] = []
        for offset in offsets:
            # Steps 4c(ii)-(iii): query class, then rank within the class.
            sampled = self.universe.sample(rng, day=day, region=region)
            queries.append(
                GeneratedQuery(
                    offset=offset,
                    keywords=sampled.keywords,
                    rank=sampled.rank,
                    query_class=sampled.query_class.value,
                )
            )
        return GeneratedSession(
            region=region, start=start_time, duration=duration, passive=False, queries=queries
        )

    # -- steady-state stream -------------------------------------------------

    def iter_sessions(self, duration_seconds: float, start_time: float = 0.0) -> Iterator[GeneratedSession]:
        """Stream sessions from ``n_peers`` steady-state peer slots.

        Each slot runs sessions back to back (a finished peer is replaced
        immediately, per Section 4.7).  Sessions are yielded in start-time
        order; generation stops once every slot has passed
        ``start_time + duration_seconds``.
        """
        if duration_seconds <= 0:
            raise ValueError("duration_seconds must be positive")
        end_time = start_time + duration_seconds
        # (next_session_start, slot_id) priority queue.
        slots = [(start_time, i) for i in range(self.n_peers)]
        heapq.heapify(slots)
        while slots:
            t, slot = heapq.heappop(slots)
            if t >= end_time:
                continue
            session = self.generate_session(t)
            yield session
            heapq.heappush(slots, (session.end, slot))

    # -- helpers ---------------------------------------------------------------

    def _choose_region(self, hour: int) -> Region:
        """Step 1: region choice conditioned on time of day (Fig. 1).

        The OTHER share is folded into the three characterized regions,
        since the paper's model covers only those (Section 4.1); the
        per-hour cumulative weights are precomputed at construction.
        """
        index = int(np.searchsorted(self._region_cum[hour], self._rng.random(), side="right"))
        return MAJOR_REGIONS[min(index, len(MAJOR_REGIONS) - 1)]

    def _bounded(self, value: float) -> float:
        return float(min(max(value, 0.0), self.max_session_seconds))


def columnar_from_sessions(sessions) -> ColumnarWorkload:
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
    return ColumnarWorkload(
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
# The event synthesizer
# ---------------------------------------------------------------------------


def synthesize_event(
    config: SynthesisConfig, population: Optional[PeerPopulation] = None
) -> Trace:
    """The whole window as one shard through the per-event engine.

    Wired by the one-shard synthesizer's own
    :func:`~repro.synthesis.columnar_engine.shard_wiring` (same seed
    streams, model, universe and population), whatever ``config.jobs``
    asks for.  A fixed seed gives a different, equally distributed
    realization from the columnar engine's: the two consume their RNG
    streams in different orders.
    """
    engine = EventShardEngine(config, *shard_wiring(config, 1, 0, population))
    trace = engine.run(0.0, config.end_time)
    _finalize_counters(trace)
    return trace


class EventShardEngine:
    """Event-driven synthesis of one time shard.

    Owns connections *arriving* in ``[start, end)``; their sessions may
    extend beyond ``end`` up to the global trace end, where the monitor's
    finalization truncates them.
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
        monitor = MeasurementNode(max_slots=None)
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
