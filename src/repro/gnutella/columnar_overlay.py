"""Delta-stepped batched columnar overlay engine.

The scalar overlay (:mod:`repro.gnutella.overlay` /
:mod:`repro.gnutella.livesim`) delivers one message per scheduler
callback, which caps it at toy populations.  This module simulates the
same ultrapeer/leaf protocol as array programs over the
:class:`~repro.gnutella.topology.CSRTopology` adjacency:

* query flooding is frontier expansion -- one segmented gather/scatter
  over neighbour lists per TTL ring, duplicate-GUID suppression via
  sorted set-membership kernels, vectorized hop accounting;
* QRP leaf forwarding is resolved analytically after the ultrapeer BFS
  from per-keyword-code postings of the packed tables
  (:class:`~repro.gnutella.qrp.PackedQRPTables` bit semantics);
* QUERYHIT reverse routing is a depth sum (the reverse path of an
  answerer at BFS depth ``d`` is exactly ``d`` messages long);
* churn is delta-stepped: sessions connect at the round of their start
  and disconnect at the end of the round of their end, so the round
  width ``delta_seconds`` is part of the simulation's identity.

``backend="event"`` runs the *same* plan through the real
:class:`~repro.gnutella.peer.PeerNode` machinery with zero link latency
(floods complete instantaneously in virtual time, which makes delivery
a strict BFS) and the real :class:`~repro.measurement.MeasurementNode`.
The two backends are held to identical monitor-observed hop-1 query
streams, reach sets/TTL horizons, per-query message and hit counts,
reconstructed sessions, and keep-alive totals by
:func:`compare_runs` -- the equivalence battery CI enforces.

All array work dispatches through :mod:`repro.core.kernels`; query
batches shard over workers via ``pool_map`` with byte-identical output
for any ``jobs`` (floods are independent per query).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.generator_columnar import (
    WORKLOAD_REGION_CODE,
    WORKLOAD_REGION_ORDER,
    ColumnarWorkload,
)
from repro.core.kernels import (
    isin_sorted,
    merge_unique,
    pool_map,
    resolve_workers,
    segmented_arange,
    sorted_lookup,
    unique_first,
    unique_sorted,
)
from repro.core.parameters import IDLE_CLOSE_SECONDS, IDLE_PROBE_SECONDS
from repro.core.regions import Region
from repro.measurement import MeasurementNode

from .messages import Query, QueryHit
from .overlay import OverlayNetwork
from .peer import PeerMode, PeerNode
from .qrp import text_hash_table
from .simulator import EventScheduler
from .topology import CSRTopology

__all__ = [
    "ENGINE_BACKENDS",
    "MONITOR_ID",
    "FloodContext",
    "FloodResult",
    "OverlayConfig",
    "OverlayRunResult",
    "compare_runs",
    "flood_context_from_overlay",
    "flood_queries",
    "simulate_workload",
]

ENGINE_BACKENDS = ("columnar", "event")

MONITOR_ID = "monitor"
MONITOR_IP = "129.217.1.1"

#: Queries per worker task: the unit ``jobs`` fans out.  A task's
#: memory is bounded by ``FLOOD_ROWS``, not by this size.
QUERIES_PER_TASK = 512

#: (query, active ultrapeer) rows one flood sub-batch may span: a task
#: floods ``FLOOD_ROWS // active ultrapeers`` queries at a time (at
#: least one), so the frontier arrays stay about the same size as the
#: population grows (about 68 queries per sub-batch at 3k steady-state
#: peers, 21 at 10k).
FLOOD_ROWS = 1 << 15


@dataclass(frozen=True)
class OverlayConfig:
    """Shared knobs of one overlay simulation (both backends)."""

    n_backbone_ultrapeers: int = 24
    n_backbone_leaves: int = 48
    ultrapeer_degree: int = 6
    leaf_attachments: int = 2
    monitor_links: int = 6
    delta_seconds: float = 30.0
    ttl: int = 4
    churn_ultrapeer_prob: float = 0.15
    mean_library_files: float = 8.0
    qrp_log_size: int = 12
    user_agent: str = "repro-sim/1.0"
    seed: int = 11


# ---------------------------------------------------------------------------
# Flood context: topology + QRP postings + holder postings
# ---------------------------------------------------------------------------


@dataclass
class FloodContext:
    """Everything one batched flood needs besides the origins.

    ``matched_*`` is a per-keyword-code CSR of the leaf rows whose QRP
    table passes ``might_match`` for that code (bit-exact with the
    scalar tables, false positives included); ``holder_*`` is a
    per-code CSR of every node row whose library contains the code
    (the exact-match answer set of ``PeerNode._matches``).
    """

    topo: CSRTopology
    vocab: np.ndarray
    matched_offsets: np.ndarray
    matched_counts: np.ndarray
    matched_flat: np.ndarray
    holder_offsets: np.ndarray
    holder_counts: np.ndarray
    holder_flat: np.ndarray

    def codes_for(self, texts: Sequence[str]) -> np.ndarray:
        """Vocabulary codes of query texts (must all be in ``vocab``)."""
        values = np.char.lower(np.asarray(list(texts), dtype=np.str_))
        if values.size == 0:
            return np.zeros(0, dtype=np.int64)
        mask, idx = sorted_lookup(self.vocab, values)
        if not mask.all():
            raise ValueError("query text missing from the flood vocabulary")
        return idx


@dataclass
class FloodResult:
    """Per-query outcome of one batched flood."""

    messages: np.ndarray
    hits: np.ndarray
    reach: np.ndarray
    #: Only with ``record_reach``: flat (query, node, depth) triples
    #: sorted by (query, node) -- the TTL-horizon ground truth.
    reach_query: Optional[np.ndarray] = None
    reach_node: Optional[np.ndarray] = None
    reach_depth: Optional[np.ndarray] = None


def _csr_take(
    indptr: np.ndarray, indices: np.ndarray, nodes: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Concatenated neighbour lists of ``nodes`` and their counts."""
    counts = indptr[nodes + 1] - indptr[nodes]
    take = np.repeat(indptr[nodes], counts) + segmented_arange(counts)
    return indices[take], counts


def _code_csr(pairs_code: np.ndarray, pairs_row: np.ndarray, n_codes: int, cap: int):
    """(code, row) pairs -> per-code sorted unique row CSR."""
    if pairs_code.size:
        keys = unique_sorted(pairs_code * np.int64(cap) + pairs_row)
        counts = np.bincount(keys // cap, minlength=n_codes).astype(np.int64)
        flat = (keys % cap).astype(np.int64)
    else:
        counts = np.zeros(n_codes, dtype=np.int64)
        flat = np.zeros(0, dtype=np.int64)
    offsets = np.zeros(n_codes + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return offsets[:-1], counts, flat


def _build_flood_tables(
    vocab: np.ndarray,
    leaf_rows: np.ndarray,
    leaf_codes: np.ndarray,
    holder_rows: np.ndarray,
    holder_codes: np.ndarray,
    cap: int,
    log_size: int,
    used_codes: Optional[np.ndarray] = None,
):
    """Build the matched-leaf and holder CSRs of a :class:`FloodContext`.

    ``(leaf_rows[i], leaf_codes[i])`` enumerates leaf library entries
    (the QRP table contents); ``holder_*`` enumerates every node's
    library entries (the exact-match side).  ``used_codes`` restricts
    the (quadratic-ish) matched-leaf precomputation to codes actually
    queried.
    """
    n_codes = int(vocab.size)
    # Per-code keyword hash sets (CSR over the vocabulary).
    vhash, vcnt = text_hash_table([str(w) for w in vocab], log_size)
    voff = np.zeros(n_codes + 1, dtype=np.int64)
    np.cumsum(vcnt, out=voff[1:])

    # Leaf QRP bit postings: hash slot -> sorted leaf rows with that bit
    # set.  The bits are exactly the union of each leaf's library
    # keyword hashes, so postings reproduce the packed tables.
    size = 1 << log_size
    hcnt = vcnt[leaf_codes]
    hrows = np.repeat(leaf_rows, hcnt)
    hvals = vhash[np.repeat(voff[leaf_codes], hcnt) + segmented_arange(hcnt)]
    post_off, _, post_flat = _code_csr(hvals, hrows, size, cap)
    post_end = np.concatenate([post_off[1:], [np.int64(post_flat.size)]])

    # might_match(code) = intersection of the postings of its hashes;
    # zero-keyword codes never match (empty queries are not forwarded).
    if used_codes is None:
        used_codes = np.arange(n_codes, dtype=np.int64)
    m_counts = np.zeros(n_codes, dtype=np.int64)
    parts: List[np.ndarray] = []
    for c in np.asarray(used_codes, dtype=np.int64):
        cnt = int(vcnt[c])
        if cnt == 0:
            continue
        hs = vhash[voff[c]: voff[c] + cnt]
        rows = post_flat[post_off[hs[0]]: post_end[hs[0]]]
        for h in hs[1:]:
            if rows.size == 0:
                break
            rows = rows[isin_sorted(post_flat[post_off[h]: post_end[h]], rows)]
        if rows.size:
            m_counts[c] = rows.size
            parts.append(rows)
    m_flat = (
        np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)
    )
    m_off = np.zeros(n_codes + 1, dtype=np.int64)
    np.cumsum(m_counts, out=m_off[1:])

    h_off, h_counts, h_flat = _code_csr(holder_codes, holder_rows, n_codes, cap)
    return (m_off[:-1], m_counts, m_flat), (h_off, h_counts, h_flat)


def _library_codes(vocab: np.ndarray, library) -> np.ndarray:
    """Vocabulary codes of one node's library set (all must resolve)."""
    if not library:
        return np.zeros(0, dtype=np.int64)
    values = np.asarray(sorted(library), dtype=np.str_)
    mask, idx = sorted_lookup(vocab, values)
    if not mask.all():
        raise ValueError("library entry missing from the flood vocabulary")
    return idx


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
    :meth:`CSRTopology.from_overlay`.
    """
    topo, node_ids = CSRTopology.from_overlay(overlay, capacity=capacity)
    words = {w for node in overlay.nodes.values() for w in node.library}
    words.update(str(w).lower() for w in extra_vocab)
    vocab = np.unique(np.asarray(sorted(words), dtype=np.str_))
    leaf_rows, leaf_codes, holder_rows, holder_codes = [], [], [], []
    for row, node_id in enumerate(node_ids):
        node = overlay.nodes[node_id]
        codes = _library_codes(vocab, node.library)
        if codes.size:
            holder_rows.append(np.full(codes.size, row, dtype=np.int64))
            holder_codes.append(codes)
            if not node.is_ultrapeer:
                leaf_rows.append(np.full(codes.size, row, dtype=np.int64))
                leaf_codes.append(codes)

    def _cat(parts):
        return (
            np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)
        )

    matched, holders = _build_flood_tables(
        vocab, _cat(leaf_rows), _cat(leaf_codes),
        _cat(holder_rows), _cat(holder_codes), topo.capacity, log_size,
    )
    return FloodContext(topo, vocab, *matched, *holders), node_ids


# ---------------------------------------------------------------------------
# The batched flood kernel
# ---------------------------------------------------------------------------


def _stack_floods(parts, bounds, record_reach: bool) -> Tuple[np.ndarray, ...]:
    """Concatenate per-batch flood outputs; reach query ids shift by ``bounds``."""
    msgs, hits, reach = (np.concatenate([p[i] for p in parts]) for i in range(3))
    if not record_reach:
        return msgs, hits, reach, None, None, None
    rq = np.concatenate([p[3] + lo for p, lo in zip(parts, bounds)])
    rn = np.concatenate([p[4] for p in parts])
    rd = np.concatenate([p[5] for p in parts])
    return msgs, hits, reach, rq, rn, rd


def _flood_chunk(task) -> Tuple[np.ndarray, ...]:
    """Flood one task's queries, ``batch`` at a time; pure function of ``task``.

    Sub-batches bound the working set; floods are independent per
    query, so the split cannot change any output.
    """
    graph, origins, codes, batch, record_reach = task
    bounds = range(0, max(origins.size, 1), batch)
    parts = [
        _flood_batch(graph, origins[lo: lo + batch], codes[lo: lo + batch],
                     record_reach)
        for lo in bounds
    ]
    return _stack_floods(parts, bounds, record_reach)


def _flood_batch(graph, origins, codes, record_reach) -> Tuple[np.ndarray, ...]:
    """Flood one batch of queries through ``graph`` (see ``flood_queries``)."""
    (cap, indptr, indices, up_indptr, up_indices, is_up, ttl,
     m_off, m_cnt, m_flat, h_off, h_cnt, h_flat) = graph
    capi = np.int64(cap)
    nq = origins.size
    qids = np.arange(nq, dtype=np.int64)
    msgs = np.zeros(nq, dtype=np.int64)
    hits = np.zeros(nq, dtype=np.int64)

    # Ring 1: origination sends one copy to *every* neighbour (leaves
    # included -- no QRP filter at the origin, per PeerNode.originate).
    nbr1, deg1 = _csr_take(indptr, indices, origins)
    msgs += deg1
    q1 = np.repeat(qids, deg1)
    leaf1 = ~is_up[nbr1]
    dleaf_q, dleaf = q1[leaf1], nbr1[leaf1]
    fq, fn = q1[~leaf1], nbr1[~leaf1]
    fsend = origins[fq]

    chunks_q = [qids]
    chunks_n = [origins.astype(np.int64)]
    chunks_d = [np.zeros(nq, dtype=np.int64)]
    if fq.size:
        chunks_q.append(fq)
        chunks_n.append(fn)
        chunks_d.append(np.ones(fq.size, dtype=np.int64))
    visited = np.sort(np.concatenate([qids * capi + origins, fq * capi + fn]),
                      kind="stable")

    # Rings 2..ttl: each depth-d ultrapeer (d < ttl) forwards to every
    # ultrapeer neighbour except its first sender; copies to already-
    # visited nodes are sent (and counted) but dropped as duplicates.
    for depth in range(1, int(ttl)):
        if fq.size == 0:
            break
        cn, cdeg = _csr_take(up_indptr, up_indices, fn)
        cq = np.repeat(fq, cdeg)
        cex = np.repeat(fn, cdeg)
        keep = cn != np.repeat(fsend, cdeg)
        cq, cn, cex = cq[keep], cn[keep], cex[keep]
        msgs += np.bincount(cq, minlength=nq).astype(np.int64)
        keys = cq * capi + cn
        uniq, first = unique_first(keys)
        fresh = ~isin_sorted(visited, uniq)
        new_keys = uniq[fresh]
        fsend = cex[first][fresh]
        fq = new_keys // capi
        fn = new_keys % capi
        visited = merge_unique(visited, new_keys)
        if fq.size:
            chunks_q.append(fq)
            chunks_n.append(fn)
            chunks_d.append(np.full(fq.size, depth + 1, dtype=np.int64))

    vq = np.concatenate(chunks_q)
    vn = np.concatenate(chunks_n)
    vd = np.concatenate(chunks_d)
    vkeys = vq * capi + vn
    vorder = np.argsort(vkeys, kind="stable")
    vkeys_s, vdepth_s = vkeys[vorder], vd[vorder]

    # Forwarders: visited ultrapeers still forwardable (depth < ttl).
    fmask = (vd >= 1) & (vd <= ttl - 1) & is_up[vn]
    forder = np.argsort(vkeys[fmask], kind="stable")
    fkeys = vkeys[fmask][forder]
    fdep = vd[fmask][forder]

    # QRP leaf forwarding, resolved analytically: a matched leaf gets
    # one copy per adjacent forwarder.  (Forwarders adjacent to a leaf
    # origin always have it as their first sender, so dropping the
    # origin row loses no copies.)
    mcnt = m_cnt[codes]
    mq = np.repeat(qids, mcnt)
    ml = m_flat[np.repeat(m_off[codes], mcnt) + segmented_arange(mcnt)]
    keepm = ml != origins[mq]
    mq, ml = mq[keepm], ml[keepm]
    lnbr, ldeg = _csr_take(indptr, indices, ml)
    pid = np.repeat(np.arange(mq.size, dtype=np.int64), ldeg)
    pq = np.repeat(mq, ldeg)
    mem, loc = sorted_lookup(fkeys, pq * capi + lnbr)
    mem &= is_up[lnbr]
    msgs += np.bincount(pq[mem], minlength=nq).astype(np.int64)
    nfwd = np.bincount(pid[mem], minlength=mq.size)
    mind = np.full(mq.size, np.iinfo(np.int64).max, dtype=np.int64)
    np.minimum.at(mind, pid[mem], fdep[loc[mem]])
    reached = nfwd > 0

    # Leaf reach set with first-arrival depth (direct leaves at depth
    # 1; matched leaves one past their nearest forwarder; min on ties).
    lr_q = np.concatenate([dleaf_q, mq[reached]])
    lr_n = np.concatenate([dleaf, ml[reached]])
    lr_d = np.concatenate(
        [np.ones(dleaf_q.size, dtype=np.int64), mind[reached] + 1]
    )
    lkeys = lr_q * capi + lr_n
    lorder = np.lexsort((lr_d, lkeys))
    lkeys, lr_d = lkeys[lorder], lr_d[lorder]
    first_of = np.ones(lkeys.size, dtype=bool)
    first_of[1:] = lkeys[1:] != lkeys[:-1]
    lkeys, lr_d = lkeys[first_of], lr_d[first_of]

    # Hits: every reached holder answers once; the QUERYHIT retraces
    # the forward path, costing depth(answerer) messages.
    hcnt = h_cnt[codes]
    hq = np.repeat(qids, hcnt)
    hn = h_flat[np.repeat(h_off[codes], hcnt) + segmented_arange(hcnt)]
    keeph = hn != origins[hq]
    hq, hn = hq[keeph], hn[keeph]
    hkeys = hq * capi + hn
    mem_u, loc_u = sorted_lookup(vkeys_s, hkeys)
    mem_l, loc_l = sorted_lookup(lkeys, hkeys)
    answered = mem_u | mem_l
    hits += np.bincount(hq[answered], minlength=nq).astype(np.int64)
    hdep = np.zeros(hq.size, dtype=np.int64)
    hdep[mem_u] = vdepth_s[loc_u[mem_u]]
    only_leaf = ~mem_u & mem_l
    hdep[only_leaf] = lr_d[loc_l[only_leaf]]
    msgs += np.bincount(hq, weights=hdep, minlength=nq).astype(np.int64)

    reach = (
        np.bincount(vq, minlength=nq) + np.bincount(lkeys // capi, minlength=nq)
    ).astype(np.int64)
    if not record_reach:
        return msgs, hits, reach, None, None, None
    rq = np.concatenate([vq, lkeys // capi])
    rn = np.concatenate([vn, lkeys % capi])
    rd = np.concatenate([vd, lr_d])
    rorder = np.lexsort((rn, rq))
    return msgs, hits, reach, rq[rorder], rn[rorder], rd[rorder]


def flood_queries(
    ctx: FloodContext,
    origins: np.ndarray,
    codes: np.ndarray,
    ttl: int = 4,
    jobs: int = 1,
    record_reach: bool = False,
) -> FloodResult:
    """Flood a batch of queries; byte-identical for any ``jobs``.

    ``origins[i]`` (a node index) floods vocabulary code ``codes[i]``.
    Floods are independent per query, so sharding the batch over
    workers (``QUERIES_PER_TASK`` per task) and each task into
    sub-batches (``FLOOD_ROWS`` budget) cannot change any output.
    """
    if ttl < 1:
        raise ValueError(f"ttl must be >= 1, got {ttl}")
    origins = np.asarray(origins, dtype=np.int64)
    codes = np.asarray(codes, dtype=np.int64)
    if origins.shape != codes.shape:
        raise ValueError("origins and codes must have matching shapes")
    topo = ctx.topo
    indptr, indices = topo.csr()
    up_mask = topo.is_ultrapeer[indices]
    src = np.repeat(
        np.arange(topo.capacity, dtype=np.int64), np.diff(indptr)
    )
    up_counts = np.bincount(src[up_mask], minlength=topo.capacity)
    up_indptr = np.zeros(topo.capacity + 1, dtype=np.int64)
    np.cumsum(up_counts, out=up_indptr[1:])
    up_indices = indices[up_mask]

    graph = (
        topo.capacity, indptr, indices, up_indptr, up_indices,
        topo.is_ultrapeer, int(ttl),
        ctx.matched_offsets, ctx.matched_counts, ctx.matched_flat,
        ctx.holder_offsets, ctx.holder_counts, ctx.holder_flat,
    )
    n_up = int(np.count_nonzero(topo.is_ultrapeer & topo.active))
    batch = max(1, FLOOD_ROWS // max(n_up, 1))
    bounds = range(0, max(origins.size, 1), QUERIES_PER_TASK)
    tasks = [
        (graph, origins[lo: lo + QUERIES_PER_TASK],
         codes[lo: lo + QUERIES_PER_TASK], batch, record_reach)
        for lo in bounds
    ]
    workers = resolve_workers(jobs, len(tasks))
    parts = pool_map(_flood_chunk, tasks, workers)
    msgs, hits, reach, rq, rn, rd = _stack_floods(parts, bounds, record_reach)
    return FloodResult(
        messages=msgs, hits=hits, reach=reach,
        reach_query=rq, reach_node=rn, reach_depth=rd,
    )


# ---------------------------------------------------------------------------
# The shared churn plan
# ---------------------------------------------------------------------------


@dataclass
class OverlayPlan:
    """The seeded churn/query plan both backends consume verbatim.

    Every random draw happens here, once -- attachment ultrapeers,
    churn-peer modes, library contents -- so the backends cannot drift
    through RNG consumption order.  Sessions are the workload's rows
    with ``start <= run_seconds``; queries those with ``te <=
    run_seconds``, sorted by (round, workload row).
    """

    run_seconds: float
    delta: float
    n_rounds: int
    vocab: np.ndarray
    # sessions
    session_rows: np.ndarray
    start: np.ndarray
    end_true: np.ndarray
    departs: np.ndarray
    first_round: np.ndarray
    last_round: np.ndarray
    ultrapeer: np.ndarray
    attach_pos: np.ndarray
    region_code: np.ndarray
    lib_counts: np.ndarray
    lib_offsets: np.ndarray
    lib_codes: np.ndarray
    # queries (round-sorted)
    query_rows: np.ndarray
    query_session: np.ndarray
    query_te: np.ndarray
    query_code: np.ndarray
    query_round: np.ndarray

    @property
    def n_sessions(self) -> int:
        return int(self.start.size)

    @property
    def n_queries(self) -> int:
        return int(self.query_te.size)

    def session_lib_codes(self, i: int) -> np.ndarray:
        lo = self.lib_offsets[i]
        return self.lib_codes[lo: lo + self.lib_counts[i]]


def _plan_churn(
    workload: ColumnarWorkload,
    run_seconds: float,
    config: OverlayConfig,
    vocab: np.ndarray,
    n_attach_ups: int,
) -> OverlayPlan:
    """Derive the shared plan from the workload (one RNG, consumed once)."""
    delta = float(config.delta_seconds)
    if delta <= 0:
        raise ValueError("delta_seconds must be positive")
    n_rounds = int(np.floor(run_seconds / delta)) + 1
    rng = np.random.default_rng(config.seed + 9)

    keep = workload.session_start <= run_seconds
    rows = np.flatnonzero(keep).astype(np.int64)
    start = workload.session_start[rows].astype(np.float64)
    duration = workload.session_duration[rows].astype(np.float64)
    end_true = start + duration
    departs = end_true <= run_seconds
    first_round = np.floor(start / delta).astype(np.int64)
    last_round = np.minimum(
        np.floor(end_true / delta).astype(np.int64), n_rounds - 1
    )
    n = rows.size

    attach_pos = rng.integers(0, max(n_attach_ups, 1), size=n)
    ultrapeer = rng.random(n) < config.churn_ultrapeer_prob
    if vocab.size:
        want = rng.poisson(config.mean_library_files, size=n).astype(np.int64)
        total = int(want.sum())
        draws = rng.integers(0, vocab.size, size=total)
        owner = np.repeat(np.arange(n, dtype=np.int64), want)
        keys = unique_sorted(owner * np.int64(vocab.size) + draws)
        lib_counts = np.bincount(keys // vocab.size, minlength=n).astype(np.int64)
        lib_codes = (keys % vocab.size).astype(np.int64)
    else:
        lib_counts = np.zeros(n, dtype=np.int64)
        lib_codes = np.zeros(0, dtype=np.int64)
    lib_offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lib_counts, out=lib_offsets[1:])

    # Queries: resolve emission times and vocabulary codes, then order
    # by round (stable, so workload row order survives within a round).
    q_keep = keep[workload.query_session]
    q_rows = np.flatnonzero(q_keep).astype(np.int64)
    sess_index = np.full(workload.n_sessions, -1, dtype=np.int64)
    sess_index[rows] = np.arange(n, dtype=np.int64)
    q_sess = sess_index[workload.query_session[q_rows]]
    q_te = start[q_sess] + workload.query_offset[q_rows].astype(np.float64)
    in_run = q_te <= run_seconds
    q_rows, q_sess, q_te = q_rows[in_run], q_sess[in_run], q_te[in_run]
    if q_rows.size:
        texts = np.char.lower(workload.query_keywords[q_rows].astype(np.str_))
        mask, q_code = sorted_lookup(vocab, texts)
        if not mask.all():
            raise ValueError("query keywords missing from the plan vocabulary")
    else:
        q_code = np.zeros(0, dtype=np.int64)
    q_round = np.minimum(
        np.floor(q_te / delta).astype(np.int64), n_rounds - 1
    )
    order = np.argsort(q_round, kind="stable")
    return OverlayPlan(
        run_seconds=float(run_seconds), delta=delta, n_rounds=n_rounds,
        vocab=vocab, session_rows=rows, start=start, end_true=end_true,
        departs=departs, first_round=first_round, last_round=last_round,
        ultrapeer=ultrapeer, attach_pos=attach_pos.astype(np.int64),
        region_code=workload.session_region[rows].astype(np.int64),
        lib_counts=lib_counts,
        lib_offsets=lib_offsets[:-1], lib_codes=lib_codes,
        query_rows=q_rows[order], query_session=q_sess[order],
        query_te=q_te[order], query_code=q_code[order],
        query_round=q_round[order],
    )


def _build_backbone(
    config: OverlayConfig, vocab: np.ndarray
) -> Tuple[OverlayNetwork, List[str]]:
    """The static backbone + monitor, shared by both backends.

    Zero link latency makes event-backend floods strict BFS; connection
    caps are lifted after construction (slot pressure is not part of
    the engine's semantics).  Backbone QRP tables are rebuilt at the
    configured ``qrp_log_size`` so both backends filter identically.
    """
    overlay = OverlayNetwork(
        n_ultrapeers=config.n_backbone_ultrapeers,
        n_leaves=config.n_backbone_leaves,
        ultrapeer_degree=config.ultrapeer_degree,
        leaf_attachments=config.leaf_attachments,
        latency_ms=(0.0, 0.0),
        seed=config.seed + 1,
    )
    if vocab.size:
        overlay.seed_libraries(
            [str(w) for w in vocab], mean_files=config.mean_library_files
        )
    monitor = PeerNode(
        node_id=MONITOR_ID, ip=MONITOR_IP, mode=PeerMode.ULTRAPEER,
        max_connections=2 ** 31,
    )
    overlay.nodes[MONITOR_ID] = monitor
    overlay.region_of[MONITOR_ID] = Region.EUROPE
    ups = [
        node_id for node_id, node in overlay.nodes.items()
        if node.is_ultrapeer and node_id != MONITOR_ID
    ]
    for other in ups[: config.monitor_links]:
        overlay.connect(MONITOR_ID, other)
    for node in overlay.nodes.values():
        node.max_connections = 2 ** 31
    for node_id, node in overlay.nodes.items():
        if node.is_ultrapeer:
            continue
        table = node.build_qrp_table(config.qrp_log_size)
        for neighbour_id in node.neighbours:
            neighbour = overlay.nodes[neighbour_id]
            if neighbour.is_ultrapeer:
                neighbour.install_leaf_table(node_id, table)
    return overlay, ups


# ---------------------------------------------------------------------------
# Run results and the equivalence battery
# ---------------------------------------------------------------------------


@dataclass
class OverlayRunResult:
    """One backend's complete observable output, in plan order."""

    backend: str
    run_seconds: float
    n_rounds: int
    peers_simulated: int
    messages_total: int
    # per query (plan order)
    query_messages: np.ndarray
    query_hits: np.ndarray
    query_reach: np.ndarray
    # monitor hop-1 stream, sorted by (session, emission order)
    hop1_session: np.ndarray
    hop1_time: np.ndarray
    hop1_code: np.ndarray
    # reconstructed sessions (plan session order)
    session_start: np.ndarray
    session_end_observed: np.ndarray
    session_n_queries: np.ndarray
    session_region: np.ndarray
    session_ultrapeer: np.ndarray
    session_shared_files: np.ndarray
    keepalive_pings: int
    keepalive_pongs: int
    # optional reach triples, sorted by (query, node)
    reach_query: Optional[np.ndarray] = None
    reach_node: Optional[np.ndarray] = None
    reach_depth: Optional[np.ndarray] = None

    @property
    def n_queries(self) -> int:
        return int(self.query_messages.size)


def compare_runs(a: OverlayRunResult, b: OverlayRunResult) -> Dict[str, bool]:
    """The backend-equivalence battery: every observable must match."""
    checks = {
        "query_messages": bool(np.array_equal(a.query_messages, b.query_messages)),
        "query_hits": bool(np.array_equal(a.query_hits, b.query_hits)),
        "query_reach": bool(np.array_equal(a.query_reach, b.query_reach)),
        "messages_total": a.messages_total == b.messages_total,
        "hop1_stream": (
            np.array_equal(a.hop1_session, b.hop1_session)
            and np.array_equal(a.hop1_time, b.hop1_time)
            and np.array_equal(a.hop1_code, b.hop1_code)
        ),
        "sessions": all(
            np.array_equal(getattr(a, name), getattr(b, name))
            for name in (
                "session_start", "session_end_observed", "session_n_queries",
                "session_region", "session_ultrapeer", "session_shared_files",
            )
        ),
        "keepalives": (
            a.keepalive_pings == b.keepalive_pings
            and a.keepalive_pongs == b.keepalive_pongs
        ),
    }
    if a.reach_query is not None and b.reach_query is not None:
        checks["reach_sets"] = (
            np.array_equal(a.reach_query, b.reach_query)
            and np.array_equal(a.reach_node, b.reach_node)
            and np.array_equal(a.reach_depth, b.reach_depth)
        )
    checks["ok"] = all(checks.values())
    return checks


def _round_groups(values: np.ndarray, n_rounds: int, order: np.ndarray):
    """Per-round slices: ``order[offsets[r]:offsets[r+1]]``."""
    counts = np.bincount(values[order], minlength=n_rounds)
    offsets = np.zeros(n_rounds + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return offsets


def _hop1_order(plan: OverlayPlan) -> np.ndarray:
    """Canonical hop-1 stream order: by session, emission order within."""
    return np.argsort(plan.query_session, kind="stable")


def _session_keepalives(plan: OverlayPlan) -> Tuple[int, int]:
    """Monitor keep-alive totals from the plan's activity timeline.

    One PING/PONG exchange per full ``IDLE_PROBE_SECONDS`` of idleness
    between consecutive activity points (open, each hop-1 query, the
    depart-or-trace-end), plus the single unanswered probe per silent
    departure -- exactly ``MeasurementNode._count_keepalives``.
    """
    n = plan.n_sessions
    terminal = np.where(plan.departs, plan.end_true, plan.run_seconds)
    sids = np.concatenate([
        np.arange(n, dtype=np.int64), plan.query_session,
        np.arange(n, dtype=np.int64),
    ])
    times = np.concatenate([plan.start, plan.query_te, terminal])
    order = np.lexsort((times, sids))
    sids, times = sids[order], times[order]
    gaps = np.diff(times)
    same = sids[1:] == sids[:-1]
    idle = gaps[same & (gaps > IDLE_PROBE_SECONDS)]
    exchanges = int(np.floor(idle / IDLE_PROBE_SECONDS).sum())
    pings = exchanges + int(plan.departs.sum())
    return pings, exchanges

# ---------------------------------------------------------------------------
# Columnar backend
# ---------------------------------------------------------------------------


def _run_columnar(
    plan: OverlayPlan,
    config: OverlayConfig,
    overlay: OverlayNetwork,
    ups: List[str],
    jobs: int,
    record_reach: bool,
) -> OverlayRunResult:
    """The delta-stepped array engine over the CSR topology."""
    node_ids = sorted(overlay.nodes)
    base = len(node_ids)
    n = plan.n_sessions
    topo, _ = CSRTopology.from_overlay(overlay, capacity=base + n)
    index_of = {node_id: i for i, node_id in enumerate(node_ids)}
    monitor_idx = index_of[MONITOR_ID]
    up_idx = np.asarray([index_of[u] for u in ups], dtype=np.int64)
    sess_idx = base + np.arange(n, dtype=np.int64)

    # QRP/holder postings over the full slot space: backbone libraries
    # plus every churn session's planned library.  Static tables --
    # connectivity (the CSR) gates who can actually be reached.
    leaf_rows, leaf_codes, holder_rows, holder_codes = [], [], [], []
    for row, node_id in enumerate(node_ids):
        codes = _library_codes(plan.vocab, overlay.nodes[node_id].library)
        if codes.size:
            holder_rows.append(np.full(codes.size, row, dtype=np.int64))
            holder_codes.append(codes)
            if not overlay.nodes[node_id].is_ultrapeer:
                leaf_rows.append(np.full(codes.size, row, dtype=np.int64))
                leaf_codes.append(codes)
    if plan.lib_codes.size:
        owners = sess_idx[np.repeat(np.arange(n, dtype=np.int64), plan.lib_counts)]
        holder_rows.append(owners)
        holder_codes.append(plan.lib_codes)
        is_leaf_entry = ~plan.ultrapeer[
            np.repeat(np.arange(n, dtype=np.int64), plan.lib_counts)
        ]
        leaf_rows.append(owners[is_leaf_entry])
        leaf_codes.append(plan.lib_codes[is_leaf_entry])

    def _cat(parts):
        return np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)

    matched, holders = _build_flood_tables(
        plan.vocab, _cat(leaf_rows), _cat(leaf_codes),
        _cat(holder_rows), _cat(holder_codes), topo.capacity,
        config.qrp_log_size, used_codes=unique_sorted(plan.query_code),
    )
    ctx = FloodContext(topo, plan.vocab, *matched, *holders)

    starts_order = np.argsort(plan.first_round, kind="stable")
    starts_off = _round_groups(plan.first_round, plan.n_rounds, starts_order)
    dep_ids = np.flatnonzero(plan.departs)
    dep_order = dep_ids[np.argsort(plan.last_round[dep_ids], kind="stable")]
    dep_off = _round_groups(
        plan.last_round[dep_ids], plan.n_rounds,
        np.argsort(plan.last_round[dep_ids], kind="stable"),
    )
    q_off = np.zeros(plan.n_rounds + 1, dtype=np.int64)
    np.cumsum(
        np.bincount(plan.query_round, minlength=plan.n_rounds), out=q_off[1:]
    )

    msgs = np.zeros(plan.n_queries, dtype=np.int64)
    hits = np.zeros(plan.n_queries, dtype=np.int64)
    reach = np.zeros(plan.n_queries, dtype=np.int64)
    reach_parts: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []

    for r in range(plan.n_rounds):
        new = starts_order[starts_off[r]: starts_off[r + 1]]
        if new.size:
            topo.add_nodes(sess_idx[new], plan.ultrapeer[new])
            topo.connect(
                np.concatenate([sess_idx[new], sess_idx[new]]),
                np.concatenate([
                    np.full(new.size, monitor_idx, dtype=np.int64),
                    up_idx[plan.attach_pos[new]],
                ]),
            )
        lo, hi = int(q_off[r]), int(q_off[r + 1])
        if hi > lo:
            origins = sess_idx[plan.query_session[lo:hi]]
            if not topo.has_edges(
                origins, np.full(origins.size, monitor_idx, dtype=np.int64)
            ).all():
                raise AssertionError("query origin not adjacent to the monitor")
            out = flood_queries(
                ctx, origins, plan.query_code[lo:hi], ttl=config.ttl,
                jobs=jobs, record_reach=record_reach,
            )
            msgs[lo:hi] = out.messages
            hits[lo:hi] = out.hits
            reach[lo:hi] = out.reach
            if record_reach:
                reach_parts.append(
                    (out.reach_query + lo, out.reach_node, out.reach_depth)
                )
        gone = dep_order[dep_off[r]: dep_off[r + 1]]
        if gone.size:
            topo.remove_nodes(sess_idx[gone])

    # Monitor-side reducers: hop-1 capture is total by construction
    # (every session keeps its monitor link for its whole lifetime);
    # session reconstruction applies the idle-detection overshoot.
    # The overshoot is added in MeasurementNode.client_departed's float
    # order, (end + probe) + close, so both engines round alike.
    h_order = _hop1_order(plan)
    end_obs = np.where(
        plan.departs,
        plan.end_true + IDLE_PROBE_SECONDS + IDLE_CLOSE_SECONDS,
        plan.run_seconds,
    )
    n_queries = np.bincount(plan.query_session, minlength=n).astype(np.int64)
    pings, pongs = _session_keepalives(plan)

    result = OverlayRunResult(
        backend="columnar", run_seconds=plan.run_seconds,
        n_rounds=plan.n_rounds, peers_simulated=base + n,
        messages_total=int(msgs.sum()),
        query_messages=msgs, query_hits=hits, query_reach=reach,
        hop1_session=plan.query_session[h_order],
        hop1_time=plan.query_te[h_order],
        hop1_code=plan.query_code[h_order],
        session_start=plan.start, session_end_observed=end_obs,
        session_n_queries=n_queries, session_region=plan.region_code,
        session_ultrapeer=plan.ultrapeer,
        session_shared_files=plan.lib_counts,
        keepalive_pings=pings, keepalive_pongs=pongs,
    )
    if record_reach:
        result.reach_query = _cat([p[0] for p in reach_parts])
        result.reach_node = _cat([p[1] for p in reach_parts])
        result.reach_depth = _cat([p[2] for p in reach_parts])
    return result


# ---------------------------------------------------------------------------
# Event reference backend
# ---------------------------------------------------------------------------


def _run_event(
    plan: OverlayPlan,
    config: OverlayConfig,
    overlay: OverlayNetwork,
    ups: List[str],
    record_reach: bool,
) -> OverlayRunResult:
    """The same plan through real PeerNode/EventScheduler machinery.

    Rounds are driven procedurally (connect batch, flood the round's
    queries through the scheduler, disconnect batch); only the floods
    themselves are event-driven.  Zero latency makes delivery strict
    BFS, which is what the columnar engine computes directly.
    """
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
                str(plan.vocab[c]) for c in plan.session_lib_codes(i)
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
                user_agent=config.user_agent,
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
                table = node.build_qrp_table(config.qrp_log_size)
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
        backend="event", run_seconds=plan.run_seconds,
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


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def simulate_workload(
    workload: ColumnarWorkload,
    run_seconds: float,
    config: Optional[OverlayConfig] = None,
    backend: str = "columnar",
    jobs: int = 1,
    record_reach: bool = False,
) -> OverlayRunResult:
    """Run a Fig. 12 workload through the overlay with a live monitor.

    Every workload session becomes a churn peer that connects to the
    measurement ultrapeer plus one backbone ultrapeer, floods its
    queries with TTL/hops semantics, and departs; the monitor observes
    the hop-1 stream and reconstructs sessions with idle-detection
    overshoot.  ``backend`` selects the delta-stepped columnar engine
    or the scalar event-driven reference; both consume the identical
    seeded plan and must produce identical observables
    (:func:`compare_runs`).
    """
    if backend not in ENGINE_BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of {ENGINE_BACKENDS}"
        )
    if run_seconds <= 0:
        raise ValueError("run_seconds must be positive")
    config = config or OverlayConfig()
    if config.ttl < 1:
        raise ValueError("config.ttl must be >= 1")
    workload.validate()
    if workload.n_queries:
        vocab = np.unique(
            np.char.lower(workload.query_keywords.astype(np.str_))
        )
    else:
        vocab = np.zeros(0, dtype=np.str_)
    overlay, ups = _build_backbone(config, vocab)
    plan = _plan_churn(workload, float(run_seconds), config, vocab, len(ups))
    if backend == "columnar":
        return _run_columnar(plan, config, overlay, ups, jobs, record_reach)
    return _run_event(plan, config, overlay, ups, record_reach)
