"""Delta-stepped batched columnar overlay engine.

Simulates the Gnutella ultrapeer/leaf protocol as array programs over
the :class:`~repro.gnutella.topology.CSRTopology` adjacency:

* the static backbone (ultrapeer mesh, leaves, monitor links, libraries)
  is drawn straight into arrays, replaying the object overlay's RNG
  calls in their order, so no peer object is ever built;
* query flooding is frontier expansion -- one segmented gather/scatter
  over neighbour lists per TTL ring, duplicate-GUID suppression via
  sorted set-membership kernels, vectorized hop accounting;
* QRP leaf forwarding is resolved analytically after the ultrapeer BFS
  from per-keyword-hash postings of the leaf tables, bit-exact with the
  scalar QRP tables (false positives included);
* QUERYHIT reverse routing is a depth sum (the reverse path of an
  answerer at BFS depth ``d`` is exactly ``d`` messages long);
* churn is delta-stepped: sessions connect at the round of their start
  and disconnect at the end of the round of their end, so the round
  width ``delta_seconds`` is part of the simulation's identity.

The engine is held to the Gnutella object stack in
``tests/gnutella_reference`` (``PeerNode`` forwarding, an event
scheduler, the record monitor): ``tests/event_reference.py`` builds the
backbone from those objects, checks it equals :func:`_build_backbone`'s
arrays, and replays the *same* seeded plan (both call :func:`_prepare`);
the equivalence battery requires identical monitor-observed hop-1 query
streams, reach sets/TTL horizons, per-query message and hit counts,
reconstructed sessions, and keep-alive totals.

All array work dispatches through :mod:`repro.core.kernels`; query
batches shard over workers via ``pool_map`` with byte-identical output
for any ``jobs`` (floods are independent per query).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.generator_columnar import ColumnarWorkload
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

from .qrp import text_hash_table
from .topology import CSRTopology

__all__ = [
    "MONITOR_ID",
    "FloodContext",
    "FloodResult",
    "OverlayConfig",
    "OverlayRunResult",
    "flood_queries",
    "simulate_workload",
]

MONITOR_ID = "monitor"

#: Queries per worker task: the unit ``jobs`` fans out.  A task's
#: memory is bounded by ``FLOOD_ROWS``, not by this size.
QUERIES_PER_TASK = 512

#: (query, active ultrapeer) rows one flood sub-batch may span: a task
#: floods ``FLOOD_ROWS // active ultrapeers`` queries at a time (at
#: least one), so the frontier arrays stay about the same size as the
#: population grows (about 68 queries per sub-batch at 3k steady-state
#: peers, 21 at 10k).
FLOOD_ROWS = 1 << 15

#: The static backbone the churn peers attach to: ultrapeers, leaves,
#: each ultrapeer's mesh degree, each leaf's ultrapeer attachments, and
#: the monitor's links (to the first ``MONITOR_LINKS`` ultrapeers).
BACKBONE_ULTRAPEERS = 24
BACKBONE_LEAVES = 48
ULTRAPEER_DEGREE = 6
LEAF_ATTACHMENTS = 2
MONITOR_LINKS = 6
#: Probability that a churn peer joins as an ultrapeer.
CHURN_ULTRAPEER_PROB = 0.15
#: Mean (Poisson) library size of every backbone and churn peer.
MEAN_LIBRARY_FILES = 8.0
#: Leaf QRP tables hold ``2**QRP_LOG_SIZE`` slots.
QRP_LOG_SIZE = 12
#: Seeds of the backbone draw and of the churn plan's draw.
BACKBONE_SEED = 12
PLAN_SEED = 20

#: The backbone's region mix (North America, Europe, Asia, other).  No
#: output reads a node's region, but each node's draw advances the
#: stream its mesh links and library come from.
_REGION_WEIGHTS = (0.60, 0.20, 0.13, 0.07)


@dataclass(frozen=True)
class OverlayConfig:
    """The settable knobs of one overlay simulation."""

    delta_seconds: float = 30.0
    ttl: int = 4


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
    (the exact-match answer set: a peer answers a query whose text is
    one of its library entries).
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


def _cat(parts: List[np.ndarray]) -> np.ndarray:
    return np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)


def _flood_context(
    topo: CSRTopology,
    vocab: np.ndarray,
    rows: np.ndarray,
    codes: np.ndarray,
    is_leaf: np.ndarray,
    log_size: int,
    used_codes: Optional[np.ndarray] = None,
) -> FloodContext:
    """The :class:`FloodContext` over ``topo``.

    Node ``rows[i]`` holds library entry ``codes[i]``; the entries with
    ``is_leaf[i]`` also fill the leaves' QRP tables.  ``used_codes`` is
    passed to :func:`_build_flood_tables`.
    """
    matched, holders = _build_flood_tables(
        vocab, rows[is_leaf], codes[is_leaf], rows, codes, topo.capacity,
        log_size, used_codes=used_codes,
    )
    return FloodContext(topo, vocab, *matched, *holders)


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
    # included -- the origin applies no QRP filter).
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
    """The seeded churn/query plan an engine consumes verbatim.

    Every random draw happens here, once -- attachment ultrapeers,
    churn-peer modes, library contents -- so the engine and its event
    reference cannot drift through RNG consumption order.  Sessions are the workload's rows
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
    rng = np.random.default_rng(PLAN_SEED)

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
    ultrapeer = rng.random(n) < CHURN_ULTRAPEER_PROB
    if vocab.size:
        want = rng.poisson(MEAN_LIBRARY_FILES, size=n).astype(np.int64)
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


@dataclass(frozen=True)
class Backbone:
    """The static backbone + monitor the churn peers attach to, as arrays.

    Rows follow the sorted node ids of the object overlay: the leaves
    (``le00000``, ...), then the monitor, then the ultrapeers
    (``ul00000``, ...).  ``edge_keys`` holds both directions of every
    link packed as ``src * n + dst`` over the ``n`` rows, sorted;
    ``up_rows`` the ultrapeers' rows in index order (the churn peers'
    attachment targets); ``(lib_rows[i], lib_codes[i])`` every library
    entry, as vocabulary codes sorted by (row, code).
    """

    is_ultrapeer: np.ndarray
    edge_keys: np.ndarray
    up_rows: np.ndarray
    monitor: int
    lib_rows: np.ndarray
    lib_codes: np.ndarray


def _build_backbone(
    vocab: np.ndarray,
    n_ultrapeers: int = BACKBONE_ULTRAPEERS,
    n_leaves: int = BACKBONE_LEAVES,
    degree: int = ULTRAPEER_DEGREE,
    attachments: int = LEAF_ATTACHMENTS,
    monitor_links: int = MONITOR_LINKS,
    mean_files: float = MEAN_LIBRARY_FILES,
    seed: int = BACKBONE_SEED,
) -> Backbone:
    """Draw the backbone: the object overlay's RNG calls, in their order.

    Per ultrapeer a region draw; then the mesh, each ultrapeer in index
    order linking to ``degree`` minus its current neighbours of a
    shuffled candidate list (the ultrapeers not yet linked to it that
    hold fewer than 200 links); per leaf a region draw and its
    attachments; then, with a vocabulary, each node's Poisson library
    size and distinct entries (ultrapeers first).  The monitor shares
    nothing and links to the first ``monitor_links`` ultrapeers.
    ``vocab`` is sorted, unique and lower-case, so the entries' codes
    are the sorted picks.
    """
    rng = np.random.default_rng(seed)
    region_p = np.array(_REGION_WEIGHTS, dtype=float)
    region_p = region_p / region_p.sum(dtype=np.float64)
    for _ in range(n_ultrapeers):
        rng.choice(region_p.size, p=region_p)
    mesh: List[set] = [set() for _ in range(n_ultrapeers)]
    for u in range(n_ultrapeers):
        want = degree - len(mesh[u])
        if want <= 0:
            continue
        candidates = [
            v for v in range(n_ultrapeers)
            if v != u and v not in mesh[u] and len(mesh[v]) < 200
        ]
        rng.shuffle(candidates)
        for v in candidates[:want]:
            mesh[u].add(v)
            mesh[v].add(u)
    leaf_ups = []
    for _ in range(n_leaves):
        rng.choice(region_p.size, p=region_p)
        leaf_ups.append(rng.choice(
            n_ultrapeers, size=min(attachments, n_ultrapeers), replace=False
        ))

    n_nodes = n_leaves + 1 + n_ultrapeers
    up_rows = n_leaves + 1 + np.arange(n_ultrapeers, dtype=np.int64)
    links = [(up_rows[u], up_rows[v]) for u in range(n_ultrapeers) for v in mesh[u]]
    links += [(j, up_rows[i]) for j, ups in enumerate(leaf_ups) for i in ups]
    links += [(n_leaves, row) for row in up_rows[:monitor_links]]
    src, dst = np.asarray(links, dtype=np.int64).reshape(-1, 2).T
    is_ultrapeer = np.zeros(n_nodes, dtype=bool)
    is_ultrapeer[n_leaves:] = True

    lib_rows = lib_codes = np.zeros(0, dtype=np.int64)
    if vocab.size:
        rows, picks = [], []
        for row in np.concatenate([up_rows, np.arange(n_leaves)]):
            count = int(rng.poisson(mean_files))
            pick = rng.choice(vocab.size, size=min(count, vocab.size), replace=False)
            rows.append(np.full(pick.size, row, dtype=np.int64))
            picks.append(pick)
        keys = unique_sorted(_cat(rows) * np.int64(vocab.size) + _cat(picks))
        lib_rows, lib_codes = keys // vocab.size, keys % vocab.size
    return Backbone(
        is_ultrapeer=is_ultrapeer,
        edge_keys=unique_sorted(
            np.concatenate([src * n_nodes + dst, dst * n_nodes + src])
        ),
        up_rows=up_rows, monitor=n_leaves,
        lib_rows=lib_rows, lib_codes=lib_codes,
    )


# ---------------------------------------------------------------------------
# Run results
# ---------------------------------------------------------------------------


@dataclass
class OverlayRunResult:
    """One run's complete observable output, in plan order."""

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
# The columnar engine
# ---------------------------------------------------------------------------


def _run_columnar(
    plan: OverlayPlan,
    config: OverlayConfig,
    backbone: Backbone,
    jobs: int,
    record_reach: bool,
) -> OverlayRunResult:
    """The delta-stepped array engine over the CSR topology."""
    base = backbone.is_ultrapeer.size
    n = plan.n_sessions
    topo = CSRTopology(base + n)
    topo.add_nodes(np.arange(base), backbone.is_ultrapeer)
    topo.connect(backbone.edge_keys // base, backbone.edge_keys % base)
    sess_idx = base + np.arange(n, dtype=np.int64)

    # QRP/holder postings over the full slot space: backbone libraries
    # plus every churn session's planned library.  Static tables --
    # connectivity (the CSR) gates who can actually be reached.
    owner = np.repeat(np.arange(n, dtype=np.int64), plan.lib_counts)
    rows = np.concatenate([backbone.lib_rows, sess_idx[owner]])
    is_leaf = np.concatenate(
        [~backbone.is_ultrapeer[backbone.lib_rows], ~plan.ultrapeer[owner]]
    )
    # The table build sets the run's peak RSS: free the owner index first.
    del owner
    ctx = _flood_context(
        topo, plan.vocab, rows,
        np.concatenate([backbone.lib_codes, plan.lib_codes]), is_leaf,
        QRP_LOG_SIZE, used_codes=unique_sorted(plan.query_code),
    )
    del rows, is_leaf

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
                    np.full(new.size, backbone.monitor, dtype=np.int64),
                    backbone.up_rows[plan.attach_pos[new]],
                ]),
            )
        lo, hi = int(q_off[r]), int(q_off[r + 1])
        if hi > lo:
            origins = sess_idx[plan.query_session[lo:hi]]
            if not topo.has_edges(
                origins, np.full(origins.size, backbone.monitor, dtype=np.int64)
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
    # order, (end + probe) + close, so the engine and the record monitor
    # round alike.
    h_order = _hop1_order(plan)
    end_obs = np.where(
        plan.departs,
        plan.end_true + IDLE_PROBE_SECONDS + IDLE_CLOSE_SECONDS,
        plan.run_seconds,
    )
    n_queries = np.bincount(plan.query_session, minlength=n).astype(np.int64)
    pings, pongs = _session_keepalives(plan)

    result = OverlayRunResult(
        run_seconds=plan.run_seconds,
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
# Entry point
# ---------------------------------------------------------------------------


def _prepare(
    workload: ColumnarWorkload,
    run_seconds: float,
    config: Optional[OverlayConfig],
) -> Tuple[OverlayConfig, Backbone, OverlayPlan]:
    """Checks, vocabulary, backbone and seeded plan of one run.

    Every engine starts here, so the event reference replays the
    identical plan.
    """
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
    backbone = _build_backbone(vocab)
    plan = _plan_churn(
        workload, float(run_seconds), config, vocab, backbone.up_rows.size
    )
    return config, backbone, plan


def simulate_workload(
    workload: ColumnarWorkload,
    run_seconds: float,
    config: Optional[OverlayConfig] = None,
    jobs: int = 1,
    record_reach: bool = False,
) -> OverlayRunResult:
    """Run a Fig. 12 workload through the overlay with a live monitor.

    Every workload session becomes a churn peer that connects to the
    measurement ultrapeer plus one backbone ultrapeer, floods its
    queries with TTL/hops semantics, and departs; the monitor observes
    the hop-1 stream and reconstructs sessions with idle-detection
    overshoot.  Output is byte-identical for any ``jobs``.
    """
    config, backbone, plan = _prepare(workload, run_seconds, config)
    return _run_columnar(plan, config, backbone, jobs, record_reach)
