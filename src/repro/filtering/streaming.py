"""Single-pass streaming port of the Section 3.3 filter rules.

:class:`StreamingFilter` consumes a time-ordered sequence of
:class:`~repro.measurement.columnar.ColumnarTrace` chunks (typically the
shards of a :class:`~repro.measurement.shards.ShardedTrace`) and applies
rules 1-5 to each, carrying only running totals -- and, when sessions
may be *split* across chunk boundaries, the per-session reassembly
state -- between chunks.  The summed :class:`FilterReport` is
bit-identical to running :func:`apply_filters_columnar` over the whole
trace at once, because every rule is strictly per-session:

* rules 1-3 are per-query/per-session masks and per-session sums;
* rules 4-5 look only at adjacent surviving queries *within* a session.

So filtering complete sessions chunk by chunk changes nothing, and for
split input it suffices to hold a session open until no later chunk can
extend it (its recorded end precedes the chunk boundary), then filter it
whole.  Shards produced by ``TraceSynthesizer.run_sharded`` always
contain complete sessions (a session lives in the shard its *arrival*
falls in), so the default ``split_sessions=False`` path streams each
shard straight through the vectorized filter with zero carry state
beyond the report.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.kernels import merge_vocabularies
from repro.measurement.columnar import ColumnarTrace

from .columnar import ColumnarFilterResult, apply_filters_columnar
from .pipeline import FilterReport

__all__ = ["StreamingFilter", "split_for_streaming"]

#: Flat query-table column suffixes, in ColumnarTrace field order.
_QUERY_COLS = (
    "timestamp", "keyword", "sha1", "hops", "ttl", "automated", "hits",
)
_KEYWORD = _QUERY_COLS.index("keyword")
_PONG_COLS = ("timestamp", "ip", "region", "shared_files", "one_hop")
_HIT_COLS = ("timestamp", "ip", "region", "one_hop")

#: (ip, region_code, start, end, user_agent, ultrapeer, shared_files)
_Meta = Tuple[str, int, float, float, str, bool, int]


class StreamingFilter:
    """Applies rules 1-5 one chunk at a time, summing the Table 2 report.

    ``push`` returns the chunk's :class:`ColumnarFilterResult` (or
    ``None`` while boundary sessions are still being reassembled);
    ``finish`` flushes any held state.  Chunks must arrive in time
    order.  With ``split_sessions=True`` a session whose query stream is
    split across consecutive chunks (same ip/start/end metadata in each
    piece) is stitched back together before the rules run, so rule 2's
    duplicate detection and the rule 4/5 interarrival stencils see the
    complete stream even across a chunk edge.  Each held piece keeps its
    chunk's keyword vocabulary; a block re-codes its pieces onto one.
    """

    def __init__(self, split_sessions: bool = False):
        self.split_sessions = split_sessions
        self.report = FilterReport()
        self._held: Dict[Tuple[str, float, float], List] = {}
        self._pong_buf: List[Tuple[np.ndarray, ...]] = []
        self._hit_buf: List[Tuple[np.ndarray, ...]] = []

    def push(self, chunk: ColumnarTrace) -> Optional[ColumnarFilterResult]:
        if not self.split_sessions:
            result = apply_filters_columnar(chunk)
            self._accumulate(result.report)
            return result
        return self._push_split(chunk)

    def finish(self) -> Optional[ColumnarFilterResult]:
        """Filter whatever reassembly state remains after the last chunk."""
        if not self.split_sessions:
            return None
        entries = list(self._held.values())
        self._held.clear()
        if not entries and not self._buffered_observations():
            return None
        return self._emit(entries, 0.0, 0.0)

    # -- split-session reassembly -------------------------------------------

    def _push_split(self, chunk: ColumnarTrace) -> Optional[ColumnarFilterResult]:
        cut = float(chunk.end_time)
        offsets = chunk.query_offsets
        ips = chunk.session_peer_ip
        starts = chunk.session_start
        ends = chunk.session_end
        complete: List[List] = []
        for i in range(chunk.n_sessions):
            start, end = float(starts[i]), float(ends[i])
            key = (str(ips[i]), start, end)
            lo, hi = int(offsets[i]), int(offsets[i + 1])
            piece = tuple(
                np.asarray(getattr(chunk, "query_" + col)[lo:hi]) for col in _QUERY_COLS
            ) + (chunk.keyword_vocab,)
            held = self._held.get(key)
            if held is not None:
                held[1].append(piece)
                continue
            meta: _Meta = (
                key[0], int(chunk.session_region[i]), start, end,
                str(chunk.agent_vocab[chunk.session_agent[i]]),
                bool(chunk.session_ultrapeer[i]),
                int(chunk.session_shared_files[i]),
            )
            entry = [meta, [piece]]
            if end <= cut:
                complete.append(entry)
            else:
                self._held[key] = entry
        # A held session whose recorded end precedes this chunk's edge
        # cannot gain queries from any later (time-ordered) chunk.
        for key in [k for k, e in self._held.items() if e[0][3] <= cut]:
            complete.append(self._held.pop(key))
        self._pong_buf.append(
            tuple(np.asarray(getattr(chunk, "pong_" + col)) for col in _PONG_COLS)
        )
        self._hit_buf.append(
            tuple(np.asarray(getattr(chunk, "hit_" + col)) for col in _HIT_COLS)
        )
        if not complete:
            return None
        return self._emit(complete, float(chunk.start_time), cut)

    def _emit(
        self, entries: List[List], start: float, end: float
    ) -> ColumnarFilterResult:
        block = self._build_block(entries, start, end)
        result = apply_filters_columnar(block)
        self._accumulate(result.report)
        return result

    def _buffered_observations(self) -> bool:
        return any(piece[0].size for piece in self._pong_buf) or any(
            piece[0].size for piece in self._hit_buf
        )

    def _build_block(
        self, entries: List[List], start: float, end: float
    ) -> ColumnarTrace:
        fields: Dict[str, np.ndarray] = {}
        if entries:
            metas = [e[0] for e in entries]
            fields["session_peer_ip"] = np.array([m[0] for m in metas], dtype=np.str_)
            fields["session_region"] = np.array([m[1] for m in metas], dtype=np.int8)
            fields["session_start"] = np.array([m[2] for m in metas], dtype=np.float64)
            fields["session_end"] = np.array([m[3] for m in metas], dtype=np.float64)
            fields["agent_vocab"], (fields["session_agent"],) = merge_vocabularies(
                [np.array([m[4] for m in metas], dtype=np.str_)],
                [np.arange(len(metas))],
            )
            fields["session_ultrapeer"] = np.array([m[5] for m in metas], dtype=np.bool_)
            fields["session_shared_files"] = np.array([m[6] for m in metas], dtype=np.int64)
            counts = [sum(p[0].size for p in e[1]) for e in entries]
            offsets = np.zeros(len(entries) + 1, dtype=np.int64)
            np.cumsum(counts, out=offsets[1:])
            fields["query_offsets"] = offsets
            pieces = [p for e in entries for p in e[1]]
            for j, col in enumerate(_QUERY_COLS):
                if j != _KEYWORD:
                    fields["query_" + col] = np.concatenate([p[j] for p in pieces])
            fields["keyword_vocab"], keywords = merge_vocabularies(
                [p[-1] for p in pieces], [p[_KEYWORD] for p in pieces]
            )
            fields["query_keyword"] = np.concatenate(keywords)
        for bufname, prefix, cols in (
            ("_pong_buf", "pong_", _PONG_COLS),
            ("_hit_buf", "hit_", _HIT_COLS),
        ):
            buf = getattr(self, bufname)
            if buf:
                for j, col in enumerate(cols):
                    fields[prefix + col] = np.concatenate([piece[j] for piece in buf])
                buf.clear()
        return ColumnarTrace(start_time=start, end_time=end, **fields)

    def _accumulate(self, report: FilterReport) -> None:
        for name, value in report.as_dict().items():
            setattr(self.report, name, getattr(self.report, name) + value)


def split_for_streaming(
    trace: ColumnarTrace, cuts: Sequence[float]
) -> Iterator[ColumnarTrace]:
    """Slice a trace into time chunks, *splitting* sessions at each cut.

    The adversarial inverse of sharded synthesis: a session whose
    lifetime crosses a cut appears in every overlapping chunk (with its
    full metadata) carrying only the queries whose timestamps fall in
    that chunk's window, and observations are windowed by timestamp.
    Feeding these chunks to ``StreamingFilter(split_sessions=True)``
    must reproduce the unsharded filter output -- the shard-boundary
    property test drives exactly this.
    """
    bounds = [float(trace.start_time), *sorted(float(c) for c in cuts), float(trace.end_time)]
    sess_idx = trace.query_session_index()
    qts = trace.query_timestamp
    n_sessions = trace.n_sessions
    for j in range(len(bounds) - 1):
        lo, hi = bounds[j], bounds[j + 1]
        lo_q = -np.inf if j == 0 else lo
        hi_q = np.inf if j == len(bounds) - 2 else hi
        # Strict ``end > lo``: queries live strictly inside [start, end),
        # so a query in this window always finds its session here too.
        rows = np.flatnonzero((trace.session_start < hi) & (trace.session_end > lo))
        in_rows = np.zeros(n_sessions, dtype=bool)
        in_rows[rows] = True
        qmask = in_rows[sess_idx] & (qts >= lo_q) & (qts < hi_q)
        counts = np.bincount(sess_idx[qmask], minlength=n_sessions)[rows]
        offsets = np.zeros(rows.size + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        pmask = (trace.pong_timestamp >= lo_q) & (trace.pong_timestamp < hi_q)
        hmask = (trace.hit_timestamp >= lo_q) & (trace.hit_timestamp < hi_q)
        # Each chunk carries only the strings its own rows use.
        keyword_vocab, (keyword,) = merge_vocabularies(
            [trace.keyword_vocab], [trace.query_keyword[qmask]]
        )
        agent_vocab, (agent,) = merge_vocabularies(
            [trace.agent_vocab], [trace.session_agent[rows]]
        )
        yield ColumnarTrace(
            start_time=lo,
            end_time=hi,
            session_peer_ip=trace.session_peer_ip[rows],
            session_region=trace.session_region[rows],
            session_start=trace.session_start[rows],
            session_end=trace.session_end[rows],
            session_agent=agent,
            session_ultrapeer=trace.session_ultrapeer[rows],
            session_shared_files=trace.session_shared_files[rows],
            query_offsets=offsets,
            query_timestamp=qts[qmask],
            query_keyword=keyword,
            query_sha1=trace.query_sha1[qmask],
            query_hops=trace.query_hops[qmask],
            query_ttl=trace.query_ttl[qmask],
            query_automated=trace.query_automated[qmask],
            query_hits=trace.query_hits[qmask],
            keyword_vocab=keyword_vocab,
            agent_vocab=agent_vocab,
            pong_timestamp=trace.pong_timestamp[pmask],
            pong_ip=trace.pong_ip[pmask],
            pong_region=trace.pong_region[pmask],
            pong_shared_files=trace.pong_shared_files[pmask],
            pong_one_hop=trace.pong_one_hop[pmask],
            hit_timestamp=trace.hit_timestamp[hmask],
            hit_ip=trace.hit_ip[hmask],
            hit_region=trace.hit_region[hmask],
            hit_one_hop=trace.hit_one_hop[hmask],
        )
