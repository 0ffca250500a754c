"""Columnar trace backend: NumPy columns + ``.npz`` persistence.

A :class:`ColumnarTrace` holds the same information as a
:class:`~repro.measurement.trace.Trace`, laid out for array reductions
instead of object traversal:

* one **session table** (one row per one-hop session),
* one flat **query table** in session-major order, indexed by a
  ``query_offsets`` array (session ``i`` owns rows
  ``query_offsets[i]:query_offsets[i + 1]``),
* **pong** and **queryhit** observation tables,
* the aggregate message ``counters`` and the trace window.

Repeated strings are stored once.  A query's keywords are an ``int32``
code into ``keyword_vocab`` and a session's user agent an ``int32``
code into ``agent_vocab``; each vocabulary is sorted, unique, holds
exactly the strings its rows use and is as wide as its longest string,
so code order is string order and two traces with the same rows have
the same vocabularies however they were built
(:func:`repro.core.kernels.merge_vocabularies` re-codes every join).
Only peer and observation addresses stay per-row unicode columns: a
session's address is unique to it, and the builder breaks sort ties
on it as a string.  Rule 2's query identity (Section 3.2) is taken
once per vocabulary entry by :func:`norm_keys_array`, never per row.

The conversion ``Trace <-> ColumnarTrace`` is lossless: regions
round-trip through a stable code table, strings through the
vocabularies, and floats bit-exactly through float64.

A query's hop count and TTL are ``uint8``, the width of the TTL and
Hops bytes of the Gnutella descriptor header they are read from.

``save_npz``/``load_npz`` persist every column with :func:`numpy.savez`
(uncompressed, ``allow_pickle=False``, columnar schema v3): each shard
of a :class:`~repro.measurement.shards.ShardedTrace` is one such
archive, and a read is a handful of ``mmap``-friendly array views
instead of a per-record JSON parse.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Union

import numpy as np

from repro.core.events import QueryRecord, SessionRecord
from repro.core.kernels import (
    load_npz_members,
    merge_vocabularies,
    save_npz_payload,
    segment_ids,
)
from repro.core.regions import Region

from .trace import PongObservation, QueryHitObservation, Trace

__all__ = [
    "COLUMNAR_SCHEMA_VERSION",
    "ColumnarTrace",
    "ColumnarTraceBuilder",
    "normalize_keywords",
    "norm_keys_array",
]

#: Bumped whenever the on-disk ``.npz`` column layout changes.
#: v2: keywords and user agents became codes into sorted vocabularies,
#: and the per-row rule-2 ``query_norm_key`` column was dropped.
#: v3: ``query_hops`` and ``query_ttl`` became ``uint8``.
COLUMNAR_SCHEMA_VERSION = 3

#: Stable region code table: the wire format stores ``int8`` codes, not
#: enum values, so reordering the enum cannot silently corrupt archives.
REGION_ORDER = (Region.NORTH_AMERICA, Region.EUROPE, Region.ASIA, Region.OTHER)
REGION_CODE: Dict[Region, int] = {r: i for i, r in enumerate(REGION_ORDER)}


def normalize_keywords(keywords: str) -> str:
    """The rule-2 query identity, as a canonical string.

    Two keyword strings have equal normalized forms exactly when their
    lowercased keyword *sets* are equal (split() never yields a token
    containing whitespace, so the space-joined sorted set is injective
    over sets).
    """
    return " ".join(sorted(set(keywords.lower().split())))


def norm_keys_array(keywords: np.ndarray) -> np.ndarray:
    """Vectorized :func:`normalize_keywords` over a unicode column
    (in practice a trace's ``keyword_vocab``).

    Single-token strings (the synthesized catalog) normalize to their
    lowercase form, handled with one ``np.char.lower`` pass; multi-token
    strings fall back to the scalar routine per *unique* string.
    """
    if keywords.size == 0:
        return np.empty(0, dtype="U1")
    lowered = np.char.lower(keywords)
    has_space = np.char.find(lowered, " ") >= 0
    if not has_space.any():
        return lowered
    out = lowered.copy()
    unique, inverse = np.unique(lowered[has_space], return_inverse=True)
    # Normalization never lengthens a string (sorted-set join of its own
    # tokens), so writing back into the same itemsize is safe.
    normed = np.array([normalize_keywords(s) for s in unique.tolist()], dtype=np.str_)
    out[has_space] = normed[inverse]
    return out


def _str_array(values: List[str]) -> np.ndarray:
    """Unicode column; ``<U1`` for the empty case so savez round-trips."""
    if not values:
        return np.empty(0, dtype="U1")
    return np.array(values, dtype=np.str_)


def _wire_bytes(values: List[int], name: str) -> np.ndarray:
    """A header byte column (hops, TTL) as ``uint8``; refuses values that
    do not fit in one byte instead of wrapping them."""
    wide = np.array(values, dtype=np.int64)
    if wide.size and (wide.min() < 0 or wide.max() > 255):
        raise ValueError(f"{name} must lie in 0-255, got {wide.min()}..{wide.max()}")
    return wide.astype(np.uint8)


def _encode(values: List[str]):
    """``(vocab, codes)`` of a string list, in the trace's vocabulary form."""
    vocab, (codes,) = merge_vocabularies(
        [_str_array(values)], [np.arange(len(values), dtype=np.int64)]
    )
    return vocab, codes


@dataclass
class ColumnarTrace:
    """A complete measurement run, as parallel NumPy columns."""

    start_time: float
    end_time: float

    # -- session table (len = n_sessions) ----------------------------------
    session_peer_ip: np.ndarray = field(default_factory=lambda: _str_array([]))
    session_region: np.ndarray = field(default_factory=lambda: np.empty(0, np.int8))
    session_start: np.ndarray = field(default_factory=lambda: np.empty(0, np.float64))
    session_end: np.ndarray = field(default_factory=lambda: np.empty(0, np.float64))
    #: code into ``agent_vocab``
    session_agent: np.ndarray = field(default_factory=lambda: np.empty(0, np.int32))
    session_ultrapeer: np.ndarray = field(default_factory=lambda: np.empty(0, np.bool_))
    session_shared_files: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))

    # -- flat query table (len = n_queries, session-major order) -----------
    #: session ``i`` owns ``query_*[query_offsets[i]:query_offsets[i+1]]``.
    query_offsets: np.ndarray = field(default_factory=lambda: np.zeros(1, np.int64))
    query_timestamp: np.ndarray = field(default_factory=lambda: np.empty(0, np.float64))
    #: code into ``keyword_vocab``
    query_keyword: np.ndarray = field(default_factory=lambda: np.empty(0, np.int32))
    query_sha1: np.ndarray = field(default_factory=lambda: np.empty(0, np.bool_))
    query_hops: np.ndarray = field(default_factory=lambda: np.empty(0, np.uint8))
    query_ttl: np.ndarray = field(default_factory=lambda: np.empty(0, np.uint8))
    query_automated: np.ndarray = field(default_factory=lambda: np.empty(0, np.bool_))
    query_hits: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))

    # -- vocabularies (sorted, unique, exactly the strings in use) ----------
    keyword_vocab: np.ndarray = field(default_factory=lambda: _str_array([]))
    agent_vocab: np.ndarray = field(default_factory=lambda: _str_array([]))

    # -- observation tables ------------------------------------------------
    pong_timestamp: np.ndarray = field(default_factory=lambda: np.empty(0, np.float64))
    pong_ip: np.ndarray = field(default_factory=lambda: _str_array([]))
    pong_region: np.ndarray = field(default_factory=lambda: np.empty(0, np.int8))
    pong_shared_files: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    pong_one_hop: np.ndarray = field(default_factory=lambda: np.empty(0, np.bool_))

    hit_timestamp: np.ndarray = field(default_factory=lambda: np.empty(0, np.float64))
    hit_ip: np.ndarray = field(default_factory=lambda: _str_array([]))
    hit_region: np.ndarray = field(default_factory=lambda: np.empty(0, np.int8))
    hit_one_hop: np.ndarray = field(default_factory=lambda: np.empty(0, np.bool_))

    counters: Dict[str, int] = field(default_factory=dict)

    # -- shape -------------------------------------------------------------

    @property
    def n_sessions(self) -> int:
        return int(self.session_start.shape[0])

    @property
    def n_connections(self) -> int:
        """Alias matching :attr:`~repro.measurement.trace.Trace.n_connections`."""
        return self.n_sessions

    @property
    def n_queries(self) -> int:
        return int(self.query_timestamp.shape[0])

    @property
    def duration_days(self) -> float:
        return (self.end_time - self.start_time) / 86400.0

    def hop1_query_count(self) -> int:
        """Alias matching :meth:`~repro.measurement.trace.Trace.hop1_query_count`."""
        return self.n_queries

    def query_session_index(self) -> np.ndarray:
        """Owning session row for each flat query row."""
        return segment_ids(np.diff(self.query_offsets))

    def query_keywords(self, rows=slice(None)) -> np.ndarray:
        """Decoded keyword strings of the query ``rows`` (default: all)."""
        return self.keyword_vocab[self.query_keyword[rows]]

    def session_user_agents(self, rows=slice(None)) -> np.ndarray:
        """Decoded user agents of the session ``rows`` (default: all)."""
        return self.agent_vocab[self.session_agent[rows]]

    # -- conversion --------------------------------------------------------

    @classmethod
    def from_trace(cls, trace: Trace) -> "ColumnarTrace":
        """Columnarize a record-oriented trace (lossless)."""
        peer_ip: List[str] = []
        region: List[int] = []
        start: List[float] = []
        end: List[float] = []
        user_agent: List[str] = []
        ultrapeer: List[bool] = []
        shared: List[int] = []
        offsets = np.zeros(len(trace.sessions) + 1, dtype=np.int64)

        q_ts: List[float] = []
        q_kw: List[str] = []
        q_sha1: List[bool] = []
        q_hops: List[int] = []
        q_ttl: List[int] = []
        q_auto: List[bool] = []
        q_hits: List[int] = []

        for i, s in enumerate(trace.sessions):
            peer_ip.append(s.peer_ip)
            region.append(REGION_CODE[s.region])
            start.append(s.start)
            end.append(s.end)
            user_agent.append(s.user_agent)
            ultrapeer.append(s.ultrapeer)
            shared.append(s.shared_files)
            offsets[i + 1] = offsets[i] + len(s.queries)
            for q in s.queries:
                q_ts.append(q.timestamp)
                q_kw.append(q.keywords)
                q_sha1.append(q.sha1)
                q_hops.append(q.hops)
                q_ttl.append(q.ttl)
                q_auto.append(q.automated)
                q_hits.append(q.hits)

        agent_vocab, agent = _encode(user_agent)
        keyword_vocab, keyword = _encode(q_kw)
        return cls(
            start_time=trace.start_time,
            end_time=trace.end_time,
            session_peer_ip=_str_array(peer_ip),
            session_region=np.array(region, dtype=np.int8),
            session_start=np.array(start, dtype=np.float64),
            session_end=np.array(end, dtype=np.float64),
            session_agent=agent,
            session_ultrapeer=np.array(ultrapeer, dtype=np.bool_),
            session_shared_files=np.array(shared, dtype=np.int64),
            query_offsets=offsets,
            query_timestamp=np.array(q_ts, dtype=np.float64),
            query_keyword=keyword,
            query_sha1=np.array(q_sha1, dtype=np.bool_),
            query_hops=_wire_bytes(q_hops, "query hops"),
            query_ttl=_wire_bytes(q_ttl, "query TTL"),
            query_automated=np.array(q_auto, dtype=np.bool_),
            query_hits=np.array(q_hits, dtype=np.int64),
            keyword_vocab=keyword_vocab,
            agent_vocab=agent_vocab,
            pong_timestamp=np.array([p.timestamp for p in trace.pongs], dtype=np.float64),
            pong_ip=_str_array([p.ip for p in trace.pongs]),
            pong_region=np.array([REGION_CODE[p.region] for p in trace.pongs], dtype=np.int8),
            pong_shared_files=np.array([p.shared_files for p in trace.pongs], dtype=np.int64),
            pong_one_hop=np.array([p.one_hop for p in trace.pongs], dtype=np.bool_),
            hit_timestamp=np.array([h.timestamp for h in trace.queryhits], dtype=np.float64),
            hit_ip=_str_array([h.ip for h in trace.queryhits]),
            hit_region=np.array([REGION_CODE[h.region] for h in trace.queryhits], dtype=np.int8),
            hit_one_hop=np.array([h.one_hop for h in trace.queryhits], dtype=np.bool_),
            counters=dict(trace.counters),
        )

    def to_trace(self) -> Trace:
        """Materialize the record-oriented trace (lossless inverse).

        Uses ``.tolist()`` bulk conversion to native Python scalars and
        positional dataclass construction — the same trick as the JSONL
        reader, but without a JSON parse in front of it.
        """
        offsets = self.query_offsets.tolist()
        q_cols = list(
            zip(
                self.query_timestamp.tolist(),
                self.query_keywords().tolist(),
                self.query_sha1.tolist(),
                self.query_hops.tolist(),
                self.query_ttl.tolist(),
                self.query_automated.tolist(),
                self.query_hits.tolist(),
            )
        )
        queries = [QueryRecord(*row) for row in q_cols]
        sessions = [
            SessionRecord(
                ip, REGION_ORDER[code], start, end,
                tuple(queries[offsets[i]:offsets[i + 1]]),
                agent, up, files,
            )
            for i, (ip, code, start, end, agent, up, files) in enumerate(
                zip(
                    self.session_peer_ip.tolist(),
                    self.session_region.tolist(),
                    self.session_start.tolist(),
                    self.session_end.tolist(),
                    self.session_user_agents().tolist(),
                    self.session_ultrapeer.tolist(),
                    self.session_shared_files.tolist(),
                )
            )
        ]
        pongs = [
            PongObservation(ts, ip, REGION_ORDER[code], files, one_hop)
            for ts, ip, code, files, one_hop in zip(
                self.pong_timestamp.tolist(),
                self.pong_ip.tolist(),
                self.pong_region.tolist(),
                self.pong_shared_files.tolist(),
                self.pong_one_hop.tolist(),
            )
        ]
        hits = [
            QueryHitObservation(ts, ip, REGION_ORDER[code], one_hop)
            for ts, ip, code, one_hop in zip(
                self.hit_timestamp.tolist(),
                self.hit_ip.tolist(),
                self.hit_region.tolist(),
                self.hit_one_hop.tolist(),
            )
        ]
        return Trace(
            start_time=self.start_time,
            end_time=self.end_time,
            sessions=sessions,
            pongs=pongs,
            queryhits=hits,
            counters=dict(self.counters),
        )

    # -- persistence -------------------------------------------------------

    _ARRAY_FIELDS = (
        "session_peer_ip", "session_region", "session_start", "session_end",
        "session_agent", "session_ultrapeer", "session_shared_files",
        "query_offsets", "query_timestamp", "query_keyword",
        "query_sha1", "query_hops", "query_ttl", "query_automated", "query_hits",
        "keyword_vocab", "agent_vocab",
        "pong_timestamp", "pong_ip", "pong_region", "pong_shared_files",
        "pong_one_hop",
        "hit_timestamp", "hit_ip", "hit_region", "hit_one_hop",
    )

    def save_npz(self, path: Union[str, Path]) -> None:
        """Write every column to an uncompressed ``.npz`` archive."""
        payload = {name: getattr(self, name) for name in self._ARRAY_FIELDS}
        payload["schema_version"] = np.array([COLUMNAR_SCHEMA_VERSION], dtype=np.int64)
        payload["window"] = np.array([self.start_time, self.end_time], dtype=np.float64)
        # Insertion order, not sorted: counters round-trip byte-exactly
        # through to_jsonl either side of an .npz hop.
        payload["counter_names"] = _str_array(list(self.counters))
        payload["counter_values"] = np.array(list(self.counters.values()), dtype=np.int64)
        save_npz_payload(path, payload)

    @classmethod
    def load_npz(cls, path: Union[str, Path], mmap_mode: str = "r") -> "ColumnarTrace":
        """Read an archive written by :meth:`save_npz`.

        By default every column comes back as a read-only ``np.memmap``
        view straight into the archive (``np.savez`` stores members
        uncompressed, so each is a contiguous ``.npy`` byte range inside
        the zip).  Pass ``mmap_mode=None`` to force eager in-memory
        loads, e.g. before deleting the file.
        """
        data = _load_npz_members(path, mmap_mode)
        version = int(data["schema_version"][0])
        if version != COLUMNAR_SCHEMA_VERSION:
            raise ValueError(
                f"{path}: columnar schema v{version}, expected v{COLUMNAR_SCHEMA_VERSION}"
            )
        window = data["window"]
        counters = {
            str(name): int(value)
            for name, value in zip(data["counter_names"], data["counter_values"])
        }
        columns = {name: data[name] for name in cls._ARRAY_FIELDS}
        return cls(
            start_time=float(window[0]),
            end_time=float(window[1]),
            counters=counters,
            **columns,
        )


def _load_npz_members(path: Union[str, Path], mmap_mode) -> Dict[str, np.ndarray]:
    """Kept under the old private name; see
    :func:`repro.core.kernels.load_npz_members` for the mechanics."""
    return load_npz_members(path, mmap_mode)


class ColumnarTraceBuilder:
    """Accumulates per-shard :class:`ColumnarTrace` parts and merges them.

    Merged as if one node recorded every part, in one canonical order:
    sessions by ``(start, end, peer_ip)``, observations by
    ``(timestamp, ip)``, counters summed.  Callers keep the parts
    disjoint (no session recorded twice); sharded synthesis does so by
    partitioning connection *arrivals*.  The flat query table is
    permuted in whole session blocks to follow the session sort, and the
    parts' vocabularies merge into the canonical ones (sorted, exactly
    the strings in use), so a build does not depend on how its rows were
    split into parts.
    """

    def __init__(self) -> None:
        self._parts: List[ColumnarTrace] = []

    def append(self, part: ColumnarTrace) -> None:
        self._parts.append(part)

    def __len__(self) -> int:
        return len(self._parts)

    def build(self) -> ColumnarTrace:
        from repro.core.kernels import segmented_arange

        parts = self._parts
        if not parts:
            raise ValueError("need at least one columnar trace part to build")

        def cat(name: str) -> np.ndarray:
            # Single-part builds (the per-shard writer path) skip the
            # concatenation copy; every returned column below is a fresh
            # fancy-indexed gather, so the part's arrays are never aliased.
            arrays = [getattr(p, name) for p in parts]
            return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)

        start_time = min(p.start_time for p in parts)
        end_time = max(p.end_time for p in parts)
        counters: Dict[str, int] = {}
        for p in parts:
            for name, value in p.counters.items():
                counters[name] = counters.get(name, 0) + int(value)

        keyword_vocab, keywords = merge_vocabularies(
            [p.keyword_vocab for p in parts], [p.query_keyword for p in parts]
        )
        agent_vocab, agents = merge_vocabularies(
            [p.agent_vocab for p in parts], [p.session_agent for p in parts]
        )

        s_ip = cat("session_peer_ip")
        s_start = cat("session_start")
        s_end = cat("session_end")
        order = np.lexsort((s_ip, s_end, s_start))

        # Per-session query block starts/counts in the concatenated
        # (pre-sort) flat table, then a gather that walks each sorted
        # session's block in place.
        counts = np.concatenate([np.diff(p.query_offsets) for p in parts])
        bases = np.cumsum([0] + [p.n_queries for p in parts][:-1])
        starts = np.concatenate(
            [p.query_offsets[:-1] + base for p, base in zip(parts, bases)]
        )
        counts_sorted = counts[order]
        gather = np.repeat(starts[order], counts_sorted) + segmented_arange(counts_sorted)
        offsets = np.zeros(order.size + 1, dtype=np.int64)
        np.cumsum(counts_sorted, out=offsets[1:])

        pong_ts = cat("pong_timestamp")
        pong_ip = cat("pong_ip")
        pong_order = np.lexsort((pong_ip, pong_ts))
        hit_ts = cat("hit_timestamp")
        hit_ip = cat("hit_ip")
        hit_order = np.lexsort((hit_ip, hit_ts))

        return ColumnarTrace(
            start_time=start_time,
            end_time=end_time,
            session_peer_ip=s_ip[order],
            session_region=cat("session_region")[order],
            session_start=s_start[order],
            session_end=s_end[order],
            session_agent=np.concatenate(agents)[order],
            session_ultrapeer=cat("session_ultrapeer")[order],
            session_shared_files=cat("session_shared_files")[order],
            query_offsets=offsets,
            query_timestamp=cat("query_timestamp")[gather],
            query_keyword=np.concatenate(keywords)[gather],
            query_sha1=cat("query_sha1")[gather],
            query_hops=cat("query_hops")[gather],
            query_ttl=cat("query_ttl")[gather],
            query_automated=cat("query_automated")[gather],
            query_hits=cat("query_hits")[gather],
            keyword_vocab=keyword_vocab,
            agent_vocab=agent_vocab,
            pong_timestamp=pong_ts[pong_order],
            pong_ip=pong_ip[pong_order],
            pong_region=cat("pong_region")[pong_order],
            pong_shared_files=cat("pong_shared_files")[pong_order],
            pong_one_hop=cat("pong_one_hop")[pong_order],
            hit_timestamp=hit_ts[hit_order],
            hit_ip=hit_ip[hit_order],
            hit_region=cat("hit_region")[hit_order],
            hit_one_hop=cat("hit_one_hop")[hit_order],
            counters=counters,
        )
