"""Sharded on-disk trace store: the out-of-core ``ColumnarTrace``.

A :class:`ShardedTrace` is a directory of time-ordered ``.npz`` shards
plus a ``manifest.json``.  Each shard is a complete, canonically sorted
:class:`~repro.measurement.columnar.ColumnarTrace` covering one
half-open time window ``[start, end)``; a session belongs to the shard
its *arrival* falls in (its lifetime may extend past the window), and
background pong/queryhit observations are windowed disjointly, so the
shard windows partition every sort key the columnar builder uses.

That partitioning is what makes :meth:`ShardedTrace.concat` exact: the
builder's ``np.lexsort`` is stable and each shard is already sorted, so
merging the shards reproduces the single-file ``run_columnar()`` output
byte for byte -- same arrays, same tie order, same counters.  The
streaming consumers (``repro.filtering.streaming``,
``repro.analysis.streaming``) never need that concatenation; they visit
one memory-mapped shard at a time via :meth:`iter_shards`, which is what
keeps the 40-day paper scenario inside a laptop-class RSS budget.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Union

from .columnar import COLUMNAR_SCHEMA_VERSION, ColumnarTrace, ColumnarTraceBuilder

__all__ = ["SHARD_MANIFEST_VERSION", "ShardInfo", "ShardWriter", "ShardedTrace"]

#: Bumped whenever the manifest layout or shard file contract changes.
SHARD_MANIFEST_VERSION = 1

MANIFEST_NAME = "manifest.json"


@dataclass(frozen=True)
class ShardInfo:
    """One shard's manifest row: file name, window, and table sizes."""

    file: str
    start: float
    end: float
    n_sessions: int
    n_queries: int
    n_pongs: int
    n_hits: int

    def as_dict(self) -> Dict[str, Union[str, float, int]]:
        return {
            "file": self.file,
            "start": self.start,
            "end": self.end,
            "n_sessions": self.n_sessions,
            "n_queries": self.n_queries,
            "n_pongs": self.n_pongs,
            "n_hits": self.n_hits,
        }


class ShardWriter:
    """Spills per-window trace parts to disk as they are synthesized.

    ``append`` takes a *raw* engine part (unsorted, raw counters),
    canonicalizes it through a single-part
    :class:`~repro.measurement.columnar.ColumnarTraceBuilder` pass, and
    writes it out immediately -- nothing but running totals stays in
    memory.  The part is read and released before the shard is written,
    so a caller that hands over its only reference holds one copy of the
    shard at a time, not two.  ``close`` persists the manifest (written
    last: its presence marks the directory complete) and reopens the
    result.
    """

    def __init__(self, root: Union[str, Path], start_time: float, end_time: float):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.start_time = float(start_time)
        self.end_time = float(end_time)
        self.raw_counters: Dict[str, int] = {}
        self.total_sessions = 0
        self.total_queries = 0
        self.total_observed_hits = 0
        self._shards: List[ShardInfo] = []

    def __len__(self) -> int:
        return len(self._shards)

    def append(self, part: ColumnarTrace) -> ShardInfo:
        for key, value in part.counters.items():
            self.raw_counters[key] = self.raw_counters.get(key, 0) + int(value)
        builder = ColumnarTraceBuilder()
        builder.append(part)
        del part
        shard = builder.build()
        del builder  # held the last reference to the raw part
        index = len(self._shards)
        name = f"shard-{index:05d}.npz"
        shard.save_npz(self.root / name)
        self.total_sessions += shard.n_sessions
        self.total_queries += shard.n_queries
        if shard.n_queries:
            self.total_observed_hits += int(shard.query_hits.sum())
        info = ShardInfo(
            file=name,
            start=shard.start_time,
            end=shard.end_time,
            n_sessions=shard.n_sessions,
            n_queries=shard.n_queries,
            n_pongs=int(shard.pong_timestamp.shape[0]),
            n_hits=int(shard.hit_timestamp.shape[0]),
        )
        self._shards.append(info)
        return info

    def close(self, counters: Dict[str, int]) -> "ShardedTrace":
        """Write the manifest with the *finalized* counter dict."""
        manifest = {
            "manifest_version": SHARD_MANIFEST_VERSION,
            "columnar_schema_version": COLUMNAR_SCHEMA_VERSION,
            "start_time": self.start_time,
            "end_time": self.end_time,
            # Pairs, not an object: JSON objects survive round-trips in
            # insertion order in practice but pairs make it contractual.
            "counters": [[name, int(value)] for name, value in counters.items()],
            "shards": [info.as_dict() for info in self._shards],
        }
        tmp = self.root / (MANIFEST_NAME + ".tmp")
        tmp.write_text(json.dumps(manifest, indent=2) + "\n")
        os.replace(tmp, self.root / MANIFEST_NAME)
        return ShardedTrace.open(self.root)


class ShardedTrace:
    """A manifest-described directory of time-ordered columnar shards."""

    def __init__(
        self,
        root: Path,
        start_time: float,
        end_time: float,
        counters: Dict[str, int],
        shards: List[ShardInfo],
    ):
        self.root = root
        self.start_time = start_time
        self.end_time = end_time
        self.counters = counters
        self.shards = shards

    @classmethod
    def open(cls, root: Union[str, Path]) -> "ShardedTrace":
        root = Path(root)
        manifest_path = root / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        version = int(manifest["manifest_version"])
        if version != SHARD_MANIFEST_VERSION:
            raise ValueError(
                f"{root}: shard manifest v{version}, expected v{SHARD_MANIFEST_VERSION}"
            )
        schema = int(manifest["columnar_schema_version"])
        if schema != COLUMNAR_SCHEMA_VERSION:
            raise ValueError(
                f"{root}: columnar schema v{schema}, expected v{COLUMNAR_SCHEMA_VERSION}"
            )
        shards = [ShardInfo(**row) for row in manifest["shards"]]
        counters = {str(name): int(value) for name, value in manifest["counters"]}
        return cls(
            root=root,
            start_time=float(manifest["start_time"]),
            end_time=float(manifest["end_time"]),
            counters=counters,
            shards=shards,
        )

    # -- shape (Trace/ColumnarTrace-compatible surface) ---------------------

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    @property
    def n_sessions(self) -> int:
        return sum(info.n_sessions for info in self.shards)

    @property
    def n_connections(self) -> int:
        return self.n_sessions

    @property
    def n_queries(self) -> int:
        return sum(info.n_queries for info in self.shards)

    @property
    def duration_days(self) -> float:
        return (self.end_time - self.start_time) / 86400.0

    def hop1_query_count(self) -> int:
        return self.n_queries

    # -- access --------------------------------------------------------------

    def load_shard(self, index: int, mmap_mode: Optional[str] = "r") -> ColumnarTrace:
        return ColumnarTrace.load_npz(self.root / self.shards[index].file, mmap_mode=mmap_mode)

    def iter_shards(self, mmap_mode: Optional[str] = "r") -> Iterator[ColumnarTrace]:
        """Shards in time order, one memory-mapped trace at a time."""
        for index in range(len(self.shards)):
            yield self.load_shard(index, mmap_mode=mmap_mode)

    def concat(self, mmap_mode: Optional[str] = "r") -> ColumnarTrace:
        """Merge every shard back into one in-memory :class:`ColumnarTrace`.

        Byte-identical to the single-file synthesis output: the shard
        windows partition the builder's primary sort keys and the
        builder's lexsort is stable, so re-sorting the concatenation of
        per-shard sorts reproduces the global sort exactly, tie order
        included.  The window and finalized counters come from the
        manifest, not from the per-shard raw sums.
        """
        builder = ColumnarTraceBuilder()
        for shard in self.iter_shards(mmap_mode=mmap_mode):
            builder.append(shard)
        trace = builder.build()
        trace.start_time = self.start_time
        trace.end_time = self.end_time
        trace.counters = dict(self.counters)
        return trace

