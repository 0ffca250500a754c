"""Trace record schema and persistence.

A :class:`Trace` is everything the measurement node recorded over a run:
the connected one-hop sessions with their query streams, the sampled
PONG/QUERYHIT observations used for the all-peers comparisons (Figures
1-2), and aggregate message counters (Table 1).  Traces round-trip
through JSON-lines files so long syntheses can be archived and re-analysed.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.core.events import QueryRecord, SessionRecord
from repro.core.regions import Region

__all__ = ["PongObservation", "QueryHitObservation", "Trace"]


@dataclass(frozen=True)
class PongObservation:
    """One sampled PONG: advertises a peer's address and library size."""

    timestamp: float
    ip: str
    region: Region
    shared_files: int
    one_hop: bool


@dataclass(frozen=True)
class QueryHitObservation:
    """One sampled QUERYHIT: carries the responding peer's address."""

    timestamp: float
    ip: str
    region: Region
    one_hop: bool


@dataclass
class Trace:
    """A complete measurement run."""

    start_time: float
    end_time: float
    sessions: List[SessionRecord] = field(default_factory=list)
    pongs: List[PongObservation] = field(default_factory=list)
    queryhits: List[QueryHitObservation] = field(default_factory=list)
    counters: Dict[str, int] = field(default_factory=dict)

    @property
    def duration_days(self) -> float:
        return (self.end_time - self.start_time) / 86400.0

    @property
    def n_connections(self) -> int:
        return len(self.sessions)

    def hop1_query_count(self) -> int:
        return sum(s.query_count for s in self.sessions)

    def bump(self, counter: str, amount: int = 1) -> None:
        """Increment an aggregate message counter."""
        self.counters[counter] = self.counters.get(counter, 0) + amount

    # -- persistence ------------------------------------------------------------

    def to_jsonl(self, path: Union[str, Path]) -> None:
        """Write the trace as JSON lines: one header, then one record per line."""
        path = Path(path)
        with path.open("w") as fh:
            header = {
                "kind": "header",
                "start_time": self.start_time,
                "end_time": self.end_time,
                "counters": self.counters,
            }
            fh.write(json.dumps(header) + "\n")
            for session in self.sessions:
                fh.write(json.dumps(_session_to_dict(session)) + "\n")
            for pong in self.pongs:
                record = asdict(pong)
                record["kind"] = "pong"
                record["region"] = pong.region.value
                fh.write(json.dumps(record) + "\n")
            for hit in self.queryhits:
                record = asdict(hit)
                record["kind"] = "queryhit"
                record["region"] = hit.region.value
                fh.write(json.dumps(record) + "\n")

    @classmethod
    def from_jsonl(cls, path: Union[str, Path]) -> "Trace":
        """Read a trace previously written by :meth:`to_jsonl`."""
        path = Path(path)
        trace: Optional[Trace] = None
        with path.open() as fh:
            for line in fh:
                record = json.loads(line)
                kind = record.pop("kind")
                if kind == "header":
                    trace = cls(
                        start_time=record["start_time"],
                        end_time=record["end_time"],
                        counters=dict(record["counters"]),
                    )
                elif trace is None:
                    raise ValueError(f"{path}: first line must be the header")
                elif kind == "session":
                    trace.sessions.append(_session_from_dict(record))
                elif kind == "pong":
                    record["region"] = _REGION_BY_VALUE[record["region"]]
                    trace.pongs.append(PongObservation(**record))
                elif kind == "queryhit":
                    record["region"] = _REGION_BY_VALUE[record["region"]]
                    trace.queryhits.append(QueryHitObservation(**record))
                else:
                    raise ValueError(f"{path}: unknown record kind {kind!r}")
        if trace is None:
            raise ValueError(f"{path}: empty trace file")
        return trace


def _session_to_dict(session: SessionRecord) -> Dict:
    return {
        "kind": "session",
        "peer_ip": session.peer_ip,
        "region": session.region.value,
        "start": session.start,
        "end": session.end,
        "user_agent": session.user_agent,
        "ultrapeer": session.ultrapeer,
        "shared_files": session.shared_files,
        "queries": [
            {
                "timestamp": q.timestamp,
                "keywords": q.keywords,
                "sha1": q.sha1,
                "hops": q.hops,
                "ttl": q.ttl,
                "automated": q.automated,
                "hits": q.hits,
            }
            for q in session.queries
        ],
    }


_REGION_BY_VALUE = {r.value: r for r in Region}


def _session_from_dict(record: Dict) -> SessionRecord:
    # Positional construction: this is the warm-cache hot path, and
    # kwargs unpacking costs ~30% extra per record at 60k+ sessions.
    queries = tuple(
        QueryRecord(
            q["timestamp"], q["keywords"], q["sha1"],
            q["hops"], q["ttl"], q["automated"], q["hits"],
        )
        for q in record["queries"]
    )
    return SessionRecord(
        record["peer_ip"], _REGION_BY_VALUE[record["region"]],
        record["start"], record["end"], queries,
        record["user_agent"], record["ultrapeer"], record["shared_files"],
    )
