"""The passive measurement ultrapeer (modified-mutella substitute).

Reproduces the measurement client of Section 3.1-3.2:

* runs in ultrapeer mode with a bounded number of simultaneous
  connection slots (the paper used up to 200);
* records the User-Agent from the connection handshake;
* never generates traffic except keep-alive probing: "when the
  measurement peer detects that a connection is idle for 15 seconds, it
  sends a single PING message ...  if no response is received after
  another 15 seconds, the measurement peer will close the connection" --
  so sessions that end silently are recorded ~30 seconds long;
* attributes every hop-count-1 QUERY to the connected session it arrived
  on, which is possible because a user's client sends each query to all
  of its direct neighbours.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.events import QueryRecord, SessionRecord
from repro.core.parameters import IDLE_CLOSE_SECONDS, IDLE_PROBE_SECONDS
from repro.core.regions import Region
from repro.gnutella.clients import MEASUREMENT_USER_AGENT
from repro.gnutella.handshake import HandshakeOffer, negotiate

__all__ = ["MeasurementNode", "OpenConnection"]


@dataclass
class OpenConnection:
    """Book-keeping for one live one-hop connection."""

    conn_id: int
    peer_ip: str
    region: Region
    user_agent: str
    ultrapeer: bool
    shared_files: int
    opened_at: float
    last_activity: float
    queries: List[QueryRecord] = field(default_factory=list)


class MeasurementNode:
    """Passive ultrapeer that records one-hop peer sessions.

    The driver (see :mod:`repro.synthesis`) feeds it connection opens,
    query arrivals, and departures; the node produces
    :class:`~repro.core.events.SessionRecord` objects with the idle-
    detection end-time semantics of the paper, plus keep-alive PING/PONG
    accounting.
    """

    def __init__(self, max_slots: Optional[int] = 200, record_events: bool = False):
        if max_slots is not None and max_slots < 1:
            raise ValueError(f"max_slots must be >= 1 or None, got {max_slots}")
        self.max_slots = max_slots
        self.user_agent = MEASUREMENT_USER_AGENT
        self._next_id = 0
        self._open: Dict[int, OpenConnection] = {}
        self.sessions: List[SessionRecord] = []
        self.rejected_connections = 0
        self.keepalive_pings_sent = 0
        self.keepalive_pongs_received = 0
        #: Optional raw event log (connect/query/depart/bye), the archive
        #: format the offline sessionizer consumes.
        self.record_events = record_events
        self.raw_events: List = []

    @property
    def open_count(self) -> int:
        return len(self._open)

    # -- connection lifecycle -----------------------------------------------------

    def open_connection(
        self,
        now: float,
        peer_ip: str,
        region: Region,
        user_agent: str,
        ultrapeer: bool = False,
        shared_files: int = 0,
    ) -> Optional[int]:
        """Accept a new one-hop connection; returns its id or None if full.

        The handshake is actually exchanged (via
        :mod:`repro.gnutella.handshake`) so the recorded User-Agent comes
        from the offer text, exactly as the real monitor captured it.
        """
        slots_free = self.max_slots is None or len(self._open) < self.max_slots
        offer = HandshakeOffer(user_agent=user_agent, ultrapeer=ultrapeer)
        response, parsed = negotiate(
            offer.render(), self.user_agent, slots_available=slots_free
        )
        if not response.accepted or parsed is None:
            self.rejected_connections += 1
            return None
        conn_id = self._next_id
        self._next_id += 1
        if self.record_events:
            from .sessions import RawEvent

            self.raw_events.append(RawEvent(
                "connect", conn_id, now, peer_ip=peer_ip, region=region,
                user_agent=parsed.user_agent, ultrapeer=parsed.ultrapeer,
                shared_files=shared_files,
            ))
        self._open[conn_id] = OpenConnection(
            conn_id=conn_id,
            peer_ip=peer_ip,
            region=region,
            user_agent=parsed.user_agent,
            ultrapeer=parsed.ultrapeer,
            shared_files=shared_files,
            opened_at=now,
            last_activity=now,
        )
        return conn_id

    def receive_query(
        self,
        conn_id: int,
        now: float,
        keywords: str,
        sha1: bool = False,
        automated: bool = False,
        hits: int = 0,
    ) -> None:
        """Record a hop-count-1 QUERY arriving on ``conn_id``.

        ``hits`` is the number of QUERYHIT responses later routed back
        for this query (0 when hit accounting is disabled).
        """
        conn = self._require(conn_id)
        if now < conn.opened_at:
            raise ValueError(f"query at {now} precedes connection open {conn.opened_at}")
        self._count_keepalives(conn, now)
        conn.last_activity = now
        if self.record_events:
            from .sessions import RawEvent

            self.raw_events.append(RawEvent(
                "query", conn_id, now, keywords=keywords, sha1=sha1,
                automated=automated,
            ))
        conn.queries.append(
            QueryRecord(timestamp=now, keywords=keywords, sha1=sha1, hops=1,
                        ttl=6, automated=automated, hits=hits)
        )

    def client_departed(self, conn_id: int, now: float) -> SessionRecord:
        """The client silently stopped sending (the common case).

        The monitor notices after the idle probe times out, so the
        recorded end overshoots by ``IDLE_PROBE + IDLE_CLOSE`` seconds.
        One unanswered probe PING is counted.
        """
        conn = self._require(conn_id)
        self._count_keepalives(conn, now)
        self.keepalive_pings_sent += 1  # the final, unanswered probe
        if self.record_events:
            from .sessions import RawEvent

            self.raw_events.append(RawEvent("depart", conn_id, now))
        end = max(now, conn.last_activity) + IDLE_PROBE_SECONDS + IDLE_CLOSE_SECONDS
        return self._close(conn, end)

    def client_bye(self, conn_id: int, now: float) -> SessionRecord:
        """The client sent a BYE; the session ends at the true time."""
        conn = self._require(conn_id)
        self._count_keepalives(conn, now)
        if self.record_events:
            from .sessions import RawEvent

            self.raw_events.append(RawEvent("bye", conn_id, now))
        return self._close(conn, max(now, conn.last_activity))

    def client_closed(self, conn_id: int, now: float) -> SessionRecord:
        """The client closed the TCP connection (FIN/RST).

        Socket-level closes are detected immediately, so the recorded
        end is exact.  Quick system disconnects end this way -- which is
        why the paper can observe that "29% disconnect in less than 10
        seconds" at all.
        """
        conn = self._require(conn_id)
        self._count_keepalives(conn, now)
        return self._close(conn, max(now, conn.last_activity))

    def finalize(self, end_time: float) -> List[SessionRecord]:
        """Close every still-open connection at the end of the run.

        Mirrors the paper's trace boundary: sessions still connected when
        measurement stops are recorded as ending then.  Returns all
        sessions collected over the run, in close order.
        """
        for conn_id in sorted(self._open):
            conn = self._open[conn_id]
            self._count_keepalives(conn, end_time)
            self._close(conn, max(end_time, conn.last_activity))
        return self.sessions

    # -- internals ---------------------------------------------------------------

    def _close(self, conn: OpenConnection, end: float) -> SessionRecord:
        del self._open[conn.conn_id]
        session = SessionRecord(
            peer_ip=conn.peer_ip,
            region=conn.region,
            start=conn.opened_at,
            end=end,
            queries=tuple(conn.queries),
            user_agent=conn.user_agent,
            ultrapeer=conn.ultrapeer,
            shared_files=conn.shared_files,
        )
        self.sessions.append(session)
        return session

    def _count_keepalives(self, conn: OpenConnection, now: float) -> None:
        """Account for probe PINGs (and the peer's PONG replies) during
        an idle stretch: one exchange per ``IDLE_PROBE_SECONDS`` of
        continuous idleness while the peer was still alive."""
        idle = now - conn.last_activity
        if idle <= IDLE_PROBE_SECONDS:
            return
        exchanges = int(math.floor(idle / IDLE_PROBE_SECONDS))
        self.keepalive_pings_sent += exchanges
        self.keepalive_pongs_received += exchanges

    def _require(self, conn_id: int) -> OpenConnection:
        try:
            return self._open[conn_id]
        except KeyError:
            raise KeyError(f"connection {conn_id} is not open") from None
