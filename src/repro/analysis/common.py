"""Shared helpers for the per-figure analyses."""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.core.events import SessionRecord
from repro.core.regions import KeyPeriod, Region, hour_of_day

__all__ = [
    "session_start_hour",
    "session_start_period",
    "sessions_by_region",
    "MAJOR",
]

MAJOR = (Region.NORTH_AMERICA, Region.EUROPE, Region.ASIA)


def session_start_hour(session: SessionRecord) -> int:
    """Measurement-node hour in which the session started."""
    return hour_of_day(session.start)


def session_start_period(session: SessionRecord) -> Optional[KeyPeriod]:
    """The Section 4.2 key period the session starts in, if any."""
    hour = session_start_hour(session)
    for period in KeyPeriod:
        if period.start_hour == hour:
            return period
    return None


def sessions_by_region(sessions: Iterable[SessionRecord]) -> Dict[Region, List[SessionRecord]]:
    """Split sessions into the three characterized regions (OTHER dropped)."""
    out: Dict[Region, List[SessionRecord]] = {r: [] for r in MAJOR}
    for session in sessions:
        if session.region in out:
            out[session.region].append(session)
    return out
