"""Figures 4 and 5: passive peers.

Figure 4: fraction of sessions starting in each 1-hour bin that issue no
queries, per region, with min/avg/max across days.

Figure 5: CCDF of connected session duration for passive peers, (a) per
region, (b)/(c) per Section 4.2 key period within a region.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from repro.core.events import SessionRecord
from repro.core.regions import KeyPeriod, Region
from repro.core.stats import Ccdf, TimeOfDayBinner, empirical_ccdf, ratio_binner_fraction

from .common import MAJOR, session_start_period

__all__ = [
    "PassiveFractionProfile",
    "passive_fraction_by_hour",
    "passive_duration_ccdf_by_region",
    "passive_duration_ccdf_by_period",
]


@dataclass
class PassiveFractionProfile:
    """Figure 4 curves for one region."""

    region: Region
    bin_hours: np.ndarray
    average: np.ndarray
    minimum: np.ndarray
    maximum: np.ndarray

    @property
    def overall_average(self) -> float:
        return float(np.nanmean(self.average))

    @property
    def diurnal_swing(self) -> float:
        """Peak-to-trough fluctuation of the average curve."""
        return float(np.nanmax(self.average) - np.nanmin(self.average))


def passive_fraction_by_hour(sessions: Sequence[SessionRecord]) -> Dict[Region, PassiveFractionProfile]:
    """Compute the Figure 4 curves from filtered sessions.

    "We count the number of peer sessions that begin in a 1-hour
    interval that issue no queries ... and calculate the ratio to all
    sessions that start in the same hour."
    """
    passive = {r: TimeOfDayBinner() for r in MAJOR}
    total = {r: TimeOfDayBinner() for r in MAJOR}
    for session in sessions:
        if session.region not in total:
            continue
        total[session.region].add(session.start)
        if session.is_passive:
            passive[session.region].add(session.start)
        else:
            passive[session.region].add(session.start, 0.0)
    profiles: Dict[Region, PassiveFractionProfile] = {}
    for region in MAJOR:
        if not total[region].days:
            continue  # no sessions from this region in the trace
        avg, lo, hi = ratio_binner_fraction(passive[region], total[region])
        profiles[region] = PassiveFractionProfile(
            region=region,
            bin_hours=total[region].bin_starts_hours(),
            average=avg,
            minimum=lo,
            maximum=hi,
        )
    return profiles


def passive_duration_ccdf_by_region(
    sessions: Sequence[SessionRecord],
) -> Dict[Region, Ccdf]:
    """Figure 5(a): passive session duration CCDF per region (seconds)."""
    out: Dict[Region, Ccdf] = {}
    for region in MAJOR:
        durations = [
            s.duration for s in sessions if s.region is region and s.is_passive
        ]
        if durations:
            out[region] = empirical_ccdf(durations)
    return out


def passive_duration_ccdf_by_period(
    sessions: Sequence[SessionRecord],
    region: Region,
) -> Dict[KeyPeriod, Ccdf]:
    """Figures 5(b)/(c): duration CCDF per key start period, one region."""
    out: Dict[KeyPeriod, Ccdf] = {}
    for period in KeyPeriod:
        durations = [
            s.duration
            for s in sessions
            if s.region is region and s.is_passive and session_start_period(s) is period
        ]
        if durations:
            out[period] = empirical_ccdf(durations)
    return out
