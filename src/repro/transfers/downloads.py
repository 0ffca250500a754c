"""Download generation: from answered queries to file transfers.

The paper characterizes the *search* half of file sharing; the transfer
half is what the searches exist for.  This module derives a download
event log from a (filtered) trace: a user whose query was answered
initiates a download with some probability, picks a responder, and
transfers a media-sized file across the bottleneck of the two peers'
access links (after Saroiu et al.), possibly aborting mid-way -- giving
the downstream measures related work reports (Gummadi et al.'s download
sizes, Sen & Wang's time between downloads).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.distributions import Lognormal
from repro.core.events import SessionRecord
from repro.core.regions import Region
from repro.measurement.columnar import REGION_ORDER

from .bandwidth import BandwidthClass, link_kbps, sample_bandwidth_class

__all__ = ["DownloadRecord", "DownloadModel"]


@dataclass(frozen=True)
class DownloadRecord:
    """One attempted file transfer."""

    started_at: float
    peer_ip: str
    region: Region
    keywords: str
    size_bytes: int
    duration_seconds: float
    completed: bool
    requester_class: BandwidthClass
    responder_class: BandwidthClass

    @property
    def throughput_kbps(self) -> float:
        if self.duration_seconds <= 0:
            return 0.0
        transferred = self.size_bytes if self.completed else self.size_bytes * 0.5
        return transferred * 8.0 / 1000.0 / self.duration_seconds


class DownloadModel:
    """Derives downloads from a trace's answered queries.

    Parameters
    ----------
    download_prob:
        Probability an answered query leads to a download attempt.
    size_mu, size_sigma:
        Lognormal file size (bytes).  The defaults centre on ~3.7 MB --
        an MP3-era median (Gummadi et al. report most fetches are small
        audio objects with a long video tail).
    abort_prob:
        Probability the transfer aborts halfway (source departs).
    efficiency:
        Fraction of the nominal bottleneck bandwidth actually achieved.
    """

    def __init__(
        self,
        download_prob: float = 0.55,
        size_mu: float = 15.13,   # exp(15.13) ~ 3.7 MB
        size_sigma: float = 1.1,
        abort_prob: float = 0.25,
        efficiency: float = 0.6,
        seed: int = 31,
    ):
        for name, value in (("download_prob", download_prob), ("abort_prob", abort_prob)):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be a probability, got {value}")
        if not 0.0 < efficiency <= 1.0:
            raise ValueError("efficiency must be in (0, 1]")
        self.download_prob = download_prob
        self.size_dist = Lognormal(size_mu, size_sigma)
        self.abort_prob = abort_prob
        self.efficiency = efficiency
        self._rng = np.random.default_rng(seed)

    def generate(self, sessions: Sequence[SessionRecord]) -> List[DownloadRecord]:
        """One pass over the trace: answered queries spawn downloads."""
        downloads: List[DownloadRecord] = []
        for session in sessions:
            answered = [
                (query.timestamp, query.keywords)
                for query in session.queries
                if query.hits > 0 and not query.sha1
            ]
            downloads.extend(
                self._session_downloads(
                    session.peer_ip, session.region, session.ultrapeer, answered
                )
            )
        downloads.sort(key=lambda d: d.started_at)
        return downloads

    def generate_from_columns(self, queries, keywords: np.ndarray) -> List[DownloadRecord]:
        """:meth:`generate` over flat session-major query columns.

        ``queries`` carries per-query ``timestamp``, ``keyword`` (codes
        into ``keywords``), ``hits`` and ``sha1``, and per-session CSR
        ``offsets`` with ``peer_ip``, ``region`` (REGION_CODE) and
        ``ultrapeer`` -- e.g. a
        :class:`~repro.analysis.streaming.KeptQueries`.  The RNG draws
        happen in the same order as :meth:`generate` over the sessions
        the columns were taken from, so the downloads are equal.
        """
        answered = np.flatnonzero((queries.hits > 0) & ~queries.sha1)
        owner = np.searchsorted(queries.offsets, answered, side="right") - 1
        sessions, first = np.unique(owner, return_index=True)
        bounds = np.append(first, answered.size).tolist()
        timestamps = queries.timestamp[answered].tolist()
        strings = keywords[queries.keyword[answered]].tolist()
        downloads: List[DownloadRecord] = []
        for j, session in enumerate(sessions.tolist()):
            lo, hi = bounds[j], bounds[j + 1]
            downloads.extend(
                self._session_downloads(
                    str(queries.peer_ip[session]),
                    REGION_ORDER[queries.region[session]],
                    bool(queries.ultrapeer[session]),
                    zip(timestamps[lo:hi], strings[lo:hi]),
                )
            )
        downloads.sort(key=lambda d: d.started_at)
        return downloads

    def _session_downloads(
        self,
        peer_ip: str,
        region: Region,
        ultrapeer: bool,
        answered: Iterable[Tuple[float, str]],
    ) -> Iterator[DownloadRecord]:
        """Downloads spawned by one session's answered ``(timestamp,
        keywords)`` queries, drawing from the model RNG in query order."""
        rng = self._rng
        requester_class: Optional[BandwidthClass] = None
        for timestamp, keywords in answered:
            if rng.random() >= self.download_prob:
                continue
            if requester_class is None:
                requester_class = sample_bandwidth_class(rng, ultrapeer)
            responder_class = sample_bandwidth_class(rng, ultrapeer=rng.random() < 0.4)
            size = int(max(self.size_dist.sample(rng), 10_000))
            down_kbps, _ = link_kbps(requester_class)
            _, up_kbps = link_kbps(responder_class)
            bottleneck = min(down_kbps, up_kbps) * self.efficiency
            full_duration = size * 8.0 / 1000.0 / bottleneck
            completed = rng.random() >= self.abort_prob
            duration = full_duration if completed else full_duration * rng.uniform(0.05, 0.95)
            # The download starts shortly after the results arrive.
            start = timestamp + rng.uniform(2.0, 30.0)
            yield DownloadRecord(
                started_at=start,
                peer_ip=peer_ip,
                region=region,
                keywords=keywords,
                size_bytes=size,
                duration_seconds=float(duration),
                completed=completed,
                requester_class=requester_class,
                responder_class=responder_class,
            )
