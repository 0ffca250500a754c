"""Peer population model: who connects, from where, sharing what.

Supplies the per-connection attributes the synthesized trace needs:

* geographic region, drawn from the Figure 1 time-of-day mix;
* a unique IP address inside the region's GeoIP blocks;
* a client implementation profile (market-share weighted);
* ultrapeer vs. leaf mode ("approximately 40% of the connections are
  from peers running in ultrapeer mode, and 60% are from leaf nodes",
  Section 3.1);
* a shared-files count matching the Figure 2 distribution, including the
  free-rider spike at zero shared files (Adar & Huberman, ref [1]).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.core.parameters import geographic_mix_arrays
from repro.core.regions import Region
from repro.geoip import GeoIpDatabase, IpAllocator
from repro.gnutella.clients import (
    ClientProfile,
    choose_profile,
    choose_profile_indices,
    profile_attribute_arrays,
)

__all__ = [
    "PeerIdentity",
    "PeerIdentityBatch",
    "PeerPopulation",
    "ULTRAPEER_FRACTION",
    "sample_shared_files",
    "sample_shared_files_batch",
]

#: Fixed region-code order shared by the batch APIs (matches the
#: columnar trace backend's ``REGION_ORDER``: the enum declaration order).
REGIONS: tuple = tuple(Region)

#: Section 3.1: ~40% of direct connections come from ultrapeers.
ULTRAPEER_FRACTION = 0.40

#: Fraction of peers sharing zero files (free riders).  Figure 2 shows
#: the zero bin near 10%; Adar & Huberman report much higher free riding
#: by *download* behaviour -- we model the advertised-library statistic.
FREE_RIDER_FRACTION = 0.10


def sample_shared_files(rng: np.random.Generator, mean_files: float = 25.0) -> int:
    """Shared-library size per Figure 2.

    A point mass at zero (free riders) plus a geometric body produces
    the roughly log-linear decay of Figure 2 over 0-100 files.
    """
    if rng.random() < FREE_RIDER_FRACTION:
        return 0
    return int(rng.geometric(1.0 / mean_files))


def sample_shared_files_batch(
    rng: np.random.Generator, count: int, mean_files: float = 25.0
) -> np.ndarray:
    """``count`` draws from the Figure 2 library-size model at once."""
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    sizes = rng.geometric(1.0 / mean_files, size=count)
    sizes[rng.random(count) < FREE_RIDER_FRACTION] = 0
    return sizes


@dataclass(frozen=True)
class PeerIdentity:
    """Static attributes of one connecting peer."""

    ip: str
    region: Region
    profile: ClientProfile
    ultrapeer: bool
    shared_files: int


@dataclass
class PeerIdentityBatch:
    """Column-oriented :class:`PeerIdentity` set, one row per connection.

    ``region_code`` indexes :data:`REGIONS`; ``profile_index`` indexes
    the population's profile pool (gather parameters with
    :func:`~repro.gnutella.clients.profile_attribute_arrays`).
    """

    ip: np.ndarray
    region_code: np.ndarray
    profile_index: np.ndarray
    ultrapeer: np.ndarray
    shared_files: np.ndarray

    def __len__(self) -> int:
        return int(self.region_code.shape[0])


class PeerPopulation:
    """Factory for connecting-peer identities.

    A single population instance hands out unique IPs for the lifetime
    of a synthesized trace, so connection counts by unique IP (Table 1)
    are meaningful.
    """

    def __init__(
        self,
        seed: int = 2004,
        geoip: Optional[GeoIpDatabase] = None,
        profiles: Optional[tuple] = None,
        ip_counter_start: int = 0,
        ip_counter_limit: Optional[int] = None,
    ):
        """``ip_counter_start``/``ip_counter_limit`` forward to the
        :class:`~repro.geoip.IpAllocator` counter range, giving parallel
        trace shards disjoint address pools (see
        :mod:`repro.synthesis.synthesizer`)."""
        self.geoip = geoip or GeoIpDatabase()
        self.profiles = tuple(profiles) if profiles is not None else None
        self._allocator = IpAllocator(
            self.geoip, seed=seed,
            counter_start=ip_counter_start, counter_limit=ip_counter_limit,
        )
        self._rng = np.random.default_rng(seed)
        self._regions, _, self._mix_cum = geographic_mix_arrays()

    def region_at(self, hour: int) -> Region:
        """Draw a region from the Figure 1 mix for the given hour."""
        cum = self._mix_cum[int(hour) % 24]
        return self._regions[int(np.searchsorted(cum, self._rng.random()))]

    def allocate_ip(self, region: Region) -> str:
        """Hand out a fresh unique address in ``region``'s blocks.

        Public seam for consumers that sample peers outside the normal
        :meth:`spawn` path (e.g. the synthesizer's background PONG/
        QUERYHIT observations), so they share the population's
        uniqueness guarantee without touching allocator internals.
        """
        return self._allocator.allocate(region)

    def allocate_ips(self, region: Region, count: int) -> List[str]:
        """Batch form of :meth:`allocate_ip`."""
        return self._allocator.allocate_many(region, count)

    def sample_background_peer(self, hour: int) -> tuple:
        """(ip, region) of one wider-network peer observed at ``hour``,
        drawn from the same Figure 1 mix as directly connecting peers
        (the paper verifies one-hop peers are representative)."""
        region = self.region_at(hour)
        return self.allocate_ip(region), region

    def spawn(self, hour: int, region: Optional[Region] = None) -> PeerIdentity:
        """Create a new peer identity for a connection starting at ``hour``."""
        rng = self._rng
        region = region or self.region_at(hour)
        profile = choose_profile(rng, self.profiles)
        ultrapeer = profile.ultrapeer_capable and rng.random() < _ultrapeer_prob(profile)
        return PeerIdentity(
            ip=self._allocator.allocate(region),
            region=region,
            profile=profile,
            ultrapeer=ultrapeer,
            shared_files=sample_shared_files(rng),
        )

    def allocate_ip_array(self, region: Region, count: int) -> np.ndarray:
        """Batch :meth:`allocate_ip` as a NumPy string array (same
        counters, so uniqueness spans both APIs)."""
        return self._allocator.allocate_array(region, count)

    def spawn_batch(self, times: np.ndarray) -> PeerIdentityBatch:
        """One identity per arrival time, drawn with batched RNG.

        The columnar form of :meth:`spawn`: regions come from the
        per-hour Figure 1 mix in one inverse-CDF pass, profiles from the
        market-share weights, the ultrapeer coin applies the same
        per-profile probability as the scalar path, and IPs are
        allocated per region in arrival order -- the ``k``-th arrival of
        a region gets the same address :meth:`spawn` would have handed
        it.
        """
        times = np.asarray(times, dtype=np.float64)
        n = times.size
        rng = self._rng
        hours = ((times % 86400.0) // 3600.0).astype(np.intp)
        region_code = (
            (rng.random(n)[:, None] > self._mix_cum[hours]).sum(axis=1).astype(np.int8)
        )
        profile_index = choose_profile_indices(
            rng, n, self.profiles if self.profiles is not None else None
        )
        pool = self.profiles if self.profiles is not None else None
        attrs = profile_attribute_arrays(pool)
        pool_profiles = tuple(pool) if pool is not None else None
        up_prob = np.array(
            [
                _ultrapeer_prob(p)
                for p in (pool_profiles or _default_profiles())
            ]
        )
        ultrapeer = attrs["ultrapeer_capable"][profile_index] & (
            rng.random(n) < up_prob[profile_index]
        )
        shared = sample_shared_files_batch(rng, n).astype(np.int64)
        ips = np.empty(n, dtype="U15")
        for code in np.unique(region_code):
            positions = np.nonzero(region_code == code)[0]
            ips[positions] = self._allocator.allocate_array(
                REGIONS[int(code)], positions.size
            )
        return PeerIdentityBatch(
            ip=ips,
            region_code=region_code,
            profile_index=profile_index,
            ultrapeer=ultrapeer,
            shared_files=shared,
        )


def _ultrapeer_prob(profile: ClientProfile) -> float:
    """Per-profile ultrapeer probability, normalized so the population
    hits the 40% aggregate of Section 3.1 given the default market mix."""
    capable_share = sum(p.market_share for p in _capable_profiles())
    if capable_share <= 0:
        return 0.0
    return min(1.0, ULTRAPEER_FRACTION / capable_share)


def _capable_profiles():
    from repro.gnutella.clients import CLIENT_PROFILES

    return [p for p in CLIENT_PROFILES if p.ultrapeer_capable]


def _default_profiles():
    from repro.gnutella.clients import CLIENT_PROFILES

    return CLIENT_PROFILES
