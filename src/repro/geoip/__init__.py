"""Synthetic GeoIP database -- substitute for MaxMind GeoIP (paper ref [10])."""

from .._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    "database": ("GeoIpDatabase", "IpAllocator"),
})
