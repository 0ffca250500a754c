"""File transfer layer: bandwidth classes, download generation, analysis."""

from .._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    "analysis": (
        "completion_rate_by_class", "download_size_ccdf", "throughput_by_class",
        "time_between_downloads",
    ),
    "bandwidth": ("BANDWIDTH_PROFILES", "BandwidthClass", "link_kbps", "sample_bandwidth_class"),
    "downloads": ("DownloadModel", "DownloadRecord"),
})
