"""Per-figure/table characterizations of a (filtered) trace."""

from .._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    "availability": ("ChurnProfile", "aggregate_availability", "churn_by_hour", "concurrency_curve"),
    "caching": ("LruResultCache", "cache_hit_rates", "query_stream"),
    "correlations": ("CorrelationResult", "session_correlations", "spearman"),
    "active": (
        "ActiveSession", "active_sessions", "first_query_ccdf", "interarrival_ccdf",
        "queries_per_session_ccdf", "queries_per_session_ccdf_unfiltered",
        "time_after_last_ccdf",
    ),
    "common": (
        "MAJOR", "session_start_hour", "session_start_period", "sessions_by_region",
        "StreamingReducer",
    ),
    "geographic": ("GeographicProfile", "geographic_distribution"),
    "hits": (
        "HitRateSummary", "hit_rate_by_popularity_decile", "hit_rate_by_region",
        "hit_rate_summary", "hits_ccdf",
    ),
    "load": ("LoadProfile", "peak_period_table", "query_load"),
    "passive": (
        "PassiveFractionProfile", "passive_duration_ccdf_by_period",
        "passive_duration_ccdf_by_region", "passive_fraction_by_hour",
    ),
    "popularity": (
        "PopularityFit", "daily_class_ranking", "daily_region_counts", "drift_counts",
        "drift_distribution", "fit_class_popularity", "popularity_pmf",
        "query_class_sizes",
    ),
    "shared_files": ("SharedFilesProfile", "shared_files_distribution"),
    "streaming": (
        "ActiveArrays", "PassiveDurations", "StreamingActive", "StreamingAnalysis",
        "StreamingGeographic", "StreamingPassiveDurations", "StreamingPassiveFraction",
        "StreamingPopularity", "StreamingQueryLoad", "StreamingSharedFiles",
        "run_streaming",
    ),
    "summary": ("table1", "table1_comparison", "table2", "table2_comparison"),
})
