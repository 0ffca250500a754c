"""Core workload model: the paper's primary contribution.

This subpackage contains the model distribution families (Appendix),
the published parameter tables, the query popularity model (Section 4.6),
and the Figure 12 synthetic workload generator.
"""

from .._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    "runtime": ("available_cpus", "host_block", "peak_rss_mb"),
    "kernels.segmented": ("segmented_arange", "segmented_cumsum"),
    "distributions": (
        "Distribution", "Empirical", "Exponential", "Lognormal", "Pareto",
        "Spliced", "Truncated", "Uniform", "Weibull", "Zipf",
    ),
    "events": ("GeneratedQuery", "GeneratedSession", "QueryRecord", "SessionRecord"),
    "fitting": (
        "SplicedFit", "ZipfFit", "fit_lognormal", "fit_pareto", "fit_spliced",
        "fit_weibull", "fit_zipf", "fit_zipf_body_tail", "ks_distance",
    ),
    "generator": ("SyntheticWorkloadGenerator",),
    "generator_columnar": (
        "ColumnarWorkload", "GeneratorTables", "generate_columnar_workload",
        "major_region_cum",
    ),
    "model": (
        "WorkloadModel", "first_query_class_codes", "interarrival_class_codes",
        "last_query_class_codes",
    ),
    "popularity": (
        "BodyTailZipf", "ClassRankSampler", "QueryClassId", "QueryUniverse",
        "SampledQuery", "region_class_probabilities", "top_n_overlap",
        "zipf_for_class",
    ),
    "regions": (
        "KEY_PERIODS", "MAJOR_REGIONS", "PEAK_HOURS", "KeyPeriod", "Region",
        "hour_of_day", "is_peak_hour", "local_hour",
    ),
    "stats": (
        "Ccdf", "TimeOfDayBinner", "ccdf_at", "empirical_ccdf", "log_bins", "rank_pmf",
    ),
    "validation": ("ComparisonVerdict", "ccdf_max_gap", "compare_models", "quantile_report"),
    "workload_io": (
        "from_jsonl", "from_npz", "session_record", "to_csv", "to_event_schedule",
        "to_jsonl", "to_npz",
    ),
})
