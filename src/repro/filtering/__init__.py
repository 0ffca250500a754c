"""Section 3.3 filter rules: separating user behaviour from client software."""

from .._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    "pipeline": ("FilterReport", "FilterResult", "apply_filters"),
    "columnar": ("ColumnarFilterResult", "apply_filters_columnar"),
    "streaming": ("StreamingFilter", "split_for_streaming"),
    "rules": (
        "INTERARRIVAL_EPSILON", "rule1_sha1", "rule2_duplicates",
        "rule3_short_sessions", "rule45_interarrival_marks",
    ),
})
