"""Passive measurement node, trace schema, and session reconstruction."""

from .._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    "monitor": ("IDLE_CLOSE_SECONDS", "IDLE_PROBE_SECONDS", "MeasurementNode", "OpenConnection"),
    "sessions": ("RawEvent", "reconstruct_sessions"),
    "trace": ("PongObservation", "QueryHitObservation", "Trace", "merge_traces"),
    "columnar": ("COLUMNAR_SCHEMA_VERSION", "ColumnarTrace", "normalize_keywords"),
    "shards": ("SHARD_MANIFEST_VERSION", "ShardInfo", "ShardWriter", "ShardedTrace"),
})
