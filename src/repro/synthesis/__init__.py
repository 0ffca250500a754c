"""Trace synthesis: substitute for the paper's 40-day live measurement."""

from .._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    "cache": (
        "TraceCache", "default_cache_dir", "load_or_synthesize_sharded", "trace_cache_key",
    ),
    "config": ("SynthesisConfig", "shard_windows"),
    "hits": ("HitModel",),
    "scenarios": ("SCENARIOS", "scenario_config"),
    "synthesizer": ("BACKGROUND_RATIOS", "TraceSynthesizer", "synthesize_trace"),
})
