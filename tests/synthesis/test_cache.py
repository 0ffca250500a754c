"""Content-addressed trace cache: keying, round-trips, and hygiene."""

import json

import pytest

from repro.synthesis import (
    SynthesisConfig,
    TraceCache,
    TraceSynthesizer,
    default_cache_dir,
    load_or_synthesize,
    trace_cache_key,
)
from repro.synthesis.cache import effective_shard_count


class TestCacheKey:
    def test_key_is_deterministic(self):
        cfg = SynthesisConfig(days=0.1, seed=7)
        assert trace_cache_key(cfg) == trace_cache_key(SynthesisConfig(days=0.1, seed=7))

    def test_key_ignores_worker_count_at_fixed_shards(self):
        a = SynthesisConfig(days=0.1, jobs=2, shard_days=0.05)
        b = SynthesisConfig(days=0.1, jobs=8, shard_days=0.05)
        assert trace_cache_key(a) == trace_cache_key(b)

    def test_key_tracks_shard_count(self):
        # jobs changes the derived shard count when shard_days is unset,
        # and the shard count changes trace content.
        a = SynthesisConfig(days=0.1, jobs=1)
        b = SynthesisConfig(days=0.1, jobs=4)
        assert trace_cache_key(a) != trace_cache_key(b)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("days", 0.2),
            ("mean_arrival_rate", 0.5),
            ("seed", 8),
            ("max_slots", 100),
            ("bye_prob", 0.10),
            ("quick_query_prob", 0.20),
            ("background_samples_per_hour", 60),
        ],
    )
    def test_key_tracks_every_content_field(self, field, value):
        import dataclasses

        base = SynthesisConfig(days=0.1, seed=7)
        changed = dataclasses.replace(base, **{field: value})
        assert trace_cache_key(base) != trace_cache_key(changed)

    def test_slot_capped_config_counts_one_shard(self):
        cfg = SynthesisConfig(days=0.1, jobs=4, max_slots=50)
        assert effective_shard_count(cfg) == 1


class TestDefaultCacheDir:
    def test_env_override_wins(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_P2P_CACHE", str(tmp_path / "override"))
        assert default_cache_dir() == tmp_path / "override"

    def test_xdg_fallback(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_P2P_CACHE", raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert default_cache_dir() == tmp_path / "xdg" / "repro-p2p" / "traces"


class TestCacheRoundTrip:
    CFG = SynthesisConfig(days=0.02, seed=31337)

    def test_cold_miss_then_warm_hit(self, tmp_path):
        cache = TraceCache(tmp_path)
        assert cache.load(self.CFG) is None
        trace = load_or_synthesize(self.CFG, cache=cache)
        assert cache.contains(self.CFG)
        warm = load_or_synthesize(self.CFG, cache=cache)
        assert warm.counters == trace.counters
        assert len(warm.sessions) == len(trace.sessions)

    def test_cached_trace_equals_fresh_synthesis(self, tmp_path):
        cache = TraceCache(tmp_path)
        cached = load_or_synthesize(self.CFG, cache=cache)
        cached = load_or_synthesize(self.CFG, cache=cache)  # warm read
        fresh = TraceSynthesizer(self.CFG).run()
        a, b = tmp_path / "cached.jsonl", tmp_path / "fresh.jsonl"
        cached.to_jsonl(a)
        fresh.to_jsonl(b)
        assert a.read_bytes() == b.read_bytes()

    def test_use_cache_false_bypasses(self, tmp_path):
        cache = TraceCache(tmp_path)
        load_or_synthesize(self.CFG, cache=cache, use_cache=False)
        assert not cache.contains(self.CFG)

    def test_corrupt_entry_is_a_miss_and_removed(self, tmp_path):
        cache = TraceCache(tmp_path)
        load_or_synthesize(self.CFG, cache=cache)
        path = cache.path_for(self.CFG)
        path.write_text("not json at all\n")
        assert cache.load(self.CFG) is None
        assert not path.exists()

    def test_truncated_jsonl_entry_is_a_miss(self, tmp_path):
        cache = TraceCache(tmp_path, format="jsonl")
        load_or_synthesize(self.CFG, cache=cache)
        path = cache.path_for(self.CFG)
        # drop the header line: structurally valid JSON, wrong shape
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[1:]) + "\n")
        assert cache.load(self.CFG) is None

    def test_truncated_npz_entry_is_a_miss(self, tmp_path):
        cache = TraceCache(tmp_path)
        load_or_synthesize(self.CFG, cache=cache)
        path = cache.path_for(self.CFG)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        assert cache.load(self.CFG) is None
        assert not path.exists()

    def test_clear_removes_entries(self, tmp_path):
        cache = TraceCache(tmp_path)
        load_or_synthesize(self.CFG, cache=cache)
        assert cache.clear() == 1
        assert not cache.contains(self.CFG)
        assert cache.clear() == 0

    def test_store_writes_loadable_npz_by_default(self, tmp_path):
        from repro.measurement import ColumnarTrace

        cache = TraceCache(tmp_path)
        trace = TraceSynthesizer(self.CFG).run()
        path = cache.store(self.CFG, trace)
        assert path.suffix == ".npz"
        loaded = ColumnarTrace.load_npz(path)
        assert loaded.counters == trace.counters
        assert loaded.n_sessions == len(trace.sessions)

    def test_store_jsonl_format_writes_archival_schema(self, tmp_path):
        from repro.measurement import Trace

        cache = TraceCache(tmp_path, format="jsonl")
        trace = TraceSynthesizer(self.CFG).run()
        path = cache.store(self.CFG, trace)
        assert path.suffix == ".jsonl"
        assert json.loads(path.read_text().splitlines()[0])["kind"] == "header"
        assert Trace.from_jsonl(path).counters == trace.counters

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="format"):
            TraceCache(tmp_path, format="parquet")


class TestCacheCrossFormat:
    """Entries written in one format stay warm for caches using the other."""

    CFG = SynthesisConfig(days=0.02, seed=31337)

    def test_jsonl_entry_readable_by_npz_cache(self, tmp_path):
        writer = TraceCache(tmp_path, format="jsonl")
        trace = load_or_synthesize(self.CFG, cache=writer)
        reader = TraceCache(tmp_path, format="npz")
        assert reader.contains(self.CFG)
        assert reader.load(self.CFG).counters == trace.counters

    def test_npz_entry_readable_by_jsonl_cache(self, tmp_path):
        writer = TraceCache(tmp_path, format="npz")
        trace = load_or_synthesize(self.CFG, cache=writer)
        reader = TraceCache(tmp_path, format="jsonl")
        assert reader.contains(self.CFG)
        assert reader.load(self.CFG).counters == trace.counters

    def test_load_columnar_from_npz_and_jsonl(self, tmp_path):
        npz = TraceCache(tmp_path / "npz", format="npz")
        jsonl = TraceCache(tmp_path / "jsonl", format="jsonl")
        trace = load_or_synthesize(self.CFG, cache=npz)
        jsonl.store(self.CFG, trace)
        from_npz = npz.load_columnar(self.CFG)
        from_jsonl = jsonl.load_columnar(self.CFG)
        assert from_npz.n_sessions == from_jsonl.n_sessions == len(trace.sessions)
        assert from_npz.counters == from_jsonl.counters == trace.counters
        assert from_npz.to_trace().sessions == trace.sessions

    def test_load_columnar_misses_cold_cache(self, tmp_path):
        assert TraceCache(tmp_path).load_columnar(self.CFG) is None


class TestExperimentContextCache:
    def test_context_populates_and_reuses_cache(self, tmp_path):
        from repro.experiments import ExperimentContext

        cfg = SynthesisConfig(days=0.02, seed=99)
        cache = TraceCache(tmp_path)
        ctx = ExperimentContext(cfg, cache=cache)
        trace = ctx.columnar
        assert cache.contains(cfg)
        ctx2 = ExperimentContext(cfg, cache=cache)
        assert ctx2.columnar.counters == trace.counters

    def test_context_cache_false_bypasses(self, tmp_path, monkeypatch):
        from repro.experiments import ExperimentContext

        monkeypatch.setenv("REPRO_P2P_CACHE", str(tmp_path))
        cfg = SynthesisConfig(days=0.02, seed=99)
        ctx = ExperimentContext(cfg, cache=False)
        ctx.columnar
        assert not TraceCache().contains(cfg)

    def test_context_jobs_override(self):
        from repro.experiments import ExperimentContext

        ctx = ExperimentContext(SynthesisConfig(days=0.02), jobs=3, cache=False)
        assert ctx.config.jobs == 3
