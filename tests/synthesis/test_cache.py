"""Content-addressed trace cache: keying, round-trips, and hygiene.

Every entry is a ``<key>.shards`` directory; JSON lines and the
whole-trace ``.npz`` files older versions wrote are never read.
"""

import pytest

from repro.measurement import ColumnarTrace
from repro.synthesis import (
    SynthesisConfig,
    TraceCache,
    TraceSynthesizer,
    default_cache_dir,
    load_or_synthesize_sharded,
    trace_cache_key,
)


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
        assert cache.load_sharded(self.CFG) is None
        cold = load_or_synthesize_sharded(self.CFG, cache=cache)
        assert cold.root == cache.shards_path_for(self.CFG)
        warm = cache.load_sharded(self.CFG)
        assert warm is not None
        assert warm.counters == cold.counters
        assert warm.n_sessions == cold.n_sessions
        assert load_or_synthesize_sharded(self.CFG, cache=cache).shards == cold.shards

    def test_load_sharded_misses_cold_cache(self, tmp_path):
        # A miss writes nothing: the cache root is not made, and an entry
        # for another config does not answer this one.
        absent = TraceCache(tmp_path / "absent")
        assert absent.load_sharded(self.CFG) is None
        assert not absent.root.exists()
        cache = TraceCache(tmp_path / "cache")
        load_or_synthesize_sharded(SynthesisConfig(days=0.02, seed=7), cache=cache)
        assert cache.load_sharded(self.CFG) is None

    def test_cached_trace_equals_fresh_synthesis(self, tmp_path):
        cache = TraceCache(tmp_path)
        load_or_synthesize_sharded(self.CFG, cache=cache)
        cached = load_or_synthesize_sharded(self.CFG, cache=cache)  # warm read
        fresh = TraceSynthesizer(self.CFG).run()
        a, b = tmp_path / "cached.jsonl", tmp_path / "fresh.jsonl"
        cached.concat().to_trace().to_jsonl(a)
        fresh.to_jsonl(b)
        assert a.read_bytes() == b.read_bytes()

    def test_use_cache_false_bypasses(self, tmp_path):
        cache = TraceCache(tmp_path / "cache")
        sharded = load_or_synthesize_sharded(
            self.CFG, cache=cache, use_cache=False, workdir=tmp_path / "work"
        )
        assert sharded.root == tmp_path / "work"
        assert cache.load_sharded(self.CFG) is None
        assert not cache.root.exists()
        with pytest.raises(ValueError, match="workdir"):
            load_or_synthesize_sharded(self.CFG, cache=cache, use_cache=False)

    def test_corrupt_entry_is_a_miss_and_removed(self, tmp_path):
        cache = TraceCache(tmp_path)
        load_or_synthesize_sharded(self.CFG, cache=cache)
        path = cache.shards_path_for(self.CFG)
        (path / "manifest.json").write_text("not json at all\n")
        assert cache.load_sharded(self.CFG) is None
        assert not path.exists()

    def test_truncated_jsonl_entry_is_a_miss(self, tmp_path):
        # JSON lines are an interchange format, not a cache format: a
        # JSONL file under the entry's key, whole or truncated, is never
        # read, and the cache synthesizes a fresh .shards entry instead.
        cache = TraceCache(tmp_path)
        trace = TraceSynthesizer(self.CFG).run()
        jsonl = cache.shards_path_for(self.CFG).with_suffix(".jsonl")
        trace.to_jsonl(jsonl)
        assert cache.load_sharded(self.CFG) is None
        lines = jsonl.read_text().splitlines()
        jsonl.write_text("\n".join(lines[1:]) + "\n")
        assert cache.load_sharded(self.CFG) is None
        assert load_or_synthesize_sharded(self.CFG, cache=cache).counters == trace.counters
        assert cache.load_sharded(self.CFG) is not None

    def test_truncated_npz_entry_is_a_miss(self, tmp_path):
        # Whole-trace .npz entries are what older versions wrote; one
        # under the entry's key, whole or truncated, is never read.
        cache = TraceCache(tmp_path)
        npz = cache.shards_path_for(self.CFG).with_suffix(".npz")
        TraceSynthesizer(self.CFG).run_columnar().save_npz(npz)
        assert cache.load_sharded(self.CFG) is None
        npz.write_bytes(npz.read_bytes()[: npz.stat().st_size // 2])
        assert cache.load_sharded(self.CFG) is None
        load_or_synthesize_sharded(self.CFG, cache=cache)
        assert cache.load_sharded(self.CFG) is not None

    def test_clear_removes_entries(self, tmp_path):
        cache = TraceCache(tmp_path)
        load_or_synthesize_sharded(self.CFG, cache=cache)
        # An entry an older version wrote goes too.
        (tmp_path / "0123456789abcdef.npz").write_bytes(b"PK")
        assert cache.clear() == 2
        assert cache.load_sharded(self.CFG) is None
        assert cache.clear() == 0

    def test_store_writes_loadable_npz_by_default(self, tmp_path):
        # A cache entry is a directory of loadable columnar .npz shards.
        cache = TraceCache(tmp_path)
        sharded = load_or_synthesize_sharded(self.CFG, cache=cache)
        trace = TraceSynthesizer(self.CFG).run()
        assert sharded.root.suffix == ".shards"
        assert [p.suffix for p in sorted(sharded.root.iterdir())] == [".json", ".npz"]
        loaded = ColumnarTrace.load_npz(sharded.root / sharded.shards[0].file)
        assert loaded.n_sessions == len(trace.sessions)
        assert sharded.counters == trace.counters

    def test_unknown_format_rejected(self, tmp_path):
        # The cache has one entry format, so it takes no format at all.
        for fmt in ("npz", "jsonl", "parquet"):
            with pytest.raises(TypeError):
                TraceCache(tmp_path, format=fmt)
        assert not hasattr(TraceCache(tmp_path), "format")


class TestLostWriteRace:
    """Another process completes the same entry while this one synthesizes."""

    CFG = SynthesisConfig(days=0.02, seed=31337)

    @pytest.fixture
    def racing(self, tmp_path, monkeypatch):
        import shutil

        from repro.synthesis import cache as cache_module

        cache = TraceCache(tmp_path / "cache")
        runs = []

        class RacingSynthesizer:
            """Finishes the final entry itself just before returning, so
            this writer's rename finds the entry already in place."""

            def __init__(self, config):
                self.config = config

            def run_sharded(self, dest):
                runs.append(dest)
                sharded = TraceSynthesizer(self.config).run_sharded(dest)
                shutil.copytree(dest, cache.shards_path_for(self.config))
                return sharded

        monkeypatch.setattr(cache_module, "_synthesizer", RacingSynthesizer)
        return cache, runs

    def test_loser_returns_the_winning_entry(self, racing, tmp_path):
        import warnings

        cache, runs = racing
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sharded = load_or_synthesize_sharded(
                self.CFG, cache=cache, workdir=tmp_path / "work"
            )
        assert len(runs) == 1
        assert sharded.root == cache.shards_path_for(self.CFG)
        assert not (tmp_path / "work").exists()
        # The loser's temporary directory is gone.
        assert sorted(cache.root.iterdir()) == [sharded.root]

    def test_loser_without_workdir_does_not_raise(self, racing):
        cache, runs = racing
        sharded = load_or_synthesize_sharded(self.CFG, cache=cache)
        assert len(runs) == 1
        assert sharded.root == cache.shards_path_for(self.CFG)
        assert sharded.counters == TraceSynthesizer(self.CFG).run().counters


class TestExperimentContextCache:
    def test_context_populates_and_reuses_cache(self, tmp_path):
        from repro.experiments import ExperimentContext

        cfg = SynthesisConfig(days=0.02, seed=99)
        cache = TraceCache(tmp_path)
        ctx = ExperimentContext(cfg, cache=cache)
        trace = ctx.shards
        assert trace.root == cache.shards_path_for(cfg)
        assert [p.suffix for p in sorted(tmp_path.iterdir())] == [".shards"]
        ctx2 = ExperimentContext(cfg, cache=cache)
        assert ctx2.shards.counters == trace.counters

    def test_context_cache_false_bypasses(self, tmp_path, monkeypatch):
        from repro.experiments import ExperimentContext

        monkeypatch.setenv("REPRO_P2P_CACHE", str(tmp_path))
        cfg = SynthesisConfig(days=0.02, seed=99)
        ctx = ExperimentContext(cfg, cache=False)
        ctx.shards
        assert TraceCache().load_sharded(cfg) is None
        assert sorted(tmp_path.iterdir()) == []

    def test_unwritable_cache_falls_back_to_a_private_directory(self, tmp_path):
        # An unwritable cache must not discard a finished synthesis: the
        # context warns and synthesizes into its own directory.
        from repro.experiments import ExperimentContext

        blocker = tmp_path / "not-a-directory"
        blocker.write_text("")
        cfg = SynthesisConfig(days=0.02, seed=99)
        ctx = ExperimentContext(cfg, cache=TraceCache(blocker))
        with pytest.warns(RuntimeWarning, match="could not write"):
            sharded = ctx.shards
        assert sharded.counters == ExperimentContext(cfg).shards.counters

    def test_context_jobs_override(self):
        from repro.experiments import ExperimentContext

        ctx = ExperimentContext(SynthesisConfig(days=0.02), jobs=3, cache=False)
        assert ctx.config.jobs == 3
