"""The vectorized columnar synthesis backend.

Contract under test: ``run_columnar()`` emits a
:class:`~repro.measurement.columnar.ColumnarTrace` directly (no
per-event Python loop, no record objects), byte-reproducible for a
fixed (config, seed, shard layout), invariant to the worker count,
distribution-equivalent to the event reference engine, and spilled to
the sharded trace cache with no record objects in between.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.measurement import ColumnarTrace, Trace
from repro.filtering import apply_filters, apply_filters_columnar
from repro.synthesis import (
    SynthesisConfig,
    TraceCache,
    TraceSynthesizer,
    load_or_synthesize_sharded,
)
from equivalence_reference import columnar_ks_checks

CFG = SynthesisConfig(days=0.05, mean_arrival_rate=0.3, seed=1234)
#: Multi-shard layout: 0.1 days cut into 0.04-day shards (3 shards).
SHARDED = SynthesisConfig(
    days=0.1, mean_arrival_rate=0.3, seed=1234, shard_days=0.04, jobs=3
)


def _npz_bytes(trace: ColumnarTrace, tmp_path, name: str) -> bytes:
    path = tmp_path / name
    trace.save_npz(path)
    return path.read_bytes()


class TestReproducibility:
    def test_sequential_byte_reproducible(self, tmp_path):
        a = TraceSynthesizer(CFG).run_columnar()
        b = TraceSynthesizer(CFG).run_columnar()
        assert _npz_bytes(a, tmp_path, "a.npz") == _npz_bytes(b, tmp_path, "b.npz")

    def test_sharded_byte_reproducible(self, tmp_path):
        a = TraceSynthesizer(SHARDED).run_columnar()
        b = TraceSynthesizer(SHARDED).run_columnar()
        assert _npz_bytes(a, tmp_path, "a.npz") == _npz_bytes(b, tmp_path, "b.npz")

    def test_worker_count_invariant(self, tmp_path):
        # Same shard layout, different worker counts: identical bytes.
        # Content is a function of the shard geometry, never of how many
        # processes happened to compute it.
        serial = TraceSynthesizer(replace(SHARDED, jobs=1)).run_columnar()
        fanned = TraceSynthesizer(SHARDED).run_columnar()
        assert _npz_bytes(serial, tmp_path, "serial.npz") == _npz_bytes(
            fanned, tmp_path, "fanned.npz"
        )


class TestMerge:
    @pytest.fixture(scope="class")
    def merged(self):
        return TraceSynthesizer(SHARDED).run_columnar()

    def test_sessions_sorted_by_start(self, merged):
        assert np.all(np.diff(merged.session_start) >= 0)

    def test_ips_globally_unique(self, merged):
        assert np.unique(merged.session_peer_ip).size == merged.n_sessions

    def test_query_blocks_follow_session_order(self, merged):
        # CSR offsets must be consistent: monotone, ending at n_queries,
        # and each session's query rows sorted in time.
        offsets = merged.query_offsets
        assert offsets[0] == 0 and offsets[-1] == merged.n_queries
        assert np.all(np.diff(offsets) >= 0)
        idx = merged.query_session_index()
        order = np.lexsort((merged.query_timestamp, idx))
        assert np.array_equal(order, np.arange(order.size))

    def test_counters_finalized(self, merged):
        for key in ("ping_messages", "pong_messages", "query_messages",
                    "queryhit_messages", "direct_connections"):
            assert key in merged.counters, key
        assert merged.counters["direct_connections"] == merged.n_sessions
        assert "_raw_keepalive_pings" not in merged.counters

    def test_session_ends_bounded(self, merged):
        # Silent departures keep their final keepalive exchange, which
        # may land at most one 30s probe past the window edge.
        global_end = SHARDED.days * 86400.0
        assert float(merged.session_end.max()) <= global_end + 30.0


class TestEquivalence:
    #: One scale for both engines: big enough for stable distributions,
    #: small enough for the event reference to run in ~1s.
    SCALE = SynthesisConfig(days=0.2, mean_arrival_rate=0.3, seed=20040315)

    @pytest.fixture(scope="class")
    def event(self):
        return ColumnarTrace.from_trace(TraceSynthesizer(self.SCALE).run_event())

    @staticmethod
    def assert_same_volume(reference, candidate):
        # Different realizations of one process: the connection volume
        # must still agree broadly.
        gap = abs(candidate.n_connections - reference.n_connections)
        assert gap / reference.n_connections < 0.25, (
            reference.n_connections, candidate.n_connections,
        )

    def test_sequential_ks_equivalence(self, event):
        columnar = TraceSynthesizer(self.SCALE).run_columnar()
        checks = columnar_ks_checks(event, columnar)
        assert checks["ok"] is True, checks
        self.assert_same_volume(event, columnar)

    def test_sharded_ks_equivalence(self, event):
        # The sharded fast path (jobs > 1, disjoint RNG streams and IP
        # ranges per shard) must hold the same distributional contract.
        cfg = replace(self.SCALE, shard_days=0.08, jobs=2)
        columnar = TraceSynthesizer(cfg).run_columnar()
        assert np.unique(columnar.session_peer_ip).size == columnar.n_sessions
        checks = columnar_ks_checks(event, columnar)
        assert checks["ok"] is True, checks
        self.assert_same_volume(event, columnar)

    def test_sharded_event_engine_equivalence(self, event):
        # run_event() over several shards (synthesize_shards_event, the
        # path a custom model or universe takes with jobs > 1) must
        # synthesize the same process as its one-shard run.
        sharded = ColumnarTrace.from_trace(
            TraceSynthesizer(replace(self.SCALE, jobs=2)).run_event()
        )
        checks = columnar_ks_checks(event, sharded)
        assert checks["ok"] is True, checks
        self.assert_same_volume(event, sharded)


class TestBackendDispatch:
    def test_columnar_is_default(self):
        assert TraceSynthesizer(CFG).effective_backend == "columnar"

    def test_invalid_backend_rejected(self):
        # The engine is not part of the config: default wiring always
        # runs the columnar engine, so no backend value is accepted.
        for backend in ("columnar", "event", "gpu"):
            with pytest.raises(TypeError):
                SynthesisConfig(days=0.05, backend=backend)

    def test_event_backend_selected_explicitly(self):
        # run_event() reaches the event engine on a default-wiring
        # config, which run() would synthesize with the columnar engine.
        synth = TraceSynthesizer(CFG)
        assert synth.effective_backend == "columnar"
        trace = synth.run_event()
        assert isinstance(trace, Trace)
        assert trace.n_connections > 50
        assert "_raw_keepalive_pings" not in trace.counters

    def test_max_slots_falls_back_to_event(self):
        cfg = replace(CFG, max_slots=50)
        synth = TraceSynthesizer(cfg)
        assert synth.effective_backend == "event"
        # run_columnar still honours its return type via conversion.
        assert isinstance(synth.run_columnar(), ColumnarTrace)

    def test_run_returns_trace(self):
        trace = TraceSynthesizer(CFG).run()
        assert isinstance(trace, Trace)
        assert trace.n_connections > 50


class TestCacheRoundTrip:
    def test_npz_roundtrip_matches_jsonl_filter_report(self, tmp_path):
        """End to end: fast path -> .shards cache -> reload -> filter must
        equal the same trace filtered through the record/JSONL path."""
        cache = TraceCache(tmp_path / "cache")
        columnar = TraceSynthesizer(CFG).run_columnar()
        load_or_synthesize_sharded(CFG, cache=cache)

        reloaded = cache.load_sharded(CFG).concat()
        npz_report = apply_filters_columnar(reloaded).report.as_dict()

        jsonl_path = tmp_path / "trace.jsonl"
        columnar.to_trace().to_jsonl(jsonl_path)
        records = Trace.from_jsonl(jsonl_path)
        jsonl_report = apply_filters(records.sessions).report.as_dict()

        assert npz_report == jsonl_report
        assert npz_report["initial_queries"] > 0
