"""Sharded on-disk traces: round-trip, manifest totals, concat parity.

The out-of-core pipeline only earns its bounded memory if the shard
spill is lossless: ``run_sharded(...).concat()`` must be byte-identical
to ``run_columnar()`` for the same config (the shard windows partition
the per-shard RNG streams, so "same config" includes ``shard_days``).
"""

import dataclasses

import numpy as np
import pytest

from repro.measurement import ColumnarTrace
from repro.measurement.shards import ShardWriter, ShardedTrace
from repro.synthesis import SynthesisConfig, TraceSynthesizer

from .test_columnar import make_trace


def assert_columnar_identical(a: ColumnarTrace, b: ColumnarTrace):
    """Field-by-field equality, dtype-exact for every array column."""
    for field in dataclasses.fields(ColumnarTrace):
        va, vb = getattr(a, field.name), getattr(b, field.name)
        if isinstance(va, np.ndarray):
            assert va.dtype == vb.dtype, field.name
            assert np.array_equal(va, vb), field.name
        else:
            assert va == vb, field.name


@pytest.fixture(scope="module")
def sharded_config():
    # Four shard windows over 0.4 days, small enough to synthesize in
    # seconds but with sessions genuinely spanning shard edges.
    return SynthesisConfig(
        days=0.4, mean_arrival_rate=0.3, seed=777, shard_days=0.1
    )


@pytest.fixture(scope="module")
def sharded(sharded_config, tmp_path_factory):
    dest = tmp_path_factory.mktemp("shards") / "trace"
    return TraceSynthesizer(sharded_config).run_sharded(dest)


class TestShardWriter:
    def test_round_trip_through_open(self, tmp_path):
        parts = [
            ColumnarTrace.from_trace(make_trace(offset=0.0)),
            ColumnarTrace.from_trace(make_trace(offset=86400.0)),
        ]
        writer = ShardWriter(tmp_path / "t", 0.0, 2 * 86400.0)
        for part in parts:
            writer.append(part)
        written = writer.close({"ping_messages": 84, "query_messages": 14})

        reopened = ShardedTrace.open(tmp_path / "t")
        assert reopened.n_shards == 2
        assert reopened.n_sessions == sum(p.n_sessions for p in parts)
        assert reopened.counters == {"ping_messages": 84, "query_messages": 14}
        for loaded, part in zip(reopened.iter_shards(), parts):
            # Shard windows differ from the parts' own bounds; the
            # payload columns must survive the spill bit-for-bit.
            assert np.array_equal(loaded.session_start, part.session_start)
            assert np.array_equal(loaded.query_keywords, part.query_keywords)
            assert loaded.counters == part.counters
        assert_columnar_identical(written.concat(), reopened.concat())

    def test_open_without_manifest_rejected(self, tmp_path):
        with pytest.raises((FileNotFoundError, OSError)):
            ShardedTrace.open(tmp_path / "absent")


class TestShardedSynthesis:
    def test_manifest_totals_match_payload(self, sharded, sharded_config):
        assert sharded.n_shards == 4
        assert sharded.duration_days == pytest.approx(sharded_config.days)
        whole = sharded.concat()
        assert sharded.n_sessions == whole.n_sessions
        assert sharded.n_queries == whole.n_queries
        assert sharded.counters == whole.counters
        hop1 = int(np.count_nonzero(whole.query_hops == 1))
        assert sharded.hop1_query_count() == hop1

    def test_shards_are_time_ordered_and_windowed(self, sharded):
        # Sessions belong to the shard whose window holds their *start*
        # (they may outlive it, so every shard's end is the trace end);
        # canonical in-shard sort keeps starts monotone, and the window
        # starts tile the trace without overlap.
        chunks = list(sharded.iter_shards())
        window_starts = [chunk.start_time for chunk in chunks]
        assert window_starts == sorted(window_starts)
        assert window_starts[0] == 0.0
        for i, chunk in enumerate(chunks):
            assert chunk.end_time == chunks[-1].end_time
            if chunk.n_sessions:
                starts = chunk.session_start
                assert np.all(np.diff(starts) >= 0)
                assert starts[0] >= chunk.start_time
                if i + 1 < len(chunks):
                    assert starts[-1] < chunks[i + 1].start_time

    def test_concat_identical_to_in_memory_run(self, sharded, sharded_config):
        # Same config on both sides: shard windows partition the RNG
        # streams, so shard_days is part of the trace identity.
        in_memory = TraceSynthesizer(sharded_config).run_columnar()
        assert_columnar_identical(sharded.concat(), in_memory)

    def test_event_backend_cannot_shard(self, tmp_path):
        # A slot cap falls back to the event engine, which has no
        # on-disk sharded path.
        config = SynthesisConfig(days=0.1, seed=1, max_slots=50)
        assert TraceSynthesizer(config).effective_backend == "event"
        with pytest.raises(ValueError, match="columnar engine"):
            TraceSynthesizer(config).run_sharded(tmp_path / "t")
