"""Sharded on-disk traces: round-trip, manifest totals, concat parity.

The out-of-core pipeline only earns its bounded memory if the shard
spill is lossless: ``run_sharded(...).concat()`` must be byte-identical
to ``run_columnar()`` for the same config (the shard windows partition
the per-shard RNG streams, so "same config" includes ``shard_days``).
"""

import dataclasses
import weakref
import zipfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.measurement import ColumnarTrace
from repro.measurement.columnar import ColumnarTraceBuilder
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
            assert np.array_equal(loaded.query_keywords(), part.query_keywords())
            assert np.array_equal(loaded.session_user_agents(), part.session_user_agents())
            assert loaded.counters == part.counters
        assert_columnar_identical(written.concat(), reopened.concat())

    def test_raw_part_is_released_before_the_write(self, tmp_path, monkeypatch):
        # The writer holds one copy of a shard: the raw part it was
        # handed (the caller keeps no reference) is dead by the time the
        # canonical shard is written.
        refs, alive_at_write = [], []
        save_npz = ColumnarTrace.save_npz

        def spy(self, path):
            alive_at_write.append([ref() is not None for ref in refs])
            save_npz(self, path)

        def raw_part(offset):
            part = ColumnarTrace.from_trace(make_trace(offset=offset))
            refs.append(weakref.ref(part))
            return part

        monkeypatch.setattr(ColumnarTrace, "save_npz", spy)
        writer = ShardWriter(tmp_path / "t", 0.0, 2 * 86400.0)
        writer.append(raw_part(0.0))
        writer.append(raw_part(86400.0))
        assert alive_at_write == [[False], [False, False]]
        assert writer.raw_counters == {"ping_messages": 84, "query_messages": 14}
        assert writer.total_sessions == 4 and writer.total_queries == 4

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


class TestShardSchema:
    def test_only_peer_addresses_are_per_row_strings(self, sharded):
        # Since schema v2, keywords and user agents are integer codes into
        # vocabularies; a per-row unicode column would bring the padding
        # back.  Observation addresses (pong_ip, hit_ip) are not pinned.
        for info in sharded.shards:
            with zipfile.ZipFile(sharded.root / info.file) as archive:
                names = [n[:-4] for n in archive.namelist()]
            shard = ColumnarTrace.load_npz(sharded.root / info.file)
            unicode = {
                name for name in names
                if name.startswith(("session_", "query_"))
                and getattr(shard, name).dtype.kind == "U"
            }
            assert unicode == {"session_peer_ip"}, info.file
            assert shard.query_keyword.dtype == np.int32
            assert shard.session_agent.dtype == np.int32
            # Schema v3: hops and TTL at the width of their header bytes.
            assert shard.query_hops.dtype == np.uint8
            assert shard.query_ttl.dtype == np.uint8
            _assert_canonical(shard)


def _assert_canonical(trace: ColumnarTrace):
    """Each vocabulary is sorted, unique and exactly the strings in use."""
    for vocab, strings in (
        (trace.keyword_vocab, trace.query_keywords()),
        (trace.agent_vocab, trace.session_user_agents()),
    ):
        assert vocab.dtype.kind == "U"
        assert vocab.tolist() == sorted(set(strings.tolist()))


def _part(trace: ColumnarTrace, rows: np.ndarray, rng, observations: bool) -> ColumnarTrace:
    """The sessions ``rows`` (ascending) of ``trace`` with their queries,
    as a part whose vocabularies are *not* canonical: every entry of the
    whole trace's vocabulary, shuffled, with the first entry repeated."""
    q_rows = np.flatnonzero(np.isin(trace.query_session_index(), rows))
    offsets = np.zeros(rows.size + 1, dtype=np.int64)
    np.cumsum(np.diff(trace.query_offsets)[rows], out=offsets[1:])

    def scramble(vocab, codes):
        perm = rng.permutation(vocab.size)
        position = np.empty(vocab.size, dtype=np.int32)
        position[perm] = np.arange(vocab.size)
        return np.concatenate([vocab[perm], vocab[:1]]), position[codes]

    part = {"query_offsets": offsets}
    for f in dataclasses.fields(ColumnarTrace):
        column = getattr(trace, f.name)
        if f.name.startswith("session_"):
            part[f.name] = column[rows]
        elif f.name.startswith("query_") and f.name != "query_offsets":
            part[f.name] = column[q_rows]
        elif f.name.startswith(("pong_", "hit_")):
            part[f.name] = column if observations else column[:0]
    part["keyword_vocab"], part["query_keyword"] = scramble(
        trace.keyword_vocab, part["query_keyword"]
    )
    part["agent_vocab"], part["session_agent"] = scramble(
        trace.agent_vocab, part["session_agent"]
    )
    return ColumnarTrace(
        start_time=trace.start_time, end_time=trace.end_time,
        counters=dict(trace.counters), **part,
    )


class TestVocabularyMerge:
    @pytest.fixture(scope="class")
    def whole(self, sharded):
        return sharded.concat(mmap_mode=None)

    @given(labels=st.lists(st.integers(0, 3), min_size=8, max_size=8), seed=st.integers(0, 99))
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_multi_part_builds_equal_a_single_build(self, whole, tmp_path, labels, seed):
        # Session i goes to part labels[i % 8] (up to four parts); the
        # first part also carries every observation.
        rng = np.random.default_rng(seed)
        label = np.resize(np.asarray(labels), whole.n_sessions)
        parts = [
            _part(whole, np.flatnonzero(label == k), rng, observations=(j == 0))
            for j, k in enumerate(np.unique(label))
        ]
        single = ColumnarTraceBuilder()
        single.append(whole)
        expected = single.build()
        builder = ColumnarTraceBuilder()
        for part in parts:
            builder.append(part)
        merged = builder.build()
        merged.counters = expected.counters
        assert_columnar_identical(merged, expected)

        writer = ShardWriter(tmp_path / f"t{seed}-{len(parts)}", whole.start_time, whole.end_time)
        for part in parts:
            writer.append(part)
        written = writer.close(dict(expected.counters))
        for shard in written.iter_shards():
            _assert_canonical(shard)
        assert_columnar_identical(written.concat(), expected)

    def test_concat_decodes_to_the_record_strings(self, sharded, whole):
        records = [s for shard in sharded.iter_shards() for s in shard.to_trace().sessions]
        by_key = {(s.start, s.end, s.peer_ip): s for s in records}
        assert len(by_key) == whole.n_sessions
        for session in whole.to_trace().sessions:
            assert session == by_key[(session.start, session.end, session.peer_ip)]
