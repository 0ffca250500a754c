"""Streaming rules 1-5: chunked filtering equals the one-shot pipeline.

Shards from sharded synthesis hold whole sessions, one shard per
window, and many sessions outlive their shard's window.  The
accumulated Table 2 report -- and the kept/eligible query sets -- must
be bit-identical to ``apply_filters_columnar`` on the whole trace.  A
chunk that cuts a session apart must be refused, not filtered.
"""

import numpy as np
import pytest

from repro.analysis import run_streaming
from repro.filtering import apply_filters_columnar
from repro.filtering.streaming import StreamingFilter
from repro.synthesis import SynthesisConfig, TraceSynthesizer


@pytest.fixture(scope="module")
def config():
    return SynthesisConfig(days=0.4, mean_arrival_rate=0.3, seed=9090, shard_days=0.1)


@pytest.fixture(scope="module")
def sharded(config, tmp_path_factory):
    dest = tmp_path_factory.mktemp("filter-shards") / "trace"
    return TraceSynthesizer(config).run_sharded(dest)


@pytest.fixture(scope="module")
def reference(sharded):
    return apply_filters_columnar(sharded.concat())


def drain(filt, chunks):
    blocks = [filt.push(chunk) for chunk in chunks]
    blocks.append(filt.finish())
    return [b for b in blocks if b is not None]


class TestShardedInput:
    def test_report_identical(self, sharded, reference):
        filt = StreamingFilter()
        drain(filt, sharded.iter_shards())
        assert filt.report.as_dict() == reference.report.as_dict()

    def test_blocks_cover_the_kept_queries_exactly(self, sharded, reference):
        filt = StreamingFilter()
        blocks = drain(filt, sharded.iter_shards())
        kept = np.concatenate(
            [b.trace.query_timestamp[b.query_mask] for b in blocks]
        )
        expected = reference.trace.query_timestamp[reference.query_mask]
        assert np.array_equal(kept, expected)

    def test_interarrivals_span_shard_edges(self, sharded, reference):
        # A session's eligible gaps must come out whole even when its
        # queries land in different shards' processing blocks.
        filt = StreamingFilter()
        blocks = drain(filt, sharded.iter_shards())
        gaps = np.concatenate([b.interarrival_times() for b in blocks])
        assert np.array_equal(gaps, reference.interarrival_times())


class TestCutSessionsRefused:
    @pytest.fixture
    def cut(self, sharded):
        # A chunk that begins after its first session began: that
        # session's earlier part would sit in another chunk.
        chunk = sharded.load_shard(1, mmap_mode=None)
        chunk.start_time = float(chunk.session_start.min()) + 1.0
        return chunk

    def test_push_refuses_a_cut_session(self, cut):
        filt = StreamingFilter()
        with pytest.raises(ValueError, match="cut at a chunk edge"):
            filt.push(cut)
        assert filt.report.as_dict() == StreamingFilter().report.as_dict()

    def test_run_streaming_refuses_a_cut_session(self, sharded, cut):
        with pytest.raises(ValueError, match="cut at a chunk edge"):
            run_streaming([sharded.load_shard(0), cut])

    def test_every_synthesized_shard_holds_whole_sessions(self, sharded):
        assert sharded.n_shards == 4
        for shard in sharded.iter_shards():
            assert shard.session_start.min() >= shard.start_time
            assert StreamingFilter().push(shard) is not None


def test_single_chunk_degenerates_to_one_shot(reference):
    filt = StreamingFilter()
    blocks = drain(filt, [reference.trace])
    assert filt.report.as_dict() == reference.report.as_dict()
    assert sum(int(b.session_mask.sum()) for b in blocks) == int(
        reference.session_mask.sum()
    )
