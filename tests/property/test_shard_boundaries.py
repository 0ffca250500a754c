"""Property: shard boundaries are invisible to the streamed results.

Satellite of the out-of-core pipeline PR.  Two generators of adversity:

* ``split_for_streaming`` with hypothesis-drawn cut positions slices a
  trace mid-session, so sessions (and the interarrival gaps inside
  them) span chunk edges; ``StreamingFilter(split_sessions=True)`` must
  reassemble them exactly.
* ``run_sharded`` with awkward (non-dividing) shard widths must stay
  byte-identical to ``run_columnar`` under the same config -- the shard
  window layout is part of the trace identity, never a perturbation.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import run_streaming
from repro.filtering import apply_filters_columnar
from repro.measurement import ColumnarTrace
from repro.synthesis import SynthesisConfig, TraceSynthesizer

cut_fractions = st.lists(
    st.floats(min_value=0.01, max_value=0.99, allow_nan=False),
    min_size=1,
    max_size=6,
)


@pytest.fixture(scope="module")
def columnar():
    # Dedicated small trace: each hypothesis example re-filters it, so
    # it must be an order of magnitude lighter than the shared one-day
    # fixture while still holding thousands of cross-cut sessions.
    config = SynthesisConfig(days=0.25, mean_arrival_rate=0.15, seed=97531)
    return TraceSynthesizer(config).run_columnar()


@pytest.fixture(scope="module")
def reference(columnar):
    return run_streaming([columnar])


@given(fractions=cut_fractions)
@settings(max_examples=15, deadline=None)
def test_sessions_and_interarrivals_survive_random_cuts(
    columnar, reference, fractions
):
    from repro.filtering.streaming import split_for_streaming

    cuts = [columnar.end_time * f for f in fractions]
    streamed = run_streaming(
        split_for_streaming(columnar, cuts), split_sessions=True
    )
    assert streamed.report.as_dict() == reference.report.as_dict()
    # ActiveSession equality is the strong form: per-session query
    # counts, first/last gap measures, AND the full interarrival tuple
    # of every session that was cut apart must come back identical.
    # Reassembled sessions surface in completion order, so compare as
    # a multiset -- every figure product is order-insensitive.
    key = lambda v: (v.start, v.duration, v.n_queries, v.interarrivals)  # noqa: E731
    assert sorted(streamed.active.views(), key=key) == sorted(
        reference.active.views(), key=key
    )
    for region, ccdf in reference.active.interarrival_ccdf().items():
        got = streamed.active.interarrival_ccdf()[region]
        assert np.array_equal(got.x, ccdf.x)
        assert np.array_equal(got.fraction, ccdf.fraction)


@given(fractions=cut_fractions)
@settings(max_examples=15, deadline=None)
def test_eligible_gap_stream_is_cut_invariant(columnar, reference, fractions):
    from repro.filtering.streaming import StreamingFilter, split_for_streaming

    cuts = [columnar.end_time * f for f in fractions]
    filt = StreamingFilter(split_sessions=True)
    gaps = []
    for chunk in split_for_streaming(columnar, cuts):
        block = filt.push(chunk)
        if block is not None:
            gaps.append(block.interarrival_times())
    tail = filt.finish()
    if tail is not None:
        gaps.append(tail.interarrival_times())
    expected = apply_filters_columnar(columnar).interarrival_times()
    # Blocks emit reassembled sessions in completion order, so the flat
    # gap stream is a permutation of the one-shot stream; the values
    # feeding the Figure 8 CCDF must match exactly as a multiset.
    got = np.concatenate(gaps)
    assert got.shape == expected.shape
    assert np.array_equal(np.sort(got), np.sort(expected))


def _decoded_rows(block):
    """(peer, timestamp, keywords, user agent, kept) per query row."""
    trace, sess = block.trace, block.session_index
    return list(zip(
        trace.session_peer_ip[sess].tolist(),
        trace.query_timestamp.tolist(),
        trace.query_keywords().tolist(),
        trace.session_user_agents(sess).tolist(),
        block.query_mask.tolist(),
    ))


@given(fractions=cut_fractions)
@settings(max_examples=10, deadline=None)
def test_reassembled_blocks_decode_to_the_same_strings(columnar, reference, fractions):
    # Each chunk carries its own vocabularies (exactly the strings its
    # rows use); a reassembled block merges them, and every query must
    # still decode to its own keywords and its session's user agent.
    from repro.filtering.streaming import StreamingFilter, split_for_streaming

    filt = StreamingFilter(split_sessions=True)
    got = []
    for chunk in split_for_streaming(columnar, [columnar.end_time * f for f in fractions]):
        assert chunk.keyword_vocab.tolist() == sorted(set(chunk.query_keywords().tolist()))
        assert chunk.agent_vocab.tolist() == sorted(set(chunk.session_user_agents().tolist()))
        block = filt.push(chunk)
        if block is not None:
            got += _decoded_rows(block)
    tail = filt.finish()
    if tail is not None:
        got += _decoded_rows(tail)
    assert filt.report.as_dict() == reference.report.as_dict()
    assert sorted(got) == sorted(_decoded_rows(apply_filters_columnar(columnar)))


@pytest.mark.parametrize("shard_days", [0.07, 0.13, 0.4])
def test_awkward_shard_widths_match_in_memory_run(tmp_path, shard_days):
    # 0.07 / 0.13 leave a partial final window; 0.4 is a single shard.
    import dataclasses

    config = SynthesisConfig(
        days=0.4, mean_arrival_rate=0.25, seed=31337, shard_days=shard_days
    )
    sharded = TraceSynthesizer(config).run_sharded(tmp_path / "t")
    whole = sharded.concat()
    in_memory = TraceSynthesizer(config).run_columnar()
    for field in dataclasses.fields(ColumnarTrace):
        va, vb = getattr(whole, field.name), getattr(in_memory, field.name)
        if isinstance(va, np.ndarray):
            assert va.dtype == vb.dtype and np.array_equal(va, vb), field.name
        else:
            assert va == vb, field.name
