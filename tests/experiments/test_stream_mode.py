"""Stream-mode contexts: same experiments, same rows, bounded memory.

``ExperimentContext(stream=True)`` swaps whole-trace arrays for the
sharded synthesis + single-pass reducers; every experiment must return
results identical to the in-memory context under the same config
(``shard_days`` included: the shard layout is part of the trace
identity, so both sides here carry it), and the streamed context must
get there without building a whole-trace view.
"""

import math

import pytest

from repro.experiments import ALL_EXPERIMENTS, ExperimentContext, run_many
from repro.synthesis import SynthesisConfig, TraceCache

#: Five shards over 0.35 days: 00:00-08:24 at the node covers North
#: American peak and off-peak hours, so TA1 fits both periods.
CFG = SynthesisConfig(
    days=0.35, mean_arrival_rate=0.3, seed=20040315, shard_days=0.07
)

#: Every registered experiment.
IDS = list(ALL_EXPERIMENTS)

#: Whole-trace views a streamed ``experiment all`` must not build.
WHOLE_TRACE_VIEWS = ("columnar", "trace", "filtered", "cfiltered")


def _rows_equal(a, b):
    """Row-list equality that treats NaN == NaN (thin-slice measures)."""
    if len(a) != len(b):
        return False
    for ra, rb in zip(a, b):
        if set(ra) != set(rb):
            return False
        for key in ra:
            va, vb = ra[key], rb[key]
            if isinstance(va, float) and isinstance(vb, float):
                if not (va == vb or (math.isnan(va) and math.isnan(vb))):
                    return False
            elif va != vb:
                return False
    return True


def assert_same_results(streamed, in_memory):
    assert [r.experiment_id for r in streamed] == [
        r.experiment_id for r in in_memory
    ]
    for rs, rm in zip(streamed, in_memory):
        assert _rows_equal(rs.rows, rm.rows), rs.experiment_id
        assert rs.notes == rm.notes, rs.experiment_id


@pytest.fixture(scope="module")
def in_memory_results():
    return run_many(IDS, ExperimentContext(CFG))


class TestStreamParity:
    def test_sequential_stream_matches_in_memory(self, in_memory_results):
        ctx = ExperimentContext(CFG, stream=True)
        streamed = run_many(IDS, ctx)
        assert_same_results(streamed, in_memory_results)
        built = [name for name in WHOLE_TRACE_VIEWS if name in ctx.__dict__]
        assert built == [], f"streamed run built whole-trace views: {built}"

    def test_config_fits_both_ta1_periods(self, in_memory_results):
        ta1 = next(r for r in in_memory_results if r.experiment_id == "TA1")
        assert {row["period"] for row in ta1.rows} == {"peak", "non-peak"}

    def test_parallel_stream_matches_in_memory(self, tmp_path, in_memory_results):
        cache = TraceCache(tmp_path / "cache")
        ctx = ExperimentContext(CFG, cache=cache, stream=True)
        streamed = run_many(IDS, ctx, jobs=2)
        assert_same_results(streamed, in_memory_results)
        # The parent published the sharded entry for the pool workers.
        assert cache.load_sharded(CFG) is not None

    def test_shard_hours_sets_the_window(self):
        ctx = ExperimentContext(CFG, stream=True, shard_hours=1.2)
        assert ctx.config.shard_days == pytest.approx(0.05)


class TestStreamContextViews:
    def test_columnar_fallback_is_byte_identical(self):
        import dataclasses

        import numpy as np

        streamed = ExperimentContext(CFG, stream=True).columnar
        in_memory = ExperimentContext(CFG).columnar
        for field in dataclasses.fields(type(streamed)):
            va = getattr(streamed, field.name)
            vb = getattr(in_memory, field.name)
            if isinstance(va, np.ndarray):
                assert va.dtype == vb.dtype and np.array_equal(va, vb), field.name
            else:
                assert va == vb, field.name

    def test_views_come_from_the_streaming_pass(self):
        ctx = ExperimentContext(CFG, stream=True)
        assert ctx.views == ExperimentContext(CFG).views
        # The streamed context never built the whole-trace filter result.
        assert "cfiltered" not in ctx.__dict__
        assert "filtered" not in ctx.__dict__
