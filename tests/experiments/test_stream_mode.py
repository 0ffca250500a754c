"""Sharded contexts: same experiments, same rows, bounded memory.

Every context synthesizes into time-ordered shards and runs its single
streaming pass over them one at a time.  Every experiment and figure
must come out identical to a pass that reads the same trace as one
chunk (the shards' concatenation, the whole trace in memory), and the
sharded context may not build a whole-trace or record view to get
there.
"""

import math
from dataclasses import replace

import pytest

from repro.analysis import run_streaming
from repro.analysis.streaming import QueryColumns
from repro.experiments import ALL_EXPERIMENTS, ExperimentContext, run_many
from repro.synthesis import SynthesisConfig, TraceCache
from repro.viz import build_figures

#: Five shards over 0.35 days: 00:00-08:24 at the node covers North
#: American peak and off-peak hours, so TA1 fits both periods.
CFG = SynthesisConfig(
    days=0.35, mean_arrival_rate=0.3, seed=20040315, shard_days=0.07
)

#: Every registered experiment.
IDS = list(ALL_EXPERIMENTS)

#: Whole-trace views a sharded run must not build.
WHOLE_TRACE_VIEWS = ("columnar", "trace", "filtered", "cfiltered", "views")


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


def one_chunk_context(config):
    """A context whose pass reads the whole trace as one chunk: the
    shards' concatenation, in memory."""
    ctx = ExperimentContext(config)
    ctx.streaming = run_streaming([ctx.shards.concat()], query_columns=True)
    return ctx


def assert_same_results(streamed, in_memory):
    assert [r.experiment_id for r in streamed] == [
        r.experiment_id for r in in_memory
    ]
    for rs, rm in zip(streamed, in_memory):
        assert _rows_equal(rs.rows, rm.rows), rs.experiment_id
        assert rs.notes == rm.notes, rs.experiment_id


def built_views(ctx):
    return [name for name in WHOLE_TRACE_VIEWS if name in ctx.__dict__]


def figure_svgs(ctx):
    return {name: plot.render() for name, plot in build_figures(ctx).items()}


@pytest.fixture(scope="module")
def in_memory_ctx():
    return one_chunk_context(CFG)


@pytest.fixture(scope="module")
def in_memory_results(in_memory_ctx):
    return run_many(IDS, in_memory_ctx)


class TestStreamParity:
    def test_sequential_stream_matches_in_memory(self, in_memory_results):
        ctx = ExperimentContext(CFG)
        streamed = run_many(IDS, ctx)
        assert ctx.shards.n_shards == 5
        assert_same_results(streamed, in_memory_results)
        assert built_views(ctx) == [], "streamed run built whole-trace views"

    def test_config_fits_both_ta1_periods(self, in_memory_results):
        ta1 = next(r for r in in_memory_results if r.experiment_id == "TA1")
        assert {row["period"] for row in ta1.rows} == {"peak", "non-peak"}

    def test_parallel_stream_matches_in_memory(self, tmp_path, in_memory_results):
        cache = TraceCache(tmp_path / "cache")
        ctx = ExperimentContext(CFG, cache=cache)
        streamed = run_many(IDS, ctx, jobs=2)
        assert_same_results(streamed, in_memory_results)
        # The parent published the sharded entry for the pool workers.
        assert cache.load_sharded(CFG) is not None

    def test_f10_matches_with_day_pairs(self):
        # The default config spans two days, so F10 ranks a day pair and
        # count ties decide some of its rows.
        config = replace(ExperimentContext.DEFAULT, shard_days=1.0)
        in_memory = run_many(["F10"], one_chunk_context(config))
        ctx = ExperimentContext(config)
        streamed = run_many(["F10"], ctx)
        assert ctx.shards.n_shards == 2
        assert any(row["source"] == "trace" for row in in_memory[0].rows)
        assert_same_results(streamed, in_memory)

    def test_shard_hours_sets_the_window(self):
        ctx = ExperimentContext(CFG, shard_hours=1.2)
        assert ctx.config.shard_days == pytest.approx(0.05)


class TestStreamContextViews:
    def test_views_come_from_the_streaming_pass(self, in_memory_ctx):
        ctx = ExperimentContext(CFG)
        assert ctx.streaming.active.views() == in_memory_ctx.streaming.active.views()
        assert built_views(ctx) == []

    def test_experiments_and_figures_build_no_record_view(
        self, in_memory_ctx, in_memory_results
    ):
        ctx = ExperimentContext(CFG)
        run_many(IDS, ctx)
        streamed_svgs = figure_svgs(ctx)
        assert built_views(ctx) == []
        assert streamed_svgs == figure_svgs(in_memory_ctx)
        assert {"ext_x1_hits", "ext_x4_concurrency"} <= set(streamed_svgs)


class TestQueryColumnsOnDemand:
    """The pass folds X1-X4's query columns only for work that reads them."""

    def test_t2_builds_no_query_columns_and_a_later_x1_still_matches(
        self, in_memory_results, monkeypatch
    ):
        built = []
        init = QueryColumns.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(QueryColumns, "__init__", counting_init)
        ctx = ExperimentContext(CFG)
        (t2,) = run_many(["T2"], ctx)
        assert ctx.streaming.queries is None
        assert built == []
        assert_same_results([t2], [r for r in in_memory_results if r.experiment_id == "T2"])
        (x1,) = run_many(["X1"], ctx)
        assert built == [1]
        fresh = run_many(["X1"], ExperimentContext(CFG))
        assert_same_results([x1], fresh)
        assert_same_results(fresh, [r for r in in_memory_results if r.experiment_id == "X1"])

    def test_all_experiments_and_figures_make_one_pass(self, monkeypatch):
        import repro.experiments.base as base

        passes = []
        real = base.run_streaming

        def counting(*args, **kwargs):
            passes.append(kwargs.get("query_columns"))
            return real(*args, **kwargs)

        monkeypatch.setattr(base, "run_streaming", counting)
        ctx = ExperimentContext(CFG)
        run_many(IDS, ctx)
        build_figures(ctx)
        assert passes == [True]
        figures = ExperimentContext(CFG)
        build_figures(figures)
        assert passes == [True, True]
