"""Streaming reducers vs the in-memory reference, product by product.

``streamed_equivalence_checks`` (``tests/equivalence_reference.py``)
runs at two inputs: a multi-shard smoke config, and two days of the
``paper`` scenario at its own rate in 1-day shards.  Tolerance is zero
by construction: both sides draw the identical sharded synthesis (same
config, same ``shard_days``), so every Figure 1-11 product must match
bit for bit.
"""

import weakref
from dataclasses import replace

import numpy as np
import pytest

from repro.analysis import run_streaming
from repro.analysis.active import active_sessions
from repro.filtering import apply_filters_columnar
from repro.synthesis import SynthesisConfig, TraceSynthesizer, scenario_config
from equivalence_reference import streamed_equivalence_checks


@pytest.fixture(scope="module")
def config():
    return SynthesisConfig(days=0.4, mean_arrival_rate=0.3, seed=6161, shard_days=0.1)


@pytest.fixture(scope="module")
def sharded(config, tmp_path_factory):
    dest = tmp_path_factory.mktemp("parity-shards") / "trace"
    return TraceSynthesizer(config).run_sharded(dest)


class TestEquivalenceChecks:
    @staticmethod
    def assert_bit_identical(config, workdir):
        outcome = streamed_equivalence_checks(config, workdir=workdir)
        assert outcome["tolerance"] == 0.0
        assert outcome["days"] == config.days
        failed = [name for name, ok in outcome["checks"].items() if not ok]
        assert outcome["all_identical"] is True, f"diverged: {failed}"

    def test_every_product_is_bit_identical(self, config, tmp_path):
        self.assert_bit_identical(config, tmp_path)

    def test_every_product_is_bit_identical_at_paper_rate(self, tmp_path):
        # The paper's arrival rate (1.26 conn/s) for two days in 1-day
        # shards: the scale of the 40-day run's own shards.
        paper = replace(scenario_config("paper", seed=20040315), days=2.0, shard_days=1.0)
        self.assert_bit_identical(paper, tmp_path)

    def test_check_list_covers_the_paper_products(self, config, tmp_path):
        outcome = streamed_equivalence_checks(config, workdir=tmp_path)
        assert set(outcome["checks"]) == {
            "trace_concat_byte_identical",
            "table2_report",
            "f1_geographic",
            "f2_shared_files",
            "f3_load",
            "f4_passive_fraction",
            "f5_passive_durations",
            "f6_queries_per_session",
            "f7_first_query",
            "f8_interarrival",
            "f9_time_after_last",
            "c1_correlations",
            "t3_f10_f11_daily_counts",
        }


class TestActiveViews:
    def test_streamed_views_equal_record_pipeline(self, sharded):
        # views() is the record-view opt-out of streaming: the
        # materialized ActiveSession list must equal what the in-memory
        # pipeline derives from the same trace.
        streamed = run_streaming(sharded)
        reference = active_sessions(
            apply_filters_columnar(sharded.concat()).to_filter_result()
        )
        assert streamed.active.views() == reference


class TestOneShardAtATime:
    @pytest.mark.parametrize("query_columns", [False, True])
    def test_previous_chunk_is_released_before_the_next(self, sharded, query_columns):
        # run_streaming and its reducers must hold no reference to shard
        # i, its filtered block, or any view into its memory-mapped
        # columns once shard i + 1 is requested, or both shards' mapped
        # pages stay resident together.
        seen = []

        def chunks():
            for shard in sharded.iter_shards():
                if seen:
                    alive = [name for name, ref in seen[-1].items() if ref() is not None]
                    assert not alive, f"chunk {len(seen) - 1} still referenced: {alive}"
                refs = {"trace": weakref.ref(shard)}
                for name, value in vars(shard).items():
                    if isinstance(value, np.ndarray):
                        refs[name] = weakref.ref(value)
                seen.append(refs)
                yield shard
                del shard

        streamed = run_streaming(chunks(), query_columns=query_columns)
        assert len(seen) == sharded.n_shards >= 2
        assert streamed.report.as_dict() == run_streaming(sharded).report.as_dict()
