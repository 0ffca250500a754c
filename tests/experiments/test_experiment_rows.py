"""Row-level semantics of each experiment (columns, units, bands), and
the rendered output of all of them and of every figure, frozen as
golden files."""

import hashlib
import json
from pathlib import Path

import pytest

from repro.experiments import ALL_EXPERIMENTS, run_experiment
from repro.viz import build_figures

#: ``render()`` of every experiment, in registry order, on the shared
#: ``context`` fixture (1 day, 0.3 conn/s, seed 424242).  Regenerate it
#: (and :data:`FIGURES_GOLDEN`) only when a printed value is meant to
#: change: ``PYTHONPATH=src python tests/experiments/test_experiment_rows.py``.
GOLDEN = Path(__file__).with_name("experiments_golden.txt")

#: Figure name -> SHA-256 of its SVG ``render()``, for every figure
#: ``build_figures`` draws on the same context.
FIGURES_GOLDEN = Path(__file__).with_name("figures_golden.json")


def render_all(results) -> str:
    return "\n\n".join(results[eid].render() for eid in ALL_EXPERIMENTS) + "\n"


def figure_digests(ctx) -> dict:
    return {
        name: hashlib.sha256(plot.render().encode()).hexdigest()
        for name, plot in sorted(build_figures(ctx).items())
    }


@pytest.fixture(scope="module")
def results(context):
    """Run the full registry once against the shared trace."""
    return {eid: run_experiment(eid, context) for eid in ALL_EXPERIMENTS}


def test_render_matches_golden(results):
    assert render_all(results) == GOLDEN.read_text()


def test_figures_match_golden(context):
    assert figure_digests(context) == json.loads(FIGURES_GOLDEN.read_text())


class TestTableRows:
    def test_t1_rows_have_per_connection_ratios(self, results):
        rows = {r["measure"]: r for r in results["T1"].rows}
        assert set(rows) == {
            "query_messages", "queryhit_messages", "ping_messages",
            "pong_messages", "direct_connections", "hop1_query_messages",
        }
        assert rows["direct_connections"]["ours_per_conn"] == 1.0
        assert rows["query_messages"]["ours_per_conn"] > rows["hop1_query_messages"]["ours_per_conn"]

    def test_t2_fraction_columns(self, results):
        for row in results["T2"].rows:
            assert 0.0 <= row["ours_frac"] <= 1.0
            assert 0.0 <= row["paper_frac"] <= 1.0

    def test_t2_rule_fractions_near_paper(self, results):
        rows = {r["measure"]: r for r in results["T2"].rows}
        assert rows["rule3_removed_sessions"]["ours_frac"] == pytest.approx(0.70, abs=0.04)
        assert rows["rule1_removed_queries"]["ours_frac"] == pytest.approx(
            rows["rule1_removed_queries"]["paper_frac"], abs=0.08
        )

    def test_t3_class_ordering(self, results):
        rows = [r for r in results["T3"].rows if r["period_days"] == 1]
        by_class = {r["query_class"]: r["ours"] for r in rows}
        assert by_class["na_only"] > by_class["as_only"] > by_class["na_eu"]
        assert by_class["all_three"] <= by_class["na_eu"]


class TestFigureRows:
    def test_f1_fractions_sum_below_one(self, results):
        for row in results["F1"].rows:
            assert 0.0 <= row["ours_one_hop"] <= 1.0
            assert abs(row["ours_one_hop"] - row["paper"]) < 0.12

    def test_f2_divergence_small(self, results):
        divergence = next(
            r for r in results["F2"].rows if r["shared_files"] == "max divergence"
        )
        assert divergence["ours_one_hop"] < 0.05

    def test_f3_has_all_periods(self, results):
        periods = {r["period"] for r in results["F3"].rows}
        assert periods == {"03:00-04:00", "11:00-12:00", "13:00-14:00", "19:00-20:00"}

    def test_f4_bands(self, results):
        for row in results["F4"].rows:
            assert 0.70 <= row["ours_average"] <= 0.92

    def test_f5_regional_rows_match_anchors(self, results):
        regional = [r for r in results["F5"].rows if "paper_gt_2min" in r]
        for row in regional:
            assert row["ours_gt_2min"] == pytest.approx(row["paper_gt_2min"], abs=0.12)

    def test_f6_asia_most_single_query(self, results):
        rows = {r["region"]: r for r in results["F6"].rows}
        assert rows["AS"]["ours_lt5"] > rows["EU"]["ours_lt5"]

    def test_f8_regional_anchors(self, results):
        regional = [r for r in results["F8"].rows if r["region"] in ("NA", "EU", "AS")]
        for row in regional:
            assert row["ours_lt100"] == pytest.approx(row["paper_lt100"], abs=0.12)

    def test_f9_asia_fastest(self, results):
        rows = {r["region"]: r for r in results["F9"].rows if r["region"] in ("NA", "EU", "AS")}
        assert rows["AS"]["ours_gt1000"] < rows["NA"]["ours_gt1000"]

    def test_f10_ground_truth_rows_present(self, results):
        sources = {r["source"] for r in results["F10"].rows}
        assert "ground truth" in sources

    def test_f11_alphas_positive_and_small(self, results):
        for row in results["F11"].rows:
            if row["query_class"] in ("na_only", "eu_only"):
                assert 0.0 < row["ours_alpha"] < 0.8  # far below unfiltered ~1.0


class TestFitRows:
    def test_ta1_tail_parameters_comparable(self, results):
        tails = [r for r in results["TA1"].rows if r["part"] == "tail"]
        for row in tails:
            assert row["ours_mu"] == pytest.approx(row["paper_mu"], abs=1.2)
            assert row["ours_sigma"] == pytest.approx(row["paper_sigma"], abs=1.0)

    def test_ta1_body_weights(self, results):
        weights = {r["period"]: r["ours_sigma"] for r in results["TA1"].rows
                   if r["part"] == "body weight"}
        assert weights["peak"] == pytest.approx(0.75, abs=0.05)
        assert weights["non-peak"] == pytest.approx(0.55, abs=0.07)

    def test_ta2_eu_mu_positive_na_near_zero(self, results):
        rows = {r["region"]: r for r in results["TA2"].rows}
        assert rows["EU"]["ours_mu"] > rows["NA"]["ours_mu"]
        assert rows["NA"]["ours_mu"] == pytest.approx(-0.067, abs=0.4)

    def test_ta4_pareto_alpha_close(self, results):
        for row in results["TA4"].rows:
            assert row["ours_pareto_alpha"] == pytest.approx(
                row["paper_pareto_alpha"], abs=0.25
            )

    def test_ta5_mu_ordering_with_queries(self, results):
        peak = {r["n_queries"]: r["ours_mu"] for r in results["TA5"].rows
                if r["period"] == "peak"}
        if {"1", ">7"} <= set(peak):
            assert peak[">7"] > peak["1"]

    def test_fa1_fits_tight(self, results):
        for row in results["FA1"].rows:
            assert row["ks"] < 0.12


class TestExtensionRows:
    def test_x1_sha1_lowest_hit_rate(self, results):
        rows = {r["measure"]: r for r in results["X1"].rows}
        assert rows["raw SHA1 source searches"]["hit_rate"] < rows["raw keyword queries"]["hit_rate"]

    def test_x2_median_size_band(self, results):
        rows = {r["measure"]: r for r in results["X2"].rows}
        assert 2.0 < rows["median size (MB)"]["value"] < 7.0

    def test_x3_caching_claim(self, results):
        for row in results["X3"].rows:
            assert row["raw_stream_hit_rate"] > row["user_stream_hit_rate"]

    def test_x4_balance_near_one(self, results):
        rows = {r["measure"]: r for r in results["X4"].rows}
        assert 1.0 <= rows["arrivals/departures balance"]["value"] < 1.1


if __name__ == "__main__":
    from repro.experiments import ExperimentContext
    from repro.synthesis import SynthesisConfig

    ctx = ExperimentContext(SynthesisConfig(days=1.0, mean_arrival_rate=0.3, seed=424242))
    GOLDEN.write_text(render_all({eid: run_experiment(eid, ctx) for eid in ALL_EXPERIMENTS}))
    FIGURES_GOLDEN.write_text(json.dumps(figure_digests(ctx), indent=1) + "\n")
