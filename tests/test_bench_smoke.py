"""Tier-1 smoke runs of the benchmark measurement paths.

Runs the same measurement code as ``benchmarks/bench_substrate.py`` and
``benchmarks/bench_analysis.py`` at smoke scale (days=0.05, seconds of
wall time) so every test run exercises sequential synthesis, sharded
synthesis, the trace cache, the columnar filter/analysis path, and the
report emission end to end.  The reports are written under ``tmp_path``
-- the repo-root ``BENCH_*.json`` files are bench-scale records produced
by the benchmark suite, and a smoke-scale run must not clobber them.
"""

import json

from repro.analysis.bench import measure_analysis
from repro.core.generator_bench import measure_generator
from repro.synthesis.bench import measure_substrate, write_bench_report


def test_substrate_smoke_benchmark(tmp_path):
    report = measure_substrate(days=0.05, jobs=(1, 2), cache_dir=tmp_path / "cache")
    runs = report["runs"]

    assert set(runs) == {
        "sequential", "sharded_jobs2", "synth_columnar", "cache_cold", "cache_warm",
    }
    for label, run in runs.items():
        assert run["connections"] > 100, label
        assert run["seconds"] > 0, label
        assert run["days"] == 0.05, label

    # Same process, same scale: the realizations differ per shard count
    # (and per backend) but the volume must not.
    seq, sharded = runs["sequential"], runs["sharded_jobs2"]
    assert abs(sharded["connections"] - seq["connections"]) / seq["connections"] < 0.25
    columnar = runs["synth_columnar"]
    assert abs(columnar["connections"] - seq["connections"]) / seq["connections"] < 0.25

    # The fast path is only a fast path if it keeps the distributions:
    # every KS/equivalence check against the event reference must hold.
    assert "speedup_vs_sequential" in columnar
    assert report["ks_checks"]["ok"] is True, report["ks_checks"]

    # The warm cache must never be slower than synthesizing from scratch.
    assert runs["cache_warm"]["seconds"] <= runs["cache_cold"]["seconds"]
    assert runs["cache_warm"]["connections"] == runs["cache_cold"]["connections"]

    path = write_bench_report(report, tmp_path / "BENCH_substrate.json")
    parsed = json.loads(path.read_text())
    assert parsed["scale"]["days"] == 0.05
    assert parsed["runs"]["sequential"]["connections_per_second"] > 0


def test_analysis_smoke_benchmark(tmp_path):
    # run_all_jobs=() keeps the smoke run to seconds; the experiment
    # fan-out has its own coverage in tests/experiments/.
    report = measure_analysis(days=0.05, run_all_jobs=(), cache_dir=tmp_path / "cache")
    runs = report["runs"]

    assert set(runs) == {
        "trace_load_npz", "filter_analysis_loop", "filter_analysis_columnar",
    }
    for label, run in runs.items():
        assert run["seconds"] > 0, label

    # measure_analysis itself asserts Table 2 equality; re-check the
    # recorded outcome and that the report carries the actual counts.
    assert report["table2_identical"] is True
    assert report["table2"]["initial_queries"] > 0
    assert report["table2"]["final_sessions"] > 0
    assert report["host"]["cpu_count"] >= 1

    # The cache has one entry format, so the load has no speedup partner.
    assert not any(k.startswith("speedup") for k in runs["trace_load_npz"])
    assert "speedup_vs_filter_analysis_loop" in runs["filter_analysis_columnar"]
    assert "kernels_backend" not in report["host"]

    path = write_bench_report(report, tmp_path / "BENCH_analysis.json")
    parsed = json.loads(path.read_text())
    assert parsed["scale"]["days"] == 0.05


def test_analysis_fan_out_reports_speedup_only_across_worker_counts(tmp_path, monkeypatch):
    # On one CPU every requested jobs value runs on one worker, so the
    # run_all timings differ by warm-up and noise alone: no speedup.
    import repro.experiments.registry as registry

    monkeypatch.setattr(registry, "available_cpus", lambda: 1)
    report = measure_analysis(days=0.02, run_all_jobs=(1, 2), cache_dir=tmp_path / "one")
    runs = report["runs"]
    assert runs["run_all_jobs1"]["effective_jobs"] == 1
    assert runs["run_all_jobs2"]["effective_jobs"] == 1
    assert not [key for run in runs.values() for key in run
                if key.startswith("speedup_vs_run_all")]

    monkeypatch.setattr(registry, "available_cpus", lambda: 2)
    report = measure_analysis(days=0.02, run_all_jobs=(1, 2), cache_dir=tmp_path / "two")
    assert report["runs"]["run_all_jobs2"]["effective_jobs"] == 2
    assert "speedup_vs_run_all_jobs1" in report["runs"]["run_all_jobs2"]


def test_generator_smoke_benchmark(tmp_path):
    report = measure_generator(
        n_peers=(50, 400), hours=0.25, seed=11, jobs=2,
        ks_n_peers=150, ks_hours=4.0,
    )
    runs = report["runs"]

    assert set(runs) == {"event_n50", "columnar_n50", "event_n400", "columnar_n400"}
    for label, run in runs.items():
        assert run["sessions"] > 10, label
        assert run["seconds"] > 0, label
        assert run["hours"] == 0.25, label

    # Same scale, different realizations: volumes must agree broadly.
    for n in (50, 400):
        event, columnar = runs[f"event_n{n}"], runs[f"columnar_n{n}"]
        diff = abs(columnar["sessions"] - event["sessions"]) / event["sessions"]
        assert diff < 0.35, (n, event["sessions"], columnar["sessions"])
        assert "speedup_vs_event" in columnar

    # The fast path is only a fast path if it keeps the distributions
    # and the output is worker-count-independent.
    assert report["jobs_identical"] is True
    assert report["ks_checks"]["ok"] is True, report["ks_checks"]

    path = write_bench_report(report, tmp_path / "BENCH_generator.json")
    parsed = json.loads(path.read_text())
    assert parsed["scale"]["hours"] == 0.25
    assert parsed["runs"]["columnar_n400"]["sessions_per_second"] > 0


def test_paper_scale_smoke_benchmark(tmp_path):
    from repro.analysis.paper_scale import DEFAULT_RSS_BUDGET_MB, measure_paper_scale

    report = measure_paper_scale(
        days=0.2, shard_hours=1.2, equivalence_days=0.1,
        workdir=tmp_path / "shards",
    )
    runs = report["runs"]
    assert set(runs) == {"synthesize_stream", "filter_analyze_stream"}
    synth = runs["synthesize_stream"]
    assert synth["connections"] > 100
    assert synth["n_shards"] == 4
    assert synth["shard_bytes_on_disk"] > 0

    # The 40-day benchmark's own acceptance checks, at smoke scale.
    assert report["equivalence"]["all_identical"] is True, report["equivalence"]
    assert report["budget"]["rss_budget_mb"] == DEFAULT_RSS_BUDGET_MB
    assert report["budget"]["within_budget"] is True
    assert report["host"]["peak_rss_mb"] > 0
    assert report["table2"]["final_sessions"] > 0

    path = write_bench_report(report, tmp_path / "BENCH_paper_scale.json")
    parsed = json.loads(path.read_text())
    assert parsed["scale"]["days"] == 0.2
    assert parsed["budget"]["peak_rss_mb"] > 0
