"""Analysis-path performance benchmarks: loads, filtering, fan-out.

These time the steps downstream of synthesis (not a paper artifact):

* warm trace loads -- archival JSONL parse vs. columnar ``.npz`` read,
* the rules 1-5 filter plus the analysis measures on its output --
  record loop vs. the streaming pass over the columnar trace as one
  chunk (which must reproduce the Table 2 accounting exactly to count
  at all),
* the ``run_all`` experiment fan-out at 1 vs. N worker processes.

``ANALYSIS_DAYS`` scales the measured window (default 0.5) and
``ANALYSIS_JOBS`` the fan-out worker count (default 4).  The run emits
``BENCH_analysis.json`` at the repo root; the report records the host
core count, since fan-out scaling on a single-core machine only shows
the overhead floor, not the speedup.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.analysis import active_sessions, run_streaming
from repro.analysis.bench import measure_analysis
from repro.analysis.popularity import daily_region_counts
from repro.filtering import apply_filters
from repro.measurement import ColumnarTrace
from repro.synthesis import SynthesisConfig, TraceCache, load_or_synthesize
from repro.synthesis.bench import write_bench_report

from conftest import run_and_render  # noqa: F401

ANALYSIS_DAYS = float(os.environ.get("ANALYSIS_DAYS", "0.5"))
ANALYSIS_JOBS = int(os.environ.get("ANALYSIS_JOBS", "4"))


def _config():
    return SynthesisConfig(days=ANALYSIS_DAYS, mean_arrival_rate=0.35, seed=20040315)


def _warm_cache(tmp_path, format):
    cache = TraceCache(tmp_path / format, format=format)
    trace = load_or_synthesize(_config(), cache=cache)
    return cache, trace


def test_trace_load_jsonl(benchmark, tmp_path):
    cache, _ = _warm_cache(tmp_path, "jsonl")

    trace = benchmark.pedantic(lambda: cache.load(_config()), rounds=3, iterations=1)
    print(f"\n  parsed {trace.n_connections} connections from warm JSONL per round")
    assert trace.n_connections > 100


def test_trace_load_npz_columnar(benchmark, tmp_path):
    cache, _ = _warm_cache(tmp_path, "npz")

    columnar = benchmark.pedantic(
        lambda: cache.load_columnar(_config()), rounds=3, iterations=1
    )
    print(f"\n  read {columnar.n_sessions} sessions, {columnar.n_queries} queries "
          f"from warm .npz per round")
    assert columnar.n_sessions > 100


def test_filter_analysis_loop(benchmark, tmp_path):
    _, trace = _warm_cache(tmp_path, "npz")

    def run():
        filtered = apply_filters(trace.sessions)
        daily_region_counts(filtered.sessions)
        active_sessions(filtered)
        filtered.interarrival_times()
        return filtered

    filtered = benchmark.pedantic(run, rounds=3, iterations=1)
    print(f"\n  record loop kept {filtered.report.final_sessions} sessions, "
          f"{filtered.report.final_queries} queries per round")
    assert filtered.report.final_queries > 0


def test_filter_analysis_columnar(benchmark, tmp_path):
    _, trace = _warm_cache(tmp_path, "npz")
    columnar = ColumnarTrace.from_trace(trace)
    baseline = apply_filters(trace.sessions).report.as_dict()

    streamed = benchmark.pedantic(
        lambda: run_streaming([columnar]), rounds=3, iterations=1
    )
    print(f"\n  streaming pass kept {streamed.report.final_sessions} sessions, "
          f"{streamed.report.final_queries} queries per round")
    assert streamed.report.as_dict() == baseline


def test_emit_analysis_report(tmp_path):
    """Full analysis measurement + BENCH_analysis.json emission."""
    report = measure_analysis(
        days=ANALYSIS_DAYS,
        run_all_jobs=(1, ANALYSIS_JOBS),
        cache_dir=tmp_path / "cache",
    )
    path = write_bench_report(
        report, Path(__file__).resolve().parent.parent / "BENCH_analysis.json"
    )
    print(f"\n  report written to {path} (host cores: {report['host']['cpu_count']})")
    for label, run in report["runs"].items():
        extras = {k: v for k, v in run.items() if k.startswith("speedup")}
        print(f"  {label}: {run['seconds']} s {extras or ''}")
    assert report["table2_identical"] is True
