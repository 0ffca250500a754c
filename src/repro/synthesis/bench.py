"""Substrate throughput measurement, shared by benchmarks and smoke tests.

:func:`measure_substrate` times the three performance-critical paths of
the synthesis substrate -- sequential synthesis, sharded synthesis, and
the warm content-addressed cache -- and returns a plain dict of
throughput figures.  The real benchmark suite
(``benchmarks/bench_substrate.py``) runs it at bench scale; the tier-1
smoke test (``tests/test_bench_smoke.py``) runs the same code at
``days=0.05`` so the measurement path itself is exercised on every test
run, and both emit the same ``BENCH_substrate.json`` report shape.
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from repro.core import host_block, peak_rss_mb
from repro.measurement import ColumnarTrace

from .cache import TraceCache, effective_shard_count, load_or_synthesize
from .synthesizer import SynthesisConfig, TraceSynthesizer

__all__ = ["columnar_ks_checks", "measure_substrate", "write_bench_report"]


def _ks_statistic(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov statistic (max CDF gap)."""
    a = np.sort(np.asarray(a, dtype=np.float64))
    b = np.sort(np.asarray(b, dtype=np.float64))
    grid = np.concatenate([a, b])
    grid.sort(kind="stable")
    cdf_a = np.searchsorted(a, grid, side="right") / max(a.size, 1)
    cdf_b = np.searchsorted(b, grid, side="right") / max(b.size, 1)
    return float(np.abs(cdf_a - cdf_b).max()) if grid.size else 0.0


def columnar_ks_checks(
    reference: ColumnarTrace, candidate: ColumnarTrace
) -> dict:
    """Distributional-equivalence report between two trace realizations.

    The columnar synthesis engine consumes random draws in a different
    (batched) order than the event engine, so traces for a fixed seed
    are different *realizations* of the same process.  This compares the
    distributions the paper's tables depend on: session durations and
    queries-per-session (two-sample KS against the asymptotic critical
    value at alpha~0.001, plus a small floor so huge samples are not
    held to sampling noise below modelling fidelity), the Fig. 1 region
    mix (max per-region share gap), and the Table 2 rule proportions
    (share of initial queries each filter rule removes, within 0.08).
    """
    from repro.filtering import apply_filters_columnar

    checks: dict = {}
    n1, n2 = max(reference.n_sessions, 1), max(candidate.n_sessions, 1)
    crit = 1.95 * math.sqrt((n1 + n2) / (n1 * n2)) + 0.02

    for label, ref_vals, cand_vals in (
        (
            "session_duration_ks",
            reference.session_end - reference.session_start,
            candidate.session_end - candidate.session_start,
        ),
        (
            "queries_per_session_ks",
            np.diff(reference.query_offsets),
            np.diff(candidate.query_offsets),
        ),
    ):
        stat = _ks_statistic(ref_vals, cand_vals)
        checks[label] = {
            "statistic": round(stat, 4),
            "critical": round(crit, 4),
            "ok": stat <= crit,
        }

    ref_mix = np.bincount(reference.session_region, minlength=4) / n1
    cand_mix = np.bincount(candidate.session_region, minlength=4) / n2
    gap = float(np.abs(ref_mix - cand_mix).max())
    checks["region_mix_max_gap"] = {
        "statistic": round(gap, 4),
        "critical": 0.05,
        "ok": gap <= 0.05,
    }

    ref_t2 = apply_filters_columnar(reference).report.as_dict()
    cand_t2 = apply_filters_columnar(candidate).report.as_dict()
    rule_checks = {}
    for key in (
        "rule1_removed_queries",
        "rule2_removed_queries",
        "rule3_removed_queries",
        "rule4_removed_queries",
        "rule5_removed_queries",
    ):
        ref_frac = ref_t2[key] / max(ref_t2["initial_queries"], 1)
        cand_frac = cand_t2[key] / max(cand_t2["initial_queries"], 1)
        diff = abs(ref_frac - cand_frac)
        rule_checks[key] = {
            "reference_fraction": round(ref_frac, 4),
            "candidate_fraction": round(cand_frac, 4),
            "abs_diff": round(diff, 4),
            "ok": diff <= 0.08,
        }
    checks["table2_rule_fractions"] = rule_checks

    checks["ok"] = (
        all(c["ok"] for c in rule_checks.values())
        and all(
            checks[k]["ok"]
            for k in ("session_duration_ks", "queries_per_session_ks", "region_mix_max_gap")
        )
    )
    return checks


def measure_substrate(
    days: float = 0.05,
    mean_arrival_rate: float = 0.3,
    seed: int = 77,
    jobs: Sequence[int] = (1, 2),
    cache_dir: Optional[Union[str, Path]] = None,
) -> dict:
    """Time sequential synthesis, sharded synthesis, and the warm cache.

    Returns a report dict with one entry per measured path:
    ``{"connections": ..., "seconds": ..., "throughput": ...}`` (traces
    per second for the cache entries, connections per second otherwise).
    ``cache_dir=None`` skips the cache measurements.

    The ``jobs`` entries run the reference **event** engine
    (:meth:`~.synthesizer.TraceSynthesizer.run_event`; the sequential
    entry is the speedup baseline); ``synth_columnar`` runs the
    vectorized columnar engine at the same scale and records its
    speedup plus a :func:`columnar_ks_checks` equivalence report under
    ``"ks_checks"``.
    """
    report = {
        "scale": {"days": days, "mean_arrival_rate": mean_arrival_rate, "seed": seed},
        "host": host_block(),
        "runs": {},
    }

    def timed(label, fn):
        t0 = time.perf_counter()
        trace = fn()
        elapsed = time.perf_counter() - t0
        # Each run records its own scale: reports from different windows
        # (smoke vs. bench) must never be read as comparable.
        report["runs"][label] = {
            "days": days,
            "connections": trace.n_connections,
            "seconds": round(elapsed, 4),
            "connections_per_second": round(trace.n_connections / max(elapsed, 1e-9), 1),
        }
        return trace

    event_trace = None
    for n in jobs:
        config = SynthesisConfig(
            days=days,
            mean_arrival_rate=mean_arrival_rate,
            seed=seed,
            jobs=int(n),
        )
        label = "sequential" if n == 1 else f"sharded_jobs{n}"
        trace = timed(label, TraceSynthesizer(config).run_event)
        if n == 1:
            event_trace = trace

    columnar_config = SynthesisConfig(
        days=days, mean_arrival_rate=mean_arrival_rate, seed=seed
    )
    columnar = timed(
        "synth_columnar", TraceSynthesizer(columnar_config).run_columnar
    )
    if event_trace is not None:
        seq = report["runs"]["sequential"]["seconds"]
        col = report["runs"]["synth_columnar"]["seconds"]
        report["runs"]["synth_columnar"]["speedup_vs_sequential"] = round(
            seq / max(col, 1e-9), 1
        )
        report["ks_checks"] = columnar_ks_checks(
            ColumnarTrace.from_trace(event_trace), columnar
        )

    if cache_dir is not None:
        cache = TraceCache(cache_dir)
        config = SynthesisConfig(
            days=days, mean_arrival_rate=mean_arrival_rate, seed=seed
        )
        timed("cache_cold", lambda: load_or_synthesize(config, cache=cache))
        timed("cache_warm", lambda: load_or_synthesize(config, cache=cache))
        cold = report["runs"]["cache_cold"]["seconds"]
        warm = report["runs"]["cache_warm"]["seconds"]
        report["runs"]["cache_warm"]["speedup_vs_cold"] = round(cold / max(warm, 1e-9), 1)

    # Memory joins speed in the perf trajectory: the high-water RSS over
    # all the runs above, and the shard grid the benched config implies.
    report["host"]["peak_rss_mb"] = round(peak_rss_mb(), 1)
    report["host"]["shard_count"] = effective_shard_count(columnar_config)
    return report


def write_bench_report(report: dict, path: Union[str, Path]) -> Path:
    """Write a :func:`measure_substrate` report as pretty-printed JSON.

    Stamps the determinism-linter ruleset version so an archived CI
    artifact states which invariant battery was enforced when it ran.
    """
    from repro.lint import RULESET_VERSION

    report = {**report, "lint_ruleset": RULESET_VERSION}
    path = Path(path)
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path
