"""Benchmark + acceptance harness for the batched overlay engine.

:func:`measure_overlay` is the measurement core shared by the CI
overlay gate and ``benchmarks/bench_overlay.py`` (which emits the
committed ``BENCH_overlay.json``).  One run produces every acceptance
signal for :mod:`repro.gnutella.columnar_overlay` in a single report:

* **equivalence** -- the full backend battery (per-query messages,
  hits, reach sets with depths, the monitor's hop-1 stream, the
  reconstructed sessions, keepalive totals) between ``backend="event"``
  and ``backend="columnar"`` on a shared workload, plus byte-identity
  of the columnar engine across worker counts;
* **speedup** -- overlay messages per wall-clock second, columnar over
  event, at the largest event-feasible population;
* **scale** -- a columnar-only run at a population the event engine
  cannot touch, with the peak RSS held against the same laptop-class
  budget as the paper-scale streaming gate.

Wall-clock timing lives here (this module carries the bench per-path
lint allowance) so the engine itself never reads the host clock.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Optional

from repro.core import SyntheticWorkloadGenerator
from repro.core.generator_columnar import ColumnarWorkload
from repro.core.runtime import DEFAULT_RSS_BUDGET_MB, host_block, peak_rss_mb

from .columnar_overlay import (
    OverlayConfig,
    OverlayRunResult,
    compare_runs,
    simulate_workload,
)

__all__ = ["measure_overlay", "overlay_workload"]


def overlay_workload(
    n_peers: int, duration_seconds: float, seed: int = 11
) -> ColumnarWorkload:
    """The Fig. 12 workload both backends replay (columnar generator)."""
    generator = SyntheticWorkloadGenerator(n_peers=n_peers, seed=seed)
    return generator.generate_columnar(duration_seconds)


def _timed_run(
    workload: ColumnarWorkload,
    run_seconds: float,
    config: OverlayConfig,
    backend: str,
    jobs: int = 1,
    record_reach: bool = False,
) -> OverlayRunResult:
    t0 = time.perf_counter()
    result = simulate_workload(
        workload,
        run_seconds,
        config=config,
        backend=backend,
        jobs=jobs,
        record_reach=record_reach,
    )
    result.elapsed_seconds = time.perf_counter() - t0
    return result


def _run_block(result: OverlayRunResult) -> Dict[str, Any]:
    return {
        "backend": result.backend,
        "peers_simulated": result.peers_simulated,
        "n_rounds": result.n_rounds,
        "n_queries": result.n_queries,
        "messages_total": result.messages_total,
        "query_hits_total": int(result.query_hits.sum()),
        "keepalive_pings": result.keepalive_pings,
        "seconds": round(result.elapsed_seconds, 4),
        "messages_per_second": round(result.messages_per_second, 1),
    }


def measure_overlay(
    event_peers: int = 600,
    event_run_seconds: float = 1800.0,
    scale_peers: int = 10_000,
    scale_run_seconds: float = 3600.0,
    jobs: int = 1,
    seed: int = 11,
    config: Optional[OverlayConfig] = None,
    rss_budget_mb: float = DEFAULT_RSS_BUDGET_MB,
) -> Dict[str, Any]:
    """Measure the overlay engine; returns the ``BENCH_overlay`` report.

    The small (event-feasible) workload is replayed three times -- event
    reference, columnar, columnar at a different worker count -- and
    every observable is compared.  ``record_reach=True`` on the timed
    comparison runs makes the battery cover per-node reach depths; the
    extra bookkeeping burdens only the columnar side, so the reported
    speedup is conservative.  The scale run then sizes the columnar
    engine alone at ``scale_peers`` steady-state peers.
    """
    config = config or OverlayConfig()
    report: Dict[str, Any] = {
        "scale": {
            "event_peers": event_peers,
            "event_run_seconds": event_run_seconds,
            "scale_peers": scale_peers,
            "scale_run_seconds": scale_run_seconds,
            "jobs": jobs,
            "seed": seed,
            "delta_seconds": config.delta_seconds,
            "ttl": config.ttl,
        },
        "host": host_block(),
        "runs": {},
    }

    small = overlay_workload(event_peers, event_run_seconds, seed=seed)
    event = _timed_run(
        small, event_run_seconds, config, "event", record_reach=True
    )
    columnar = _timed_run(
        small, event_run_seconds, config, "columnar", jobs=1, record_reach=True
    )
    sharded = simulate_workload(
        small,
        event_run_seconds,
        config=config,
        backend="columnar",
        jobs=max(2, jobs),
        record_reach=True,
    )
    checks = compare_runs(columnar, event)
    battery_ok = checks.pop("ok")
    jobs_checks = compare_runs(columnar, sharded)
    jobs_identical = jobs_checks.pop("ok")
    report["runs"]["event_small"] = _run_block(event)
    report["runs"]["columnar_small"] = _run_block(columnar)
    report["equivalence"] = {
        "checks": checks,
        "jobs_checks": jobs_checks,
        "jobs_identical": jobs_identical,
        "all_identical": battery_ok and jobs_identical,
    }
    report["speedup"] = {
        "messages_per_second_event": round(event.messages_per_second, 1),
        "messages_per_second_columnar": round(columnar.messages_per_second, 1),
        "speedup": round(
            columnar.messages_per_second / max(event.messages_per_second, 1e-9),
            2,
        ),
    }

    big = overlay_workload(scale_peers, scale_run_seconds, seed=seed)
    at_scale = _timed_run(big, scale_run_seconds, config, "columnar", jobs=jobs)
    report["runs"]["columnar_scale"] = _run_block(at_scale)

    peak = round(peak_rss_mb(), 1)
    report["host"]["peak_rss_mb"] = peak
    report["budget"] = {
        "peak_rss_mb": peak,
        "rss_budget_mb": rss_budget_mb,
        "within_budget": bool(peak <= rss_budget_mb),
    }
    return report
