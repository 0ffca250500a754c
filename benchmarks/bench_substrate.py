"""Substrate performance benchmarks: synthesis, generation, and flooding.

These time the building blocks themselves (not a paper artifact):

* trace synthesis throughput, sequential and sharded (connections/second
  of wall time),
* warm trace-cache reads vs. fresh synthesis,
* Fig. 12 generator throughput (sessions/second of wall time),
* overlay query flooding cost as a function of TTL.

``SUBSTRATE_DAYS`` scales the synthesis benchmarks (default 0.5 -- large
enough that the sharded run is measured above process-spawn noise, which
dominates below ~0.1 days; the acceptance measurements in
docs/METHODOLOGY.md were taken at 2.0), and ``SUBSTRATE_JOBS`` sets the
sharded worker count (default 4).  The run also emits
``BENCH_substrate.json`` at the repo root via the same reporting path as
the tier-1 smoke test; each run entry records the window it was measured
at, so reports from different scales cannot be confused.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.core import SyntheticWorkloadGenerator
from repro.gnutella import OverlayNetwork
from repro.synthesis import (
    SynthesisConfig,
    TraceCache,
    TraceSynthesizer,
    load_or_synthesize_sharded,
)
from repro.synthesis.bench import measure_substrate, write_bench_report

from conftest import run_and_render  # noqa: F401

SUBSTRATE_DAYS = float(os.environ.get("SUBSTRATE_DAYS", "0.5"))
SUBSTRATE_JOBS = int(os.environ.get("SUBSTRATE_JOBS", "4"))


def _config(**overrides):
    base = dict(days=SUBSTRATE_DAYS, mean_arrival_rate=0.3, seed=77)
    base.update(overrides)
    return SynthesisConfig(**base)


def test_synthesis_throughput(benchmark):
    config = _config()

    def run():
        return TraceSynthesizer(config).run()

    trace = benchmark.pedantic(run, rounds=3, iterations=1)
    print(f"\n  synthesized {trace.n_connections} connections, "
          f"{trace.hop1_query_count()} hop-1 queries per round")
    assert trace.n_connections > 100


def test_sharded_synthesis_throughput(benchmark):
    config = _config(jobs=SUBSTRATE_JOBS)

    def run():
        return TraceSynthesizer(config).run()

    trace = benchmark.pedantic(run, rounds=3, iterations=1)
    print(f"\n  synthesized {trace.n_connections} connections across "
          f"{SUBSTRATE_JOBS} shards per round")
    assert trace.n_connections > 100


def test_cache_warm_read(benchmark, tmp_path):
    config = _config()
    cache = TraceCache(tmp_path / "cache")
    load_or_synthesize_sharded(config, cache=cache)  # populate outside the timer

    def run():
        return load_or_synthesize_sharded(config, cache=cache)

    trace = benchmark.pedantic(run, rounds=3, iterations=1)
    print(f"\n  loaded {trace.n_connections} connections from warm cache per round")
    assert trace.n_connections > 100


def test_emit_substrate_report(tmp_path):
    """Full substrate measurement + BENCH_substrate.json emission."""
    report = measure_substrate(
        days=SUBSTRATE_DAYS, jobs=(1, SUBSTRATE_JOBS), cache_dir=tmp_path / "cache"
    )
    path = write_bench_report(
        report, Path(__file__).resolve().parent.parent / "BENCH_substrate.json"
    )
    print(f"\n  report written to {path}")
    for label, run in report["runs"].items():
        print(f"  {label}: {run['connections_per_second']} conn/s ({run['seconds']} s)")


def test_generator_throughput(benchmark):
    def run():
        return SyntheticWorkloadGenerator(n_peers=200, seed=5).generate(3600.0)

    sessions = benchmark.pedantic(run, rounds=3, iterations=1)
    print(f"\n  generated {len(sessions)} sessions per round")
    assert sessions


def test_flood_cost_by_ttl(benchmark):
    net = OverlayNetwork(n_ultrapeers=60, n_leaves=180, ultrapeer_degree=5, seed=13)
    net.seed_libraries([f"song {i}" for i in range(500)], mean_files=10)
    origins = [i for i, n in net.nodes.items() if n.is_ultrapeer][:5]

    def flood_all():
        rows = []
        for ttl in (1, 2, 4, 7):
            outcomes = [
                net.flood_query(origin, f"song {k}", ttl=ttl)
                for k, origin in enumerate(origins)
            ]
            rows.append((
                ttl,
                sum(o.messages_sent for o in outcomes) / len(outcomes),
                sum(o.reach for o in outcomes) / len(outcomes),
            ))
        return rows

    rows = benchmark.pedantic(flood_all, rounds=1, iterations=1)
    print("\n  TTL  avg messages  avg peers reached")
    for ttl, messages, reach in rows:
        print(f"  {ttl:3d}  {messages:12.1f}  {reach:17.1f}")
    # Flooding cost grows with TTL until the network is saturated.
    assert rows[-1][1] >= rows[0][1]
